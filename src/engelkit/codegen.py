"""Straight-line float kernels generated from Python source.

The float evaluators of polynomials, the right-hand sides of the
characteristic and variational flows, and the Dormand-Prince trial steps
are written out as straight-line Python source and turned into functions
with ``exec``.  They do the arithmetic of the loops they replace in the
same order, so their results are equal bit for bit; they only drop the
interpreted overhead of the loops.

A field's rhs carries its own trial step, generated from the same body
(:func:`rhs_source`); any other rhs is stepped by the one generator with a
body that calls it.  A trial step rejects a step with a value that is
not finite.  It tests the sum of its stages and new state first, and the
values one by one only when that sum is not finite: a sum of finite
floats is never NaN, and is ±inf only past the float range, so the
verdict is the per-value test's (:func:`step_source`).  The generators
interpolate nothing but ``repr(float(c))`` of exact coefficients,
integer exponents and fixed names.  Kernels are built on first use and
kept in :func:`kernel`'s one cache of 256 sources.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Callable, Iterable, Sequence

_GLOBALS = {"inf": math.inf, "isfinite": math.isfinite, "sqrt": math.sqrt}

# Dormand-Prince embedded pair: 5th-order propagated solution, 4th-order
# embedded solution for the local error estimate.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_ERR = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

# A name not preceded by a word character: "e" in the literal 1e-05 is not one.
_NAME = re.compile(r"\b[A-Za-z_]\w*")


@lru_cache(maxsize=256)
def kernel(source: str, name: str) -> Callable:
    """The function ``name`` defined by ``source``, built once per source."""
    namespace: dict = {}
    exec(compile(source, f"<engelkit kernel {name}>", "exec"), dict(_GLOBALS), namespace)
    return namespace[name]


def function_source(signature: str, body: Iterable[str]) -> str:
    """Source of ``def signature:`` with one statement per body line."""
    return "".join([f"def {signature}:\n", *(f"    {line}\n" for line in body)])


def tuple_source(items: Iterable[str]) -> str:
    """A tuple display of the given expressions (a 1-tuple keeps its comma)."""
    return "(" + "".join(f"{item}, " for item in items).rstrip(" ") + ")"


def linear_source(terms: Iterable[tuple[float, str]]) -> str:
    """``c1 * v1 + c2 * v2 + ...`` left to right, each coefficient a float
    literal; terms with a zero coefficient are left out."""
    return " + ".join(f"{float(c)!r} * {v}" for c, v in terms if c != 0.0)


def numbered_names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{j}" for j in range(n)]


def rhs_source(state: Sequence[str], body: Sequence[str], value: str) -> str:
    """Source of ``rhs(t, q)``, which unpacks q into the names ``state``,
    runs the ``body`` statements and returns the tuple ``value``, with its
    fused trial step (:func:`step_source`) set as ``rhs.trial_step``."""
    rhs = function_source("rhs(t, q)", [f"{tuple_source(state)} = q", *body, f"return {value}"])
    return f"{rhs}{step_source(len(state), state, body, value)}rhs.trial_step = trial_step\n"


def step_source(n: int, state: str | Sequence[str], body: Sequence[str], value: str) -> str:
    """Source of ``trial_step(rhs, t, h, t_new, y, k1, rtol, atol)`` on
    n-entry states for the rhs that runs ``body`` and returns ``value`` at
    time ``t`` on the state names ``state`` (one name: the whole tuple).

    Each stage binds only the names that body and value read, then runs
    them inline; the step's own names start with ``_``, but for ``rhs``.
    Stages and sums go in tableau order.  It returns (y_new, k3, k4, k5,
    k6, k7, err, non_finite); err = inf and non_finite = True, the rest
    None, when a stage overflows or a stage or y_new is not finite.

    The finiteness test reads the sum of those 8n values first and tests
    them one by one only when the sum is not finite.  It is exact: a sum
    of finite floats is finite or, past the float range, ±inf, never NaN,
    and an inf or NaN term makes the sum inf or NaN.  So a step whose
    values are all finite passes either way, and one with an inf or NaN
    value fails either way.  One addition per value then stands for a
    call of ``isfinite`` per value on every step that passes.
    """
    read = set(_NAME.findall(" ".join([*body, value])))
    y, y_new = numbered_names("_y", n), numbered_names("_n", n)
    k = {s: numbered_names(f"_k{s}_", n) for s in range(1, 8)}
    lines = [f"{tuple_source(y)} = _y", f"{tuple_source(k[1])} = _k1", "try:"]
    for s in range(2, 8):
        if s < 7:
            entries = [
                f"{y[j]} + _h * ({linear_source(zip(_A[s - 1], (k[i][j] for i in range(1, s))))})"
                for j in range(n)
            ]
            t, whole = f"_t + {_C[s - 1]!r} * _h", tuple_source(entries)
        else:
            # The last stage is evaluated at the propagated solution itself;
            # _B5 weighs k2 and k7 by zero, so linear_source leaves them out.
            lines += [
                f"    {y_new[j]} = {y[j]} + _h * ({linear_source(zip(_B5, (k[i][j] for i in k)))})"
                for j in range(n)
            ]
            lines.append(f"    _y_new = {tuple_source(y_new)}")
            entries, t, whole = y_new, "_t_new", "_y_new"
        binds = [f"t = {t}", *(
            [f"{state} = {whole}"] if isinstance(state, str)
            else (f"{name} = {e}" for name, e in zip(state, entries))
        )]
        lines += [f"    {line}" for line in binds if line.split(" = ")[0] in read]
        lines += [f"    {line}" for line in [*body, f"_k{s} = {value}"]]
        lines.append(f"    {tuple_source(k[s])} = _k{s}")
    values = [*(v for s in k for v in k[s]), *y_new]
    lines += [
        "except OverflowError:",
        "    return None, None, None, None, None, None, inf, True",
        f"if not isfinite({' + '.join(values)}) "
        f"and not all(map(isfinite, {tuple_source(values)})):",
        "    return None, None, None, None, None, None, inf, True",
    ]
    # (_b if _b > _a else _a) is max(_a, _b) as the builtin evaluates it.
    for j in range(n):
        lines += [
            f"_a = abs({y[j]})",
            f"_b = abs({y_new[j]})",
            f"_e{j} = _h * ({linear_source(zip(_ERR, (k[i][j] for i in k)))}) / "
            "(_atol + _rtol * (_b if _b > _a else _a))",
        ]
    squares = " + ".join(["0.0", *(f"_e{j} * _e{j}" for j in range(n))])
    lines.append(f"return _y_new, _k3, _k4, _k5, _k6, _k7, sqrt(({squares}) / {n}), False")
    return function_source("trial_step(rhs, _t, _h, _t_new, _y, _k1, _rtol, _atol)", lines)
