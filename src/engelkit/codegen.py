"""Straight-line float kernels generated from Python source.

The float evaluators of polynomials, the right-hand sides of the
characteristic and variational flows, and the Dormand-Prince loops that
step them are written out as straight-line Python source and turned into
functions with ``exec``.  They do the arithmetic of the loops they
replace in the same order, so their results are equal bit for bit; they
only drop the interpreted overhead of the loops.

A field's rhs carries its own Dormand-Prince loop, generated from the
same body (:func:`rhs_source`), whose stages call no function; any other
rhs is stepped by the same generator with a body that calls it
(:func:`loop_source`).  The loop runs the whole integration: step-size
control, stages, the finiteness test, the error norm, dense samples and
the stop test, with no Python call per trial step.  A pass kernel
(:func:`pass_source`) wraps the same loop in a segment loop, so one call
integrates a whole piecewise-constant control.  The generators
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
# Shampine's quartic continuous extension of the pair (Hairer, Norsett and
# Wanner, Solving ODEs I, II.6): within an accepted step from (t, y) of
# size h with stages K, y(t + theta h) = y + h K^T _P [theta, ..., theta^4].
_P = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
# Step-size control: the next step is the last one times _SAFETY * err **
# -0.2, kept within [_MIN_FACTOR, _MAX_FACTOR].
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0

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


def rhs_source(state: Sequence[str], body: Sequence[str], values: Sequence[str]) -> str:
    """Source of ``rhs(t, q)``, which unpacks q into the names ``state``,
    runs the ``body`` statements and returns the tuple of ``values``, with
    its Dormand-Prince loop (:func:`loop_source`) set as ``rhs.rk45_loop``."""
    rhs = function_source(
        "rhs(t, q)", [f"{tuple_source(state)} = q", *body, f"return {tuple_source(values)}"]
    )
    return f"{rhs}{loop_source(state, body, values)}rhs.rk45_loop = rk45_loop\n"


def loop_source(state: Sequence[str], body: Sequence[str], values: Sequence[str]) -> str:
    """Source of ``rk45_loop(rhs, _t, _t1, _y, _h, _rtol, _atol,
    _max_steps, _h_floor, _stop, _pending, _sampled, _times, _states)``,
    the loop of ``flow.adaptive_rk45`` for the rhs that binds the time to
    ``t`` and the state to the names ``state``, one per entry, runs the
    ``body`` statements and has the value ``values[j]`` in entry j.

    It steps from (_t, _y) towards _t1, trying _h first.  One emitter
    writes all seven stages: each binds only the names that body and
    values read and runs them inline, so the loop calls ``rhs`` only where
    the body does.  Its own names start with ``_``, but for ``rhs``;
    stages and sums go in tableau order.  It appends each accepted step to
    _times and _states and writes _sampled[i] for each (s, i) it pops off
    _pending, which is sorted in decreasing order behind an (inf, -1)
    sentinel.  It returns (status, t, h, accepted, rejected, h_min);
    status is None when it reached _t1 or ``_stop(t, y)`` held at an
    accepted step, else "budget", "underflow" or "non-finite" (an
    underflow while non-finite trials were being rejected).

    A trial step is non-finite when a stage overflows or one of the 8n
    values of its stages and new state is not.  The test reads one sum
    first, of the error norm's squares, k2 and the new state, and the
    values one by one only when that sum is not finite.  It is exact: a
    norm entry weighs k1 and k3 to k7 by nonzero factors, times h >= 0,
    over a scale that is positive (inf included) or NaN, so an inf or NaN
    among them makes its square inf or NaN, and the sum with it; k2 and
    the new state are terms.  A sum of finite floats is finite or, past
    the float range, ±inf, never NaN.  The norm, needed anyway, and 2n
    additions so stand for a call of ``isfinite`` per value.
    """
    counters = "_t, _h, _accepted, _rejected, _h_min"
    record = [
        "_times.append(_t)",
        "_states.append(_y_new)",
        "_accepted += 1",
        "if _stop is not None and _stop(_t, _y_new):",
        f"    return None, {counters}",
    ]
    lines = [
        f"{tuple_source(numbered_names('_y', len(state)))} = _y",
        *_step_lines(state, body, values, counters, "pending", range(len(state)), record),
        f"return None, {counters}",
    ]
    signature = ("rk45_loop(rhs, _t, _t1, _y, _h, _rtol, _atol, _max_steps, _h_floor, _stop, "
                 "_pending, _sampled, _times, _states)")
    return function_source(signature, lines)


def pass_source(
    name: str,
    inputs: Sequence[str],
    state: Sequence[str],
    body: Sequence[str],
    values: Sequence[str],
    restart: Sequence[float],
    kept: Sequence[int] | None,
    keep_steps: bool,
) -> str:
    """Source of ``name(_u, _y, _rtol, _atol, _max_steps, _h_floor,
    _samples, _sampled, _times, _states, _counts)``, which runs the loop of
    :func:`loop_source` on (state, body, values) over every segment of a
    piecewise-constant input in one call.

    Segment j of the n rows of ``_u`` binds the names ``inputs`` to row j
    and runs from t = j / n to (j + 1) / n, as ``flow.adaptive_rk45``
    would: the same span check against the floor, counters and budget
    per segment, and the first stage taken afresh.  Its state is the q
    that ``_y`` (the leading entries) or segment j - 1 ended with, and
    the entries after q restart at the float literals ``restart``.  Its
    first trial step is the step segment j - 1 ended with; segment 0's is
    the default of ``flow.adaptive_rk45``, 1 % of the span but at least
    1e-6.  Each segment appends (accepted, rejected) to _counts and its
    end state to _states, or, with ``keep_steps``, every accepted time and
    state to _times and _states.  With ``kept``, ``_samples[j]`` (None for
    no samples) holds segment j's sample times in ascending order, and
    the dense sample of the entries ``kept`` at each is appended to
    _sampled.  It returns (status, j, t, h, accepted, rejected, h_min) of
    the last segment it ran, j its index; status is None when it reached
    t = 1, "span" when segment j is shorter than the floor (no step
    taken), else the loop's failure.
    """
    y = numbered_names("_y", len(state))
    restarted = len(state) - len(restart)
    counters = "_j, _t, _h, _accepted, _rejected, _h_min"
    record = ["_times.append(_t)", "_states.append(_y_new)"] if keep_steps else []
    lines = [
        f"{tuple_source(y[:restarted])} = _y",
        "_segments = len(_u)",
        f"for _j, {tuple_source(inputs)} in enumerate(_u):",
        "    _t = _j / _segments",
        "    _t1 = (_j + 1) / _segments",
        "    _span = _t1 - _t",
        "    if _span < _h_floor * (_t if _t > 1.0 else -_t if _t < -1.0 else 1.0):",
        "        return 'span', _j, _t, 0.0, 0, 0, inf",
        "    if _j == 0:",
        "        _h = min(_span, max(1e-06, 0.01 * _span))",
        *(f"    {entry} = {float(value)!r}" for entry, value in zip(y[restarted:], restart)),
    ]
    if kept is not None:
        lines += [
            "    _S = () if _samples is None else _samples[_j]",
            "    _p = 0",
            "    _s = _S[0] if _S else inf",
        ]
    sampling = None if kept is None else "ascending"
    lines += [
        *(f"    {line}" for line in _step_lines(
            state, body, values, counters, sampling, kept, [*record, "_accepted += 1"]
        )),
        "    _counts.append((_accepted, _rejected))",
        *([] if keep_steps else ["    _states.append(_y_new)"]),
        f"return None, {counters}",
    ]
    signature = (f"{name}(_u, _y, _rtol, _atol, _max_steps, _h_floor, _samples, _sampled, "
                 "_times, _states, _counts)")
    return function_source(signature, lines)


def _step_lines(
    state: Sequence[str],
    body: Sequence[str],
    values: Sequence[str],
    counters: str,
    sampling: str | None,
    kept: Sequence[int] | None,
    record: Sequence[str],
) -> list[str]:
    """The first stage from (_t, the _y entries) and the step loop towards
    _t1, shared by :func:`loop_source` and :func:`pass_source`; every
    return gives the status, then ``counters``.

    An accepted step first writes the dense samples of the entries
    ``kept`` that it covers: popped off _pending into _sampled[i] when
    ``sampling`` is "pending"; appended to _sampled when it is
    "ascending", with _s the next of the ascending times _S and _p its
    index (inf past the last); none when it is None.  It then moves to
    its new state and runs the ``record`` lines.
    """
    n = len(state)
    read = set(_NAME.findall(" ".join([*body, *values])))
    y, y_new = numbered_names("_y", n), numbered_names("_n", n)
    k = {s: numbered_names(f"_k{s}_", n) for s in range(1, 8)}

    def stage(s: int, t: str, entries: Sequence[str]) -> list[str]:
        """Stage s at time t on the state entries, stored as k[s]."""
        binds = zip(["t", *state], [t, *entries])
        # Each entry is stored as it is evaluated: no value reads a stage
        # name, and a stage that raises is dropped whole.
        return [*(f"{name} = {e}" for name, e in binds if name in read), *body,
                *(f"{name} = {e}" for name, e in zip(k[s], values))]

    stages = []
    for s in range(2, 7):
        stages += stage(s, f"_t + {_C[s - 1]!r} * _h", [
            f"{y[j]} + _h * ({linear_source(zip(_A[s - 1], (k[i][j] for i in range(1, s))))})"
            for j in range(n)
        ])
    # The last stage is evaluated at the propagated solution itself; _B5
    # weighs k2 and k7 by zero, so linear_source leaves them out.
    stages += [
        f"{y_new[j]} = {y[j]} + _h * ({linear_source(zip(_B5, (k[i][j] for i in k)))})"
        for j in range(n)
    ]
    stages += [f"_y_new = {tuple_source(y_new)}", *stage(7, "_t_new", y_new)]
    all_values = [*(v for s in k for v in k[s]), *y_new]
    # (_b if _b > _a else _a) is max(_a, _b) as the builtin evaluates it.
    # The sign is dropped without a call of abs: that differs from abs only
    # at -0.0 and NaN, which the scale reads only where both are zeros (and
    # atol + rtol * -0.0 == atol) or the step is non-finite.
    norm = []
    for j in range(n):
        norm += [
            f"_a = {y[j]} if {y[j]} >= 0.0 else -{y[j]}",
            f"_b = {y_new[j]} if {y_new[j]} >= 0.0 else -{y_new[j]}",
            f"_e{j} = _h * ({linear_source(zip(_ERR, (k[i][j] for i in k)))}) / "
            "(_atol + _rtol * (_b if _b > _a else _a))",
        ]
    squares = " + ".join(["0.0", *(f"_e{j} * _e{j}" for j in range(n))])
    # _P weighs k2 by zero.
    dense = {s: [repr(float(p)) for p in _P[s - 1]] for s in (1, 3, 4, 5, 6, 7)}
    samples: list[str] = []
    if sampling is not None:
        sample = tuple_source(
            f"{y[j]} + _h * ({' + '.join(f'_d{s} * {k[s][j]}' for s in dense)})" for j in kept
        )
        coefficients = ["_th = (_s - _t) / _h", *(
            f"_d{s} = _th * ({p1} + _th * ({p2} + _th * ({p3} + _th * {p4})))"
            for s, (p1, p2, p3, p4) in dense.items()
        )]
    if sampling == "pending":
        samples = [
            "while _pending[-1][0] <= _t_new:",
            "    _s, _i = _pending.pop()",
            "    if _s == _t_new:",
            "        _sampled[_i] = _y_new",
            "        continue",
            *(f"    {line}" for line in coefficients),
            f"    _sampled[_i] = {sample}",
        ]
    elif sampling == "ascending":
        samples = [
            "while _s <= _t_new:",
            "    if _s == _t_new:",
            f"        _sampled.append({tuple_source(y_new[j] for j in kept)})",
            "    else:",
            *(f"        {line}" for line in coefficients),
            f"        _sampled.append({sample})",
            "    _p += 1",
            "    _s = _S[_p] if _p < len(_S) else inf",
        ]
    # min(_MAX_FACTOR, max(_MIN_FACTOR, factor)) and max(_h, _proposal) as
    # the builtins evaluate them, without their calls.
    return [
        "try:",
        *(f"    {line}" for line in stage(1, "_t", y)),
        "except OverflowError:",
        f"    {' = '.join(k[1])} = inf",
        "_accepted = _rejected = 0",
        "_h_min = inf",
        "_non_finite = False",
        "while _t < _t1:",
        "    if _accepted + _rejected >= _max_steps:",
        f"        return 'budget', {counters}",
        "    _proposal = _h",
        # Stretch a step that would stop just short of t1 (Hairer-Norsett-
        # Wanner's 1.01 rule), so no sliver step is left.
        "    _clipped = _t + 1.01 * _h >= _t1",
        "    if _clipped:",
        "        _h = _t1 - _t",
        # max(1.0, abs(_t)) as the builtins evaluate it on a finite _t.
        "    if _h < _h_floor * (_t if _t > 1.0 else -_t if _t < -1.0 else 1.0):",
        f"        return 'non-finite' if _non_finite else 'underflow', {counters}",
        "    if _h < _h_min:",
        "        _h_min = _h",
        "    _t_new = _t1 if _clipped else _t + _h",
        "    try:",
        *(f"        {line}" for line in stages),
        "    except OverflowError:",
        "        _finite = False",
        "    else:",
        *(f"        {line}" for line in norm),
        f"        _squares = {squares}",
        f"        _finite = isfinite({' + '.join(['_squares', *k[2], *y_new])}) "
        f"or all(map(isfinite, {tuple_source(all_values)}))",
        # A rejection sets _non_finite: it names the cause of a later underflow.
        "    if not _finite:",
        "        _rejected += 1",
        "        _non_finite = True",
        # The factor at an error norm of inf.
        f"        _h *= {_MIN_FACTOR!r}",
        "        continue",
        f"    _err = sqrt(_squares / {n})",
        "    if _err <= 1.0:",
        *(f"        {line}" for line in samples),
        "        _t = _t_new",
        f"        {tuple_source(y)} = _y_new",
        *(f"        {k[1][j]} = {k[7][j]}" for j in range(n)),
        *(f"        {line}" for line in record),
        f"        _f = {_MAX_FACTOR!r} if _err == 0.0 else {_SAFETY!r} * _err ** -0.2",
        f"        _h *= {_MAX_FACTOR!r} if _f >= {_MAX_FACTOR!r} "
        f"else _f if _f > {_MIN_FACTOR!r} else {_MIN_FACTOR!r}",
        # The clip was set by t1, not by the error: carry on from the step
        # the controller had proposed.
        "        if _clipped and _proposal > _h:",
        "            _h = _proposal",
        "    else:",
        "        _rejected += 1",
        "        _non_finite = False",
        f"        _f = {_SAFETY!r} * _err ** -0.2",
        f"        _h *= _f if _f > {_MIN_FACTOR!r} else {_MIN_FACTOR!r}",
    ]
