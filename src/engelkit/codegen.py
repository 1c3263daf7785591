"""Straight-line float kernels generated from Python source.

The float evaluators of polynomials, the right-hand sides of the
characteristic and variational flows, and the Dormand-Prince trial step
are written out as straight-line Python source and turned into functions
with ``exec``.  They do the arithmetic of the loops they replace in the
same order, so their results are equal bit for bit; they only drop the
interpreted overhead of the loops.

The generators interpolate nothing but ``repr(float(c))`` of exact
coefficients, integer exponents and fixed names.  Kernels are built on
first use and cached by their source text.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable

_GLOBALS = {"inf": math.inf, "isfinite": math.isfinite, "sqrt": math.sqrt}


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
