"""Reference float evaluator of a polynomial for the tests: a loop over the
terms.

It walks the terms in exponent order and, for each, multiplies the float
coefficient by each nonzero power ``c**e`` of a coordinate, summing onto
0.0.  ``SparsePoly.compile`` generates straight-line code for the same
operations, so the two must agree bit for bit and raise OverflowError on
the same inputs.
"""

from __future__ import annotations

from engelkit.poly import SparsePoly


def reference_compile(poly: SparsePoly):
    data = [(float(c), e) for e, c in sorted(poly.terms.items())]

    def evaluate(x: float, y: float, z: float, w: float) -> float:
        total = 0.0
        for coeff, (ex, ey, ez, ew) in data:
            term = coeff
            if ex:
                term *= x**ex
            if ey:
                term *= y**ey
            if ez:
                term *= z**ez
            if ew:
                term *= w**ew
            total += term
        return total

    return evaluate
