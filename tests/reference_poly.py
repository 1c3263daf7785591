"""Reference evaluators of a polynomial for the tests: loops over the terms.

``reference_compile`` walks the terms in exponent order and, for each,
multiplies the float coefficient by each nonzero power ``c**e`` of a
coordinate, summing onto 0.0.  ``SparsePoly.compile`` generates
straight-line code for the same operations, so the two must agree bit for
bit and raise OverflowError on the same inputs.

``reference_eval_exact`` is the exact value as a sum of ``Fraction`` terms,
each the coefficient times the powers of the coordinates of
``point.as_fractions()``.  ``SparsePoly.eval_exact`` works in integers over
the point's common denominator instead, so the two must return the same
Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from engelkit.poly import Point4, SparsePoly


def reference_eval_exact(poly: SparsePoly, point: Point4) -> Fraction:
    coords = point.as_fractions()
    total = Fraction(0)
    for expo, coeff in poly.terms.items():
        term = coeff
        for c, e in zip(coords, expo):
            if e:
                term *= c**e
        total += term
    return total


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
