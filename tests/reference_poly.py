"""Reference evaluators of a polynomial for the tests: loops over the terms.

``reference_compile`` walks the terms in exponent order and, for each,
multiplies the float coefficient by each nonzero power ``c**e`` of a
coordinate, summing onto 0.0.  ``SparsePoly.compile`` generates
straight-line code for the same operations, so the two must agree bit for
bit and raise OverflowError on the same inputs.

``reference_eval_exact`` is the exact value as a sum of ``Fraction`` terms,
each the coefficient times the powers of the coordinates of
``point.as_fractions()``.  ``SparsePoly.eval_exact`` works in integers over
each coordinate's denominator instead, so the two must return the same
Fraction.

``reference_add``, ``reference_neg``, ``reference_sub``, ``reference_rsub``
(b - a), ``reference_mul``, ``reference_diff`` and ``reference_subs`` are
the ring operations and the calculus as loops over ``Fraction`` term maps,
one ``Fraction`` per term, each result built by the public constructor.
``SparsePoly`` does them on its integer form (one denominator, int
numerators), so each must give an equal polynomial.  They take a scalar
wherever the operator does, so they can stand in for the dunder methods.
"""

from __future__ import annotations

from fractions import Fraction

from engelkit.poly import VARS, Point4, SparsePoly


def _terms(value) -> dict:
    poly = value if isinstance(value, SparsePoly) else SparsePoly.const(value)
    return poly.terms


def _accumulate(out: dict, expo: tuple, coeff: Fraction) -> None:
    acc = out.get(expo, Fraction(0)) + coeff
    if acc:
        out[expo] = acc
    else:
        out.pop(expo, None)


def reference_add(a, b) -> SparsePoly:
    out = _terms(a)
    for expo, coeff in _terms(b).items():
        _accumulate(out, expo, coeff)
    return SparsePoly(out)


def reference_neg(a) -> SparsePoly:
    return SparsePoly({e: -c for e, c in _terms(a).items()})


def reference_sub(a, b) -> SparsePoly:
    return reference_add(a, reference_neg(b))


def reference_rsub(a, b) -> SparsePoly:
    return reference_add(b, reference_neg(a))


def reference_mul(a, b) -> SparsePoly:
    out: dict = {}
    right = _terms(b)
    for ea, ca in _terms(a).items():
        for eb, cb in right.items():
            _accumulate(out, tuple(i + j for i, j in zip(ea, eb)), ca * cb)
    return SparsePoly(out)


def reference_diff(a: SparsePoly, name: str) -> SparsePoly:
    i = VARS.index(name)
    out = {}
    for expo, coeff in a.terms.items():
        if expo[i]:
            lowered = list(expo)
            lowered[i] -= 1
            out[tuple(lowered)] = coeff * expo[i]
    return SparsePoly(out)


def reference_subs(a: SparsePoly, name: str, value) -> SparsePoly:
    i = VARS.index(name)
    value = _terms(value).get((0, 0, 0, 0), Fraction(0))
    out: dict = {}
    for expo, coeff in a.terms.items():
        reduced = list(expo)
        reduced[i] = 0
        _accumulate(out, tuple(reduced), coeff * value ** expo[i])
    return SparsePoly(out)


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
