import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelkit.charfield import ORACLE, char_field
from engelkit.codegen import kernel
from engelkit.distribution import CATALOG
from engelkit.poly import Point4, SparsePoly, VARS, random_poly
from reference_poly import (
    reference_add,
    reference_compile,
    reference_diff,
    reference_eval_exact,
    reference_mul,
    reference_neg,
    reference_rsub,
    reference_sub,
    reference_subs,
)

X = SparsePoly.var("x")
Y = SparsePoly.var("y")
Z = SparsePoly.var("z")
W = SparsePoly.var("w")


def test_zero_is_empty_map():
    assert SparsePoly.zero().terms == {}
    assert (Z * 0).is_zero()


def test_add_additive_inverse():
    assert (Z**2 + (-(Z**2))).is_zero()


def test_add_disjoint_supports():
    p = Z**2 + Z * W
    assert p.terms == {(0, 0, 2, 0): 1, (0, 0, 1, 1): 1}


def test_add_merges_coefficients():
    p = (Z**2 + Z * W) + Z * W
    assert p.terms == {(0, 0, 2, 0): 1, (0, 0, 1, 1): 2}


def test_mul_basic():
    assert (Z * Z).terms == {(0, 0, 2, 0): 1}
    assert ((Z + W) * (Z - W)) == Z**2 - W**2
    assert (SparsePoly.zero() * (Z + 3)).is_zero()


def test_no_zero_terms_survive_any_operation():
    p = 2 * Z * W - Z * W - Z * W + X
    assert p == X
    assert all(c != 0 for c in p.terms.values())


def test_diff_examples():
    assert (Z**2).diff("z") == 2 * Z
    cubic = SparsePoly({(0, 0, 3, 0): Fraction(1, 3), (0, 0, 1, 2): 1})
    assert cubic.diff("w") == 2 * Z * W
    assert (Z * W).diff("x").is_zero()


def test_eval_examples():
    assert (Z**2 + W**2).eval(Point4(0, 0, 1, 1)) == 2.0
    assert (Z * W).eval(Point4(5, 7, 0, 3)) == 0.0
    cubic = SparsePoly({(0, 0, 3, 0): Fraction(1, 3), (0, 0, 1, 2): 1})
    assert cubic.eval_exact(Point4(0, 0, 1, 1)) == Fraction(4, 3)


def test_eval_exact_reads_a_float_at_its_decimal_value():
    # 0.1 is 1/10, not the binary 3602879701896397/2**55
    assert Z.eval_exact(Point4(0.0, 0.0, 0.1, 0.0)) == Fraction(1, 10)
    assert Point4(0.5, -1e50, 2, Fraction(1, 3)).as_fractions() == (
        Fraction(1, 2), Fraction(-(10**50)), Fraction(2), Fraction(1, 3)
    )


def test_powers_are_integer_numerators_over_each_coordinates_own_denominator():
    q = Point4(0.5, -1e50, 2, Fraction(1, 3))
    tables = q.powers()
    assert q.powers() is tables  # built once per point
    coords, by_degrees = tables
    assert [rows[1] for rows in coords] == [[2, 1], [1, -(10**50)], [1, 2], [3, 1]]  # [d, p]
    cubic = SparsePoly({(0, 0, 3, 0): Fraction(1, 3), (0, 0, 1, 2): Fraction(1, 2)})
    # value 8/3 + 1/9 = 25/9 over den 6 * 1^3 * 3^2 = 54, degrees 3 in z and 2 in w
    assert cubic.eval_integer(tables) == (150, 54)
    assert by_degrees[0, 0, 3, 2] == ([1], [1], [1, 2, 4, 8], [9, 3, 1])  # p^e d^(m-e)
    assert cubic.eval_exact(q) == Fraction(25, 9)
    assert SparsePoly.zero().eval_integer(tables) == (0, 1)


def test_subs_restricts_variable():
    p = Z**2 * W + X * W + W
    assert p.subs("w", 0) == SparsePoly.zero()  # every term carries w
    q = Z**2 + X
    assert q.subs("z", 2) == X + 4
    assert q.subs("w", 5) == q


def test_pow_and_scalar_ops():
    assert (Z + 1) ** 2 == Z**2 + 2 * Z + 1
    assert Fraction(1, 2) * (2 * Z) == Z


def test_json_roundtrip_with_rationals():
    p = SparsePoly({(0, 0, 3, 0): Fraction(1, 3), (1, 0, 0, 2): -2})
    encoded = p.to_json()
    assert ["-2", [1, 0, 0, 2]] not in encoded  # integers stay numbers
    assert SparsePoly.from_json(encoded) == p
    assert any(isinstance(c, str) and "/" in c for c, _ in encoded)


def test_json_accepts_decimal_floats():
    p = SparsePoly.from_json([[0.5, [0, 0, 2, 0]]])
    assert p == SparsePoly({(0, 0, 2, 0): Fraction(1, 2)})


def test_repr_is_readable():
    assert repr(SparsePoly.zero()) == "0"
    assert "z^2" in repr(Z**2)
    p = SparsePoly({(0, 0, 2, 0): Fraction(-1, 2), (1, 0, 0, 0): 1, (0, 0, 0, 0): Fraction(4, 6),
                    (0, 1, 0, 1): -1, (2, 0, 1, 0): -3, (0, 0, 0, 3): Fraction(5, 3)})
    assert repr(p) == "2/3 + x - 1/2*z^2 - y*w + 5/3*w^3 - 3*x^2*z"
    assert repr(SparsePoly.const(Fraction(-7, 4))) == "-7/4"


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point4(float("nan"), 0.0, 0.0, 0.0)


def test_point_rationality():
    assert Point4(0, Fraction(1, 2), 1, 0).is_rational
    assert not Point4(0.5, 0, 0, 0).is_rational


@st.composite
def term_maps(draw, max_terms=5, max_degree=3):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        expo = tuple(draw(st.integers(0, max_degree)) for _ in range(4))
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 4))
        terms[expo] = terms.get(expo, Fraction(0)) + Fraction(num, den)
    return terms


def polys(max_terms=5, max_degree=3):
    return term_maps(max_terms, max_degree).map(SparsePoly)


# the zero polynomial and constants are drawn on their own as well
OPERANDS = st.one_of(
    polys(),
    st.fractions(max_denominator=12).map(SparsePoly.const),
    st.just(SparsePoly.zero()),
)
SCALARS = st.one_of(st.integers(-5, 5), st.fractions(max_denominator=12))


def _assert_canonical(p):
    # one positive denominator; int numerators, none zero, sharing no
    # factor with it (so the zero polynomial is the empty map over 1)
    assert type(p._den) is int and p._den > 0
    assert all(type(n) is int and n for n in p._nums.values())
    assert math.gcd(p._den, *p._nums.values()) == 1


@settings(max_examples=100, deadline=None)
@given(term_maps(max_terms=6, max_degree=5))
def test_the_integer_form_holds_the_constructor_coefficients(terms):
    p = SparsePoly(terms)
    _assert_canonical(p)
    assert p.terms == {e: c for e, c in terms.items() if c}
    assert all(type(c) is Fraction for c in p.terms.values())
    # each coefficient in lowest terms, an integer as a JSON number
    assert p.to_json() == [
        [int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}", list(e)]
        for e, c in sorted(p.terms.items())
    ]


def test_constructors_accept_ints_floats_fractions_and_strings():
    half = SparsePoly({(0, 0, 2, 0): Fraction(1, 2)})
    for coeff in (0.5, "1/2", "0.5", Fraction(2, 4)):
        assert SparsePoly({(0, 0, 2, 0): coeff}) == half
        assert SparsePoly.monomial(coeff, (0, 0, 2, 0)) == half
        assert SparsePoly.const(coeff) == Fraction(1, 2)
    assert SparsePoly.const(3) == 3 and SparsePoly.const(0) == SparsePoly.zero()
    assert SparsePoly({(0, 0, 1, 0): 0, (0, 0, 0, 1): 0.0}) == SparsePoly.zero()
    _assert_canonical(SparsePoly.zero())


@settings(max_examples=200, deadline=None)
@given(OPERANDS, OPERANDS, st.sampled_from(VARS), SCALARS)
def test_integer_operations_equal_the_fraction_term_loops(a, b, v, c):
    cases = [
        (a + b, reference_add(a, b)),
        (a - b, reference_sub(a, b)),
        (-a, reference_neg(a)),
        (a * b, reference_mul(a, b)),
        (a**2, reference_mul(a, a)),
        (a.diff(v), reference_diff(a, v)),
        (a.subs(v, c), reference_subs(a, v, c)),
        (a + c, reference_add(a, c)),
        (c - a, reference_rsub(a, c)),
        (c * a, reference_mul(a, c)),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert got.terms == want.terms
        assert got == want and hash(got) == hash(want)


@settings(max_examples=150, deadline=None)
@given(OPERANDS, OPERANDS, OPERANDS)
def test_equal_polynomials_built_by_different_routes_compare_and_hash_alike(a, b, c):
    routes = [
        ((a * b) * c, a * (b * c)),
        (a + b - b, a),
        (SparsePoly.from_json(a.to_json()), a),
    ]
    for lhs, rhs in routes:
        assert lhs == rhs and hash(lhs) == hash(rhs)
        assert (lhs.to_json(), repr(lhs), lhs.float_source()) == (
            rhs.to_json(), repr(rhs), rhs.float_source()
        )


@settings(max_examples=60, deadline=None)
@given(polys(), st.sampled_from(VARS), st.sampled_from(VARS))
def test_partial_derivatives_commute(p, u, v):
    assert p.diff(u).diff(v) == p.diff(v).diff(u)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.sampled_from(VARS))
def test_leibniz_rule(a, b, u):
    assert (a * b).diff(u) == a.diff(u) * b + a * b.diff(u)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(0, 2**32 - 1))
def test_eval_is_ring_homomorphism_up_to_rounding(a, b, seed):
    rng = np.random.default_rng(seed)
    q = Point4(*(float(c) for c in rng.uniform(-2.0, 2.0, size=4)))
    lhs = (a * b).eval(q)
    rhs = a.eval(q) * b.eval(q)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_random_poly_is_deterministic_and_bounded():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    p1 = random_poly(rng1)
    p2 = random_poly(rng2)
    assert p1 == p2
    assert p1.degree() <= 3


def _outcome(fn, point):
    """The bits of fn(*point), or the OverflowError it raises."""
    try:
        return struct.pack("<d", fn(*point))
    except OverflowError:
        return OverflowError


def test_compiled_evaluator_is_bit_identical_to_the_term_loop():
    # The generated evaluator against the term loop it replaced, on signed
    # zeros and coordinates from 1e-300 to 1e150: equal bits, and an
    # OverflowError from a power past the float range on the same inputs.
    rng = np.random.default_rng(41)
    magnitudes = [0.0, 1e-300, 1e-160, 1e-50, 0.37, 1.0, 2.5, 1e50, 1e100, 1e150]
    outcomes = set()
    for _ in range(200):
        poly = random_poly(rng, max_degree=6, max_terms=8)
        fast, slow = poly.compile(), reference_compile(poly)
        for _ in range(20):
            point = tuple(
                float(rng.choice(magnitudes)) * (-1.0 if rng.random() < 0.5 else 1.0)
                for _ in range(4)
            )
            outcome = _outcome(fast, point)
            assert outcome == _outcome(slow, point), (poly, point)
            outcomes.add(outcome is OverflowError)
    assert outcomes == {False, True}


def test_kernel_cache_is_bounded_and_shared_by_equal_sources():
    maxsize = kernel.cache_info().maxsize
    for i in range(2 * maxsize):
        SparsePoly.monomial(i + 1, (i % 3, 0, 1, 0)).compile()
    assert kernel.cache_info().currsize == maxsize
    # Freshly built, equal fields give the same source: one kernel is built.
    kernel.cache_clear()
    first = char_field(CATALOG["d224"], ORACLE).compile_rhs()
    second = char_field(CATALOG["d224"], ORACLE).compile_rhs()
    assert first is second
    assert kernel.cache_info().misses == 1


def _signed_floats(lo, hi):
    return st.builds(lambda x, neg: -x if neg else x, st.floats(lo, hi), st.booleans())


COORDS = st.one_of(
    st.fractions(max_denominator=10**6).filter(lambda c: abs(c) < 10**12),
    st.integers(-(10**30), 10**30),
    _signed_floats(5e-324, 1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1e50]),
)


EVAL_POLYS = st.one_of(
    polys(max_terms=6, max_degree=7),
    st.fractions(max_denominator=100).map(SparsePoly.const),
)


@settings(max_examples=300, deadline=None)
@given(EVAL_POLYS, st.tuples(COORDS, COORDS, COORDS, COORDS))
def test_eval_exact_equals_the_fraction_term_loop(p, coords):
    # the zero polynomial, constants and degree >= 6 are all drawn; the
    # coordinates mix ints, Fractions and floats from 5e-324 to 1e300
    q = Point4(*coords)
    exact, reference = p.eval_exact(q), reference_eval_exact(p, q)
    assert exact == reference
    assert _outcome(float, (exact,)) == _outcome(float, (reference,))


@settings(max_examples=100, deadline=None)
@given(EVAL_POLYS, st.tuples(COORDS, COORDS, COORDS, COORDS))
def test_the_cached_integer_form_changes_no_observable_of_a_polynomial(p, coords):
    fresh = SparsePoly(p.terms)
    before = (p.terms, hash(p), repr(p), p.to_json())
    p.eval_exact(Point4(*coords))
    assert (p.terms, hash(p), repr(p), p.to_json()) == before
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    assert p.to_json() == fresh.to_json()
