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
from reference_poly import reference_compile

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


def test_eval_exact_requires_rational_point():
    with pytest.raises(ValueError):
        Z.eval_exact(Point4(0.0, 0.0, 1.0, 0.0))


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


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point4(float("nan"), 0.0, 0.0, 0.0)


def test_point_rationality():
    assert Point4(0, Fraction(1, 2), 1, 0).is_rational
    assert not Point4(0.5, 0, 0, 0).is_rational


@st.composite
def polys(draw, max_terms=5, max_degree=3):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        expo = tuple(draw(st.integers(0, max_degree)) for _ in range(4))
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 4))
        terms[expo] = terms.get(expo, Fraction(0)) + Fraction(num, den)
    return SparsePoly(terms)


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
