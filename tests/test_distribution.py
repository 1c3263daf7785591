from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from engelkit.distribution import (
    CATALOG,
    DEGENERATE_MODELS,
    PfaffianPair,
    PolyVectorField,
    engel_certificate,
    frame,
    growth_vector,
    lie_bracket,
    rational_rank,
    sigma_check,
)
from engelkit.poly import Point4, SparsePoly, random_poly

Z = SparsePoly.var("z")
W = SparsePoly.var("w")
ZERO = SparsePoly.zero()
ONE = SparsePoly.const(1)


def field(cx=ZERO, cy=ZERO, cz=ZERO, cw=ZERO):
    return PolyVectorField(cx, cy, cz, cw)


def test_frame_d224():
    _, w_field = frame(CATALOG["d224"])
    assert w_field == field(cx=-(Z**2), cy=-(Z * W), cw=ONE)


def test_frame_integrable_pair():
    _, w_field = frame(PfaffianPair(ZERO, ZERO))
    assert w_field == field(cw=ONE)


def test_frame_d2334b():
    _, w_field = frame(CATALOG["d2334b"])
    g = SparsePoly({(0, 0, 3, 0): Fraction(1, 3), (0, 0, 1, 2): 1})
    assert w_field == field(cx=-Z, cy=-g, cw=ONE)


def test_coordinate_fields_commute():
    dz = field(cz=ONE)
    dw = field(cw=ONE)
    assert lie_bracket(dz, dw).is_zero()


def test_bracket_d224():
    z_field, w_field = frame(CATALOG["d224"])
    b = lie_bracket(z_field, w_field)
    assert b == field(cx=-2 * Z, cy=-W)


def test_bracket_d2334a():
    z_field, w_field = frame(CATALOG["d2334a"])
    b = lie_bracket(z_field, w_field)
    assert b == field(cx=-ONE, cy=-2 * Z * W)


def _random_field(rng):
    return PolyVectorField(*(random_poly(rng, max_terms=3) for _ in range(4)))


def test_bracket_antisymmetry_and_jacobi():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b, c = (_random_field(rng) for _ in range(3))
        assert lie_bracket(a, b) == -1 * lie_bracket(b, a)
        jacobi = (
            lie_bracket(a, lie_bracket(b, c))
            + lie_bracket(b, lie_bracket(c, a))
            + lie_bracket(c, lie_bracket(a, b))
        )
        assert jacobi.is_zero()


def test_growth_vectors_at_origin():
    origin = Point4.origin()
    assert growth_vector(CATALOG["d224"], origin).dims == (2, 2, 4)
    assert growth_vector(CATALOG["d2334a"], origin).dims == (2, 3, 3, 4)
    assert growth_vector(CATALOG["d2334b"], origin).dims == (2, 3, 3, 4)
    assert growth_vector(CATALOG["engel_std"], origin).dims == (2, 3, 4)


def test_growth_vector_d224_off_axis_point():
    gv = growth_vector(CATALOG["d224"], Point4(0, 0, 1, 0))
    assert gv.dims == (2, 3, 4)


def test_growth_vector_float_matches_exact():
    for model in CATALOG:
        for q_exact, q_float in [
            (Point4(0, 0, 1, 0), Point4(0.0, 0.0, 1.0, 0.0)),
            (Point4(1, -1, Fraction(1, 2), Fraction(1, 4)), Point4(1.0, -1.0, 0.5, 0.25)),
        ]:
            exact = growth_vector(CATALOG[model], q_exact)
            approx = growth_vector(CATALOG[model], q_float)
            assert exact.dims == approx.dims


def test_float_growth_vector_keeps_rank_of_long_brackets():
    # deep brackets of this pair are ~5.6e9 long at the point; an unscaled
    # relative threshold drops the frame's rank at step 6
    pair = PfaffianPair.from_json_dict(
        {"f": [], "g": [["-5/6", [0, 0, 0, 2]], [-1, [0, 0, 1, 1]], [-4, [0, 1, 1, 1]],
                        [-2, [0, 3, 0, 0]], [2, [1, 0, 1, 1]]]}
    )
    exact = growth_vector(pair, Point4(Fraction(-5, 3), 4, -2, 5))
    approx = growth_vector(pair, Point4(-5 / 3, 4.0, -2.0, 5.0))
    assert exact.dims == approx.dims == (2, 3, 3, 3, 3, 3)


def test_float_growth_vector_matches_exact_at_random_rational_points():
    rng = np.random.default_rng(99)
    pairs = list(CATALOG.values())
    pairs += [PfaffianPair(random_poly(rng), random_poly(rng)) for _ in range(20)]
    for pair in pairs:
        for _ in range(5):
            nums, dens = rng.integers(-8, 9, size=4), rng.integers(1, 5, size=4)
            q = Point4(*(Fraction(int(n), int(d)) for n, d in zip(nums, dens)))
            exact = growth_vector(pair, q)
            approx = growth_vector(pair, Point4(*q.as_floats()))
            assert exact.dims == approx.dims, (pair.to_json_dict(), q)


def test_growth_vector_not_bracket_generating():
    gv = growth_vector(PfaffianPair(ZERO, ZERO), Point4.origin(), max_step=4)
    assert gv.dims == (2, 2, 2, 2)
    assert not gv.bracket_generating


def test_growth_vector_requires_two_steps():
    with pytest.raises(ValueError):
        growth_vector(CATALOG["d224"], Point4.origin(), max_step=1)


def test_growth_vector_shape_invariants():
    rng = np.random.default_rng(3)
    for model, pair in CATALOG.items():
        for _ in range(10):
            q = Point4(*(Fraction(int(n), 4) for n in rng.integers(-4, 5, size=4)))
            gv = growth_vector(pair, q)
            assert gv.dims[0] == 2
            assert all(b - a in (0, 1, 2) for a, b in zip(gv.dims, gv.dims[1:]))
            assert gv.bracket_generating and gv.dims[-1] == 4
            assert len(gv.dims) <= 4


def test_engel_certificates():
    assert engel_certificate(CATALOG["d224"]) == 2 * W
    assert engel_certificate(CATALOG["engel_std"]) == SparsePoly.const(-1)
    assert engel_certificate(PfaffianPair(ZERO, ZERO)).is_zero()


def test_sigma_check_d224_cases():
    pair = CATALOG["d224"]
    at_origin = sigma_check(pair, Point4.origin())
    assert at_origin.certificate_value == 0.0
    assert at_origin.growth.dims == (2, 2, 4)
    assert not at_origin.is_engel_by_growth

    on_w_axis = sigma_check(pair, Point4(0, 0, 0, 1))
    assert on_w_axis.certificate_value == 2.0
    assert on_w_axis.growth.dims == (2, 3, 4)
    assert on_w_axis.is_engel_by_growth
    assert not on_w_axis.tests_disagree

    on_z_axis = sigma_check(pair, Point4(0, 0, 1, 0))
    assert on_z_axis.certificate_value == 0.0
    assert on_z_axis.is_engel_by_growth
    assert on_z_axis.tests_disagree


def test_certificate_sufficiency_on_grid():
    # nonzero certificate implies growth (2,3,4); checked on a coarse
    # rational grid in (z, w) (all catalog data depends on z, w only)
    grid = [Fraction(n, 2) for n in range(-2, 3)]
    for model, pair in CATALOG.items():
        cert = engel_certificate(pair)
        for z, w in product(grid, repeat=2):
            q = Point4(Fraction(1, 3), Fraction(-1, 2), z, w)
            if cert.eval_exact(q) != 0:
                assert growth_vector(pair, q).dims == (2, 3, 4), (model, z, w)


def test_non_engel_locus_is_z_w_axis_for_degenerate_models():
    # catalog components depend only on (z, w); assert that, then scan the
    # (z, w) grid with step 1/4 as representatives of the full 4-d grid
    grid = [Fraction(n, 4) for n in range(-4, 5)]
    for model, pair in CATALOG.items():
        for poly in (pair.f, pair.g):
            assert poly.degree_in("x") <= 0 and poly.degree_in("y") <= 0
        locus = set()
        for z, w in product(grid, repeat=2):
            gv = growth_vector(pair, Point4(0, 0, z, w))
            if gv.dims != (2, 3, 4):
                locus.add((z, w))
        if model in DEGENERATE_MODELS:
            assert locus == {(Fraction(0), Fraction(0))}, model
        else:
            assert locus == set(), model


def test_rational_rank_small_cases():
    one = Fraction(1)
    zero = Fraction(0)
    assert rational_rank([(one, zero, zero, zero)]) == 1
    assert rational_rank([(one, zero, zero, zero), (one, zero, zero, zero)]) == 1
    cols = [
        (one, zero, zero, zero),
        (zero, one, zero, zero),
        (zero, zero, one, zero),
        (zero, zero, zero, one),
    ]
    assert rational_rank(cols) == 4
    assert rational_rank([(zero, zero, zero, zero)]) == 0


def test_pair_json_roundtrip():
    pair = CATALOG["d2334b"]
    assert PfaffianPair.from_json_dict(pair.to_json_dict()) == pair
