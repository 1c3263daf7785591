from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from engelkit import distribution
from engelkit.distribution import (
    CATALOG,
    DEGENERATE_MODELS,
    GrowthVector,
    PfaffianPair,
    PolyVectorField,
    bracket_levels,
    engel_certificate,
    growth_vector,
    rational_rank,
    sigma_check,
)
from engelkit.poly import Point4, SparsePoly, random_poly
from reference_growth import (
    eager_growth_vector,
    eager_levels,
    field_add,
    field_scale,
    frame,
    lie_bracket,
)
from reference_poly import reference_eval_exact

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
    assert lie_bracket(dz, dw) == field()


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
        assert lie_bracket(a, b) == field_scale(-1, lie_bracket(b, a))
        jacobi = field_add(
            field_add(lie_bracket(a, lie_bracket(b, c)), lie_bracket(b, lie_bracket(c, a))),
            lie_bracket(c, lie_bracket(a, b)),
        )
        assert jacobi == field()


def test_growth_vectors_at_origin():
    origin = Point4.origin()
    assert growth_vector(CATALOG["d224"], origin).dims == (2, 2, 4)
    assert growth_vector(CATALOG["d2334a"], origin).dims == (2, 3, 3, 4)
    assert growth_vector(CATALOG["d2334b"], origin).dims == (2, 3, 3, 4)
    assert growth_vector(CATALOG["engel_std"], origin).dims == (2, 3, 4)


def test_growth_vector_d224_off_axis_point():
    gv = growth_vector(CATALOG["d224"], Point4(0, 0, 1, 0))
    assert gv.dims == (2, 3, 4)


# A level-6 bracket of this pair is exactly 0 at (4, 2, -7/4, -5/2); in
# floats it read -7.3e-12, which lifted a float rank to 3.
RESIDUE = PfaffianPair.from_json_dict(
    {"f": [], "g": [[-4, [0, 0, 0, 2]], ["-4/3", [0, 1, 0, 2]], [-2, [1, 0, 1, 0]],
                    ["1/2", [2, 0, 1, 0]]]}
)


def test_growth_vector_float_matches_exact():
    cases = [
        (pair, q_exact, q_float)
        for pair in CATALOG.values()
        for q_exact, q_float in [
            (Point4(0, 0, 1, 0), Point4(0.0, 0.0, 1.0, 0.0)),
            (Point4(1, -1, Fraction(1, 2), Fraction(1, 4)), Point4(1.0, -1.0, 0.5, 0.25)),
        ]
    ]
    cases.append((RESIDUE, Point4(4, 2, Fraction(-7, 4), Fraction(-5, 2)),
                  Point4(4.0, 2.0, -1.75, -2.5)))
    for pair, q_exact, q_float in cases:
        assert growth_vector(pair, q_exact) == growth_vector(pair, q_float)
    assert growth_vector(RESIDUE, cases[-1][2]) == GrowthVector((2, 2, 2, 2, 2, 2), False)


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


# Under an SVD rank with a tolerance relative to the largest singular
# value, this seeded pair read (2,3,3,3,4) at this point near 1e-3, against
# the exact (2,3,4): its level-3 columns are nearly parallel.
R6 = PfaffianPair.from_json_dict(
    {"f": [["3/2", [0, 1, 0, 2]], ["4/3", [0, 2, 0, 1]], ["5/2", [2, 0, 0, 1]],
           [-2, [2, 1, 0, 0]], ["2/3", [3, 0, 0, 0]]],
     "g": [["4/3", [0, 0, 0, 3]], [-4, [0, 0, 1, 2]], ["-4/3", [0, 2, 0, 0]],
           [2, [1, 0, 1, 1]], ["-1/2", [1, 1, 1, 0]]]}
)
R6_POINT = (-0.0009470955393642191, 0.0009258266367603921, 0.00042720079215293675,
            -0.0005905227031423996)


@pytest.mark.parametrize("t", [1e-100, 1e-160, 1e-300])
def test_float_growth_vector_matches_exact_at_tiny_coordinates(t):
    # squared entries below ~1e-162 underflow in an unscaled column norm,
    # which then drops the column and lowers the rank
    cases = [
        (pair, q)
        for pair in CATALOG.values()
        for q in [(0, 0, t, 0), (0, 0, 0, t), (0, 0, t, t), (t, t, t, t), (1, 1, t, 0)]
    ]
    cases.append((R6, R6_POINT))
    for pair, q in cases:
        exact = growth_vector(pair, Point4(*map(Fraction, q)))
        approx = growth_vector(pair, Point4(*map(float, q)))
        assert exact == approx, (pair.to_json_dict(), q)
    assert growth_vector(CATALOG["d224"], Point4(0.0, 0.0, t, 0.0)).dims == (2, 3, 4)
    assert growth_vector(R6, Point4(*R6_POINT)).dims == (2, 3, 4)


def test_float_growth_vector_matches_exact_far_from_the_origin():
    # An SVD rank of unit 4-vector columns matched 48 of these 204 cases:
    # W's w entry fell below the relative tolerance once |f| or |g| passed
    # ~1e9.  The decimal and binary (Fraction(float)) values of these
    # points differ, but none lies on a degenerate locus, so all match.
    rng = np.random.default_rng(17)
    pairs = list(CATALOG.values())
    pairs += [PfaffianPair(random_poly(rng), random_poly(rng)) for _ in range(30)]
    matches = 0
    for pair in pairs:
        for _ in range(6):
            q = Point4(*(float(c) for c in rng.uniform(-1e4, 1e4, size=4)))
            exact = growth_vector(pair, Point4(*map(Fraction, q.as_floats())))
            matches += growth_vector(pair, q) == exact
    assert matches == len(pairs) * 6, matches


def test_exact_and_float_growth_vectors_agree_at_dyadic_points():
    # dyadic coordinates are floats exactly, and their repr is their
    # value.  An SVD rank of the float columns read a higher rank from an
    # exactly zero bracket in two of these cases (seed 15).
    rng = np.random.default_rng(15)
    pairs = list(CATALOG.values())
    pairs += [PfaffianPair(random_poly(rng), random_poly(rng)) for _ in range(300)]
    for pair in pairs:
        for _ in range(2):
            nums, shifts = rng.integers(-8, 9, size=4), rng.integers(0, 3, size=4)
            q = Point4(*(Fraction(int(n), 2 ** int(k)) for n, k in zip(nums, shifts)))
            assert growth_vector(pair, q) == growth_vector(pair, Point4(*q.as_floats())), (
                pair.to_json_dict(), q
            )


def _pair(f, g):
    return PfaffianPair.from_json_dict({"f": f, "g": g})


@pytest.mark.parametrize(
    "pair, q, dims",
    [
        # [Z, W] = (-2z, -w) is 0 at the origin, before two columns that span
        (CATALOG["d224"], Point4.origin(), (2, 2, 4)),
        # every column of levels 2 and 3 is parallel to [Z, W] = (-1, 0)
        (CATALOG["d2334a"], Point4.origin(), (2, 3, 3, 4)),
        # level 4 reads (0, -2), 0, 0, (0, -2): its first spanning column
        # follows a zero column of level 3
        (CATALOG["d2334b"], Point4.origin(), (2, 3, 3, 4)),
        # two zero levels, then two parallel ones, then a spanning column
        (_pair([[-2, [0, 0, 3, 0]], [1, [1, 0, 0, 2]]], [["4/3", [1, 0, 0, 1]]]),
         Point4.origin(), (2, 2, 2, 3, 3, 4)),
        # the first column not parallel to [Z, W] comes at level 6
        (_pair([[1, [0, 1, 1, 0]], ["4/3", [2, 0, 0, 1]]],
               [["-2/3", [0, 0, 0, 2]], [-1, [1, 0, 1, 0]]]),
         Point4(0, 1, -1, 0), (2, 3, 3, 3, 3, 4)),
        # parallel columns up to step 6: not bracket generating
        (_pair([[4, [0, 0, 2, 1]]], []), Point4(0, 1, 0, -1), (2, 2, 3, 3, 3, 3)),
        # the a, b of a column differ in degree: over one denominator D for
        # the whole point (here 4), columns scaled without D^(m - m_a) and
        # D^(m - m_b) read (2,3,3,4) here and (2,3,4) in the next case
        (_pair([[-3, [1, 0, 0, 1]], ["1/3", [1, 1, 1, 0]]],
               [[4, [0, 0, 0, 1]], ["-2/3", [1, 1, 1, 0]]]),
         Point4(1, 1, Fraction(1, 2), Fraction(-3, 4)), (2, 3, 4)),
        (_pair([[1, [0, 0, 0, 2]], ["1/2", [0, 0, 2, 1]]],
               [["-2/3", [0, 0, 2, 1]], ["-3/2", [3, 0, 0, 0]]]),
         Point4(0, Fraction(1, 4), Fraction(3, 2), 1), (2, 3, 3, 3, 4)),
        # a column is (a/s_a, b/s_b) with s_a != s_b: minors of the unscaled
        # (a, b) in place of (a*s_b, b*s_a) read (2,3,3,4) here and (2,3,4)
        # in the next case
        (_pair([[-1, [1, 0, 2, 0]]], [["-1/2", [0, 0, 3, 0]]]),
         Point4(Fraction(1, 2), -1, 1, -1), (2, 3, 4)),
        (_pair([[-3, [0, 0, 0, 2]], ["3/2", [2, 0, 1, 0]]], [[1, [2, 0, 1, 0]]]),
         Point4(3, Fraction(-1, 3), -2, Fraction(1, 4)), (2, 3, 3, 3, 3, 3)),
    ],
    ids=["zero-first", "parallel", "zero-then-spanning", "late-parallel", "late-spanning",
         "plateau", "padded-spanning", "padded-parallel", "scaled-spanning", "scaled-parallel"],
)
def test_exact_rank_on_the_ab_plane_edge_cases(pair, q, dims):
    gv = growth_vector(pair, q)
    assert gv == GrowthVector(dims, dims[-1] == 4)
    assert gv == eager_growth_vector(pair, q)
    assert growth_vector(pair, Point4(*q.as_floats())) == gv


def test_growth_vector_matches_eager_reference():
    rng = np.random.default_rng(8)
    pairs = list(CATALOG.values()) + [PfaffianPair(ZERO, ZERO)]
    pairs += [PfaffianPair(random_poly(rng), random_poly(rng)) for _ in range(12)]
    for pair in pairs:
        points = [Point4.origin()]
        for _ in range(2):
            nums, dens = rng.integers(-6, 7, size=4), rng.integers(1, 5, size=4)
            points.append(Point4(*(Fraction(int(n), int(d)) for n, d in zip(nums, dens))))
        points += [Point4(*q.as_floats()) for q in points]
        for q in points:
            assert growth_vector(pair, q) == eager_growth_vector(pair, q), (pair.to_json_dict(), q)


def test_growth_vector_matches_eager_reference_at_float_points_with_large_denominators():
    # 17-digit decimals, tiny and huge coordinates: a coordinate's
    # denominator runs to 10**20 and past, and its powers pad every term
    rng = np.random.default_rng(19)
    pairs = [PfaffianPair(random_poly(rng, max_degree=4), random_poly(rng)) for _ in range(10)]
    for pair in list(CATALOG.values()) + pairs:
        points = [
            Point4(*(float(c) for c in rng.uniform(-2.0, 2.0, size=4))),
            Point4(*(float(c) for c in rng.uniform(-1e-7, 1e-7, size=4))),
            Point4(float(rng.uniform(-1e8, 1e8)), 5e-324, -0.0, float(rng.uniform(-3.0, 3.0))),
        ]
        for q in points:
            assert growth_vector(pair, q) == eager_growth_vector(pair, q), (pair.to_json_dict(), q)


def test_bracket_levels_equal_the_general_lie_bracket():
    # the levels are built from the frame's form as (a, b) pairs for
    # a d/dx + b d/dy; the general bracket is the definition they must
    # reproduce exactly, with zero z and w components.  The catalog pairs
    # depend on (z, w) only; most random pairs have x or y terms, where
    # [W, V] has all its terms.
    rng = np.random.default_rng(21)
    randoms = [PfaffianPair(random_poly(rng), random_poly(rng)) for _ in range(24)]
    assert sum(any(p.degree_in(v) > 0 for p in (pr.f, pr.g) for v in "xy") for pr in randoms) >= 18
    for pair in list(CATALOG.values()) + [PfaffianPair(ZERO, ZERO)] + randoms:
        levels = bracket_levels(pair, 6)
        eager = eager_levels(pair, 6)
        assert len(levels) == 5
        for step, (built, expected) in enumerate(zip(levels, eager[1:]), start=2):
            assert built == tuple((v.cx, v.cy) for v in expected), (pair.to_json_dict(), step)
            assert all(v.cz.is_zero() and v.cw.is_zero() for v in expected)


def _count_brackets(monkeypatch) -> list[int]:
    calls = [0]

    def counted(helper):
        def wrapper(*args):
            calls[0] += 1
            return helper(*args)

        return wrapper

    bracket_levels.cache_clear()
    for name in ("_bracket_z", "_bracket_w"):
        monkeypatch.setattr(distribution, name, counted(getattr(distribution, name)))
    return calls


def test_growth_vector_builds_levels_only_until_rank_four(monkeypatch):
    calls = _count_brackets(monkeypatch)
    assert growth_vector(CATALOG["engel_std"], Point4.origin()).dims == (2, 3, 4)
    assert calls[0] == 3  # [Z, W], then [Z, [Z, W]] and [W, [Z, W]]; not 31
    growth_vector(CATALOG["engel_std"], Point4(1, 2, 3, 4))
    assert calls[0] == 3  # the levels are shared across points


def test_growth_vector_not_bracket_generating(monkeypatch):
    calls = _count_brackets(monkeypatch)
    gv = growth_vector(PfaffianPair(ZERO, ZERO), Point4.origin())
    assert gv.dims == (2,) * 6
    assert not gv.bracket_generating
    assert calls[0] == 1 + 2 + 4 + 8 + 16  # every level up to step 6 is built


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


def test_sigma_check_builds_the_certificate_once_per_pair():
    engel_certificate.cache_clear()
    for q in (Point4.origin(), Point4(0, 0, 0, 1), Point4(0.0, 0.0, 1.0, 0.0)):
        sigma_check(CATALOG["d224"], q)
    assert engel_certificate.cache_info().misses == 1


def test_sigma_check_evaluates_the_certificate_and_the_growth_on_one_table(monkeypatch):
    # the point's table of powers is built on the first call and kept: the
    # certificate (through eval_exact) and every growth column read it
    tables = []
    eval_integer = SparsePoly.eval_integer

    def recording(self, powers):
        tables.append(powers)
        return eval_integer(self, powers)

    monkeypatch.setattr(SparsePoly, "eval_integer", recording)
    pair, q = CATALOG["d2334b"], Point4(0.1, -2.5, Fraction(1, 3), 7)
    report = sigma_check(pair, q)
    assert len(tables) > 2 and all(table is q.powers() for table in tables)
    assert sigma_check(pair, q) == sigma_check(pair, Point4(*q.as_tuple())) == report
    assert report.growth == eager_growth_vector(pair, q)
    assert report.certificate == reference_eval_exact(engel_certificate(pair), q)
    assert report.certificate_value == float(report.certificate)


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
