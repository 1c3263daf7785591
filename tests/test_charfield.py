import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from engelkit.charfield import (
    CENTER,
    CORRECTED,
    NODE,
    ORACLE,
    PRINTED,
    SADDLE,
    VARIANTS,
    OriginKind,
    assemble_field,
    char_covector,
    char_field,
    coefficients,
    coeffs_corrected,
    coeffs_oracle,
    cross_check,
    horizontality_residuals,
    origin_kind,
)
from engelkit.acceptance import REFERENCE_FIELDS
from engelkit.distribution import CATALOG, DEGENERATE_MODELS, PfaffianPair, engel_certificate
from engelkit.poly import Point4, SparsePoly, random_poly
from reference_growth import field_eval, frame, lie_bracket
from reference_surface import OUTWARD, zw_char_field

X = SparsePoly.var("x")
Z = SparsePoly.var("z")
W = SparsePoly.var("w")
ZERO = SparsePoly.zero()

# Frozen coefficient values, verified independently against the bracket
# computation (all three variants coincide on the catalog models because
# none of them has x- or y-dependent mixed partials).
EXPECTED_COEFFS = {
    "engel_std": (ZERO, SparsePoly.const(1)),
    "d224": (-2 * Z, -2 * W),
    "d2334a": (-2 * Z, 2 * W),
    "d2334b": (-2 * W, 2 * Z),
}


@pytest.mark.parametrize("model", list(CATALOG))
@pytest.mark.parametrize("variant", VARIANTS)
def test_catalog_coefficients(model, variant):
    co = coefficients(CATALOG[model], variant)
    c_ref, e_ref = EXPECTED_COEFFS[model]
    assert co.c == c_ref
    assert co.e == e_ref


def test_zero_pair_gives_zero_coefficients():
    co = coeffs_corrected(PfaffianPair(ZERO, ZERO))
    assert co.c.is_zero() and co.e.is_zero()


@pytest.mark.parametrize("model", DEGENERATE_MODELS)
def test_oracle_field_matches_reference_closed_form(model):
    assert char_field(CATALOG[model], ORACLE) == REFERENCE_FIELDS[model]


def test_reference_field_values_at_point():
    # d224 characteristic field (2z^2w, 2zw^2, -2z, -2w) at (0,0,1,1)
    fld = char_field(CATALOG["d224"], ORACLE)
    assert tuple(field_eval(fld, Point4(0, 0, 1, 1))) == (2.0, 2.0, -2.0, -2.0)


def test_engel_std_char_field_proportional_to_w_frame():
    co = coeffs_oracle(CATALOG["engel_std"])
    assert co.c.is_zero()
    _, w_field = frame(CATALOG["engel_std"])
    fld = char_field(CATALOG["engel_std"], ORACLE)
    assert fld == w_field  # e = 1 exactly here


def test_oracle_equals_the_covector_on_the_general_brackets():
    # coeffs_oracle reads [Z, [Z, W]] and [W, [Z, W]] as the (a, b) pairs of
    # bracket_levels; the reference brackets the frame by the general 4x4
    # Lie bracket, whose second brackets must have no d/dz or d/dw part,
    # and pairs lambda = (g_z, -f_z) with their d/dx, d/dy parts.  Most
    # random pairs have x or y terms, where [W, [Z, W]] has all its terms.
    rng = np.random.default_rng(211)
    randoms = [PfaffianPair(random_poly(rng), random_poly(rng)) for _ in range(200)]
    with_xy = [r for r in randoms if any(p.degree_in(v) > 0 for p in (r.f, r.g) for v in "xy")]
    assert len(with_xy) >= 150
    for pair in [*CATALOG.values(), PfaffianPair(ZERO, ZERO), *randoms]:
        z_field, w_field = frame(pair)
        b = lie_bracket(z_field, w_field)
        zb, wb = lie_bracket(z_field, b), lie_bracket(w_field, b)
        assert all(v.cz.is_zero() and v.cw.is_zero() for v in (zb, wb))
        cov = char_covector(pair)
        co = coeffs_oracle(pair)
        assert co.e == cov.lambda1 * zb.cx + cov.lambda2 * zb.cy, pair.to_json_dict()
        assert co.c == -(cov.lambda1 * wb.cx + cov.lambda2 * wb.cy), pair.to_json_dict()


def test_corrected_equals_oracle_on_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(20):
        pair = PfaffianPair(f=random_poly(rng), g=random_poly(rng))
        c_o = coeffs_oracle(pair)
        c_c = coeffs_corrected(pair)
        assert c_o.c == c_c.c
        assert c_o.e == c_c.e


def test_printed_differs_from_oracle_when_mixed_partials_present():
    # f = z*x has f_zx = 1, so the bare-mixed-partial formula deviates
    pair = PfaffianPair(f=Z * X, g=SparsePoly({(0, 0, 2, 0): Fraction(1, 2)}))
    report = cross_check(pair)
    identical = {(comp.a, comp.b): comp.identical for comp in report.comparisons}
    assert identical == {(PRINTED, ORACLE): False, (CORRECTED, ORACLE): True}


def test_cross_check_identical_on_catalog():
    for model, pair in CATALOG.items():
        report = cross_check(pair)
        identical = {(comp.a, comp.b): comp.identical for comp in report.comparisons}
        assert identical == {(PRINTED, ORACLE): True, (CORRECTED, ORACLE): True}, model
        payload = report.to_json_dict(model)
        assert payload["model"] == model
        assert all(entry["identical"] for entry in payload["variant_pairs"])


def test_covector_annihilates_first_bracket():
    rng = np.random.default_rng(7)
    for _ in range(15):
        pair = PfaffianPair(f=random_poly(rng), g=random_poly(rng))
        z_field, w_field = frame(pair)
        b = lie_bracket(z_field, w_field)
        cov = char_covector(pair)
        assert (cov.lambda1 * b.cx + cov.lambda2 * b.cy).is_zero()


def test_e_is_shared_by_all_variants():
    # the closed forms take e from the Engel certificate; the oracle pairs
    # the covector with [Z, [Z, W]], so it checks that e = -certificate
    rng = np.random.default_rng(13)
    pairs = list(CATALOG.values())
    pairs += [PfaffianPair(f=random_poly(rng), g=random_poly(rng)) for _ in range(10)]
    for pair in pairs:
        es = {v: coefficients(pair, v).e for v in VARIANTS}
        assert es[PRINTED] == es[CORRECTED] == es[ORACLE] == -engel_certificate(pair)


def test_variants_define_the_same_line_field():
    rng = np.random.default_rng(17)
    for _ in range(10):
        pair = PfaffianPair(f=random_poly(rng), g=random_poly(rng))
        c_o = coeffs_oracle(pair)
        c_c = coeffs_corrected(pair)
        det = c_o.c * c_c.e - c_o.e * c_c.c
        assert det.is_zero()


@pytest.mark.parametrize("model", list(CATALOG))
@pytest.mark.parametrize("variant", VARIANTS)
def test_horizontality_exact(model, variant):
    pair = CATALOG[model]
    r1, r2 = horizontality_residuals(pair, char_field(pair, variant))
    assert r1.is_zero() and r2.is_zero()


def test_horizontality_on_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(10):
        pair = PfaffianPair(f=random_poly(rng), g=random_poly(rng))
        r1, r2 = horizontality_residuals(pair, char_field(pair, ORACLE))
        assert r1.is_zero() and r2.is_zero()


def _in_the_ideal_of_sigma(field) -> bool:
    """Whether every term of every component has a z or a w factor: the
    field lies in the ideal (z, w), so it vanishes on z = w = 0."""
    return all(e[2] or e[3] for comp in field.components() for e in comp.terms)


@pytest.mark.parametrize("model", DEGENERATE_MODELS)
def test_char_field_vanishes_on_degeneration_surface(model):
    assert _in_the_ideal_of_sigma(char_field(CATALOG[model], ORACLE))


def test_engel_std_char_field_does_not_vanish_on_surface():
    assert not _in_the_ideal_of_sigma(char_field(CATALOG["engel_std"], ORACLE))


def test_assemble_field_components():
    pair = CATALOG["d2334a"]
    co = coeffs_oracle(pair)
    fld = assemble_field(pair, co)
    assert fld.cx == -co.e * pair.f
    assert fld.cy == -co.e * pair.g
    assert fld.cz == co.c
    assert fld.cw == co.e


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        coefficients(CATALOG["d224"], "bogus")


def test_coefficient_cache_is_transparent():
    # coefficients keeps its last 64 (pair, variant) results: a cached value
    # equals a fresh computation as exact polynomials, a second call returns
    # the same object, and the shared object is left unchanged by its users.
    rng = np.random.default_rng(19)
    pairs = [*CATALOG.values(), *(PfaffianPair(random_poly(rng), random_poly(rng))
                                  for _ in range(12))]
    for pair in pairs:
        for variant in VARIANTS:
            cached = coefficients(pair, variant)
            assert coefficients.__wrapped__(pair, variant) == cached
            assert coefficients(pair, variant) is cached
        fresh = coefficients.__wrapped__(pair, ORACLE)
        char_field(pair, ORACLE)
        cross_check(pair)
        assert coefficients(pair, ORACLE) == fresh
    with pytest.raises(ValueError, match="unknown variant"):
        coefficients(CATALOG["d224"], "bogus")


def test_catalog_origin_kinds():
    # M~ = -2I on d224, diag(-2, 2) on d2334a, [[0, -2], [2, 0]] on d2334b,
    # each with rate 2.0 exactly, and 20I on OUTWARD; engel_std's field does
    # not vanish at the origin (e = 1).
    assert origin_kind(CATALOG["d224"]) == OriginKind(NODE, 2.0, True, 1)
    assert origin_kind(CATALOG["d2334a"]) == OriginKind(SADDLE, 2.0, True, 1, (1.0, 0.0))
    assert origin_kind(CATALOG["d2334b"]) == OriginKind(CENTER, 2.0, True)
    assert origin_kind(CATALOG["engel_std"]) is None
    assert origin_kind(OUTWARD) == OriginKind(NODE, 20.0, True, -1)


def _kind_from_trace_and_determinant(pair):
    """(name, sign, M) from the exact trace and determinant of M, read from
    the reference field ``zw_char_field``; name None when C(0) != 0 or
    det M = 0."""
    comps = zw_char_field(pair)
    cz, cw = comps[2].terms, comps[3].terms
    m = [[p.get((0, 0, 1, 0), 0), p.get((0, 0, 0, 1), 0)] for p in (cz, cw)]
    tr, det = m[0][0] + m[1][1], m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if any((0, 0, 0, 0) in p.terms for p in comps) or det == 0:
        return None, 1, m
    if det < 0:
        return SADDLE, 1, m
    if tr == 0:
        return CENTER, 1, m
    return NODE, 1 if tr < 0 else -1, m


def _kind_families(seed):
    """120 seeded pairs free of x and y of each family, with its name:
    homogeneous quadratic (f, g) with coefficients in -3..3, whose (C^z, C^w)
    is lam (z, w); and f = z with a homogeneous cubic g, whose M has trace 0."""
    rng = np.random.default_rng(seed)
    quadratic = [Z * Z, Z * W, W * W]
    cubic = [Z ** 3, Z * Z * W, Z * W * W, W ** 3]
    for _ in range(120):
        a, b = rng.integers(-3, 4, (2, 3)).tolist()
        yield "quadratic", PfaffianPair(sum(map(lambda k, m: k * m, a, quadratic), ZERO),
                                        sum(map(lambda k, m: k * m, b, quadratic), ZERO))
    for _ in range(120):
        c = rng.integers(-3, 4, 4).tolist()
        yield "cubic", PfaffianPair(Z, sum(map(lambda k, m: k * m, c, cubic), ZERO))


# Fewest pairs of each (family, kind, sign) the seeded draw must hold; it
# holds 40 and 62 nodes, 18 with no kind, 74 saddles, 38 centers and 8
# with det M = 0.
KIND_MINIMUMS = {
    ("quadratic", NODE, 1): 20,
    ("quadratic", NODE, -1): 20,
    ("quadratic", None, 1): 5,
    ("cubic", SADDLE, 1): 20,
    ("cubic", CENTER, 1): 20,
    ("cubic", None, 1): 5,
}


def test_origin_kind_agrees_with_the_exact_trace_and_determinant():
    # On seeded pairs of both families, the kind's name and orientation
    # equal those read from tr M and det M of the reference field, and the
    # kind says C is a skew product, as every pair free of x and y is; a
    # saddle's stable line is a unit eigenvector of M for its negative
    # eigenvalue, with its largest component positive.
    counts = dict.fromkeys(KIND_MINIMUMS, 0)
    for family, pair in _kind_families(7):
        name, sign, m = _kind_from_trace_and_determinant(pair)
        counts[family, name, sign] += 1
        kind = origin_kind(pair)
        if name is None:
            assert kind is None, pair
            continue
        assert (kind.name, kind.sign, kind.skew) == (name, sign, True), pair
        if name != SADDLE:
            assert kind.stable is None, pair
            continue
        (a, b), (c, d) = ((float(v) for v in row) for row in m)
        vz, vw = kind.stable
        lam = (a + d - math.sqrt((a - d) ** 2 + 4 * b * c)) / 2
        assert lam < 0 and math.isclose(math.hypot(vz, vw), 1.0, rel_tol=1e-15), pair
        assert max((vz, vw), key=abs) > 0, pair
        scale = max(abs(a), abs(b), abs(c), abs(d))
        assert abs(a * vz + b * vw - lam * vz) <= 1e-14 * scale, pair
        assert abs(c * vz + d * vw - lam * vw) <= 1e-14 * scale, pair
    assert all(counts[key] >= least for key, least in KIND_MINIMUMS.items()), counts


def test_origin_kind_cache_is_transparent():
    # origin_kind keeps its last 64 pairs as coefficients does: a second call
    # returns the same object, equal to a fresh computation.
    for _, pair in _kind_families(8):
        kind = origin_kind(pair)
        assert origin_kind(pair) is kind
        assert origin_kind.__wrapped__(pair) == kind


_LINEAR = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _jacobian_at_origin(pair):
    """The exact 4 x 4 Jacobian of the oracle field C at 0, or None when
    C(0) != 0."""
    comps = char_field(pair, ORACLE).components()
    if any((0, 0, 0, 0) in p.terms for p in comps):
        return None
    return [[Fraction(p.terms.get(e, 0)) for e in _LINEAR] for p in comps]


def _char_poly(a):
    """Coefficients (p0, ..., p4) of det(lam I - A) = sum p_k lam^k, exactly,
    by the Faddeev-LeVerrier recursion."""
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[i][l] * m[l][j] for l in range(n)) + (coeffs[n - k + 1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        am = [[sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        coeffs[n - k] = -sum(am[i][i] for i in range(n)) / k
    return coeffs


def _xy_kind_families(seed):
    """Seeded pairs with constant, x and y terms and C(0) = 0, with their
    family's name.  "flat": f and g have no z term, so f_z(0) = g_z(0) = 0;
    their frame matrix is -det(B) I for B = [[Z f_z, W f_z], [Z g_z, W g_z]](0),
    a star node of either orientation or degenerate.  "tilted": f = z + ...
    and g without z or z^2 terms, whose z w coefficient is set so that
    c(0) = 0 (the closed form's c(0) = g(0) g_zy - g_zw + f(0) g_zx - g_x);
    saddles, centers and degenerate ones."""
    rng = np.random.default_rng(seed)
    flat = [e for e in itertools.product(range(3), repeat=4) if 1 <= sum(e) <= 2
            and e != (0, 0, 1, 0)]

    def constant():
        return Fraction(int(rng.choice([-2, -1, 1, 2])))

    for _ in range(80):
        f, g = ({(0, 0, 0, 0): constant(),
                 **{flat[i]: constant() for i in rng.choice(len(flat), 4, replace=False)}}
                for _ in range(2))
        yield "flat", PfaffianPair(SparsePoly(f), SparsePoly(g))
    for _ in range(80):
        f, g = dict(random_poly(rng).terms), dict(random_poly(rng).terms)
        f[0, 0, 1, 0], f[0, 0, 0, 0], g[0, 0, 0, 0] = 1, constant(), constant()
        g.pop((0, 0, 1, 0), None)
        g.pop((0, 0, 2, 0), None)
        g[0, 0, 1, 1] = (f[0, 0, 0, 0] * g.get((1, 0, 1, 0), 0) - g.get((1, 0, 0, 0), 0)
                         + g[0, 0, 0, 0] * g.get((0, 1, 1, 0), 0))
        yield "tilted", PfaffianPair(SparsePoly(f), SparsePoly(g))


# Fewest pairs of each (family, kind, sign) the seeded draw must hold, and of
# pairs on which M = d(c, e)/d(z, w)(0) gives another kind than M~, and of
# pairs with a kind whose C is not a skew product; the draw holds 16
# attracting and 17 repelling nodes and 47 degenerate flat pairs, 20
# saddles, 1 center and 59 degenerate tilted pairs, M misreads 35, and all
# 54 with a kind depend on x or y.
XY_KIND_MINIMUMS = {
    ("flat", NODE, 1): 10,
    ("flat", NODE, -1): 10,
    ("flat", None, 1): 10,
    ("tilted", SADDLE, 1): 10,
    ("tilted", CENTER, 1): 1,
    ("tilted", None, 1): 10,
    "misread by M": 20,
    "not skew": 50,
}


def _kind_of(tr, det):
    if det == 0:
        return None, 1
    if det < 0:
        return SADDLE, 1
    return (CENTER, 1) if tr == 0 else (NODE, 1 if tr < 0 else -1)


def test_origin_kind_reads_the_4x4_jacobian_on_pairs_with_x_and_y_terms():
    # The characteristic polynomial of the 4 x 4 Jacobian J of C at 0 is
    # lam^2 (lam^2 - tr M~ lam + det M~); the kind, its orientation, its rate
    # (the largest |Re lam| over J's eigenvalues, |lam_s| at a saddle) and a
    # saddle's stable line are read from J, not from c and e.
    counts = dict.fromkeys(XY_KIND_MINIMUMS, 0)
    for family, pair in _xy_kind_families(11):
        jac = _jacobian_at_origin(pair)
        assert jac is not None, pair
        p0, p1, p2, p3, _ = _char_poly(jac)
        assert p0 == p1 == 0, pair
        name, sign = _kind_of(-p3, p2)
        counts[family, name, sign] += 1
        kind = origin_kind(pair)
        m = [[jac[i][j] for j in (2, 3)] for i in (2, 3)]
        if _kind_of(m[0][0] + m[1][1], m[0][0] * m[1][1] - m[0][1] * m[1][0]) != (name, sign):
            counts["misread by M"] += 1
        if name is None:
            assert kind is None, pair
            continue
        assert (kind.name, kind.sign) == (name, sign), pair
        # A skew product: no component of C has a nonzero x or y partial.
        comps = char_field(pair, ORACLE).components()
        skew = all(p.diff(v).is_zero() for p in comps for v in "xy")
        counts["not skew"] += not skew
        assert kind.skew == skew, pair
        eig = np.linalg.eigvals(np.array(jac, dtype=float))
        rate = -eig.real.min() if name == SADDLE else np.abs(eig.real).max()
        if name == CENTER:
            rate = np.abs(eig.imag).max()
        assert math.isclose(kind.rate, rate, rel_tol=1e-9), pair
        if name != SADDLE:
            assert kind.stable is None, pair
            continue
        # J U v = U M~ v for U = [Z | W](0), so U v is J's stable eigenvector.
        vz, vw = kind.stable
        f0, g0 = (float(p.terms.get((0, 0, 0, 0), 0)) for p in (pair.f, pair.g))
        u = np.array([-f0 * vw, -g0 * vw, vz, vw])
        assert np.max(np.abs(np.array(jac, dtype=float) @ u + kind.rate * u)) <= 1e-12 * max(
            1.0, np.abs(np.array(jac, dtype=float)).max()), pair
    assert all(counts[key] >= least for key, least in XY_KIND_MINIMUMS.items()), str(counts)


def test_origin_kind_of_a_pair_whose_m_and_frame_matrix_disagree():
    # f = -2 - 2xw + xz - 2xz^2, g = -1 - 2w^2 - 2z^2 + 2xz + 2xz^2: M reads
    # det 0, so the old reading gave no kind, but J's eigenvalues are
    # 0, 0, -8, -8, an attracting star node.
    x = SparsePoly.var("x")
    pair = PfaffianPair(-2 - 2 * x * W + x * Z - 2 * x * Z * Z,
                        -1 - 2 * W * W - 2 * Z * Z + 2 * x * Z + 2 * x * Z * Z)
    assert _char_poly(_jacobian_at_origin(pair)) == [0, 0, 64, 16, 1]
    assert origin_kind(pair) == OriginKind(NODE, 8.0, False, 1)
