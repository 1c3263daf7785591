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
    REFERENCE_FIELDS,
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
    # M = -2I on d224, diag(-2, 2) on d2334a, [[0, -2], [2, 0]] on d2334b;
    # engel_std's field does not vanish at the origin (e = 1).
    assert origin_kind(CATALOG["d224"]) == OriginKind(NODE, 1)
    assert origin_kind(CATALOG["d2334a"]) == OriginKind(SADDLE, 1, (1.0, 0.0))
    assert origin_kind(CATALOG["d2334b"]) == OriginKind(CENTER)
    assert origin_kind(CATALOG["engel_std"]) is None
    assert origin_kind(OUTWARD) == OriginKind(NODE, -1)


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
    # equal those read from tr M and det M of the reference field; a
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
        assert (kind.name, kind.sign) == (name, sign), pair
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
