"""Characteristic vector field of an Engel-type Pfaffian pair, three ways.

Off the degeneration locus, the rank-2 distribution carries a line field
whose integral curves are exactly the singular curves of the endpoint map.
Writing the generator as C = c*Z + e*W, this module computes the
coefficients (c, e) by three independent routes and cross-validates them:

``printed``
    The closed-form coefficient expression with *bare* mixed partials
    f_zx, f_zy, g_zx, g_zy.  Kept as a first-class reference; it differs
    from the other two variants on pairs whose mixed partials in x or y
    are nonzero.

``corrected``
    The closed-form expression with those mixed partials weighted by f and
    g, as produced by expanding lambda ^ d(lambda) for the annihilating
    1-form lambda = g_z*theta1 - f_z*theta2 against the coordinate volume.

``oracle``
    No closed form at all: with lambda = (g_z, -f_z) in the (theta1, theta2)
    frame, c = -<lambda, [W,[Z,W]]> and e = <lambda, [Z,[Z,W]]>.  Valid
    because both second brackets only have d/dx and d/dy components in this
    chart (asserted at runtime).  The oracle drives all downstream flow and
    surface computations.

``corrected`` and ``oracle`` agree as exact polynomials for every pair;
``printed`` agrees with them whenever the x/y mixed partials vanish (in
particular on all four catalog models).  All equalities here are exact
term-map identities, not numeric approximations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distribution import PfaffianPair, PolyVectorField, frame, lie_bracket
from .poly import SparsePoly

PRINTED = "printed"
CORRECTED = "corrected"
ORACLE = "oracle"
VARIANTS = (PRINTED, CORRECTED, ORACLE)


class BracketStructureError(RuntimeError):
    """A second bracket acquired a d/dz or d/dw component (impossible for a
    Pfaffian-pair frame; indicates a corrupted field)."""


@dataclass(frozen=True)
class CharCovector:
    """Components of the annihilating covector lambda = l1*theta1 + l2*theta2."""

    lambda1: SparsePoly
    lambda2: SparsePoly


@dataclass(frozen=True)
class CharCoefficients:
    """Coefficients of the characteristic field C = c*Z + e*W."""

    c: SparsePoly
    e: SparsePoly
    variant: str


def char_covector(pair: PfaffianPair) -> CharCovector:
    """The annihilator section (lambda1, lambda2) = (g_z, -f_z)."""
    return CharCovector(lambda1=pair.g.diff("z"), lambda2=-pair.f.diff("z"))


def _e_coefficient(pair: PfaffianPair) -> SparsePoly:
    f_z = pair.f.diff("z")
    g_z = pair.g.diff("z")
    return f_z * g_z.diff("z") - g_z * f_z.diff("z")


def coeffs_printed(pair: PfaffianPair) -> CharCoefficients:
    """Closed-form coefficients with bare mixed partials.

    c = g_z*(f_zw - f_zy - f_zx + g_z*f_y - f_z*g_y + f_z*f_x)
      + f_z*(g_zy - g_zw + g_zx - f_z*g_x)
    e = f_z*g_zz - g_z*f_zz
    """
    f, g = pair.f, pair.g
    f_z, g_z = f.diff("z"), g.diff("z")
    k = (
        f_z.diff("w")
        - f_z.diff("y")
        - f_z.diff("x")
        + g_z * f.diff("y")
        - f_z * g.diff("y")
        + f_z * f.diff("x")
    )
    h = g_z.diff("y") - g_z.diff("w") + g_z.diff("x") - f_z * g.diff("x")
    return CharCoefficients(c=g_z * k + f_z * h, e=_e_coefficient(pair), variant=PRINTED)


def coeffs_corrected(pair: PfaffianPair) -> CharCoefficients:
    """Closed-form coefficients with f,g-weighted mixed partials.

    c = g_z*(f_zw - f*f_zx - g*f_zy + g_z*f_y - f_z*g_y + f_z*f_x)
      + f_z*(g*g_zy - g_zw + f*g_zx - f_z*g_x)
    e = f_z*g_zz - g_z*f_zz

    Identical to the bracket oracle as an exact polynomial identity; the
    test suite re-checks this on the catalog and on random pairs.
    """
    f, g = pair.f, pair.g
    f_z, g_z = f.diff("z"), g.diff("z")
    k = (
        f_z.diff("w")
        - f * f_z.diff("x")
        - g * f_z.diff("y")
        + g_z * f.diff("y")
        - f_z * g.diff("y")
        + f_z * f.diff("x")
    )
    h = g * g_z.diff("y") - g_z.diff("w") + f * g_z.diff("x") - f_z * g.diff("x")
    return CharCoefficients(c=g_z * k + f_z * h, e=_e_coefficient(pair), variant=CORRECTED)


def _pair_with_covector(cov: CharCovector, field: PolyVectorField) -> SparsePoly:
    """<lambda, V> for a field with only d/dx, d/dy components."""
    if not (field.cz.is_zero() and field.cw.is_zero()):
        raise BracketStructureError(
            "second bracket has a d/dz or d/dw component; the Pfaffian frame "
            "cannot produce this"
        )
    return cov.lambda1 * field.cx + cov.lambda2 * field.cy


def coeffs_oracle(pair: PfaffianPair) -> CharCoefficients:
    """Bracket-based coefficients: c = -<lambda, [W,[Z,W]]>, e = <lambda, [Z,[Z,W]]>."""
    z_field, w_field = frame(pair)
    b = lie_bracket(z_field, w_field)
    zb = lie_bracket(z_field, b)
    wb = lie_bracket(w_field, b)
    cov = char_covector(pair)
    e = _pair_with_covector(cov, zb)
    c = -_pair_with_covector(cov, wb)
    return CharCoefficients(c=c, e=e, variant=ORACLE)


_COEFF_FUNCS = {PRINTED: coeffs_printed, CORRECTED: coeffs_corrected, ORACLE: coeffs_oracle}


def coefficients(pair: PfaffianPair, variant: str = ORACLE) -> CharCoefficients:
    try:
        return _COEFF_FUNCS[variant](pair)
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}") from None


def char_field(pair: PfaffianPair, variant: str = ORACLE) -> PolyVectorField:
    """Assemble C = c*Z + e*W in coordinate components (-e*f, -e*g, c, e)."""
    co = coefficients(pair, variant)
    return assemble_field(pair, co)


def assemble_field(pair: PfaffianPair, co: CharCoefficients) -> PolyVectorField:
    return PolyVectorField(
        cx=-co.e * pair.f,
        cy=-co.e * pair.g,
        cz=co.c,
        cw=co.e,
    )


@dataclass(frozen=True)
class VariantComparison:
    a: str
    b: str
    identical: bool
    discrepancy_c: SparsePoly
    discrepancy_e: SparsePoly


@dataclass(frozen=True)
class CrossCheckReport:
    """Pairwise exact comparison of the coefficient variants for one pair."""

    coefficients: dict[str, CharCoefficients]
    comparisons: tuple[VariantComparison, ...]

    def comparison(self, a: str, b: str) -> VariantComparison:
        for comp in self.comparisons:
            if {comp.a, comp.b} == {a, b}:
                return comp
        raise KeyError((a, b))

    def to_json_dict(self, model: str) -> dict:
        return {
            "model": model,
            "coefficients": {
                v: {"c": co.c.to_json(), "e": co.e.to_json()}
                for v, co in self.coefficients.items()
            },
            "variant_pairs": [
                {
                    "a": comp.a,
                    "b": comp.b,
                    "identical": comp.identical,
                    "discrepancy_c": comp.discrepancy_c.to_json(),
                    "discrepancy_e": comp.discrepancy_e.to_json(),
                }
                for comp in self.comparisons
            ],
        }


def cross_check(pair: PfaffianPair) -> CrossCheckReport:
    """Compare printed and corrected coefficients against the bracket oracle."""
    coeffs = {v: coefficients(pair, v) for v in VARIANTS}
    comparisons = []
    for a in (PRINTED, CORRECTED):
        dc = coeffs[a].c - coeffs[ORACLE].c
        de = coeffs[a].e - coeffs[ORACLE].e
        comparisons.append(
            VariantComparison(
                a=a,
                b=ORACLE,
                identical=dc.is_zero() and de.is_zero(),
                discrepancy_c=dc,
                discrepancy_e=de,
            )
        )
    return CrossCheckReport(coefficients=coeffs, comparisons=tuple(comparisons))


def _field(cx: dict, cy: dict, cz: dict, cw: dict) -> PolyVectorField:
    return PolyVectorField(
        cx=SparsePoly(cx), cy=SparsePoly(cy), cz=SparsePoly(cz), cw=SparsePoly(cw)
    )


# Hand-derived closed forms of the characteristic fields of the degenerate
# catalog models, used as independent regression references:
#   d224   : 2z^2w dx + 2zw^2 dy - 2z dz - 2w dw
#   d2334a : -2zw dx - 2z^2w^2 dy - 2z dz + 2w dw
#   d2334b : -2z^2 dx - 2(z^4/3 + z^2w^2) dy - 2w dz + 2z dw
REFERENCE_FIELDS: dict[str, PolyVectorField] = {
    "d224": _field(
        {(0, 0, 2, 1): 2}, {(0, 0, 1, 2): 2}, {(0, 0, 1, 0): -2}, {(0, 0, 0, 1): -2}
    ),
    "d2334a": _field(
        {(0, 0, 1, 1): -2}, {(0, 0, 2, 2): -2}, {(0, 0, 1, 0): -2}, {(0, 0, 0, 1): 2}
    ),
    "d2334b": _field(
        {(0, 0, 2, 0): -2},
        {(0, 0, 4, 0): "-2/3", (0, 0, 2, 2): -2},
        {(0, 0, 0, 1): -2},
        {(0, 0, 1, 0): 2},
    ),
}


def horizontality_residuals(pair: PfaffianPair, field: PolyVectorField) -> tuple[SparsePoly, SparsePoly]:
    """(theta1(C), theta2(C)) = (C^x + f*C^w, C^y + g*C^w); zero for horizontal fields."""
    return (field.cx + pair.f * field.cw, field.cy + pair.g * field.cw)


def vanishes_on_sigma(field: PolyVectorField) -> bool:
    """True if every component lies in the ideal (z, w), i.e. the field
    vanishes identically on the surface z = w = 0."""
    return all(
        comp.subs("z", 0).subs("w", 0).is_zero() for comp in field.components()
    )
