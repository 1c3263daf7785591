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
    frame, c = -<lambda, [W,[Z,W]]> and e = <lambda, [Z,[Z,W]]>.  Both
    second brackets are a d/dx + b d/dy in this chart, so they are read as
    the (a, b) pairs of ``distribution.bracket_levels`` level 3, and the
    pairing is lambda1*a + lambda2*b.  The oracle drives all downstream flow
    and surface computations.

``corrected`` and ``oracle`` agree as exact polynomials for every pair;
``printed`` agrees with them whenever the x/y mixed partials vanish (in
particular on all four catalog models).  All equalities here are exact
term-map identities, not numeric approximations.  Both closed forms take
e = f_z*g_zz - g_z*f_zz as the negated ``distribution.engel_certificate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .distribution import PfaffianPair, PolyVectorField, bracket_levels, engel_certificate
from .poly import SparsePoly

PRINTED = "printed"
CORRECTED = "corrected"
ORACLE = "oracle"
VARIANTS = (PRINTED, CORRECTED, ORACLE)


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


def char_covector(pair: PfaffianPair) -> CharCovector:
    """The annihilator section (lambda1, lambda2) = (g_z, -f_z)."""
    return CharCovector(lambda1=pair.g.diff("z"), lambda2=-pair.f.diff("z"))


def _closed_form(pair: PfaffianPair, wx, wy) -> CharCoefficients:
    """The closed form with weights (wx, wy) on the mixed x and y partials:

    c = g_z*(f_zw - wx*f_zx - wy*f_zy + g_z*f_y - f_z*g_y + f_z*f_x)
      + f_z*(wy*g_zy - g_zw + wx*g_zx - f_z*g_x)
    e = f_z*g_zz - g_z*f_zz
    """
    f, g = pair.f, pair.g
    f_z, g_z = f.diff("z"), g.diff("z")
    k = (
        f_z.diff("w")
        - wx * f_z.diff("x")
        - wy * f_z.diff("y")
        + g_z * f.diff("y")
        - f_z * g.diff("y")
        + f_z * f.diff("x")
    )
    h = wy * g_z.diff("y") - g_z.diff("w") + wx * g_z.diff("x") - f_z * g.diff("x")
    return CharCoefficients(c=g_z * k + f_z * h, e=-engel_certificate(pair))


def coeffs_printed(pair: PfaffianPair) -> CharCoefficients:
    """Closed-form coefficients with bare mixed partials: the weights
    (wx, wy) of :func:`_closed_form` are (1, 1)."""
    return _closed_form(pair, 1, 1)


def coeffs_corrected(pair: PfaffianPair) -> CharCoefficients:
    """Closed-form coefficients with f,g-weighted mixed partials: the
    weights (wx, wy) of :func:`_closed_form` are (f, g).

    Identical to the bracket oracle as an exact polynomial identity; the
    test suite re-checks this on the catalog and on random pairs.
    """
    return _closed_form(pair, pair.f, pair.g)


def coeffs_oracle(pair: PfaffianPair) -> CharCoefficients:
    """Bracket-based coefficients: c = -<lambda, [W,[Z,W]]>, e = <lambda, [Z,[Z,W]]>,
    with the two second brackets the (a, b) pairs of ``bracket_levels``."""
    _, (zb, wb) = bracket_levels(pair, 3)
    cov = char_covector(pair)
    e = cov.lambda1 * zb[0] + cov.lambda2 * zb[1]
    c = -(cov.lambda1 * wb[0] + cov.lambda2 * wb[1])
    return CharCoefficients(c=c, e=e)


_COEFF_FUNCS = {PRINTED: coeffs_printed, CORRECTED: coeffs_corrected, ORACLE: coeffs_oracle}


@lru_cache(maxsize=64)
def coefficients(pair: PfaffianPair, variant: str = ORACLE) -> CharCoefficients:
    """The coefficients (c, e) of one variant, computed once per (pair,
    variant) while it stays among the last 64 asked for: the exact bracket
    algebra does not change, and the frozen result is safe to share."""
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

