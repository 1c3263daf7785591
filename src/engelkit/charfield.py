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

import math
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


NODE, SADDLE, CENTER = "node", "saddle", "center"


@dataclass(frozen=True)
class OriginKind:
    """The origin as a zero of the oracle field C, by its frame matrix
    M~ = [[Z c, W c], [Z e, W e]](0), whose eigenvalues are the nonzero ones
    of the 4 x 4 Jacobian of C at 0 (Perko, Differential Equations and
    Dynamical Systems, 2.6-2.10).

    NODE is a node or focus (det M~ > 0, tr M~ != 0): every nearby curve
    reaches the origin under ``sign`` * C, +1 if tr M~ < 0 and -1 if
    tr M~ > 0.  At a SADDLE (det M~ < 0) curves reach it under +C along the
    unit stable eigenline ``stable``, its largest component positive; CENTER:
    tr M~ = 0 < det M~.  ``rate`` is the largest |Re lam| over the
    eigenvalues lam of M~: |lam_s| of the stable one at a saddle, the
    angular speed at a center.  ``skew`` says whether C is a skew product
    (free of x and y), so that its singular surface is a graph over (z, w).
    """

    name: str
    rate: float
    skew: bool
    sign: int = 1
    stable: tuple[float, float] | None = None


_ONE, _X, _Y, _Z, _W = (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


@lru_cache(maxsize=64)
def origin_kind(pair: PfaffianPair) -> OriginKind | None:
    """The kind of the origin by the exact tr M~ and det M~, cached per pair
    as :func:`coefficients` is; None when C(0) != 0 or det M~ = 0.  C = (-e*f,
    -e*g, c, e) vanishes at 0 exactly when c and e do.  With W = d/dw -
    f d/dx - g d/dy, the second column of M~ is that of M = d(c, e)/d(z, w)(0)
    less f(0) (c_x, e_x)(0) + g(0) (c_y, e_y)(0)."""
    co = coefficients(pair, ORACLE)
    cz, cw = co.c.terms, co.e.terms
    if _ONE in cz or _ONE in cw:
        return None
    f0, g0 = pair.f.terms.get(_ONE, 0), pair.g.terms.get(_ONE, 0)
    (a, b), (c, d) = (
        (p.get(_Z, 0), p.get(_W, 0) - f0 * p.get(_X, 0) - g0 * p.get(_Y, 0)) for p in (cz, cw)
    )
    tr, det = a + d, a * d - b * c
    if det == 0:
        return None
    skew = all(p.degree_in("x") <= 0 and p.degree_in("y") <= 0
               for p in assemble_field(pair, co).components())
    if det > 0:
        if tr == 0:
            return OriginKind(CENTER, math.sqrt(det), skew)
        rate = (abs(tr) + math.sqrt(max(tr * tr - 4 * det, 0))) / 2
        return OriginKind(NODE, rate, skew, 1 if tr < 0 else -1)
    lam = (tr - math.sqrt(tr * tr - 4 * det)) / 2
    # Both candidates solve (M~ - lam I) v = 0; M~ - lam I has rank 1, so the
    # longer one is not zero.
    v = max(((float(b), lam - float(a)), (lam - float(d), float(c))),
            key=lambda u: math.hypot(*u))
    n = math.copysign(math.hypot(*v), max(v, key=abs))
    return OriginKind(SADDLE, -lam, skew, stable=(v[0] / n, v[1] / n))


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


def horizontality_residuals(pair: PfaffianPair, field: PolyVectorField) -> tuple[SparsePoly, SparsePoly]:
    """(theta1(C), theta2(C)) = (C^x + f*C^w, C^y + g*C^w); zero for horizontal fields."""
    return (field.cx + pair.f * field.cw, field.cy + pair.g * field.cw)

