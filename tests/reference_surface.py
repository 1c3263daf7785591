"""Exact singular-surface offsets of pairs with a star node at the origin.

Take a pair (f, g) in z and w alone.  Its x and y partials vanish, so the
closed form of the characteristic coefficients reads

    c = g_z f_zw - f_z g_zw,      e = f_z g_zz - g_z f_zz,

and the field is C = (-e f, -e g, c, e).  When (C^z, C^w) = lam (z, w)
with lam < 0, the flow from (0, 0, z0, w0) has (z, w)(t) = exp(lam t)
(z0, w0).  When C^x and C^y are homogeneous of degree k in (z, w), then
C^x(exp(lam t) q) = exp(k lam t) C^x(q), so x and y reach exactly

    -(C^x, C^y)(z0, w0) / (k lam).

On d224 (lam = -2, k = 3) that is (z0^2 w0 / 3, z0 w0^2 / 3).  When
lam > 0 the origin is reached under -C, whose components are those of C
negated, and the same formula holds: -(-C^x) / (k (-lam)) = -C^x / (k lam).
Every homogeneous quadratic pair whose (C^z, C^w) is not zero is such a
star node, with k = 3.

``OUTWARD`` is one of them with lam = 20 > 0: f = 2z^2 - 3zw - 2w^2,
g = -2z^2 - 2zw + 2w^2.  Its growth at the origin is (2, 2, 4), as d224's.

Everything here is exact ``SparsePoly`` and ``Fraction`` arithmetic: the
field comes from the formula above, not from ``engelkit.charfield``, and
the values from ``eval_exact``, so the reference shares no float code
with the flow.
"""

from __future__ import annotations

from fractions import Fraction

from engelkit.distribution import PfaffianPair
from engelkit.poly import Point4, SparsePoly

Z = SparsePoly.var("z")
W = SparsePoly.var("w")

OUTWARD = PfaffianPair(2 * Z * Z - 3 * Z * W - 2 * W * W, -2 * Z * Z - 2 * Z * W + 2 * W * W)


def zw_char_field(pair: PfaffianPair) -> tuple[SparsePoly, ...]:
    """(C^x, C^y, C^z, C^w) of a pair free of x and y."""
    f, g = pair.f, pair.g
    if any(p.degree_in(v) > 0 for p in (f, g) for v in ("x", "y")):
        raise ValueError("the pair depends on x or y")
    f_z, g_z = f.diff("z"), g.diff("z")
    c = g_z * f_z.diff("w") - f_z * g_z.diff("w")
    e = f_z * g_z.diff("z") - g_z * f_z.diff("z")
    return -e * f, -e * g, c, e


def star_node(pair: PfaffianPair) -> tuple[Fraction, int] | None:
    """(lam, k) when (C^z, C^w) = lam (z, w) with lam != 0 and C^x, C^y
    are homogeneous of one degree k in (z, w); None otherwise."""
    cx, cy, cz, cw = zw_char_field(pair)
    lam = cz.terms.get((0, 0, 1, 0))
    if lam is None or cz != lam * Z or cw != lam * W:
        return None
    degrees = {ez + ew for p in (cx, cy) for _, _, ez, ew in p.terms}
    return (lam, degrees.pop()) if len(degrees) == 1 else None


def exact_offsets(pair: PfaffianPair, z0: float, w0: float) -> tuple[Fraction, Fraction]:
    """The exact offsets (dx, dy) that the flow from (0, 0, z0, w0) into a
    star node accumulates, at the binary values of z0 and w0."""
    node = star_node(pair)
    if node is None:
        raise ValueError("the origin is not a star node of the pair")
    lam, k = node
    cx, cy, _, _ = zw_char_field(pair)
    q = Point4(0, 0, Fraction(z0), Fraction(w0))
    return -cx.eval_exact(q) / (k * lam), -cy.eval_exact(q) / (k * lam)
