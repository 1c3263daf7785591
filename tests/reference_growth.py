"""Reference growth vector for the tests: every bracket level built first.

It brackets the frame up to step ``DEFAULT_MAX_STEP`` before it evaluates
one column, then ranks the accumulated columns level by level, so a slip in
``engelkit.distribution.growth_vector``'s on-demand levels (a level built
from the wrong one, or the rank taken before a level is complete) shows up
as a different ``GrowthVector``.

It is an independent route: the brackets come from the general 4x4
``lie_bracket`` defined here, the columns are all four components of the
frame and of every bracket, taken as Fractions at ``q`` by the term loop
``reference_eval_exact``, and the rank is that of those 4-vectors by the
Gaussian elimination of ``rational_rank``.  ``growth_vector`` uses none of
these: it builds its levels as (a, b) pairs from the frame's form
(``[Z, V] = dV/dz`` and a two-component ``[W, V]``), evaluates them in
integers over each coordinate's own denominator and takes 2 plus the rank
of the (a, b) columns by 2x2 minors.

The general bracket is also the reference for ``charfield.coeffs_oracle``,
which reads its two second brackets from ``bracket_levels``.  The field
arithmetic below (``field_add``, ``field_scale``, ``field_eval``) serves the
tests of ``lie_bracket`` itself (antisymmetry, Jacobi) and of field values.
"""

from __future__ import annotations

import numpy as np

from engelkit.distribution import (
    DEFAULT_MAX_STEP,
    GrowthVector,
    PfaffianPair,
    PolyVectorField,
    rational_rank,
)
from engelkit.poly import VARS, Point4, SparsePoly
from reference_poly import reference_eval_exact


def frame(pair: PfaffianPair) -> tuple[PolyVectorField, PolyVectorField]:
    """Frame (Z, W) of the distribution: Z = d/dz, W = d/dw - f d/dx - g d/dy."""
    zero = SparsePoly.zero()
    one = SparsePoly.const(1)
    return PolyVectorField(zero, zero, one, zero), PolyVectorField(-pair.f, -pair.g, zero, one)


def lie_bracket(v1: PolyVectorField, v2: PolyVectorField) -> PolyVectorField:
    """Coordinate Lie bracket [V1, V2]^i = sum_j (V1^j d_j V2^i - V2^j d_j V1^i)."""
    a = v1.components()
    b = v2.components()
    out = []
    for i in range(4):
        acc = SparsePoly.zero()
        for j, name in enumerate(VARS):
            acc = acc + a[j] * b[i].diff(name) - b[j] * a[i].diff(name)
        out.append(acc)
    return PolyVectorField(*out)


def field_add(v1: PolyVectorField, v2: PolyVectorField) -> PolyVectorField:
    return PolyVectorField(*(p + q for p, q in zip(v1.components(), v2.components())))


def field_scale(scalar, v: PolyVectorField) -> PolyVectorField:
    return PolyVectorField(*(scalar * p for p in v.components()))


def field_eval(v: PolyVectorField, q: Point4) -> np.ndarray:
    return np.array([float(p.eval_exact(q)) for p in v.components()], dtype=float)


def eager_levels(pair: PfaffianPair, max_step: int) -> list[tuple[PolyVectorField, ...]]:
    """Bracket levels 1..max_step (at least 2) by the general ``lie_bracket``."""
    z_field, w_field = frame(pair)
    levels = [(z_field, w_field), (lie_bracket(z_field, w_field),)]
    while len(levels) < max_step:
        levels.append(tuple(lie_bracket(b, v) for v in levels[-1] for b in (z_field, w_field)))
    return levels


def eager_growth_vector(pair: PfaffianPair, q: Point4) -> GrowthVector:
    dims: list[int] = []
    columns = []
    for level in eager_levels(pair, DEFAULT_MAX_STEP):
        columns += [
            tuple(reference_eval_exact(c, q) for c in field.components()) for field in level
        ]
        dims.append(rational_rank(columns))
        if dims[-1] == 4:
            return GrowthVector(tuple(dims), True)
    return GrowthVector(tuple(dims), False)
