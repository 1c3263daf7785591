"""Reference growth vector for the tests: every bracket level built first.

It brackets the frame up to ``max_step`` before it evaluates one column,
then ranks the accumulated columns level by level, so a slip in
``engelkit.distribution.growth_vector``'s on-demand levels (a level built
from the wrong one, or the rank taken before a level is complete) shows up
as a different ``GrowthVector``.

It is an independent route: the brackets come from the general
``lie_bracket``, the columns are all four components of the frame and of
every bracket, and the rank is that of those 4-vectors, by
``rational_rank`` at rational points and by the SVD of the unit columns
(``_float_rank`` here) at float points.  ``growth_vector`` uses none of
these: it builds its levels as (a, b) pairs from the frame's form
(``[Z, V] = dV/dz`` and a two-component ``[W, V]``) and takes 2 plus the
rank of the (a, b) columns.

At float points it shares only ``growth_vector``'s ``_float_value``, whose
rounding-bound zero test decides which entries are exact zeros.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from engelkit.distribution import (
    DEFAULT_MAX_STEP,
    DEFAULT_RANK_TOL,
    GrowthVector,
    PfaffianPair,
    PolyVectorField,
    _float_value,
    frame,
    lie_bracket,
    rational_rank,
)
from engelkit.poly import Point4


def eager_levels(pair: PfaffianPair, max_step: int) -> list[tuple[PolyVectorField, ...]]:
    """Bracket levels 1..max_step (at least 2) by the general ``lie_bracket``."""
    z_field, w_field = frame(pair)
    levels = [(z_field, w_field), (lie_bracket(z_field, w_field),)]
    while len(levels) < max_step:
        levels.append(tuple(lie_bracket(b, v) for v in levels[-1] for b in (z_field, w_field)))
    return levels


def _eval_exact(field: PolyVectorField, q: Point4) -> tuple[Fraction, ...]:
    return tuple(c.eval_exact(q) for c in field.components())


def _float_rank(matrix: np.ndarray, rank_tol: float) -> int:
    """Rank of 4 x k float columns: the singular values of the unit columns
    above ``rank_tol`` relative to the largest.  Each column is first scaled
    by a power of two, which is exact and keeps the norm from underflowing."""
    _, exponents = np.frexp(np.abs(matrix).max(axis=0))
    matrix = np.ldexp(matrix, -exponents)
    norms = np.linalg.norm(matrix, axis=0)
    columns = matrix[:, norms > 0.0] / norms[norms > 0.0]
    if columns.size == 0:
        return 0
    sv = np.linalg.svd(columns, compute_uv=False)
    return int(np.sum(sv > rank_tol * sv[0]))


def eager_growth_vector(
    pair: PfaffianPair,
    q: Point4,
    max_step: int = DEFAULT_MAX_STEP,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> GrowthVector:
    dims: list[int] = []
    columns = []
    for level in eager_levels(pair, max_step):
        if q.is_rational:
            columns += [_eval_exact(field, q) for field in level]
            dims.append(rational_rank(columns))
        else:
            xs = q.as_floats()
            columns += [[_float_value(c, xs) for c in field.components()] for field in level]
            dims.append(_float_rank(np.array(columns).T, rank_tol))
        if dims[-1] == 4:
            return GrowthVector(tuple(dims), True)
    return GrowthVector(tuple(dims), False)
