"""Reference growth vector for the tests: every bracket level built first.

It brackets the frame up to ``max_step`` before it evaluates one column,
then ranks the accumulated columns level by level, so a slip in
``engelkit.distribution.growth_vector``'s on-demand levels (a level built
from the wrong one, or the rank taken before a level is complete) shows up
as a different ``GrowthVector``.

At rational points this is an independent route: the brackets come from
the general ``lie_bracket``, the columns are all four components from
``PolyVectorField.eval_exact``, and ``rational_rank`` eliminates them.
``growth_vector`` uses none of these: it builds its levels from the
frame's form (``[Z, V] = dV/dz`` and a two-component ``[W, V]``),
evaluates only the x and y components of brackets past the frame, and
takes 2 plus the rank of those (a, b) columns.

At float points it shares ``growth_vector``'s ``_float_column``, whose
rounding-bound zero test decides which entries are exact zeros, and
``_float_rank``.
"""

from __future__ import annotations

import numpy as np

from engelkit.distribution import (
    DEFAULT_MAX_STEP,
    DEFAULT_RANK_TOL,
    GrowthVector,
    PfaffianPair,
    PolyVectorField,
    _float_column,
    _float_rank,
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
            columns += [field.eval_exact(q) for field in level]
            dims.append(rational_rank(columns))
        else:
            columns += [_float_column(field, q.as_floats()) for field in level]
            dims.append(_float_rank(np.array(columns).T, rank_tol))
        if dims[-1] == 4:
            return GrowthVector(tuple(dims), True)
    return GrowthVector(tuple(dims), False)
