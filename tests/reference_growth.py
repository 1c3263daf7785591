"""Reference growth vector for the tests: every bracket level built first.

It brackets the frame up to ``max_step`` before it evaluates one column,
then ranks the accumulated columns level by level, so a slip in
``engelkit.distribution.growth_vector``'s on-demand levels (a level built
from the wrong one, or the rank taken before a level is complete) shows up
as a different ``GrowthVector``.  The brackets and the ranks are the
module's own ``lie_bracket``, ``rational_rank`` and ``_float_rank``.
"""

from __future__ import annotations

import numpy as np

from engelkit.distribution import (
    DEFAULT_MAX_STEP,
    DEFAULT_RANK_TOL,
    GrowthVector,
    PfaffianPair,
    _float_rank,
    frame,
    lie_bracket,
    rational_rank,
)
from engelkit.poly import Point4


def eager_growth_vector(
    pair: PfaffianPair,
    q: Point4,
    max_step: int = DEFAULT_MAX_STEP,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> GrowthVector:
    z_field, w_field = frame(pair)
    levels = [(z_field, w_field), (lie_bracket(z_field, w_field),)]
    while len(levels) < max_step:
        levels.append(tuple(lie_bracket(b, v) for v in levels[-1] for b in (z_field, w_field)))
    dims: list[int] = []
    columns = []
    for level in levels:
        if q.is_rational:
            columns += [field.eval_exact(q) for field in level]
            dims.append(rational_rank(columns))
        else:
            columns += [field.eval(q) for field in level]
            dims.append(_float_rank(np.array(columns).T, rank_tol))
        if dims[-1] == 4:
            return GrowthVector(tuple(dims), True)
    return GrowthVector(tuple(dims), False)
