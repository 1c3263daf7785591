"""Reference growth vector for the tests: every bracket level built first.

It brackets the frame up to ``max_step`` before it evaluates one column,
then ranks the accumulated columns level by level, so a slip in
``engelkit.distribution.growth_vector``'s on-demand levels (a level built
from the wrong one, or the rank taken before a level is complete) shows up
as a different ``GrowthVector``.

It is an independent route: the brackets come from the general
``lie_bracket``, the columns are all four components of the frame and of
every bracket, taken as Fractions at ``q`` by the term loop
``reference_eval_exact``, and the rank is that of those 4-vectors by the
Gaussian elimination of ``rational_rank``.  ``growth_vector`` uses none of
these: it builds its levels as (a, b) pairs from the frame's form
(``[Z, V] = dV/dz`` and a two-component ``[W, V]``), evaluates them in
integers over each coordinate's own denominator and takes 2 plus the rank
of the (a, b) columns by 2x2 minors.
"""

from __future__ import annotations

from engelkit.distribution import (
    DEFAULT_MAX_STEP,
    GrowthVector,
    PfaffianPair,
    PolyVectorField,
    frame,
    lie_bracket,
    rational_rank,
)
from engelkit.poly import Point4
from reference_poly import reference_eval_exact


def eager_levels(pair: PfaffianPair, max_step: int) -> list[tuple[PolyVectorField, ...]]:
    """Bracket levels 1..max_step (at least 2) by the general ``lie_bracket``."""
    z_field, w_field = frame(pair)
    levels = [(z_field, w_field), (lie_bracket(z_field, w_field),)]
    while len(levels) < max_step:
        levels.append(tuple(lie_bracket(b, v) for v in levels[-1] for b in (z_field, w_field)))
    return levels


def eager_growth_vector(
    pair: PfaffianPair, q: Point4, max_step: int = DEFAULT_MAX_STEP
) -> GrowthVector:
    dims: list[int] = []
    columns = []
    for level in eager_levels(pair, max_step):
        columns += [
            tuple(reference_eval_exact(c, q) for c in field.components()) for field in level
        ]
        dims.append(rational_rank(columns))
        if dims[-1] == 4:
            return GrowthVector(tuple(dims), True)
    return GrowthVector(tuple(dims), False)
