"""Rank-2 distributions on R^4 presented as Pfaffian pairs.

A pair of polynomials (f, g) defines the distribution D as the common
kernel of the 1-forms

    theta1 = dx + f dw,      theta2 = dy + g dw,

which is framed by the vector fields Z = d/dz and W = d/dw - f d/dx - g d/dy.
Every bracket of the frame is a d/dx + b d/dy and is held as its (a, b)
pair, built from the frame's form by ``bracket_levels``, the only place
the package forms brackets.  This module computes those brackets, growth
vectors (2 plus the exact rank of the (a, b) columns at every point), the
polynomial Engel certificate, and hosts the model catalog: the standard
Engel pair plus the three degenerate normal forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .codegen import function_source, kernel, tuple_source
from .poly import Point4, SparsePoly

DEFAULT_MAX_STEP = 6


@dataclass(frozen=True)
class PolyVectorField:
    """Vector field on R^4 with polynomial components in the coordinate frame."""

    cx: SparsePoly
    cy: SparsePoly
    cz: SparsePoly
    cw: SparsePoly

    def components(self) -> tuple[SparsePoly, SparsePoly, SparsePoly, SparsePoly]:
        return (self.cx, self.cy, self.cz, self.cw)

    def compile_rhs(self):
        """Autonomous ODE right-hand side rhs(t, q) -> 4-tuple of floats,
        generated from the components' float_source()."""
        values = tuple_source(c.float_source() for c in self.components())
        return kernel(function_source("rhs(t, q)", ["x, y, z, w = q", f"return {values}"]), "rhs")

    def __neg__(self) -> "PolyVectorField":
        """The time-reversed field, for ``flow.integrate`` at negative t_end."""
        return PolyVectorField(*(-c for c in self.components()))


@dataclass(frozen=True)
class PfaffianPair:
    """The pair (f, g) presenting D = ker(dx + f dw) ∩ ker(dy + g dw)."""

    f: SparsePoly
    g: SparsePoly

    def to_json_dict(self) -> dict:
        return {"f": self.f.to_json(), "g": self.g.to_json()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PfaffianPair":
        polys = {}
        for key in ("f", "g"):
            try:
                polys[key] = SparsePoly.from_json(data[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from exc
        return cls(**polys)


@dataclass(frozen=True)
class GrowthVector:
    """Dimensions of the bracket flag D ⊂ D^2 ⊂ ... at a point.

    ``dims`` ends at the first entry equal to 4, or is truncated at the
    configured maximum step with ``bracket_generating=False``.
    """

    dims: tuple[int, ...]
    bracket_generating: bool

    def __str__(self) -> str:
        body = ",".join(str(d) for d in self.dims)
        suffix = "" if self.bracket_generating else ",... (not bracket generating)"
        return f"({body}{suffix})"


# A bracket past the frame, a d/dx + b d/dy, as its pair (a, b).
Bracket = tuple[SparsePoly, SparsePoly]


def _bracket_z(v: Bracket) -> Bracket:
    """[Z, V] = dV/dz = (a_z, b_z), as Z = d/dz is constant; on W's x, y part
    (-f, -g) it gives [Z, W]."""
    return (v[0].diff("z"), v[1].diff("z"))


def _bracket_w(w_xy: Bracket, partials, v: Bracket) -> Bracket:
    """[W, V] for W = d/dw - f d/dx - g d/dy and V = (a, b), with ``w_xy`` =
    (-f, -g) and ``partials`` = ((f_x, f_y), (g_x, g_y)):

        (a_w - f a_x - g a_y + a f_x + b f_y,  b_w - f b_x - g b_y + a g_x + b g_y).

    Products with a zero factor add no term and are skipped.
    """
    a, b = v
    out = []
    for c, (p_x, p_y) in ((a, partials[0]), (b, partials[1])):
        products = ((w_xy[0], c.diff("x")), (w_xy[1], c.diff("y")), (a, p_x), (b, p_y))
        acc = c.diff("w")
        for left, right in products:
            if left and right:
                acc = acc + left * right
        out.append(acc)
    return tuple(out)


@lru_cache(maxsize=64)
def bracket_levels(pair: PfaffianPair, max_step: int) -> tuple[tuple[Bracket, ...], ...]:
    """Iterated-bracket generations 2..max_step of the frame (Z, W).

    Level 2 is [Z, W]; level k+1 holds [Z, V] and [W, V] for every V of
    level k.  Left-normed brackets span each graded piece of the generated
    Lie algebra, so with the frame these levels span the full flag.  Each
    call brackets only its last level onto the cached levels below it.

    The brackets are built from the frame's form: [Z, W] = (-f_z, -g_z),
    then ``_bracket_z`` and ``_bracket_w``.  Level 3 is ([Z, [Z, W]],
    [W, [Z, W]]), which ``charfield.coeffs_oracle`` reads.
    """
    w_xy = (-pair.f, -pair.g)
    if max_step == 2:
        return ((_bracket_z(w_xy),),)
    levels = bracket_levels(pair, max_step - 1)
    partials = tuple((p.diff("x"), p.diff("y")) for p in (pair.f, pair.g))
    nxt = tuple(
        bracket
        for v in levels[-1]
        for bracket in (_bracket_z(v), _bracket_w(w_xy, partials, v))
    )
    return levels + (nxt,)


def rational_rank(columns: list[tuple[Fraction, ...]]) -> int:
    """Exact rank of a list of 4-component rational column vectors."""
    rows: list[list[Fraction]] = [list(col) for col in columns]
    rank = 0
    ncols = 4
    pivot_col = 0
    while rank < len(rows) and pivot_col < ncols:
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][pivot_col] != 0:
                pivot = r
                break
        if pivot is None:
            pivot_col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][pivot_col]
        for r in range(rank + 1, len(rows)):
            if rows[r][pivot_col] != 0:
                factor = rows[r][pivot_col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        pivot_col += 1
    return rank


def growth_vector(pair: PfaffianPair, q: Point4, max_step: int = DEFAULT_MAX_STEP) -> GrowthVector:
    """Exact growth vector of the distribution at a point.

    Level 1, the frame, has rank 2, as the z, w parts of Z and W are (1, 0)
    and (0, 1); every later bracket is a d/dx + b d/dy, so after level k the
    rank is 2 plus the rank of the (a, b) columns of levels 2..k at the
    exact point ``q.powers()`` (a float at the decimal value of its repr, so
    0.1 and 1/10 read alike): one 2x2 minor per column against the first
    nonzero one.  Each column is taken in integers by ``eval_integer`` as
    (a/s_a, b/s_b) and scaled by s_a*s_b > 0, which keeps the rank.  Level
    k+1 is built only while that rank is below 4.
    """
    if max_step < 2:
        raise ValueError("max_step must be at least 2")
    powers = q.powers()
    dims = [2]
    first = None
    for step in range(2, max_step + 1):
        for a_poly, b_poly in bracket_levels(pair, step)[-1]:
            a, s_a = a_poly.eval_integer(powers)
            b, s_b = b_poly.eval_integer(powers)
            if not (a or b):
                continue
            a, b = a * s_b, b * s_a
            if first is None:
                first = (a, b)
            elif a * first[1] != b * first[0]:
                return GrowthVector(tuple(dims) + (4,), True)
        dims.append(2 if first is None else 3)
    return GrowthVector(tuple(dims), False)


@lru_cache(maxsize=64)
def engel_certificate(pair: PfaffianPair) -> SparsePoly:
    """Polynomial certificate g_z*f_zz - f_z*g_zz, -e of the characteristic
    field C = c*Z + e*W; a nonzero value at a point is sufficient for growth
    (2,3,4) there."""
    f_z = pair.f.diff("z")
    g_z = pair.g.diff("z")
    return g_z * f_z.diff("z") - f_z * g_z.diff("z")


ENGEL_GROWTH = (2, 3, 4)


@dataclass(frozen=True)
class SigmaReport:
    """Comparison of the two Engel tests at a point.

    The growth-vector computation is authoritative; the certificate is a
    sufficient condition only and may vanish at points that are Engel by
    growth (for the (2,2,4) model this happens on w = 0, z != 0).
    """

    point: Point4
    certificate: Fraction
    growth: GrowthVector
    is_engel_by_growth: bool

    @property
    def certificate_value(self) -> float:
        """The exact certificate rounded to a float, +-inf past the float
        range."""
        try:
            return float(self.certificate)
        except OverflowError:
            return math.inf if self.certificate > 0 else -math.inf

    @property
    def certificate_nonzero(self) -> bool:
        return self.certificate != 0

    @property
    def tests_disagree(self) -> bool:
        return self.certificate_nonzero != self.is_engel_by_growth


def sigma_check(pair: PfaffianPair, q: Point4, max_step: int = DEFAULT_MAX_STEP) -> SigmaReport:
    """Evaluate the Engel certificate and the growth vector at one point,
    both exactly on its one table ``q.powers()``."""
    certificate = engel_certificate(pair).eval_exact(q)
    growth = growth_vector(pair, q, max_step=max_step)
    return SigmaReport(
        point=q,
        certificate=certificate,
        growth=growth,
        is_engel_by_growth=growth.dims == ENGEL_GROWTH,
    )


# Catalog of built-in models, keyed by id.  Exponent order is (x, y, z, w).
#   engel_std : f = z,   g = z^2/2        growth (2,3,4) everywhere
#   d224      : f = z^2, g = z*w          growth (2,2,4) on z = w = 0
#   d2334a    : f = z,   g = z^2*w        growth (2,3,3,4) on z = w = 0
#   d2334b    : f = z,   g = z^3/3 + z*w^2  growth (2,3,3,4) on z = w = 0
CATALOG: dict[str, PfaffianPair] = {
    "engel_std": PfaffianPair(
        f=SparsePoly({(0, 0, 1, 0): 1}),
        g=SparsePoly({(0, 0, 2, 0): Fraction(1, 2)}),
    ),
    "d224": PfaffianPair(
        f=SparsePoly({(0, 0, 2, 0): 1}),
        g=SparsePoly({(0, 0, 1, 1): 1}),
    ),
    "d2334a": PfaffianPair(
        f=SparsePoly({(0, 0, 1, 0): 1}),
        g=SparsePoly({(0, 0, 2, 1): 1}),
    ),
    "d2334b": PfaffianPair(
        f=SparsePoly({(0, 0, 1, 0): 1}),
        g=SparsePoly({(0, 0, 3, 0): Fraction(1, 3), (0, 0, 1, 2): 1}),
    ),
}

DEGENERATE_MODELS = ("d224", "d2334a", "d2334b")


def load_pair(path: str | Path) -> PfaffianPair:
    """Load a user model from a JSON file with top-level keys "f" and "g"."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "f" not in data or "g" not in data:
        raise ValueError(f"{path}: expected a JSON object with keys 'f' and 'g'")
    try:
        return PfaffianPair.from_json_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def resolve_model(model_id: str) -> tuple[str, PfaffianPair]:
    """Resolve a model id: a catalog name, or a path to a user JSON file."""
    key = model_id.lower()
    if key in CATALOG:
        return key, CATALOG[key]
    path = Path(model_id)
    if path.exists():
        return f"user:{path.name}", load_pair(path)
    raise KeyError(f"unknown model {model_id!r} (not in catalog, not a file)")
