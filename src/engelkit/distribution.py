"""Rank-2 distributions on R^4 presented as Pfaffian pairs.

A pair of polynomials (f, g) defines the distribution D as the common
kernel of the 1-forms

    theta1 = dx + f dw,      theta2 = dy + g dw,

which is framed by the vector fields Z = d/dz and W = d/dw - f d/dx - g d/dy.
This module computes Lie brackets, growth vectors (with exact rational rank
at rational points), the polynomial Engel certificate, and hosts the model
catalog: the standard Engel pair plus the three degenerate normal forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .codegen import function_source, kernel, tuple_source
from .poly import Point4, SparsePoly, VARS

DEFAULT_RANK_TOL = 1e-9
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

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components())

    def eval_exact(self, q: Point4) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(c.eval_exact(q) for c in self.components())  # type: ignore[return-value]

    def eval(self, q: Point4) -> np.ndarray:
        return np.array([c.eval(q) for c in self.components()], dtype=float)

    def compile_rhs(self):
        """Autonomous ODE right-hand side rhs(t, q) -> 4-tuple of floats,
        generated from the components' float_source()."""
        values = tuple_source(c.float_source() for c in self.components())
        return kernel(function_source("rhs(t, q)", ["x, y, z, w = q", f"return {values}"]), "rhs")

    def __add__(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(
            self.cx + other.cx, self.cy + other.cy, self.cz + other.cz, self.cw + other.cw
        )

    def __rmul__(self, scalar) -> "PolyVectorField":
        return PolyVectorField(
            scalar * self.cx, scalar * self.cy, scalar * self.cz, scalar * self.cw
        )

    def __neg__(self) -> "PolyVectorField":
        return -1 * self


@dataclass(frozen=True)
class PfaffianPair:
    """The pair (f, g) presenting D = ker(dx + f dw) ∩ ker(dy + g dw)."""

    f: SparsePoly
    g: SparsePoly

    def to_json_dict(self) -> dict:
        return {"f": self.f.to_json(), "g": self.g.to_json()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PfaffianPair":
        return cls(f=SparsePoly.from_json(data["f"]), g=SparsePoly.from_json(data["g"]))


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


def frame(pair: PfaffianPair) -> tuple[PolyVectorField, PolyVectorField]:
    """Frame (Z, W) of the distribution: Z = d/dz, W = d/dw - f d/dx - g d/dy."""
    zero = SparsePoly.zero()
    one = SparsePoly.const(1)
    z_field = PolyVectorField(zero, zero, one, zero)
    w_field = PolyVectorField(-pair.f, -pair.g, zero, one)
    return z_field, w_field


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


@lru_cache(maxsize=64)
def bracket_levels(pair: PfaffianPair, max_step: int) -> tuple[tuple[PolyVectorField, ...], ...]:
    """Iterated-bracket generations 1..max_step of the frame.

    Level 1 is (Z, W); level k+1 holds [Z, V] and [W, V] for every V of
    level k.  Left-normed brackets span each graded piece of the generated
    Lie algebra, so accumulating these levels spans the full flag.  Each
    call brackets only its last level onto the cached levels below it.
    """
    if max_step == 1:
        return (frame(pair),)
    levels = bracket_levels(pair, max_step - 1)
    z_field, w_field = levels[0]
    if max_step == 2:
        nxt = (lie_bracket(z_field, w_field),)
    else:
        nxt = tuple(lie_bracket(basis, v) for v in levels[-1] for basis in (z_field, w_field))
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


def _float_rank(matrix: np.ndarray, rank_tol: float) -> int:
    # Unit columns keep the rank; unscaled, deep brackets ~1e10 long would
    # lift the relative threshold above the frame's unit singular values.
    # Scaling each column by a power of two first is exact and keeps the
    # squares in the norm from underflowing (entries below ~1e-162).
    _, exponents = np.frexp(np.abs(matrix).max(axis=0))
    matrix = np.ldexp(matrix, -exponents)
    norms = np.linalg.norm(matrix, axis=0)
    columns = matrix[:, norms > 0.0] / norms[norms > 0.0]
    if columns.size == 0:
        return 0
    sv = np.linalg.svd(columns, compute_uv=False)
    return int(np.sum(sv > rank_tol * sv[0]))


def growth_vector(
    pair: PfaffianPair,
    q: Point4,
    max_step: int = DEFAULT_MAX_STEP,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> GrowthVector:
    """Growth vector of the distribution at a point.

    Accumulates the bracket levels and reports the rank of the evaluated
    spanning set after each level; level k+1 is built only while the rank
    after level k is below 4.  At rational points the rank is exact
    (Gaussian elimination over Q) and ``rank_tol`` is ignored; otherwise
    the rank is the number of singular values above ``rank_tol`` relative
    to the largest one.
    """
    if max_step < 2:
        raise ValueError("max_step must be at least 2")
    dims: list[int] = []
    exact = q.is_rational
    columns_exact: list[tuple[Fraction, ...]] = []
    columns_float: list[np.ndarray] = []
    for step in range(1, max_step + 1):
        for field in bracket_levels(pair, step)[-1]:
            if exact:
                columns_exact.append(field.eval_exact(q))
            else:
                columns_float.append(field.eval(q))
        if exact:
            rank = rational_rank(columns_exact)
        else:
            rank = _float_rank(np.array(columns_float).T, rank_tol)
        dims.append(rank)
        if rank == 4:
            return GrowthVector(tuple(dims), True)
    return GrowthVector(tuple(dims), False)


def engel_certificate(pair: PfaffianPair) -> SparsePoly:
    """Polynomial certificate g_z*f_zz - f_z*g_zz; nonzero value at a point
    is sufficient for growth (2,3,4) there."""
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
    certificate_value: float
    growth: GrowthVector
    is_engel_by_growth: bool

    @property
    def certificate_nonzero(self) -> bool:
        return self.certificate_value != 0.0

    @property
    def tests_disagree(self) -> bool:
        return self.certificate_nonzero != self.is_engel_by_growth


def sigma_check(
    pair: PfaffianPair,
    q: Point4,
    max_step: int = DEFAULT_MAX_STEP,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> SigmaReport:
    """Evaluate the Engel certificate and the growth vector at one point."""
    cert = engel_certificate(pair)
    value = float(cert.eval_exact(q)) if q.is_rational else cert.eval(q)
    growth = growth_vector(pair, q, max_step=max_step, rank_tol=rank_tol)
    return SigmaReport(
        point=q,
        certificate_value=value,
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
    return PfaffianPair.from_json_dict(data)


def resolve_model(model_id: str) -> tuple[str, PfaffianPair]:
    """Resolve a model id: a catalog name, or a path to a user JSON file."""
    key = model_id.lower()
    if key in CATALOG:
        return key, CATALOG[key]
    path = Path(model_id)
    if path.exists():
        return f"user:{path.name}", load_pair(path)
    raise KeyError(f"unknown model {model_id!r} (not in catalog, not a file)")
