"""Endpoint map over piecewise-constant horizontal controls.

A control path (u1, u2) on n equal segments of total time 1 steers

    qdot = u1 * Z(q) + u2 * W(q).

Singular curves (critical points of the control-to-endpoint map) are
detected two independent ways:

* rank deficiency of the endpoint Jacobian, computed from the variational
  (sensitivity) equations and summarized as the ratio of the smallest to
  the largest of its four singular values;
* the covector route: a curve is singular iff a nonzero initial covector
  exists whose adjoint transport annihilates both frame fields along the
  whole curve.  The transported pairings (h1, h2) = (<lambda, Z>, <lambda, W>)
  are linear in the initial covector, so sampling them in time yields a
  linear map whose kernel (smallest singular value) decides the question.

Both detectors share the classification bands: SINGULAR below 1e-7,
REGULAR above 1e-4, AMBIGUOUS between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable, Sequence, TextIO

import numpy as np

from .charfield import CENTER, NODE, ORACLE, SADDLE, char_field, origin_kind
from .codegen import function_source, kernel, rhs_source
from .distribution import PfaffianPair, resolve_model
from .flow import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    FLOAT_FMT,
    RHO,
    Trajectory,
    adaptive_rk45,
    integrate,
    singular_surface,
    start_point,
)
from .poly import VARS

SINGULAR_THRESHOLD = 1e-7
REGULAR_THRESHOLD = 1e-4

SINGULAR = "SINGULAR"
REGULAR = "REGULAR"
AMBIGUOUS = "AMBIGUOUS"


class FieldVanishesError(ValueError):
    """The characteristic field is numerically zero at a sample point."""


@dataclass(frozen=True)
class ControlPath:
    """Piecewise-constant control (u1, u2) on n equal segments, total time 1."""

    u: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.u, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError("controls must be an (n_segments, 2) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("controls must be finite")
        object.__setattr__(self, "u", arr)

    @property
    def n_segments(self) -> int:
        return self.u.shape[0]

    @classmethod
    def constant(cls, u1: float, u2: float, n_segments: int = 1) -> "ControlPath":
        return cls(np.tile([float(u1), float(u2)], (n_segments, 1)))

    def to_json_dict(self) -> dict:
        return {"n_segments": self.n_segments, "u": self.u.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict, index: int = 0) -> "ControlPath":
        """The control of a ``to_json_dict`` record, entry ``index`` of its
        file; ``n_segments``, when given, must equal the number of rows of
        ``u``.  Booleans, strings and nulls are not numbers here, in ``u``
        and in ``n_segments``."""
        if not isinstance(data, dict):
            raise ValueError(f"control {index}: expected an object {{n_segments, u}}, got {data!r}")
        if "u" not in data:
            raise ValueError(f"control {index}: missing 'u'")
        rows = data["u"]
        if not (isinstance(rows, list)
                and all(isinstance(row, list) and len(row) == 2 for row in rows)):
            raise ValueError(f"control {index}: u must be a list of [u1, u2] rows")
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                    raise ValueError(f"control {index}: u[{i}][{j}] is {cell!r}, not a number")
        n = data.get("n_segments", len(rows))
        if isinstance(n, bool) or not isinstance(n, (int, float)):
            raise ValueError(f"control {index}: n_segments is {n!r}, not a number")
        try:
            ctrl = cls(np.asarray(rows, dtype=float))
        except ValueError as exc:
            raise ValueError(f"control {index}: {exc}") from None
        if n != ctrl.n_segments:
            raise ValueError(f"control {index}: n_segments={n!r} but {ctrl.n_segments} rows in u")
        return ctrl


@dataclass(frozen=True)
class _ControlSystem:
    """Generated kernels of qdot = u1 Z + u2 W and its linearization,
    both from :func:`_variational_source`, each with its fused loop.

    ``control(u1, u2)`` is the rhs of q, (-u2 f, -u2 g, u1, u2).  The
    variational state is (q, X) with X = [Phi | L] a 4x6 matrix stored
    row-major, 28 entries: qdot = u1 Z + u2 W, Xdot = A X + [0 | B(q)].
    A = d(u1 Z + u2 W)/dq and B = [Z | W] vary only in their x and y rows,
    so the z and w rows of Xdot are constant.  From the restart (q, I, 0)
    of every segment, the entries outside ``moving`` have an rhs of
    exactly +0.0 or -0.0 and keep their restart value.
    ``variational(u1, u2)`` is the rhs of the reduced state, the entries
    of ``moving`` (ascending 28-state indices, q first) in that order; it
    reads every other entry as its constant in ``_RESTART``.
    """

    control: Callable[[float, float], Callable]
    variational: Callable[[float, float], Callable]
    moving: tuple[int, ...]


# The variational pass restarts X = [Phi | L] at [I | 0] on every segment.
_RESTART = tuple(float(row == col) for row in range(4) for col in range(6))


@lru_cache(maxsize=64)
def _control_system(pair: PfaffianPair) -> _ControlSystem:
    """The generated control system of the pair, built once per pair."""
    grads = [
        [(v, d) for v, name in enumerate(VARS) if not (d := poly.diff(name)).is_zero()]
        for poly in (pair.f, pair.g)
    ]
    fixed = _fixed_entries([[v for v, _ in grad] for grad in grads])
    moving = tuple(j for j in range(28) if j not in fixed)
    return _ControlSystem(
        control=kernel(_variational_source(pair, ([], []), range(4)), "variational"),
        variational=kernel(_variational_source(pair, grads, moving), "variational"),
        moving=moving,
    )


def _fixed_entries(support: Sequence[Sequence[int]]) -> frozenset[int]:
    """State indices of the entries of X whose rhs in the variational pass
    is exactly +0.0 or -0.0 from the restart (q, I, 0) on.

    ``support[r]`` lists the variables v (0..3 for x, y, z, w) whose
    partial derivative of f (r = 0) or g (r = 1) is not identically zero.
    Entry (r, c) of X is state 4 + 6 r + c.  In the x and y rows its rhs
    is the sum of a_v X[v][c] over v in support[r], minus f or g in column
    5; in the z and w rows it is 1 at (2, 4) and (3, 5) and 0.0 elsewhere.
    The entries that stay exactly 0.0 are the greatest set of entries that
    restart at 0.0, have no constant part and multiply only entries of the
    set: start from all such entries and drop those that multiply an entry
    outside, until none does.  The fixed entries are those whose rhs
    multiplies only entries of that set.
    """
    # The entries with no constant part, each with the entries of X it multiplies.
    linear = {
        (r, c): [(v, c) for v in support[r]] if r < 2 else []
        for r in range(4)
        for c in range(6)
        if c != (5 if r < 2 else r + 2)
    }
    zero = {(r, c) for r, c in linear if _RESTART[6 * r + c] == 0.0}
    while shrunk := {e for e in zero if not zero.issuperset(linear[e])}:
        zero -= shrunk
    return frozenset(4 + 6 * r + c for (r, c), t in linear.items() if zero.issuperset(t))


def _variational_source(pair: PfaffianPair, grads, moving: Sequence[int]) -> str:
    """Source of ``variational(u1, u2)``, which returns the rhs of
    :attr:`_ControlSystem.variational` on the ``moving`` entries, with its
    fused loop (:func:`codegen.rhs_source`); with no gradient terms
    and only q moving, it is :attr:`_ControlSystem.control`.

    The x and y rows of A are -u2 times the gradients of f and g; only
    the entries that are not identically zero, ``grads`` as
    :func:`_control_system` lists them, are written out.  Column 5 of B is
    W, whose x and y entries are -f and -g.  Every entry outside
    ``moving`` is read as its restart constant.
    """
    names = ["x", "y", "z", "w", *(f"s{r}_{c}" for r in range(4) for c in range(6))]
    body: list[str] = []
    cells = [names[4 + i] if 4 + i in moving else repr(v) for i, v in enumerate(_RESTART)]
    rows = [cells[6 * r: 6 * r + 6] for r in range(4)]
    values = ["-u2 * fv", "-u2 * gv", "u1", "u2"]
    for name, poly, grad in (("f", pair.f, grads[0]), ("g", pair.g, grads[1])):
        terms = [(rows[v], f"a{name}{VARS[v]}", d) for v, d in grad]
        body += [f"{a} = -u2 * ({d.float_source()})" for _, a, d in terms]
        body.append(f"{name}v = {poly.float_source()}")
        for c in range(6):
            value = " + ".join(f"{a} * {row[c]}" for row, a, _ in terms) or "0.0"
            values.append(f"{value} - {name}v" if c == 5 else value)
    # The z and w rows of Xdot are those of [0 | B]: (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1).
    values += ["0.0", "0.0", "0.0", "0.0", "1.0", "0.0", "0.0", "0.0", "0.0", "0.0", "0.0", "1.0"]
    inner = rhs_source([names[j] for j in moving], body, [values[j] for j in moving])
    return function_source("variational(u1, u2)", [*inner.splitlines(), "return rhs"])


def _segments(rhs_of, q0, ctrl: ControlPath, restart: tuple[float, ...], samples, rtol, atol):
    """Integrate ``rhs_of(u1, u2)`` over each segment of the control, one
    integrator call per segment, and yield each call's (times, states,
    sampled).  Segment j starts from q0 or the q where segment j - 1
    ended, with the entries after q at ``restart``; it reads
    ``samples[j]`` from the dense output, and its first trial step is the
    step segment j - 1 ended with."""
    n = ctrl.n_segments
    q, h = start_point(q0), None
    for j, (u1, u2) in enumerate(ctrl.u.tolist()):
        times, states, h, sampled = adaptive_rk45(
            rhs_of(u1, u2), (*q, *restart), (j / n, (j + 1) / n), rtol, atol,
            h0=h, samples=samples[j] if samples else (),
        )
        yield times, states, sampled
        q = states[-1][:4]


def horizontal_integrate(pair: PfaffianPair, q0, ctrl: ControlPath) -> Trajectory:
    """Integrate the control system segment by segment with the pair's
    ``control`` kernel; endpoint = final state."""
    control = _control_system(pair).control
    all_times, all_states = [0.0], [start_point(q0)]
    for times, states, _ in _segments(control, q0, ctrl, (), None, DEFAULT_RTOL, DEFAULT_ATOL):
        all_times += times[1:]
        all_states += states[1:]
    return Trajectory(times=all_times, states=all_states)


@lru_cache(maxsize=64)
def _default_samples(n_segments: int) -> tuple[tuple[float, ...], ...]:
    """The covector sample times k / (m - 1), k < m = max(16, 2 n), grouped
    by the segment whose closed interval holds them (the first such).

    Integer arithmetic only: ceil(k n / (m - 1)) - 1 is the segment, and
    k / (m - 1) is the float that ``Fraction.__float__`` gives."""
    n = n_segments
    m = max(16, 2 * n)
    per_segment: list[list[float]] = [[] for _ in range(n)]
    for k in range(m):
        per_segment[max(-(-k * n // (m - 1)) - 1, 0)].append(k / (m - 1))
    return tuple(map(tuple, per_segment))


def _sensitivity_pass(
    sys: _ControlSystem,
    q0,
    ctrl: ControlPath,
    samples: tuple[tuple[float, ...], ...] | None,
    rtol: float,
    atol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integrate (q, Phi, L) once over the control, one integrator call per
    segment (:func:`_segments`), reading ``samples[j]``, the sample times
    of segment j, from the dense output.

    Phi (the state-transition matrix) and L (the response to the segment's
    two control entries) restart at (I, 0) at every segment boundary; the
    Jacobian chains them backwards over the later segments.  Returns the
    endpoint, the 4 x 2n Jacobian, and at each sample the state and the
    cumulative transition Phi(t) = Phi_loc(t) Phi(boundary).  The segments
    run on float tuples of the entries that move (:class:`_ControlSystem`);
    numpy fills in [Phi | L] at the segment ends and the samples once,
    after the last segment.
    """
    n = ctrl.n_segments
    cells = [j - 4 for j in sys.moving[4:]]
    restart = tuple(_RESTART[i] for i in cells)
    ends: list[tuple[float, ...]] = []
    sampled: list[tuple[float, ...]] = []
    segment: list[int] = []
    segments = _segments(sys.variational, q0, ctrl, restart, samples, rtol, atol)
    for j, (_, states, at_samples) in enumerate(segments):
        ends.append(states[-1])
        sampled += at_samples
        segment += [j] * len(at_samples)

    # [Phi | L] at the end of each segment and at each sample, and
    # Phi(boundary j) and the product of the later transitions, chained
    # one matmul at a time.
    reduced = np.array(ends + sampled)
    blocks = np.tile(_RESTART, (len(reduced), 1))
    blocks[:, cells] = reduced[:, 4:]
    blocks = blocks.reshape(-1, 4, 6)
    transitions = blocks[:n, :, :4]
    prefix = np.empty((n, 4, 4))
    suffix = np.empty((n, 4, 4))
    prefix[0] = suffix[-1] = np.eye(4)
    for j in range(1, n):
        prefix[j] = transitions[j - 1] @ prefix[j - 1]
        suffix[-1 - j] = suffix[-j] @ transitions[-j]
    jac = (suffix @ blocks[:n, :, 4:]).transpose(1, 0, 2).reshape(4, 2 * n)
    phis = blocks[n:, :, :4] @ prefix[segment]
    return np.array(ends[-1][:4]), jac, reduced[n:, :4], phis


def _constraint_matrix(sys: _ControlSystem, states: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Rows (h1, h2) = (<lambda, Z>, <lambda, W>) at each sample, as linear
    functions of the initial covector.  The covector transport is
    Phi(t)^{-T}, so the two rows at t are solve(Phi(t), [Z | W])^T.  W is
    ``control(0.0, 1.0)``, which evaluates f and g once per sample, and
    Z = (0.0 W^x, 0.0 W^y, 1, 0) has the signed zeros of -0.0 f, -0.0 g."""
    w_at = sys.control(0.0, 1.0)
    ws = [w_at(0.0, q) for q in states.tolist()]
    frames = np.array([((0.0 * w[0], 0.0 * w[1], 1.0, 0.0), w) for w in ws])
    return np.linalg.solve(phis, frames.transpose(0, 2, 1)).transpose(0, 2, 1).reshape(-1, 4)


@dataclass(frozen=True)
class JacobianResult:
    """Endpoint Jacobian with respect to all control entries.

    Columns are ordered (u1 of segment 0, u2 of segment 0, u1 of segment 1,
    ...).
    """

    matrix: np.ndarray
    endpoint: np.ndarray


def endpoint_jacobian(pair: PfaffianPair, q0, ctrl: ControlPath) -> JacobianResult:
    """Derivative of the endpoint with respect to the control entries.

    Integrates, per segment, the 4x4 state-transition matrix and the local
    input response, then chains transitions across the remaining segments.
    """
    endpoint, jac, _, _ = _sensitivity_pass(
        _control_system(pair), q0, ctrl, None, DEFAULT_RTOL, DEFAULT_ATOL
    )
    return JacobianResult(matrix=jac, endpoint=endpoint)


def singular_score(jac: np.ndarray) -> float:
    """sigma_min / sigma_max over the four singular values of the Jacobian.

    A Jacobian with fewer than four columns (a one-segment control) has
    rank below 4; its missing singular values are zero, and so is the score.
    """
    jac = np.asarray(jac, dtype=float)
    if jac.ndim != 2 or jac.shape[0] != 4:
        raise ValueError("endpoint Jacobian must have 4 rows")
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[0] == 0.0:
        raise ValueError("zero Jacobian has no singular score")
    return float(sv[3] / sv[0]) if sv.size == 4 else 0.0


def classify_statistic(value: float) -> str:
    """Two-sided bands shared by both detectors."""
    if value < SINGULAR_THRESHOLD:
        return SINGULAR
    if value > REGULAR_THRESHOLD:
        return REGULAR
    return AMBIGUOUS


@dataclass(frozen=True)
class AdjointRecord:
    """Covector transport along a controlled trajectory.

    ``transports[i]`` maps an initial covector to its value at
    ``times[i]``; the transport at time 0 is the identity.  The constraint
    matrix stacks, per sample time, the two rows expressing
    (h1, h2) = (<lambda, Z>, <lambda, W>) as linear functions of the
    initial covector.
    """

    times: np.ndarray
    states: np.ndarray
    transports: np.ndarray
    constraint_matrix: np.ndarray


def adjoint_transport(pair: PfaffianPair, q0, ctrl: ControlPath) -> AdjointRecord:
    """Covector transport and frame pairings at the sample times of
    :func:`bryant_hsu_test`: k / (m - 1) for k < m = max(16, 2 n).

    The transport is the inverse transpose of the state-transition matrix
    from the variational pass, Psi(t) = Phi(t)^{-T}.
    """
    sys = _control_system(pair)
    samples = _default_samples(ctrl.n_segments)
    _, _, states, phis = _sensitivity_pass(sys, q0, ctrl, samples, DEFAULT_RTOL, DEFAULT_ATOL)
    return AdjointRecord(
        times=np.array([t for times in samples for t in times]),
        states=states,
        transports=np.linalg.solve(phis, np.broadcast_to(np.eye(4), phis.shape)).transpose(0, 2, 1),
        constraint_matrix=_constraint_matrix(sys, states, phis),
    )


@dataclass(frozen=True)
class SingularVerdict:
    """Joint result of the two singularity detectors for one control.

    ``bh_smallest`` drives the classification; ``sigma_ratio`` is the
    Jacobian detector's statistic, reported alongside.  The witness
    covector (unit norm, largest component positive) and the maximum of
    |h1| + |h2| it attains along the curve are set for SINGULAR verdicts.
    ``endpoint`` is the state the control reaches at t = 1.
    """

    sigma_ratio: float
    bh_smallest: float
    classification: str
    witness: np.ndarray | None
    witness_h_max: float | None
    endpoint: np.ndarray

    @property
    def jacobian_classification(self) -> str:
        return classify_statistic(self.sigma_ratio)


def bryant_hsu_test(
    pair: PfaffianPair,
    q0,
    ctrl: ControlPath,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> SingularVerdict:
    """Covector-based singularity test, with the Jacobian detector alongside.

    The curve is singular iff the sampled-pairings map has a nontrivial
    kernel, decided by its smallest singular value over unit initial
    covectors.  Both statistics and the endpoint come from one variational
    pass over the control.
    """
    sys = _control_system(pair)
    samples = _default_samples(ctrl.n_segments)
    endpoint, jac, states, phis = _sensitivity_pass(sys, q0, ctrl, samples, rtol, atol)
    phi = _constraint_matrix(sys, states, phis)
    _, sv, vt = np.linalg.svd(phi, full_matrices=False)
    bh_smallest = float(sv[-1])
    kernel = vt[-1]
    pivot = int(np.argmax(np.abs(kernel)))
    if kernel[pivot] < 0:
        kernel = -kernel
    classification = classify_statistic(bh_smallest)
    witness = None
    h_max = None
    if classification == SINGULAR:
        witness = kernel
        pairings = phi @ kernel
        h_max = float(np.max(np.abs(pairings[0::2]) + np.abs(pairings[1::2])))
    return SingularVerdict(
        sigma_ratio=singular_score(jac),
        bh_smallest=bh_smallest,
        classification=classification,
        witness=witness,
        witness_h_max=h_max,
        endpoint=endpoint,
    )


def char_control(
    pair: PfaffianPair,
    p0,
    duration: float,
    n_segments: int,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> ControlPath:
    """Piecewise-constant approximation of a singular control.

    Integrates the oracle characteristic field from p0 for ``duration``,
    reads its frame coefficients (c, e), its z and w components, at the
    segment midpoints, and rescales time so the control lives on [0, 1]
    (velocities scale by ``duration``).
    """
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
    if n_segments < 1:
        raise ValueError("need at least one segment")
    mids = [(j + 0.5) * duration / n_segments for j in range(n_segments)]
    field_rhs = char_field(pair, ORACLE).compile_rhs()
    _, _, _, states = adaptive_rk45(
        field_rhs, start_point(p0), (0.0, mids[-1]), rtol, atol, samples=mids
    )
    u = np.zeros((n_segments, 2))
    for j, (t, q) in enumerate(zip(mids, states)):
        _, _, c_val, e_val = field_rhs(t, q)
        if math.hypot(c_val, e_val) < 1e-12:
            raise FieldVanishesError(
                f"characteristic field vanishes near segment {j} (|(c,e)| < 1e-12)"
            )
        u[j] = (duration * c_val, duration * e_val)
    return ControlPath(u)


class _ArcDurations(dict):
    """Arc durations by kind name; a model id (``bench/workloads.py`` passes
    catalog names) reads the duration of its origin's kind."""

    def __missing__(self, model: str) -> float:
        kind = origin_kind(resolve_model(model)[1])
        if kind is None:
            raise KeyError(f"{model!r}: the origin has no kind, so it has no arc duration")
        return self[kind.name]


# Arc durations by the origin's kind and segment count used when generating
# detector test curves; short arcs keep the piecewise-constant
# discretization error of a curved characteristic orbit below the SINGULAR
# band at 64 segments (a subarc of a singular curve is itself singular).
CHAR_ARC_DURATION = _ArcDurations({NODE: 0.4, SADDLE: 0.05, CENTER: 0.03})
CHAR_ARC_SEGMENTS = 64


@dataclass
class SardReport:
    """Sampling summary for the singular-endpoint sets of one pair."""

    n_curves: int
    seed: int
    max_surface_distance: float | None
    min_rho_deviation: float | None
    detector_agreement: float
    ambiguous_count: int
    endpoints: list[tuple[float, float, float, float]] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)
    origin_reaching_count: int | None = None

    def to_json_dict(self) -> dict:
        """Every field but the per-curve ``endpoints`` and ``scores``."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("endpoints", "scores")
        }

    def write_endpoints_csv(self, fh: TextIO) -> None:
        fh.write("x,y,z,w,score\n")
        for (x, y, z, w), score in zip(self.endpoints, self.scores):
            fh.write(",".join(FLOAT_FMT % v for v in (x, y, z, w, score)) + "\n")


def _detector_stats(
    pair: PfaffianPair,
    starts: Sequence[Sequence[float]],
    duration: float,
    rtol: float,
    atol: float,
) -> tuple[float, int, list[float]]:
    agreements = 0
    decided = 0
    ambiguous = 0
    scores: list[float] = []
    for p in starts:
        ctrl = char_control(pair, p, duration, CHAR_ARC_SEGMENTS, rtol=rtol, atol=atol)
        verdict = bryant_hsu_test(pair, p, ctrl, rtol=rtol, atol=atol)
        scores.append(verdict.sigma_ratio)
        jac_class = verdict.jacobian_classification
        if AMBIGUOUS in (verdict.classification, jac_class):
            ambiguous += 1
            continue
        decided += 1
        if verdict.classification == jac_class:
            agreements += 1
    agreement = agreements / decided if decided else 1.0
    return agreement, ambiguous, scores


def sard_sample(
    pair: PfaffianPair,
    n_curves: int,
    seed: int,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    detector_subset: int = 25,
) -> SardReport:
    """Sample singular curves attached to the origin and test the endpoint sets.

    The origin's kind (:func:`charfield.origin_kind`) picks the curves.  At a
    node they start in random directions on rho = 1e-7, at a saddle on its
    stable eigenline, and each is run back under -sign * C; its endpoint is
    checked against the surface graph at its (z, w).  On a saddle whose
    C^x = C^y = 0 along that eigenline, such as the axis w = 0 of f = z,
    g = z^2 w, the endpoints form a curve, not a disc, and
    ``max_surface_distance`` is 0 by construction.  At a linear center,
    curves start on rho = 0.01 and the report records how far rho drops.
    Every time span is in units of 2 / ``kind.rate``: the back-runs last
    U(1.75, 3), the center's runs 10.  Detector agreement is read on arcs of
    the kind's ``CHAR_ARC_DURATION`` from the first ``detector_subset``
    (>= 0) sampled curves.

    The pair's characteristic field must be a skew product (free of x and
    y, the kind's ``skew``), so that its surface is a graph over (z, w); a
    ValueError names a pair whose origin has no kind or whose field is not
    one.
    """
    kind = origin_kind(pair)
    fld = char_field(pair, ORACLE)
    if kind is None:
        cause = ("C(0) != 0" if any((0, 0, 0, 0) in p.terms for p in fld.components())
                 else "the frame matrix of C at 0 is singular")
        raise ValueError(f"sard_sample needs the origin to be a node, saddle or center of the "
                         f"characteristic field C, but {cause}, so the origin has no kind")
    if not kind.skew:
        raise ValueError("sard_sample needs a skew product: this pair's characteristic field "
                         "depends on x or y, so its singular surface is not a graph over (z, w)")
    if n_curves < 0:
        raise ValueError(f"n_curves must be non-negative, got {n_curves}")
    if detector_subset < 0:
        raise ValueError(f"detector_subset must be non-negative, got {detector_subset}")
    rng = np.random.default_rng(seed)
    if n_curves == 0:
        return SardReport(0, seed, None, None, 1.0, 0)
    unit = 2.0 / kind.rate
    endpoints: list[tuple[float, float, float, float]] = []
    max_distance = min_dev = reaching = None

    if kind.name == CENTER:
        min_dev, reaching, starts = math.inf, 0, []
        for _ in range(n_curves):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            start = np.array([0.0, 0.0, 0.1 * math.cos(theta), 0.1 * math.sin(theta)])
            starts.append(start)
            traj = integrate(fld, start, 10.0 * unit, rtol=rtol, atol=atol, monitors={"rho": RHO})
            rho = traj.monitors["rho"]
            min_dev = min(min_dev, float(rho.min() - rho[0]))
            if rho.min() < 0.5 * rho[0]:
                reaching += 1
            endpoints.append(tuple(traj.endpoint))
    else:
        rho_start = 1e-7
        for _ in range(n_curves):
            if kind.name == NODE:
                theta = rng.uniform(0.0, 2.0 * math.pi)
                direction = np.array([math.cos(theta), math.sin(theta)])
            else:
                direction = rng.choice([-1.0, 1.0]) * np.array(kind.stable)
            z_s, w_s = math.sqrt(rho_start) * direction
            t_back = rng.uniform(1.75, 3.0) * unit
            back = integrate(fld, (0.0, 0.0, z_s, w_s), -kind.sign * t_back, rtol=rtol, atol=atol)
            endpoints.append(tuple(back.endpoint))
        sample = singular_surface(pair, [(p[2], p[3]) for p in endpoints], rtol=rtol, atol=atol)
        max_distance = float(max(
            max(abs(p[0] + dx), abs(p[1] + dy)) if ok else math.inf
            for p, (dx, dy), ok in zip(endpoints, sample.offsets, sample.converged)
        ))
        starts = endpoints

    agreement, ambiguous, scores = _detector_stats(
        pair, starts[:detector_subset], CHAR_ARC_DURATION[kind.name], rtol, atol
    )
    return SardReport(
        n_curves=n_curves,
        seed=seed,
        max_surface_distance=max_distance,
        min_rho_deviation=min_dev,
        detector_agreement=agreement,
        ambiguous_count=ambiguous,
        endpoints=endpoints,
        scores=scores + [math.nan] * (n_curves - len(scores)),
        origin_reaching_count=reaching,
    )
