"""Numerical integration of characteristic fields and flow-based analyses.

One Dormand-Prince 4(5) integrator, :func:`adaptive_rk45`, serves every flow:
an embedded Runge-Kutta pair with per-step error control on mixed absolute
and relative tolerances and dense output, run on tuples of Python floats.
Its step-size control (the standard controller of Hairer, Norsett and
Wanner, Solving ODEs I, II.4) and guards are local variables of the
driver's loop, not method calls.  It calls no numpy: it returns its
accepted states and dense samples as lists of float tuples, and each
caller converts them once where it needs arrays (the variational pass
stacks a whole pass's in one array).  It integrates the characteristic
flows here (:func:`singular_surface` calls it directly, with one compiled
rhs per grid) and, in :mod:`engelkit.endpoint`, the control system and
its variational pass (one segment loop serves both) and the
characteristic controls.
The right-hand sides are generated per field or pair, each with its own
trial step, and the dense output per state size, as straight-line code
(:mod:`engelkit.codegen`) that does the loops' arithmetic in the loops'
order: results are bit-identical to theirs.  Every rhs engelkit passes
carries its step; the call-form :func:`_trial_step` serves any other.  A field's step runs its rhs
inline and forms only the state entries the rhs reads.  The error norm is
the RMS over every entry of the state, so a caller integrates only the
entries that move (the variational pass leaves out those of its 28 that
never do).
Generation happens on first use (about 1 ms for a characteristic field
and its step, 2 ms for a pair's variational pass), not at import.
Monitor channels are polynomial quantities sampled along the trajectory.
Everything is deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Sequence, TextIO

import numpy as np

from .charfield import ORACLE, char_field
from .codegen import function_source, kernel, numbered_names, step_source, tuple_source
from .distribution import CATALOG, PfaffianPair, PolyVectorField
from .poly import Point4, SparsePoly

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_EPS_CUT = 1e-10
DEFAULT_T_MAX = 30.0
TAIL_BOUND_LIMIT = 1e-10

FLOAT_FMT = "%.17g"


class IntegrationError(RuntimeError):
    def __init__(self, message: str, t_reached: float):
        super().__init__(f"{message} (last reachable time {t_reached!r})")
        self.t_reached = t_reached


class StepSizeUnderflowError(IntegrationError):
    pass


class NonFiniteStateError(IntegrationError):
    pass


# Shampine's quartic continuous extension of the pair (Hairer, Norsett and
# Wanner, Solving ODEs I, II.6): within an accepted step from (t, y) of
# size h with stages K, y(t + theta h) = y + h K^T _P [theta, ..., theta^4].
_P = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# Smallest step, relative to max(1, |t|), before the integrator gives up.
H_FLOOR = 1e-15
# Step budget of one integrator call, counting rejected trial steps.
MAX_STEPS = 1_000_000


@lru_cache(maxsize=64)
def _trial_step(n: int):
    """Generated trial step on n-entry states that calls its ``rhs``
    argument at each stage, for an rhs without a ``trial_step`` of its own."""
    return kernel(step_source(n, "q", [], "rhs(t, q)"), "trial_step")


@lru_cache(maxsize=64)
def _dense_output(n: int):
    """Generated continuous extension on n-entry states.

    ``dense_output(y, h, theta, k1, k3, k4, k5, k6, k7)`` is the state at
    t + theta h within the accepted step from (t, y) with those stages.
    """
    y = numbered_names("y", n)
    k = {s: numbered_names(f"k{s}_", n) for s in (1, 3, 4, 5, 6, 7)}
    body = [f"{tuple_source(y)} = y", *(f"{tuple_source(k[s])} = k{s}" for s in k)]
    for s in k:
        p1, p2, p3, p4 = (repr(float(p)) for p in _P[s - 1])
        body.append(f"d{s} = theta * ({p1} + theta * ({p2} + theta * ({p3} + theta * {p4})))")
    values = (
        f"{y[j]} + h * ({' + '.join(f'd{s} * {k[s][j]}' for s in k)})" for j in range(n)
    )
    body.append(f"return {tuple_source(values)}")
    return kernel(
        function_source("dense_output(y, h, theta, k1, k3, k4, k5, k6, k7)", body),
        "dense_output",
    )


def adaptive_rk45(
    rhs: Callable[[float, tuple[float, ...]], Sequence[float]],
    y0: Sequence[float],
    t_span: tuple[float, float],
    rtol: float,
    atol: float,
    h0: float | None = None,
    stop_when: Callable[[float, tuple[float, ...]], bool] | None = None,
    samples: Sequence[float] = (),
) -> tuple[list[float], list[tuple[float, ...]], float, list[tuple[float, ...]]]:
    """Integrate rhs over t_span, recording every accepted step.

    Returns (times, states, last_step_size, sampled); the last step lands
    exactly on t1.  ``states`` and ``sampled`` are lists of float tuples,
    built without numpy; callers convert them once where they need arrays.
    ``sampled[i]`` is the state at ``samples[i]`` (in
    t_span) from the continuous extension of the step covering it, so
    samples add no steps; it is the stored state at a step's time and NaN
    past a ``stop_when`` break, which is checked at accepted steps only.
    The last stage of a step is the first of the next (first-same-as-last).
    A non-finite trial step is rejected and retried with a smaller step.
    Raises StepSizeUnderflowError, or NonFiniteStateError when the step
    underflowed while non-finite trial states were being rejected, or
    IntegrationError after MAX_STEPS steps.  ``rhs(t, y)`` and
    ``stop_when(t, y)`` get y as a tuple of floats: on 4 to 18 entries,
    numpy's per-call overhead would cost more than the stages.  An
    OverflowError from the rhs (``**`` past the float range) is non-finite.
    The trial step is ``rhs.trial_step`` when the rhs carries one (compiled
    fields do, :func:`codegen.rhs_source`), else :func:`_trial_step` of the
    state size.  The error norm is the RMS of the scaled error over all n
    entries.
    """
    t0, t1 = t_span
    # Read at call time, so a changed budget or floor applies to the next call.
    max_steps, h_floor = MAX_STEPS, H_FLOOR
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got {t_span!r}")
    if t1 <= t0:
        raise ValueError("t_span must be increasing; reverse the field instead")
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise ValueError(f"rtol and atol must be positive and finite, got rtol={rtol!r}, "
                         f"atol={atol!r}")
    span = t1 - t0
    if span < h_floor * max(1.0, abs(t0)):
        raise ValueError(
            f"t_span {t_span!r} is shorter than the step floor H_FLOOR={h_floor!r} "
            "relative to max(1, |t0|)"
        )
    times_at = list(map(float, samples))
    pending = [(math.inf, -1), *sorted(zip(times_at, range(len(times_at))), reverse=True)]
    # The sorted ends bound every sample; a NaN, which sorts anywhere,
    # makes the sum NaN.
    if times_at and not (
        t0 <= pending[-1][0] and pending[1][0] <= t1 and not math.isnan(sum(times_at))
    ):
        raise ValueError("samples must lie in t_span")
    y = tuple(map(float, y0))
    n = len(y)
    trial_step = getattr(rhs, "trial_step", None) or _trial_step(n)
    dense_output = _dense_output(n) if times_at else None
    sampled = [(math.nan,) * n] * len(times_at)
    t = t0
    times = [t]
    states = [y]
    try:
        k1 = rhs(t, y)
    except OverflowError:
        k1 = (math.inf,) * n
    h = h0 if h0 is not None else min(span, max(1e-6, 1e-2 * span))
    accepted = rejected = 0
    h_min = math.inf
    non_finite = False
    while t < t1:
        if accepted + rejected >= max_steps:
            raise IntegrationError(
                f"step budget of MAX_STEPS={max_steps} steps exhausted: {accepted} "
                f"accepted, {rejected} rejected, smallest step {h_min!r}",
                t,
            )
        proposal = h
        # Stretch a step that would stop just short of t1 (Hairer-Norsett-
        # Wanner's 1.01 rule), so no sliver step is left.
        clipped = t + 1.01 * h >= t1
        if clipped:
            h = t1 - t
        if h < h_floor * max(1.0, abs(t)):
            if non_finite:
                raise NonFiniteStateError(
                    "step size underflow while rejecting non-finite trial states", t
                )
            raise StepSizeUnderflowError("step size underflow", t)
        if h < h_min:
            h_min = h
        t_new = t1 if clipped else t + h
        y_new, k3, k4, k5, k6, k7, err, trial_non_finite = trial_step(
            rhs, t, h, t_new, y, k1, rtol, atol
        )
        if err <= 1.0:
            while pending[-1][0] <= t_new:
                ts, i = pending.pop()
                sampled[i] = (
                    y_new if ts == t_new
                    else dense_output(y, h, (ts - t) / h, k1, k3, k4, k5, k6, k7)
                )
            t = t_new
            y = y_new
            k1 = k7
            times.append(t)
            states.append(y)
            if stop_when is not None and stop_when(t, y):
                break
            accepted += 1
            h *= _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            )
            if clipped:
                # The clip was set by t1, not by the error: carry on from
                # the step the controller had proposed.
                h = max(h, proposal)
        else:
            rejected += 1
            # Only a rejection sets this: it names the cause of a later underflow.
            non_finite = trial_non_finite
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
    return times, states, h, sampled


@dataclass
class Trajectory:
    """Time-sampled states with named monitor channels.

    Times are strictly increasing elapsed times.  A backward run (negative
    ``t_end`` in :func:`integrate`) is realized as the forward flow of the
    negated field, so ``states[-1]`` is always the state reached after
    ``|t_end|`` units.
    """

    times: np.ndarray
    states: np.ndarray
    monitors: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.shape != (self.times.size, 4):
            raise ValueError("times must be 1-d and states (len(times), 4)")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("states must be finite")
        for name, channel in self.monitors.items():
            if len(channel) != self.times.size:
                raise ValueError(f"monitor {name!r} length mismatch")

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]

    def write_csv(self, fh: TextIO) -> None:
        names = list(self.monitors)
        fh.write(",".join(["t", "x", "y", "z", "w"] + names) + "\n")
        for i, t in enumerate(self.times):
            row = [t, *self.states[i]]
            row += [self.monitors[n][i] for n in names]
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")


def _monitor_channels(
    monitors: Mapping[str, SparsePoly] | None, states: np.ndarray
) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    if monitors:
        for name, poly in monitors.items():
            fn = poly.compile()
            out[name] = np.array([fn(*s) for s in states])
    return out


def integrate(
    vector_field: PolyVectorField,
    q0: Point4 | Sequence[float],
    t_end: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    monitors: Mapping[str, SparsePoly] | None = None,
) -> Trajectory:
    """Adaptive integration of a polynomial field from q0 for time t_end,
    with the ``monitors`` sampled at every accepted state.

    Negative ``t_end`` integrates the time-reversed field for ``|t_end|``.
    """
    if t_end == 0:
        raise ValueError("t_end must be nonzero")
    fld = vector_field if t_end > 0 else -vector_field
    y0 = q0.as_floats() if isinstance(q0, Point4) else q0
    times, states, _, _ = adaptive_rk45(fld.compile_rhs(), y0, (0.0, abs(t_end)), rtol, atol)
    states = np.array(states)
    return Trajectory(
        times=np.array(times), states=states, monitors=_monitor_channels(monitors, states)
    )


RHO = SparsePoly({(0, 0, 2, 0): 1, (0, 0, 0, 2): 1})  # z^2 + w^2
ZW = SparsePoly({(0, 0, 1, 1): 1})  # z*w

DEFAULT_MONITORS: dict[str, SparsePoly] = {"rho": RHO, "zw": ZW}


def conserved_drift(traj: Trajectory, quantity: SparsePoly) -> float:
    """max_t |Q(q(t)) - Q(q(0))| along a trajectory."""
    if traj.times.size == 0:
        raise ValueError("empty trajectory")
    fn = quantity.compile()
    values = np.array([fn(*s) for s in traj.states])
    return float(np.max(np.abs(values - values[0])))


def lie_derivative(quantity: SparsePoly, vector_field: PolyVectorField) -> SparsePoly:
    """Symbolic derivative of a quantity along a field: sum_i C^i dQ/dq_i."""
    comps = vector_field.components()
    out = SparsePoly.zero()
    for comp, name in zip(comps, ("x", "y", "z", "w")):
        out = out + comp * quantity.diff(name)
    return out


def closed_form(model: str, q_init: Point4, t: float) -> Point4:
    """Exact solution of the reference characteristic field at time t.

    Available for the models with elementary flows:

      d224:    z = z0 exp(-2t), w = w0 exp(-2t),
               x = x0 + (z0^2 w0 / 3)(1 - exp(-6t)),
               y = y0 + (z0 w0^2 / 3)(1 - exp(-6t))
      d2334a:  z = z0 exp(-2t), w = w0 exp(2t),
               x = x0 - 2 z0 w0 t,  y = y0 - 2 z0^2 w0^2 t

    The integration constants are fixed so the solution passes through
    ``q_init`` at t = 0.
    """
    x0, y0, z0, w0 = q_init.as_floats()
    if model == "d224":
        decay = math.exp(-2.0 * t)
        shrink = 1.0 - math.exp(-6.0 * t)
        return Point4(
            x0 + (z0 * z0 * w0 / 3.0) * shrink,
            y0 + (z0 * w0 * w0 / 3.0) * shrink,
            z0 * decay,
            w0 * decay,
        )
    if model == "d2334a":
        return Point4(
            x0 - 2.0 * z0 * w0 * t,
            y0 - 2.0 * z0 * z0 * w0 * w0 * t,
            z0 * math.exp(-2.0 * t),
            w0 * math.exp(2.0 * t),
        )
    raise ValueError(f"no closed form for model {model!r}")


@dataclass(frozen=True)
class LyapunovReport:
    q0: Point4
    rho_monotone: bool
    violations: tuple[tuple[float, float], ...]
    final_rho: float
    trajectory: Trajectory


def lyapunov_report(
    q0: Point4,
    t_end: float = 10.0,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> LyapunovReport:
    """Check that rho = z^2 + w^2 is non-increasing along the d224 flow.

    Requires |z0|, |w0| <= 1/2 (a box well inside the basin of the origin).
    """
    if abs(float(q0.z)) > 0.5 or abs(float(q0.w)) > 0.5:
        raise ValueError("lyapunov_report requires |z0|, |w0| <= 1/2")
    fld = char_field(CATALOG["d224"], ORACLE)
    traj = integrate(fld, q0, t_end, rtol=rtol, atol=atol, monitors={"rho": RHO})
    rho = traj.monitors["rho"]
    increases = np.diff(rho)
    bad = np.flatnonzero(increases > 0)
    violations = tuple((float(traj.times[i + 1]), float(increases[i])) for i in bad)
    return LyapunovReport(
        q0=q0,
        rho_monotone=len(violations) == 0,
        violations=violations,
        final_rho=float(rho[-1]),
        trajectory=traj,
    )


@dataclass
class SurfaceSample:
    """Reconstructed singular-endpoint surface as a graph over (z, w).

    For each grid point, ``offsets`` holds (dx, dy) accumulated by the
    characteristic flow into the origin; the surface point is
    (-dx, -dy, z, w).  ``converged`` marks samples whose flow actually
    reached rho < eps_cut with a negligible quadrature tail.  ``failures``
    maps the grid index of each sample whose flow raised IntegrationError
    to the error's message; such a sample has NaN offsets and is not
    converged.
    """

    grid: list[tuple[float, float]]
    offsets: list[tuple[float, float]]
    converged: list[bool]
    eps_cut: float
    t_max: float
    skew_product: bool
    failures: dict[int, str] = field(default_factory=dict)

    def surface_points(self) -> list[tuple[float, float, float, float]]:
        return [
            (-dx, -dy, zw[0], zw[1])
            for zw, (dx, dy), ok in zip(self.grid, self.offsets, self.converged)
            if ok
        ]

    def write_csv(self, fh: TextIO) -> None:
        fh.write("z,w,x,y,converged\n")
        for (z, w), (dx, dy), ok in zip(self.grid, self.offsets, self.converged):
            fh.write(
                ",".join(FLOAT_FMT % v for v in (z, w, -dx, -dy)) + f",{int(ok)}\n"
            )


def _is_skew_product(fld: PolyVectorField) -> bool:
    return all(
        comp.degree_in("x") <= 0 and comp.degree_in("y") <= 0
        for comp in fld.components()
    )


def _tail_bound(
    rhs, states: Sequence[tuple[float, ...]], times: Sequence[float]
) -> float:
    """Bound on the remaining |dx| + |dy| quadrature past the last of at
    least four states, assuming the decay rate of |C^x| + |C^y| observed
    over the last four persists; C^x and C^y are the first two components
    of the field's ``rhs``."""
    speed = [abs(cx) + abs(cy) for cx, cy, _, _ in map(rhs, times[-4:], states[-4:])]
    dt = times[-1] - times[-4]
    if speed[-1] == 0.0:
        return 0.0
    if dt <= 0 or speed[0] <= speed[-1]:
        return math.inf
    rate = math.log(speed[0] / speed[-1]) / dt
    return speed[-1] / rate


def singular_surface(
    model_or_pair: str | PfaffianPair,
    grid: Sequence[tuple[float, float]],
    eps_cut: float = DEFAULT_EPS_CUT,
    t_max: float = DEFAULT_T_MAX,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> SurfaceSample:
    """Reconstruct the singular-endpoint surface for a model.

    For each (z, w) on the grid, integrates the characteristic flow from
    (0, 0, z, w) until rho = z^2 + w^2 < eps_cut or t_max elapses; the cut
    is tested from the third accepted step on, so a sample that starts
    inside it still has the four states the tail bound reads.  The x,
    y components of the state accumulate the offsets (the x, y dynamics of
    every catalog model depend on (z, w) only, so the flow from any base
    point differs from this one by a translation in x, y).  A sample
    converges when the cut was reached and the estimated quadrature tail is
    below 1e-10.  On models whose flow never re-enters rho < eps_cut (the
    rotationally conserved one in particular) every sample reports
    ``converged=False``.

    The graph interpretation (surface point at (-dx, -dy, z, w)) relies on
    that translation invariance; user pairs whose characteristic components
    involve x or y are still integrated the same way but are flagged with
    ``skew_product=False``, and their offsets describe only the trajectory
    from the (0, 0, z, w) base point.  A sample whose flow raises
    IntegrationError is recorded in ``failures`` and the grid goes on.
    """
    if not (0.0 < eps_cut < math.inf and 0.0 < t_max < math.inf):
        raise ValueError(f"eps_cut and t_max must be positive and finite, got "
                         f"eps_cut={eps_cut!r}, t_max={t_max!r}")
    pair = CATALOG[model_or_pair] if isinstance(model_or_pair, str) else model_or_pair
    fld = char_field(pair, ORACLE)
    skew = _is_skew_product(fld)
    rhs = fld.compile_rhs()
    rho_fn = RHO.compile()
    offsets: list[tuple[float, float]] = []
    converged: list[bool] = []
    failures: dict[int, str] = {}
    grid = [(float(z), float(w)) for z, w in grid]
    if (0.0, 0.0) in grid:
        raise ValueError("grid points must be nonzero")
    for i, (z, w) in enumerate(grid):
        # The tail bound reads the last four states, so the cut is tested
        # from the third accepted step on: next() gives False twice, then True.
        early = iter((False, False))
        try:
            times, states, _, _ = adaptive_rk45(
                rhs,
                (0.0, 0.0, z, w),
                (0.0, t_max),
                rtol,
                atol,
                stop_when=lambda t, y: next(early, True) and rho_fn(*y) < eps_cut,
            )
        except IntegrationError as exc:
            failures[i] = str(exc)
            offsets.append((math.nan, math.nan))
            converged.append(False)
            continue
        end = states[-1]
        ok = (
            rho_fn(*end) < eps_cut
            and len(states) >= 4
            and _tail_bound(rhs, states, times) < TAIL_BOUND_LIMIT
        )
        offsets.append((end[0], end[1]))
        converged.append(ok)
    return SurfaceSample(
        grid=grid,
        offsets=offsets,
        converged=converged,
        eps_cut=eps_cut,
        t_max=t_max,
        skew_product=skew,
        failures=failures,
    )
