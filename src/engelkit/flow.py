"""Numerical integration of characteristic fields and flow-based analyses.

The integrator is an explicit embedded Runge-Kutta 4(5) pair (Dormand-
Prince coefficients) with per-step error control on mixed absolute and
relative tolerances.  Accepted steps are recorded as-is; monitor channels
are polynomial quantities sampled along the trajectory.  Everything is
deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, TextIO

import numpy as np

from .charfield import ORACLE, char_field
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


# Dormand-Prince embedded pair: 5th-order propagated solution, 4th-order
# embedded solution for the local error estimate.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# Smallest step, relative to max(1, |t|), before the integrator gives up.
H_FLOOR = 1e-15
# Step budget of one integrator call, counting rejected trial steps.
MAX_STEPS = 1_000_000


# A rejected non-finite trial step is handled below; numpy need not warn.
@np.errstate(invalid="ignore", over="ignore")
def adaptive_rk45(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_span: tuple[float, float],
    rtol: float,
    atol: float,
    h0: float | None = None,
    stop_when: Callable[[float, np.ndarray], bool] | None = None,
    stops: Sequence[float] = (),
) -> tuple[list[float], list[np.ndarray], float]:
    """Integrate rhs over t_span, recording every accepted step.

    Returns (times, states, last_step_size).  Steps are
    clipped to land exactly on t1 and on each time in ``stops`` (which
    must lie in t_span), so those times appear in ``times`` as given.
    The last stage of an accepted step is reused as the first stage of
    the next (first-same-as-last).  A trial step with a non-finite stage
    or result is rejected and retried with a smaller step.  ``stop_when``
    is checked at accepted steps only.  Raises StepSizeUnderflowError, or
    NonFiniteStateError when the step underflowed while non-finite trial
    states were being rejected, or IntegrationError after MAX_STEPS steps.
    """
    t0, t1 = t_span
    if t1 <= t0:
        raise ValueError("t_span must be increasing; reverse the field instead")
    if rtol <= 0 or atol <= 0:
        raise ValueError("rtol and atol must be positive")
    targets = sorted(float(s) for s in stops)
    if targets and (targets[0] < t0 or targets[-1] > t1):
        raise ValueError("stops must lie in t_span")
    targets = [s for s in targets if t0 < s < t1] + [t1]
    y = np.asarray(y0, dtype=float).copy()
    t = t0
    times = [t0]
    states = [y.copy()]
    span = t1 - t0
    h = h0 if h0 is not None else min(span, max(1e-6, 1e-2 * span))
    k = np.empty((7, y.size))
    k[0] = rhs(t, y)
    steps = 0
    non_finite = False
    next_target = 0
    while t < t1:
        steps += 1
        if steps > MAX_STEPS:
            raise IntegrationError(f"step budget of MAX_STEPS={MAX_STEPS} steps exhausted", t)
        target = targets[next_target]
        proposal = h
        # Stretch a step that would stop just short of the target
        # (Hairer-Norsett-Wanner's 1.01 rule), so no sliver step is left.
        clipped = t + 1.01 * h >= target
        if clipped:
            h = target - t
        if h < H_FLOOR * max(1.0, abs(t)):
            if non_finite:
                raise NonFiniteStateError(
                    "step size underflow while rejecting non-finite trial states", t
                )
            raise StepSizeUnderflowError("step size underflow", t)
        t_new = target if clipped else t + h
        for i in range(1, 7):
            yi = y + h * (k[:i].T @ _A[i])
            k[i] = rhs(t_new if i == 6 else t + _C[i] * h, yi)
        # The last stage is evaluated at the propagated solution itself.
        y_new = yi
        non_finite = not (np.isfinite(k).all() and np.isfinite(y_new).all())
        err = math.inf
        if not non_finite:
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            ratio = h * (k.T @ _ERR) / scale
            err = math.sqrt(float(ratio @ ratio) / ratio.size)
        if err <= 1.0:
            t = t_new
            y = y_new
            k[0] = k[6]
            times.append(t)
            states.append(y.copy())
            if clipped:
                next_target += 1
            if stop_when is not None and stop_when(t, y):
                break
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            )
            h *= factor
            if clipped:
                # The clip was set by the target, not by the error: carry
                # on from the step the controller had proposed.
                h = max(h, proposal)
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
    return times, states, h


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

    def write_csv(self, fh: TextIO, header_lines: Sequence[str] = ()) -> None:
        for line in header_lines:
            fh.write(f"# {line}\n")
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
    stop_when: Callable[[float, np.ndarray], bool] | None = None,
) -> Trajectory:
    """Adaptive integration of a polynomial field from q0 for time t_end.

    Negative ``t_end`` integrates the time-reversed field for ``|t_end|``.
    """
    if t_end == 0:
        raise ValueError("t_end must be nonzero")
    fld = vector_field if t_end > 0 else -vector_field
    y0 = np.asarray(q0.as_floats() if isinstance(q0, Point4) else q0, dtype=float)
    times, states, _ = adaptive_rk45(
        fld.compile_rhs(), y0, (0.0, abs(t_end)), rtol, atol, stop_when=stop_when
    )
    states_arr = np.array(states)
    return Trajectory(
        times=np.array(times),
        states=states_arr,
        monitors=_monitor_channels(monitors, states_arr),
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
    reached rho < eps_cut with a negligible quadrature tail.
    """

    grid: list[tuple[float, float]]
    offsets: list[tuple[float, float]]
    converged: list[bool]
    eps_cut: float
    t_max: float
    skew_product: bool

    def surface_points(self) -> list[tuple[float, float, float, float]]:
        return [
            (-dx, -dy, zw[0], zw[1])
            for zw, (dx, dy), ok in zip(self.grid, self.offsets, self.converged)
            if ok
        ]

    def write_csv(self, fh: TextIO, header_lines: Sequence[str] = ()) -> None:
        for line in header_lines:
            fh.write(f"# {line}\n")
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


def _tail_bound(fld_xy, states: np.ndarray, times: np.ndarray) -> float:
    """Bound on the remaining |dx| + |dy| quadrature past the cut point,
    assuming the observed exponential decay rate of |C^x| + |C^y| persists."""
    fx, fy = fld_xy
    speed = [abs(fx(*s)) + abs(fy(*s)) for s in states[-4:]]
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
    (0, 0, z, w) until rho = z^2 + w^2 < eps_cut or t_max elapses.  The x,
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
    from the (0, 0, z, w) base point.
    """
    if eps_cut <= 0 or t_max <= 0:
        raise ValueError("eps_cut and t_max must be positive")
    pair = CATALOG[model_or_pair] if isinstance(model_or_pair, str) else model_or_pair
    fld = char_field(pair, ORACLE)
    skew = _is_skew_product(fld)
    fx, fy = fld.cx.compile(), fld.cy.compile()
    rho_fn = RHO.compile()
    offsets: list[tuple[float, float]] = []
    converged: list[bool] = []
    grid = [(float(z), float(w)) for z, w in grid]
    for z, w in grid:
        if z == 0.0 and w == 0.0:
            raise ValueError("grid points must be nonzero")
        traj = integrate(
            fld,
            (0.0, 0.0, z, w),
            t_max,
            rtol=rtol,
            atol=atol,
            stop_when=lambda t, y: rho_fn(*y) < eps_cut,
        )
        end = traj.endpoint
        reached = rho_fn(*end) < eps_cut
        ok = False
        if reached and traj.times.size >= 4:
            tail = _tail_bound((fx, fy), traj.states, traj.times)
            ok = tail < TAIL_BOUND_LIMIT
        offsets.append((float(end[0]), float(end[1])))
        converged.append(bool(ok))
    return SurfaceSample(
        grid=grid,
        offsets=offsets,
        converged=converged,
        eps_cut=eps_cut,
        t_max=t_max,
        skew_product=skew,
    )
