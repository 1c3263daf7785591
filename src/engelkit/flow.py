"""Numerical integration of characteristic fields and flow-based analyses.

One Dormand-Prince 4(5) integrator, :func:`adaptive_rk45`, serves every
flow: an embedded Runge-Kutta pair with per-step error control on mixed
absolute and relative tolerances and dense output, run on tuples of Python
floats.  Its loop, with the step-size control of Hairer, Norsett and
Wanner (Solving ODEs I, II.4) and every guard, is generated code
(:mod:`engelkit.codegen`) that does the arithmetic of a plain tuple loop
in its order, so results are bit-identical to that loop's.  Each generated
rhs carries its own loop, whose stages run the rhs inline and form only
the entries it reads; :func:`_rk45_loop` steps any other rhs with stages
that call it.  It calls no numpy: it returns its accepted states and dense
samples as lists of float tuples, and each caller converts them once where
it needs arrays.  It integrates the characteristic flows here
(:func:`singular_surface` calls it directly, with one compiled rhs per
grid) and, in :mod:`engelkit.endpoint`, the control system and its
variational pass (one segment loop serves both) and the characteristic
controls.  The error norm is the RMS over every entry of the state, so a
caller integrates only the entries that move.  Generation happens on first
use (about 2 ms for a field, 7 ms for a pair's control system), not at
import.  Monitor channels are polynomial quantities sampled along the
trajectory.  Everything is deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Sequence, TextIO

import numpy as np

from .charfield import ORACLE, char_field, origin_kind
from .codegen import function_source, kernel, loop_source, numbered_names, tuple_source
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


# Smallest step, relative to max(1, |t|), before the integrator gives up.
H_FLOOR = 1e-15
# Step budget of one integrator call, counting rejected trial steps.
MAX_STEPS = 1_000_000


@lru_cache(maxsize=64)
def _rk45_loop(n: int):
    """Generated loop on n-entry states for an rhs without a ``rk45_loop``
    of its own: each stage's body is ``(v0, ...) = rhs(t, (q0, ...))``."""
    q, v = numbered_names("q", n), numbered_names("v", n)
    return kernel(loop_source(q, [f"{tuple_source(v)} = rhs(t, {tuple_source(q)})"], v),
                  "rk45_loop")


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
    The first trial step is ``h0`` (positive; inf is clipped to the span),
    by default 1 % of the span but at least 1e-6.

    The steps run in a generated loop (:func:`codegen.loop_source`):
    ``rhs.rk45_loop`` when the rhs carries one (compiled fields do,
    :func:`codegen.rhs_source`), else :func:`_rk45_loop` of the state
    size.  This function checks the arguments, sets up the samples and
    raises the loop's failures.  The error norm is the RMS of the scaled
    error over all n entries.
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
    if h0 is not None and not h0 > 0.0:
        raise ValueError(f"h0 must be positive, got h0={h0!r}")
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
    loop = getattr(rhs, "rk45_loop", None) or _rk45_loop(n)
    sampled = [(math.nan,) * n] * len(times_at)
    times, states = [t0], [y]
    h = h0 if h0 is not None else min(span, max(1e-6, 1e-2 * span))
    status, t, h, accepted, rejected, h_min = loop(
        rhs, t0, t1, y, h, rtol, atol, max_steps, h_floor, stop_when, pending, sampled, times,
        states,
    )
    if status == "budget":
        raise IntegrationError(
            f"step budget of MAX_STEPS={max_steps} steps exhausted: {accepted} "
            f"accepted, {rejected} rejected, smallest step {h_min!r}",
            t,
        )
    if status == "non-finite":
        raise NonFiniteStateError(
            "step size underflow while rejecting non-finite trial states", t
        )
    if status == "underflow":
        raise StepSizeUnderflowError("step size underflow", t)
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


def start_point(q0: Point4 | Sequence[float]) -> tuple[float, ...]:
    """q0's four coordinates as floats; any other length is a ValueError."""
    q = q0.as_floats() if isinstance(q0, Point4) else tuple(map(float, q0))
    if len(q) != 4:
        raise ValueError(f"a start point has 4 coordinates (x, y, z, w), got {len(q)}: {q!r}")
    return q


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

    Negative ``t_end`` integrates the time-reversed field for ``|t_end|``,
    which must be finite and at least the step floor :data:`H_FLOOR`.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if abs(t_end) < H_FLOOR:
        raise ValueError(f"t_end={t_end!r} is shorter than the step floor H_FLOOR={H_FLOOR!r}")
    fld = vector_field if t_end > 0 else -vector_field
    y0 = start_point(q0)
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
    rho_monotone: bool
    final_rho: float


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
    return LyapunovReport(rho_monotone=not np.any(np.diff(rho) > 0), final_rho=float(rho[-1]))


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


@lru_cache(maxsize=1)
def _cut_test():
    """Generated ``cut(eps_cut)``: a fresh stop test for one surface sample,
    false at its first two calls, then :data:`RHO` < eps_cut."""
    return kernel(function_source("cut(eps_cut)", [
        "skip = 2",
        "def stop(t, q):",
        "    nonlocal skip",
        "    if skip:",
        "        skip -= 1",
        "        return False",
        "    (x, y, z, w) = q",
        f"    return {RHO.float_source()} < eps_cut",
        "return stop",
    ]), "cut")


def singular_surface(
    pair: PfaffianPair,
    grid: Sequence[tuple[float, float]],
    eps_cut: float = DEFAULT_EPS_CUT,
    t_max: float = DEFAULT_T_MAX,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> SurfaceSample:
    """Reconstruct the singular-endpoint surface of a pair.

    For each (z, w) on the grid, integrates the characteristic flow from
    (0, 0, z, w) until rho = z^2 + w^2 < eps_cut or t_max elapses; the cut
    is tested from the third accepted step on, so a sample that starts
    inside it still has the four states the tail bound reads.  A sample
    converges when the cut was reached and the estimated quadrature tail is
    below 1e-10.  The flow is -C when the field is a skew product and the
    origin a node or focus with tr M > 0 (:func:`charfield.origin_kind`),
    else +C.  So samples can converge near a node or focus, either way; near
    a saddle only on its stable eigenline; near a linear center never.

    The x, y entries of the state accumulate the offsets (dx, dy); the surface
    point (-dx, -dy, z, w) is a graph over (z, w) when the x, y dynamics
    depend on (z, w) only (``skew_product``), else the offsets describe only
    the flow from (0, 0, z, w).  A sample whose flow raises IntegrationError
    is recorded in ``failures`` and the grid goes on.
    """
    if not (0.0 < eps_cut < math.inf and 0.0 < t_max < math.inf):
        raise ValueError(f"eps_cut and t_max must be positive and finite, got "
                         f"eps_cut={eps_cut!r}, t_max={t_max!r}")
    if t_max < H_FLOOR:
        raise ValueError(f"t_max={t_max!r} is shorter than the step floor H_FLOOR={H_FLOOR!r}")
    fld = char_field(pair, ORACLE)
    skew = _is_skew_product(fld)
    if skew and (kind := origin_kind(pair)) is not None and kind.sign < 0:
        fld = -fld
    rhs = fld.compile_rhs()
    rho_fn = RHO.compile()
    cut = _cut_test()
    offsets: list[tuple[float, float]] = []
    converged: list[bool] = []
    failures: dict[int, str] = {}
    grid = [(float(z), float(w)) for z, w in grid]
    if (0.0, 0.0) in grid:
        raise ValueError("grid points must be nonzero")
    for i, (z, w) in enumerate(grid):
        # The tail bound reads the last four states, so the cut is tested
        # from the third accepted step on.
        try:
            times, states, _, _ = adaptive_rk45(
                rhs, (0.0, 0.0, z, w), (0.0, t_max), rtol, atol, stop_when=cut(eps_cut)
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
