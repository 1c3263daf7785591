"""Reference Dormand-Prince 4(5) integrators for the tests.

``reference_rk45`` is a numpy stage loop.  It keeps its own copy of the
Butcher tableau and evaluates each stage with numpy matrix products, so a
slip in the float tableau of ``engelkit.codegen`` or stage sums shows up as a
difference in steps or states.  Same call and return as
``flow.adaptive_rk45``, except that ``rhs`` and ``stop_when`` get the state
as a numpy array.

``reference_tuple_rk45`` is the generic loop over tuples of floats that the
generated loops of ``flow.adaptive_rk45`` unroll, the call form and the
fused loops of compiled fields alike: the same stage sums in the same
order, so they agree bit for bit.  ``tuple_stages`` is its trial step.

Both take their step-size control and guards from ``_StepControl`` below,
a copy of the controller that the generated loops run inline (Hairer,
Norsett and Wanner, Solving ODEs I, II.4), kept here as methods
so that a slip in the driver's inlined control shows up as a difference
in steps, in the carried step or in an error.  Only the budget
``flow.MAX_STEPS`` and the floor ``flow.H_FLOOR`` are read from flow, at
call time, so that a test that changes them changes both.
"""

from __future__ import annotations

import math

import numpy as np

from engelkit import codegen, flow
from engelkit.flow import IntegrationError, NonFiniteStateError, StepSizeUnderflowError

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0

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
# Shampine's quartic continuous extension (scipy's RK45.P).
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


class _StepControl:
    """Step-size control and guards of the Dormand-Prince integrator.

    ``trial(t)`` returns the next trial step ``(h, t_new)``: the carried
    step, clipped to land exactly on t1.  It raises IntegrationError when
    MAX_STEPS trial steps have been taken, and StepSizeUnderflowError (or
    NonFiniteStateError, when the last rejected trial was non-finite) when
    the step falls below H_FLOOR.  ``accept(err)`` or ``reject(err,
    non_finite)`` then resizes the step from the trial's error norm.
    """

    __slots__ = ("t1", "h", "proposal", "clipped", "non_finite", "accepted", "rejected",
                 "h_min", "max_steps", "h_floor")

    def __init__(self, t_span, rtol, atol, h0):
        t0, t1 = t_span
        self.max_steps, self.h_floor = flow.MAX_STEPS, flow.H_FLOOR
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ValueError(f"t_span must be finite, got {t_span!r}")
        if t1 <= t0:
            raise ValueError("t_span must be increasing; reverse the field instead")
        if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
            raise ValueError(f"rtol and atol must be positive and finite, got rtol={rtol!r}, "
                             f"atol={atol!r}")
        span = t1 - t0
        if span < self.h_floor * max(1.0, abs(t0)):
            raise ValueError(
                f"t_span {t_span!r} is shorter than the step floor H_FLOOR={self.h_floor!r} "
                "relative to max(1, |t0|)"
            )
        self.t1 = t1
        self.h = h0 if h0 is not None else min(span, max(1e-6, 1e-2 * span))
        self.proposal = self.h
        self.clipped = self.non_finite = False
        self.accepted = self.rejected = 0
        self.h_min = math.inf

    def trial(self, t):
        if self.accepted + self.rejected >= self.max_steps:
            raise IntegrationError(
                f"step budget of MAX_STEPS={self.max_steps} steps exhausted: {self.accepted} "
                f"accepted, {self.rejected} rejected, smallest step {self.h_min!r}",
                t,
            )
        h = self.proposal = self.h
        t1 = self.t1
        # Stretch a step that would stop just short of t1 (the 1.01 rule).
        self.clipped = clipped = t + 1.01 * h >= t1
        if clipped:
            h = self.h = t1 - t
        if h < self.h_floor * max(1.0, abs(t)):
            if self.non_finite:
                raise NonFiniteStateError(
                    "step size underflow while rejecting non-finite trial states", t
                )
            raise StepSizeUnderflowError("step size underflow", t)
        if h < self.h_min:
            self.h_min = h
        return h, t1 if clipped else t + h

    def accept(self, err):
        self.accepted += 1
        factor = _MAX_FACTOR if err == 0.0 else min(
            _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
        )
        self.h *= factor
        if self.clipped:
            # The clip was set by t1, not by the error: carry on from the
            # step the controller had proposed.
            self.h = max(self.h, self.proposal)

    def reject(self, err, non_finite):
        self.rejected += 1
        self.non_finite = non_finite
        self.h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2))


# A rejected non-finite trial step is handled below; numpy need not warn.
@np.errstate(invalid="ignore", over="ignore")
def reference_rk45(rhs, y0, t_span, rtol, atol, h0=None, stop_when=None, samples=()):
    control = _StepControl(t_span, rtol, atol, h0)
    t0, t1 = t_span
    pending = [(math.inf, -1)] + sorted(
        ((float(s), i) for i, s in enumerate(samples)), reverse=True
    )
    if not all(t0 <= s <= t1 for s, _ in pending[1:]):
        raise ValueError("samples must lie in t_span")
    y = np.asarray(y0, dtype=float).copy()
    sampled = np.full((len(samples), y.size), math.nan)
    t = t0
    times = [t0]
    states = [y.copy()]
    k = np.empty((7, y.size))
    k[0] = rhs(t, y)
    while t < t1:
        h, t_new = control.trial(t)
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
            while pending[-1][0] <= t_new:
                s, i = pending.pop()
                theta = (s - t) / h
                sampled[i] = y_new if s == t_new else y + h * (theta ** np.arange(1, 5) @ _P.T) @ k
            t = t_new
            y = y_new
            k[0] = k[6]
            times.append(t)
            states.append(y.copy())
            if stop_when is not None and stop_when(t, y):
                break
            control.accept(err)
        else:
            control.reject(err, non_finite)
    return times, np.array(states), control.h, sampled


def tuple_stages(rhs, t, h, t_new, y, k1):
    """The stages k2 to k7 and the new state y_new of one trial step of
    size h from (t, y), whose first stage is k1, as (k2, k3, k4, k5, k6,
    k7, y_new); the last stage is evaluated at y_new itself."""
    _, c2, c3, c4, c5, c6, _ = codegen._C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54) = codegen._A[1:5]
    (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6) = codegen._A[5:]
    k2 = rhs(t + c2 * h, tuple([a + h * (a21 * p) for a, p in zip(y, k1)]))
    k3 = rhs(t + c3 * h, tuple([a + h * (a31 * p + a32 * q) for a, p, q in zip(y, k1, k2)]))
    k4 = rhs(
        t + c4 * h,
        tuple([a + h * (a41 * p + a42 * q + a43 * r) for a, p, q, r in zip(y, k1, k2, k3)]),
    )
    k5 = rhs(
        t + c5 * h,
        tuple([
            a + h * (a51 * p + a52 * q + a53 * r + a54 * s)
            for a, p, q, r, s in zip(y, k1, k2, k3, k4)
        ]),
    )
    k6 = rhs(
        t + c6 * h,
        tuple([
            a + h * (a61 * p + a62 * q + a63 * r + a64 * s + a65 * u)
            for a, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)
        ]),
    )
    y_new = tuple([
        a + h * (b1 * p + b3 * r + b4 * s + b5 * u + b6 * v)
        for a, p, r, s, u, v in zip(y, k1, k3, k4, k5, k6)
    ])
    return k2, k3, k4, k5, k6, rhs(t_new, y_new), y_new


def reference_tuple_rk45(rhs, y0, t_span, rtol, atol, h0=None, stop_when=None, samples=()):
    e1, _, e3, e4, e5, e6, e7 = codegen._ERR
    control = _StepControl(t_span, rtol, atol, h0)
    t0, t1 = t_span
    pending = [(math.inf, -1)] + sorted(
        ((float(s), i) for i, s in enumerate(samples)), reverse=True
    )
    if not all(t0 <= s <= t1 for s, _ in pending[1:]):
        raise ValueError("samples must lie in t_span")
    y = tuple(map(float, y0))
    n = len(y)
    sampled = np.full((len(samples), n), math.nan)
    t = t0
    times = [t]
    states = [y]
    try:
        k1 = rhs(t, y)
    except OverflowError:
        k1 = (math.inf,) * n
    while t < t1:
        h, t_new = control.trial(t)
        try:
            k2, k3, k4, k5, k6, k7, y_new = tuple_stages(rhs, t, h, t_new, y, k1)
            non_finite = not all(map(math.isfinite, (*k1, *k2, *k3, *k4, *k5, *k6, *k7, *y_new)))
        except OverflowError:
            non_finite = True
        err = math.inf
        if not non_finite:
            total = 0.0
            for a, b, p, r, s, u, v, w in zip(y, y_new, k1, k3, k4, k5, k6, k7):
                ratio = h * (e1 * p + e3 * r + e4 * s + e5 * u + e6 * v + e7 * w) / (
                    atol + rtol * max(abs(a), abs(b))
                )
                total += ratio * ratio
            err = math.sqrt(total / n)
        if err <= 1.0:
            while pending[-1][0] <= t_new:
                ts, i = pending.pop()
                if ts == t_new:
                    sampled[i] = y_new
                    continue
                theta = (ts - t) / h
                d1, _, d3, d4, d5, d6, d7 = (
                    theta * (p1 + theta * (p2 + theta * (p3 + theta * p4)))
                    for p1, p2, p3, p4 in codegen._P
                )
                sampled[i] = [
                    a + h * (d1 * p + d3 * r + d4 * s + d5 * u + d6 * v + d7 * w)
                    for a, p, r, s, u, v, w in zip(y, k1, k3, k4, k5, k6, k7)
                ]
            t = t_new
            y = y_new
            k1 = k7
            times.append(t)
            states.append(y)
            if stop_when is not None and stop_when(t, y):
                break
            control.accept(err)
        else:
            control.reject(err, non_finite)
    return times, np.array(states), control.h, sampled
