"""Reference Dormand-Prince 4(5) integrators for the tests.

``reference_rk45`` is a numpy stage loop.  It keeps its own copy of the
Butcher tableau and evaluates each stage with numpy matrix products, so a
slip in ``engelkit.flow``'s float tableau or stage sums shows up as a
difference in steps or states.  The step-size control and guards are
``flow._StepControl``, so both integrators take the same steps up to
rounding and raise the same errors.  Same call and return as
``flow.adaptive_rk45``, except that ``rhs`` and ``stop_when`` get the state
as a numpy array.

``reference_tuple_rk45`` is the generic loop over tuples of floats that the
generated trial step of ``flow.adaptive_rk45`` unrolls: the same stage sums
in the same order, so the two agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from engelkit import flow
from engelkit.flow import _StepControl

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


def reference_tuple_rk45(rhs, y0, t_span, rtol, atol, h0=None, stop_when=None, samples=()):
    _, c2, c3, c4, c5, c6, _ = flow._C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54) = flow._A[1:5]
    (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6) = flow._A[5:]
    e1, _, e3, e4, e5, e6, e7 = flow._ERR
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
            k7 = rhs(t_new, y_new)
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
                    for p1, p2, p3, p4 in flow._P
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
