"""Reference per-segment variational pass for the tests.

This is the pass ``engelkit.endpoint`` ran before it stacked a whole pass
in numpy at once and before its kernels ran a whole control in one call:
one ``flow.adaptive_rk45`` call per segment, on the per-segment rhs
:func:`variational` (or :func:`control`) with its fused loop, generated
from the same (state, body, values) as the endpoint's pass kernels and
carrying each segment's last step into the next.  Per segment it
converts the integrator's states to arrays, fills in the 4x6 block
[Phi | L] at the segment end and at the samples around the entries that
moved, multiplies the samples' transitions by the running Phi, and
chains the Jacobian blocks backwards after the last segment.  The
constraint matrix builds the frames from the reference evaluators of f
and g, and the covector test takes the full SVD.  ``bryant_hsu_test``,
``endpoint_jacobian``, ``adjoint_transport`` and ``horizontal_integrate``
here return what the engelkit functions of the same names return, from
that route.

With ``full=True`` they run the pass on all 28 entries of (q, Phi, L)
instead: the rhs is :func:`variational_rhs`, a loop over all eight x and y
entries of A, and each segment runs on ``reference_tuple_rk45``, which
steps every entry.  The error norm then divides by 28, not by the number
of entries that move, so only where that never sets a step (as on the
catalog) is the result the reduced pass's bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from engelkit import flow
from engelkit.codegen import function_source, kernel, rhs_source
from engelkit.endpoint import (
    SINGULAR,
    AdjointRecord,
    JacobianResult,
    SingularVerdict,
    _RESTART,
    _control_system,
    _default_samples,
    _gradients,
    _variational_parts,
    classify_statistic,
    singular_score,
)
from engelkit.flow import DEFAULT_ATOL, DEFAULT_RTOL, Trajectory, start_point
from engelkit.poly import VARS
from reference_poly import reference_compile
from reference_rk45 import reference_tuple_rk45


def _segment_source(pair, grads, moving):
    """Source of ``variational(u1, u2)``, which returns the rhs of the
    ``moving`` entries at the controls (u1, u2) with its fused loop."""
    inner = rhs_source(*_variational_parts(pair, grads, moving))
    return function_source("variational(u1, u2)", [*inner.splitlines(), "return rhs"])


@lru_cache(maxsize=64)
def _segment_kernels(pair):
    return (
        kernel(_segment_source(pair, ([], []), range(4)), "variational"),
        kernel(_segment_source(pair, _gradients(pair), _control_system(pair).moving),
               "variational"),
    )


def control(pair, u1, u2):
    """The per-segment rhs of q, (-u2 f, -u2 g, u1, u2), with its fused loop."""
    return _segment_kernels(pair)[0](u1, u2)


def variational(pair, u1, u2):
    """The per-segment rhs of the entries of the variational state that
    move, ``_control_system(pair).moving`` in that order, with its fused
    loop."""
    return _segment_kernels(pair)[1](u1, u2)


def variational_rhs(pair, u1, u2):
    """The 28-state rhs as a loop over all eight x and y entries of A."""
    f, g = reference_compile(pair.f), reference_compile(pair.g)
    grads = [reference_compile(p.diff(v)) for p in (pair.f, pair.g) for v in VARS]
    zw_rows = (0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)

    def rhs(t, s):
        point = s[:4]
        axx, axy, axz, axw, ayx, ayy, ayz, ayw = (-u2 * d(*point) for d in grads)
        cols = s[4:10], s[10:16], s[16:22], s[22:28]
        x_row = [axx * p + axy * q + axz * r + axw * v for p, q, r, v in zip(*cols)]
        y_row = [ayx * p + ayy * q + ayz * r + ayw * v for p, q, r, v in zip(*cols)]
        fv, gv = f(*point), g(*point)
        x_row[5] -= fv
        y_row[5] -= gv
        return (-u2 * fv, -u2 * gv, u1, u2, *x_row, *y_row, *zw_rows)

    return rhs


def _rk45_arrays(rhs, y0, t_span, rtol, atol, full, **kwargs):
    """flow.adaptive_rk45, or the tuple loop when ``full``, with its states
    and samples as arrays."""
    rk45 = reference_tuple_rk45 if full else flow.adaptive_rk45
    times, states, h, sampled = rk45(rhs, y0, t_span, rtol, atol, **kwargs)
    return times, np.array(states), h, np.array(sampled, dtype=float).reshape(-1, len(y0))


def _blocks(cells, states):
    """[Phi | L] of each state, with the entries outside ``cells`` (indices
    into the 24 entries of X) at their restart values."""
    x = np.tile(_RESTART, (len(states), 1))
    x[:, cells] = states[:, 4:]
    return x.reshape(-1, 4, 6)


def sensitivity_pass(pair, q0, ctrl, samples, rtol, atol, full=False):
    sys = _control_system(pair)
    entries = range(28) if full else sys.moving
    cells = [j - 4 for j in entries[4:]]
    n = ctrl.n_segments
    per_segment = samples or ((),) * n
    q = start_point(q0)
    phi = np.eye(4)
    transitions, local_cols, qs, phis = [], [], [], []
    h_carry = None
    for j, (u1, u2) in enumerate(ctrl.u.tolist()):
        rhs = variational_rhs(pair, u1, u2) if full else variational(pair, u1, u2)
        _, states, h_carry, sampled = _rk45_arrays(
            rhs, (*q, *(_RESTART[i] for i in cells)), (j / n, (j + 1) / n), rtol, atol, full,
            h0=h_carry, samples=per_segment[j],
        )
        qs.append(sampled[:, :4])
        phis.append(_blocks(cells, sampled)[:, :, :4] @ phi)
        q = states[-1][:4]
        x_end = _blocks(cells, states[-1:])[0]
        transitions.append(x_end[:, :4])
        local_cols.append(x_end[:, 4:])
        phi = transitions[j] @ phi

    jac = np.zeros((4, 2 * n))
    suffix = np.eye(4)
    for j in range(n - 1, -1, -1):
        jac[:, 2 * j : 2 * j + 2] = suffix @ local_cols[j]
        suffix = suffix @ transitions[j]
    return q, jac, np.concatenate(qs), np.concatenate(phis)


def horizontal_integrate(pair, q0, ctrl):
    """The control system on one ``flow.adaptive_rk45`` call per segment,
    each from the q where the last ended and trying its last step first."""
    n = ctrl.n_segments
    q, h = start_point(q0), None
    all_times, all_states = [0.0], [q]
    for j, (u1, u2) in enumerate(ctrl.u.tolist()):
        times, states, h, _ = flow.adaptive_rk45(
            control(pair, u1, u2), q, (j / n, (j + 1) / n), DEFAULT_RTOL, DEFAULT_ATOL, h0=h
        )
        all_times += times[1:]
        all_states += states[1:]
        q = states[-1]
    return Trajectory(times=all_times, states=all_states)


def constraint_matrix(pair, states, phis):
    """The frames (Z, W) = ((-0.0 f, -0.0 g, 1, 0), (-1.0 f, -1.0 g, 0, 1))
    at each sample, from the reference evaluators of f and g."""
    f, g = reference_compile(pair.f), reference_compile(pair.g)
    frames = np.array([
        [(-0.0 * f(*q), -0.0 * g(*q), 1.0, 0.0), (-1.0 * f(*q), -1.0 * g(*q), 0.0, 1.0)]
        for q in states
    ])
    return np.linalg.solve(phis, frames.transpose(0, 2, 1)).transpose(0, 2, 1).reshape(-1, 4)


def endpoint_jacobian(pair, q0, ctrl, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, full=False):
    endpoint, jac, _, _ = sensitivity_pass(pair, q0, ctrl, None, rtol, atol, full)
    return JacobianResult(matrix=jac, endpoint=endpoint)


def adjoint_transport(pair, q0, ctrl, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, full=False):
    samples = _default_samples(ctrl.n_segments)
    _, _, states, phis = sensitivity_pass(pair, q0, ctrl, samples, rtol, atol, full)
    return AdjointRecord(
        times=np.array([t for times in samples for t in times]),
        states=states,
        transports=np.linalg.solve(phis, np.broadcast_to(np.eye(4), phis.shape)).transpose(0, 2, 1),
        constraint_matrix=constraint_matrix(pair, states, phis),
    )


def bryant_hsu_test(pair, q0, ctrl, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, full=False):
    samples = _default_samples(ctrl.n_segments)
    endpoint, jac, states, phis = sensitivity_pass(pair, q0, ctrl, samples, rtol, atol, full)
    phi = constraint_matrix(pair, states, phis)
    _, sv, vt = np.linalg.svd(phi)
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
