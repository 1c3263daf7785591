"""Reference segment-by-segment variational pass for the tests.

This is the pass ``engelkit.endpoint`` ran before it stacked a whole pass
in numpy at once: per segment it converts the integrator's states to
arrays, slices the 4x6 block [Phi | L] at the segment end, multiplies the
samples' transitions by the running Phi, and chains the Jacobian blocks
backwards after the last segment.  The constraint matrix evaluates the
control system's rhs at unit controls twice per sample, and the covector
test takes the full SVD.  ``bryant_hsu_test``, ``endpoint_jacobian`` and
``adjoint_transport`` here return what the engelkit functions of the same
names return, from that pass.
"""

from __future__ import annotations

import numpy as np

from engelkit import flow
from engelkit.endpoint import (
    SINGULAR,
    AdjointRecord,
    JacobianResult,
    SingularVerdict,
    _RESTART,
    _as_floats,
    _control_system,
    _default_samples,
    classify_statistic,
    singular_score,
)
from engelkit.flow import DEFAULT_ATOL, DEFAULT_RTOL


def _rk45_arrays(rhs, y0, t_span, rtol, atol, **kwargs):
    """flow.adaptive_rk45 with its states and samples as arrays."""
    times, states, h, sampled = flow.adaptive_rk45(rhs, y0, t_span, rtol, atol, **kwargs)
    return times, np.array(states), h, np.array(sampled, dtype=float).reshape(-1, len(y0))


def sensitivity_pass(sys, q0, ctrl, samples, rtol, atol):
    n = ctrl.n_segments
    per_segment = samples or ((),) * n
    q = _as_floats(q0)
    phi = np.eye(4)
    transitions, local_cols, qs, phis = [], [], [], []
    h_carry = None
    for j, (u1, u2) in enumerate(ctrl.u.tolist()):
        _, states, h_carry, sampled = _rk45_arrays(
            sys.variational(u1, u2), (*q, *_RESTART), (j / n, (j + 1) / n), rtol, atol,
            h0=h_carry, samples=per_segment[j], fixed=sys.fixed,
        )
        qs.append(sampled[:, :4])
        phis.append(sampled[:, 4:].reshape(-1, 4, 6)[:, :, :4] @ phi)
        q = states[-1][:4]
        x_end = states[-1][4:].reshape(4, 6)
        transitions.append(x_end[:, :4])
        local_cols.append(x_end[:, 4:])
        phi = transitions[j] @ phi

    jac = np.zeros((4, 2 * n))
    suffix = np.eye(4)
    for j in range(n - 1, -1, -1):
        jac[:, 2 * j : 2 * j + 2] = suffix @ local_cols[j]
        suffix = suffix @ transitions[j]
    return q, jac, np.concatenate(qs), np.concatenate(phis)


def constraint_matrix(sys, states, phis):
    frames = np.array([[sys.rhs(q, 1.0, 0.0), sys.rhs(q, 0.0, 1.0)] for q in states])
    return np.linalg.solve(phis, frames.transpose(0, 2, 1)).transpose(0, 2, 1).reshape(-1, 4)


def endpoint_jacobian(pair, q0, ctrl, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    endpoint, jac, _, _ = sensitivity_pass(_control_system(pair), q0, ctrl, None, rtol, atol)
    return JacobianResult(matrix=jac, endpoint=endpoint)


def adjoint_transport(pair, q0, ctrl, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    sys = _control_system(pair)
    samples = _default_samples(ctrl.n_segments)
    _, _, states, phis = sensitivity_pass(sys, q0, ctrl, samples, rtol, atol)
    return AdjointRecord(
        times=np.array([t for times in samples for t in times]),
        states=states,
        transports=np.linalg.solve(phis, np.broadcast_to(np.eye(4), phis.shape)).transpose(0, 2, 1),
        constraint_matrix=constraint_matrix(sys, states, phis),
        min_abs_det=float(np.min(1.0 / np.abs(np.linalg.det(phis)))),
    )


def bryant_hsu_test(pair, q0, ctrl, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    sys = _control_system(pair)
    samples = _default_samples(ctrl.n_segments)
    endpoint, jac, states, phis = sensitivity_pass(sys, q0, ctrl, samples, rtol, atol)
    phi = constraint_matrix(sys, states, phis)
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
