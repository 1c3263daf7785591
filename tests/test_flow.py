import io
import math

import numpy as np
import pytest

from engelkit import flow
from engelkit.charfield import ORACLE, char_field
from engelkit.distribution import CATALOG, PolyVectorField
from engelkit.flow import (
    RHO,
    ZW,
    IntegrationError,
    NonFiniteStateError,
    Trajectory,
    adaptive_rk45,
    closed_form,
    conserved_drift,
    integrate,
    lie_derivative,
    lyapunov_report,
    singular_surface,
)
from engelkit.poly import Point4, SparsePoly

ZERO = SparsePoly.zero()


def test_rotation_quarter_turn():
    # (z, w) rotates at angular rate 2: from (1, 0), t = pi/4 lands on (0, 1)
    fld = char_field(CATALOG["d2334b"], ORACLE)
    traj = integrate(fld, Point4(0, 0, 1, 0), math.pi / 4, monitors={"rho": RHO})
    z, w = traj.endpoint[2], traj.endpoint[3]
    assert abs(z) <= 1e-9 and abs(w - 1.0) <= 1e-9
    assert np.max(np.abs(traj.monitors["rho"] - 1.0)) <= 1e-9


def test_zw_is_conserved_along_d2334a_flow():
    fld = char_field(CATALOG["d2334a"], ORACLE)
    traj = integrate(fld, Point4(0, 0, 1, 1), 2.0, monitors={"zw": ZW})
    assert np.max(np.abs(traj.monitors["zw"] - 1.0)) <= 1e-9


def test_zero_field_constant_trajectory():
    fld = PolyVectorField(ZERO, ZERO, ZERO, ZERO)
    traj = integrate(fld, Point4(0.3, -0.1, 0.5, 0.7), 5.0)
    assert np.allclose(traj.states, traj.states[0])
    assert conserved_drift(traj, RHO) == 0.0


def test_backward_time_reverses_flow():
    fld = char_field(CATALOG["d224"], ORACLE)
    forward = integrate(fld, Point4(0, 0, 0.4, 0.3), 1.0)
    back = integrate(fld, Point4(*forward.endpoint), -1.0)
    assert np.max(np.abs(back.endpoint - np.array([0, 0, 0.4, 0.3]))) < 1e-8


def test_integrate_rejects_zero_time_and_bad_tols():
    fld = char_field(CATALOG["d224"], ORACLE)
    with pytest.raises(ValueError):
        integrate(fld, Point4.origin(), 0.0)
    with pytest.raises(ValueError):
        integrate(fld, Point4.origin(), 1.0, rtol=0.0)


def test_blowup_reports_reachable_time():
    # xdot = x^2 from x = 1 blows up at t = 1
    fld = PolyVectorField(SparsePoly({(2, 0, 0, 0): 1}), ZERO, ZERO, ZERO)
    with pytest.raises(IntegrationError) as err:
        integrate(fld, Point4(1.0, 0, 0, 0), 2.0)
    assert 0.9 < err.value.t_reached <= 1.05


def test_clipped_last_step_lands_exactly_on_t1():
    # t + (t1 - t) misses t1 by one ulp here; the clipped step must land on it
    t1 = 1 / 69
    times, _, _ = adaptive_rk45(
        lambda t, y: np.zeros_like(y), np.zeros(1), (0.0, t1), 1e-10, 1e-12, h0=0.3 / 69
    )
    assert times[-1] == t1


def test_non_finite_trial_step_is_rejected():
    # the rhs is finite while y <= 1.5, so y = 1 + t is reachable up to t = 0.5
    with pytest.raises(NonFiniteStateError, match="non-finite") as err:
        adaptive_rk45(
            lambda t, y: np.where(y <= 1.5, 1.0, np.inf),
            np.array([1.0]),
            (0.0, 1.0),
            1e-10,
            1e-12,
            h0=0.3,
        )
    assert abs(err.value.t_reached - 0.5) <= 1e-3


def test_step_budget_error_names_the_budget(monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 5)
    with pytest.raises(IntegrationError, match="MAX_STEPS=5") as err:
        adaptive_rk45(lambda t, y: -y, np.array([1.0]), (0.0, 1.0), 1e-10, 1e-12, h0=1e-3)
    assert 0.0 < err.value.t_reached < 1.0


def test_stops_are_landed_on_exactly_with_one_rhs_call_saved_per_step():
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return np.array([-y[0], y[0]])

    stops = [0.1, 1 / 3, 0.6, 0.6 + 1e-9]
    times, states, _ = adaptive_rk45(rhs, np.array([1.0, 0.0]), (0.0, 1.0), 1e-10, 1e-12, stops=stops)
    assert set(stops) <= set(times) and times[-1] == 1.0
    for t, y in zip(times, states):
        assert abs(y[0] - math.exp(-t)) <= 1e-9
    # first-same-as-last: one rhs call to start, then six per step (no step
    # is rejected on this problem)
    assert calls[0] == 1 + 6 * (len(times) - 1)
    with pytest.raises(ValueError):
        adaptive_rk45(rhs, np.array([1.0, 0.0]), (0.0, 1.0), 1e-10, 1e-12, stops=[1.5])


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0]), states=np.zeros((2, 4)))


def test_trajectory_csv_is_deterministic():
    fld = char_field(CATALOG["d2334b"], ORACLE)
    traj = integrate(fld, Point4(0, 0, 0.5, 0), 1.0, monitors={"rho": RHO})
    out1, out2 = io.StringIO(), io.StringIO()
    traj.write_csv(out1, ["header line"])
    traj.write_csv(out2, ["header line"])
    assert out1.getvalue() == out2.getvalue()
    first = out1.getvalue().splitlines()
    assert first[0] == "# header line"
    assert first[1] == "t,x,y,z,w,rho"


def test_closed_form_initial_condition():
    q0 = Point4(0.2, -0.4, 0.9, -0.7)
    for model in ("d224", "d2334a"):
        assert closed_form(model, q0, 0.0).as_floats() == q0.as_floats()


def test_closed_form_d2334a_at_t1():
    value = closed_form("d2334a", Point4(0, 0, 1, 1), 1.0)
    assert value.as_floats() == (
        -2.0,
        -2.0,
        math.exp(-2.0),
        math.exp(2.0),
    )


def test_closed_form_d224_limit():
    # from (-1/3, -1/3, 1, 1) the flow limit is the origin
    value = closed_form("d224", Point4(-1 / 3, -1 / 3, 1, 1), 20.0)
    assert max(abs(v) for v in value.as_floats()) < 1e-15


def test_closed_form_unknown_model():
    with pytest.raises(ValueError):
        closed_form("d2334b", Point4.origin(), 1.0)


@pytest.mark.parametrize(
    "model,quantity",
    [("d2334b", RHO), ("d2334a", ZW)],
)
def test_conserved_drift_along_oracle_flows(model, quantity):
    fld = char_field(CATALOG[model], ORACLE)
    traj = integrate(fld, Point4(0, 0, 0.6, 0.5), 10.0)
    assert conserved_drift(traj, quantity) <= 1e-8


def test_conserved_drift_empty_rejected():
    with pytest.raises(ValueError):
        conserved_drift(
            Trajectory(times=np.zeros((0,)), states=np.zeros((0, 4))), RHO
        )


def test_monitor_soundness_symbolic_vs_numeric():
    # quantities with identically zero Lie derivative stay constant to 1e-8
    cases = [
        ("d2334b", RHO),
        ("d2334b", RHO * RHO),
        ("d2334a", ZW),
        ("d2334a", ZW * ZW),
        ("engel_std", SparsePoly.var("x") + ZW),  # d/dt(x + z*w) = -z + z
    ]
    rng = np.random.default_rng(31)
    for model, quantity in cases:
        fld = char_field(CATALOG[model], ORACLE)
        assert lie_derivative(quantity, fld).is_zero()
        for _ in range(3):
            q0 = Point4(*(float(v) for v in rng.uniform(-1, 1, size=4)))
            traj = integrate(fld, q0, 10.0)
            assert conserved_drift(traj, quantity) <= 1e-8, (model, q0)


def test_lie_derivative_detects_nonconserved():
    fld = char_field(CATALOG["d224"], ORACLE)
    assert not lie_derivative(RHO, fld).is_zero()


def test_integrator_order_against_exact_rotation():
    # endpoint error vs the exact circular solution should drop by >= 8x
    # per tolerance decade (geometric mean over the sweep)
    fld = char_field(CATALOG["d2334b"], ORACLE)
    t_end = math.pi / 4
    errors = []
    rtols = [1e-5, 1e-6, 1e-7, 1e-8, 1e-9]
    for rtol in rtols:
        traj = integrate(fld, Point4(0, 0, 1, 0), t_end, rtol=rtol, atol=rtol * 1e-2)
        z, w = traj.endpoint[2], traj.endpoint[3]
        errors.append(math.hypot(z - 0.0, w - 1.0) + 1e-18)
    overall = (errors[0] / errors[-1]) ** (1.0 / (len(rtols) - 1))
    assert overall >= 8.0, (errors, overall)


def test_reversibility_bound_on_catalog_fields():
    # forward one unit then backward; the return error is bounded by
    # 10*(rtol*||traj|| + atol) with ||traj|| the sum of sample sup-norms
    rng = np.random.default_rng(41)
    rtol, atol = 1e-10, 1e-12
    for model, pair in CATALOG.items():
        fld = char_field(pair, ORACLE)
        for _ in range(3):
            q0 = rng.uniform(-1.0, 1.0, size=4)
            forward = integrate(fld, q0, 1.0, rtol=rtol, atol=atol)
            back = integrate(fld, forward.endpoint, -1.0, rtol=rtol, atol=atol)
            size = float(
                np.sum(np.max(np.abs(forward.states), axis=1))
                + np.sum(np.max(np.abs(back.states), axis=1))
            )
            err = float(np.max(np.abs(back.endpoint - q0)))
            assert err <= 10.0 * (rtol * size + atol), (model, q0, err, size)


def test_surface_d224_leading_order():
    sample = singular_surface("d224", [(0.1, 0.1)])
    assert sample.converged == [True]
    dx, dy = sample.offsets[0]
    ref = (1 / 3) * 0.1**3
    assert abs(dx - ref) / ref < 0.05
    assert abs(dy - ref) / ref < 0.05
    assert sample.skew_product


def test_surface_invariant_axis_is_exact():
    sample = singular_surface("d224", [(0.05, 0.0), (0.12, 0.0)])
    assert sample.converged == [True, True]
    assert sample.offsets == [(0.0, 0.0), (0.0, 0.0)]


def test_surface_d2334b_never_converges():
    sample = singular_surface("d2334b", [(0.1, 0.0), (0.07, 0.07)], t_max=5.0)
    assert sample.converged == [False, False]
    assert sample.surface_points() == []


def test_surface_rejects_origin_and_bad_params():
    with pytest.raises(ValueError):
        singular_surface("d224", [(0.0, 0.0)])
    with pytest.raises(ValueError):
        singular_surface("d224", [(0.1, 0.1)], eps_cut=0.0)


def test_surface_membership():
    fld = char_field(CATALOG["d224"], ORACLE)
    sample = singular_surface("d224", [(0.08, 0.03), (-0.05, 0.1)])
    for px, py, z, w in sample.surface_points():
        final = integrate(fld, (px, py, z, w), sample.t_max).endpoint
        assert abs(final[0]) + abs(final[1]) < 1e-6
        assert final[2] ** 2 + final[3] ** 2 < 2 * sample.eps_cut


def test_surface_csv_roundtrip_format():
    sample = singular_surface("d224", [(0.1, 0.1)])
    out = io.StringIO()
    sample.write_csv(out, ["meta"])
    lines = out.getvalue().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "z,w,x,y,converged"
    assert lines[2].endswith(",1")


def test_lyapunov_report_decay():
    rep = lyapunov_report(Point4(0, 0, 0.3, 0.3))
    assert rep.rho_monotone
    assert rep.final_rho < 1e-6
    rep2 = lyapunov_report(Point4(0, 0, 0.5, -0.5))
    assert rep2.rho_monotone


def test_lyapunov_report_equilibrium():
    rep = lyapunov_report(Point4.origin(), t_end=1.0)
    assert rep.rho_monotone
    assert rep.final_rho == 0.0


def test_lyapunov_report_box_precondition():
    with pytest.raises(ValueError):
        lyapunov_report(Point4(0, 0, 0.6, 0.0))
