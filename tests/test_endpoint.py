import numpy as np
import pytest

from engelkit.distribution import CATALOG, PfaffianPair
from engelkit.endpoint import (
    AMBIGUOUS,
    REGULAR,
    SINGULAR,
    ControlPath,
    FieldVanishesError,
    adjoint_transport,
    bryant_hsu_test,
    char_control,
    classify_statistic,
    endpoint_jacobian,
    horizontal_integrate,
    sard_sample,
    singular_score,
    _ControlSystem,
    _sample_times,
    _sensitivity_pass,
)
from engelkit.flow import adaptive_rk45
from engelkit.poly import VARS, Point4, SparsePoly, random_poly
from reference_poly import reference_compile
from reference_rk45 import reference_rk45

ZERO_PAIR = PfaffianPair(SparsePoly.zero(), SparsePoly.zero())
ORIGIN = Point4.origin()


def test_control_path_validation():
    with pytest.raises(ValueError):
        ControlPath(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        ControlPath(np.array([[1.0, np.inf]]))
    ctrl = ControlPath.constant(0.5, -1.0, 3)
    assert ctrl.n_segments == 3
    assert ControlPath.from_json_dict(ctrl.to_json_dict()).u.tolist() == ctrl.u.tolist()


def test_endpoint_pure_w_direction():
    traj = horizontal_integrate(CATALOG["engel_std"], ORIGIN, ControlPath.constant(0, 1, 8))
    assert np.max(np.abs(traj.endpoint - np.array([0, 0, 0, 1.0]))) < 1e-10


def test_endpoint_pure_z_direction():
    for pair in CATALOG.values():
        traj = horizontal_integrate(pair, ORIGIN, ControlPath.constant(1, 0, 4))
        assert np.max(np.abs(traj.endpoint - np.array([0, 0, 1.0, 0]))) < 1e-10


def test_endpoint_diagonal_control_quadrature():
    # z = t, w = t, xdot = -z, ydot = -z^2/2 gives (-1/2, -1/6, 1, 1)
    traj = horizontal_integrate(CATALOG["engel_std"], ORIGIN, ControlPath.constant(1, 1, 8))
    expected = np.array([-0.5, -1.0 / 6.0, 1.0, 1.0])
    assert np.max(np.abs(traj.endpoint - expected)) < 1e-10


def test_jacobian_against_finite_differences_single_segment():
    res = endpoint_jacobian(
        CATALOG["d224"], ORIGIN, ControlPath.constant(1.0, 0.0, 1), fd_check=True
    )
    assert res.fd_max_discrepancy < 1e-6


def test_jacobian_last_segment_u1_column_moves_z():
    res = endpoint_jacobian(CATALOG["engel_std"], ORIGIN, ControlPath.constant(0, 1, 4))
    last_u1 = res.matrix[:, -2]
    assert abs(last_u1[2]) > 0.1


def test_jacobian_zero_pair_has_zero_xy_rows():
    rng = np.random.default_rng(1)
    ctrl = ControlPath(rng.uniform(-1, 1, size=(6, 2)))
    res = endpoint_jacobian(ZERO_PAIR, ORIGIN, ctrl)
    assert np.max(np.abs(res.matrix[0])) < 1e-13
    assert np.max(np.abs(res.matrix[1])) < 1e-13


def test_singular_score_orthonormal_rows():
    j = np.hstack([np.eye(4), np.zeros((4, 4))])
    assert singular_score(j) == pytest.approx(1.0)


def test_singular_score_of_a_one_segment_jacobian_is_zero():
    # two columns: the endpoint map cannot have rank 4
    assert singular_score(np.eye(4)[:, :2]) == 0.0


def test_singular_score_rejects_zero():
    with pytest.raises(ValueError):
        singular_score(np.zeros((4, 8)))
    with pytest.raises(ValueError):
        singular_score(np.zeros((3, 8)) + 1.0)


def test_classification_bands():
    assert classify_statistic(1e-8) == SINGULAR
    assert classify_statistic(1e-5) == AMBIGUOUS
    assert classify_statistic(1e-3) == REGULAR


def test_known_singular_curve_engel_std():
    verdict = bryant_hsu_test(CATALOG["engel_std"], ORIGIN, ControlPath.constant(0, 1, 32))
    assert verdict.classification == SINGULAR
    assert verdict.bh_smallest < 1e-8
    assert verdict.sigma_ratio < 1e-8
    # witness covector is the line of -theta2 along z = 0: (0, -1, 0, 0)
    witness = verdict.witness
    assert witness is not None
    assert abs(abs(witness[1]) - 1.0) < 1e-8
    assert np.max(np.abs(np.delete(witness, 1))) < 1e-8
    assert verdict.witness_h_max <= 1e-6


def test_regular_curve_engel_std():
    verdict = bryant_hsu_test(CATALOG["engel_std"], ORIGIN, ControlPath.constant(1, 1, 32))
    assert verdict.classification == REGULAR
    assert verdict.jacobian_classification == REGULAR
    assert verdict.witness is None


def test_char_control_engel_std_is_constant_w_control():
    ctrl = char_control(CATALOG["engel_std"], Point4(0, 0, 0, 0.5), 0.7, 16)
    assert np.max(np.abs(ctrl.u[:, 0])) < 1e-12
    assert np.allclose(ctrl.u[:, 1], 0.7)


def test_char_control_rejects_bad_duration_and_vanishing_field():
    with pytest.raises(ValueError):
        char_control(CATALOG["d224"], Point4(0, 0, 0.1, 0.1), 0.0, 8)
    with pytest.raises(FieldVanishesError):
        char_control(CATALOG["d224"], ORIGIN, 1.0, 8)


@pytest.mark.parametrize("model", ["d224", "d2334a", "d2334b"])
def test_char_control_curves_are_singular(model):
    from engelkit.endpoint import CHAR_ARC_DURATION

    p0 = {
        "d224": Point4(-(0.1**3) / 3.0, -(0.1**3) / 3.0, 0.1, 0.1),
        "d2334a": Point4(0, 0, 0.1, 0.1),
        "d2334b": Point4(0, 0, 0.1, 0.0),
    }[model]
    pair = CATALOG[model]
    ctrl = char_control(pair, p0, CHAR_ARC_DURATION[model], 64)
    verdict = bryant_hsu_test(pair, p0, ctrl)
    assert verdict.classification == SINGULAR, (verdict.bh_smallest, verdict.sigma_ratio)


def test_adjoint_record_structure():
    ctrl = ControlPath.constant(0.3, 0.8, 4)
    record = adjoint_transport(CATALOG["d224"], Point4(0, 0, 0.2, 0.1), ctrl)
    assert record.times[0] == 0.0 and record.times[-1] == 1.0
    assert np.allclose(record.transports[0], np.eye(4))
    assert record.min_abs_det > 1e-6
    assert record.constraint_matrix.shape == (2 * len(record.times), 4)


def _dynamics(pair, u1, u2):
    """q -> (qdot, A) for qdot = u1 Z + u2 W and A = dqdot/dq, with A built
    directly from the pair's partial derivatives."""
    f, g = pair.f.compile(), pair.g.compile()
    df = [pair.f.diff(v).compile() for v in VARS]
    dg = [pair.g.diff(v).compile() for v in VARS]

    def dynamics(q):
        a = np.zeros((4, 4))
        a[0] = [-u2 * d(*q) for d in df]
        a[1] = [-u2 * d(*q) for d in dg]
        return np.array([-u2 * f(*q), -u2 * g(*q), u1, u2]), a

    return dynamics


def _reference_variational_rhs(pair, u1, u2):
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


def test_generated_variational_rhs_matches_the_full_loop():
    # The generated rhs writes only the entries of A that are not identically
    # zero.  Products with those zeros can change nothing but the sign of a
    # zero sum, so the values are equal (== counts 0.0 and -0.0 equal).
    rng = np.random.default_rng(53)
    pairs = [*CATALOG.values()]
    pairs += [PfaffianPair(random_poly(rng), random_poly(rng)) for _ in range(10)]
    for pair in pairs:
        sys = _ControlSystem(pair)
        for _ in range(5):
            u1, u2 = rng.uniform(-1.0, 1.0, 2).tolist()
            s = tuple(rng.uniform(-2.0, 2.0, 28).tolist())
            got = sys.variational_rhs(u1, u2)(0.0, s)
            want = _reference_variational_rhs(pair, u1, u2)(0.0, s)
            assert len(got) == 28 and got == want


def test_adjoint_duality_pairing_is_conserved():
    # <lambda(t), dq(t)> is constant when dq solves the variational equation
    # and lambda the adjoint transport along the same trajectory
    rng = np.random.default_rng(2)
    dynamics = _dynamics(CATALOG["d2334a"], 0.7, -0.4)

    def rhs(t, s):
        qdot, a = dynamics(s[:4])
        return np.concatenate([qdot, a @ s[4:8], -a.T @ s[8:12]])

    for _ in range(5):
        dq0 = rng.normal(size=4)
        lam0 = rng.normal(size=4)
        s0 = np.concatenate([np.array([0.0, 0.0, 0.3, 0.2]), dq0, lam0])
        _, states, _, _ = adaptive_rk45(rhs, s0, (0.0, 1.0), 1e-10, 1e-12)
        pairings = [s[8:12] @ s[4:8] for s in states]
        assert max(abs(p - pairings[0]) for p in pairings) <= 1e-8


def test_refinement_preserves_endpoint_and_classification():
    rng = np.random.default_rng(3)
    pair = CATALOG["d2334b"]
    ctrl = ControlPath(rng.uniform(-1, 1, size=(8, 2)))
    fine = ctrl.refined()
    end_a = horizontal_integrate(pair, ORIGIN, ctrl).endpoint
    end_b = horizontal_integrate(pair, ORIGIN, fine).endpoint
    assert np.max(np.abs(end_a - end_b)) < 1e-9
    v_a = bryant_hsu_test(pair, ORIGIN, ctrl)
    v_b = bryant_hsu_test(pair, ORIGIN, fine)
    assert v_a.classification == v_b.classification == REGULAR


def test_detectors_agree_on_random_controls():
    rng = np.random.default_rng(4)
    for model, pair in CATALOG.items():
        for _ in range(5):
            ctrl = ControlPath(rng.uniform(-1, 1, size=(16, 2)))
            v = bryant_hsu_test(pair, ORIGIN, ctrl)
            classes = {v.classification, v.jacobian_classification}
            assert classes != {SINGULAR, REGULAR}, model


def test_sard_sample_empty():
    rep = sard_sample("d224", 0, seed=0)
    assert rep.n_curves == 0
    assert rep.endpoints == []


def test_sard_sample_rejects_engel_std():
    with pytest.raises(ValueError):
        sard_sample("engel_std", 5, seed=0)


def test_sard_sample_d224_small():
    rep = sard_sample("d224", 8, seed=9, detector_subset=2)
    assert rep.max_surface_distance <= 1e-6
    assert rep.detector_agreement == 1.0
    assert len(rep.endpoints) == 8
    assert rep.origin_reaching_count is None


def test_sard_sample_d2334a_reports_reference_family():
    rep = sard_sample("d2334a", 4, seed=9, detector_subset=0)
    assert rep.max_surface_distance <= 1e-6
    # origin-convergent endpoints lie on the invariant axis w = 0, x = y = 0
    for x, y, z, w in rep.endpoints:
        assert abs(x) < 1e-8 and abs(y) < 1e-8 and abs(w) < 1e-8


def test_sard_sample_d2334b_no_origin_approach():
    rep = sard_sample("d2334b", 6, seed=9, detector_subset=2)
    assert rep.origin_reaching_count == 0
    assert rep.min_rho_deviation >= -1e-8
    assert rep.max_surface_distance is None


def test_sard_report_csv(tmp_path):
    rep = sard_sample("d224", 3, seed=9, detector_subset=1)
    out = tmp_path / "cloud.csv"
    with open(out, "w") as fh:
        rep.write_endpoints_csv(fh, ["meta"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "x,y,z,w,score"
    assert len(lines) == 5


def _pairs_and_controls(seed):
    """Catalog models and six random user pairs, each with a random control."""
    rng = np.random.default_rng(seed)
    pairs = list(CATALOG.values())
    pairs += [PfaffianPair(random_poly(rng), random_poly(rng)) for _ in range(6)]
    return [(pair, ControlPath(rng.uniform(-1, 1, size=(int(rng.integers(2, 12)), 2)))) for pair in pairs]


def test_bryant_hsu_completes_for_every_segment_count():
    # stop times from linspace(0,1,16) and linspace(0,1,6) used to land
    # 1.1e-16 apart at t = 0.6 and abort every 5-segment control
    rng = np.random.default_rng(12)
    for model, pair in CATALOG.items():
        for n in range(1, 65):
            verdict = bryant_hsu_test(pair, ORIGIN, ControlPath(rng.uniform(-1, 1, size=(n, 2))))
            assert verdict.classification in (SINGULAR, REGULAR, AMBIGUOUS), (model, n)


def test_sample_times_near_a_boundary_are_snapped_onto_it():
    ctrl = ControlPath.constant(0.3, 0.8, 5)
    # 0.6 - 1e-16 and linspace's 9/15 lie within the step floor of the
    # boundary 3/5; 0.25 + 2e-16 lies within it of 0.25
    samples = list(np.linspace(0.0, 1.0, 16)) + [0.6 - 1e-16, 0.25, 0.25 + 2e-16]
    record = adjoint_transport(CATALOG["d224"], Point4(0, 0, 0.2, 0.1), ctrl, sample_times=samples)
    assert len(record.times) == 17 and 0.6 in record.times and 0.25 in record.times
    assert np.all(np.diff(record.times) > 1e-15)
    with pytest.raises(ValueError):
        adjoint_transport(CATALOG["d224"], ORIGIN, ctrl, sample_times=[0.5, 1.5])


def test_empty_sample_times_are_rejected():
    ctrl = ControlPath.constant(0.3, 0.8, 4)
    with pytest.raises(ValueError, match="at least one sample time"):
        adjoint_transport(CATALOG["d224"], ORIGIN, ctrl, sample_times=[])
    with pytest.raises(ValueError, match="at least one sample time"):
        adjoint_transport(CATALOG["d224"], ORIGIN, ctrl, sample_times=np.array([]))


def test_verdict_endpoint_matches_horizontal_integrate():
    # On the catalog the integrands are polynomials in t of low degree, which
    # both step sequences integrate exactly; on user pairs they agree to the
    # integrator tolerance (rtol 1e-10 on states of size <= 1).
    for i, (pair, ctrl) in enumerate(_pairs_and_controls(20)):
        verdict = bryant_hsu_test(pair, ORIGIN, ctrl)
        endp = horizontal_integrate(pair, ORIGIN, ctrl).endpoint
        bound = 1e-12 if i < len(CATALOG) else 1e-9
        assert np.max(np.abs(verdict.endpoint - endp)) <= bound, (pair, ctrl.u)


def test_sampled_pass_jacobian_matches_finite_differences():
    # criterion 9's bound, on user pairs as well as the catalog
    for pair, ctrl in _pairs_and_controls(21):
        _, jac, _, _ = _sensitivity_pass(
            _ControlSystem(pair), ORIGIN, ctrl, _sample_times(ctrl.n_segments, None), 1e-10, 1e-12
        )
        res = endpoint_jacobian(pair, ORIGIN, ctrl, fd_check=True)
        assert res.fd_max_discrepancy <= 1e-5
        assert np.max(np.abs(jac - res.matrix)) <= 1e-5


def _reference_transition(pair, q0, ctrl, t_end):
    """Phi(t_end) from the variational equation dPhi/dt = A(q) Phi, with A
    built directly from the pair and integrated without restarts by the
    numpy reference integrator."""
    n = ctrl.n_segments
    s = np.concatenate([np.asarray(q0, dtype=float), np.eye(4).ravel()])
    for j in range(n):
        lo, hi = j / n, min((j + 1) / n, t_end)
        if hi <= lo:
            break
        dynamics = _dynamics(pair, *ctrl.u[j])

        def rhs(t, s, dynamics=dynamics):
            qdot, a = dynamics(s[:4])
            return np.concatenate([qdot, (a @ s[4:].reshape(4, 4)).ravel()])

        s = reference_rk45(rhs, s, (lo, hi), 1e-10, 1e-12)[1][-1]
    return s[4:].reshape(4, 4)


def test_adjoint_transport_is_inverse_transpose_of_the_transition():
    q0 = (0.1, -0.2, 0.3, 0.2)
    for pair, ctrl in _pairs_and_controls(22)[2:7]:
        record = adjoint_transport(pair, q0, ctrl, sample_times=[0.0, 0.37, 0.5, 0.81, 1.0])
        for t, psi in zip(record.times, record.transports):
            phi = _reference_transition(pair, q0, ctrl, t)
            assert np.max(np.abs(psi.T @ phi - np.eye(4))) <= 1e-8, (t, pair)


def test_reversed_control_returns_to_start():
    rng = np.random.default_rng(23)
    for pair, ctrl in _pairs_and_controls(24):
        q0 = rng.uniform(-0.5, 0.5, size=4)
        end = horizontal_integrate(pair, q0, ctrl).endpoint
        back = horizontal_integrate(pair, end, ctrl.reversed()).endpoint
        assert np.max(np.abs(back - q0)) <= 1e-10, (pair, ctrl.u)


def test_sampling_adds_no_steps_to_the_sensitivity_pass():
    # the covector samples are read from the dense output, so the pass takes
    # the Jacobian's own steps and both statistics agree bit for bit
    for pair, ctrl in _pairs_and_controls(25):
        verdict = bryant_hsu_test(pair, ORIGIN, ctrl)
        res = endpoint_jacobian(pair, ORIGIN, ctrl)
        assert verdict.endpoint.tolist() == res.endpoint.tolist(), (pair, ctrl.u)
        assert verdict.sigma_ratio == singular_score(res.matrix), (pair, ctrl.u)


def test_dense_transport_at_the_default_samples_matches_the_reference():
    rng = np.random.default_rng(26)
    q0 = (0.1, -0.2, 0.3, 0.2)
    pairs = [CATALOG["d2334a"], PfaffianPair(random_poly(rng), random_poly(rng))]
    for pair in pairs:
        ctrl = ControlPath(rng.uniform(-1, 1, size=(32, 2)))
        record = adjoint_transport(pair, q0, ctrl)
        assert len(record.times) == 64
        for t, psi in zip(record.times, record.transports):
            phi = _reference_transition(pair, q0, ctrl, t)
            assert np.max(np.abs(psi.T @ phi - np.eye(4))) <= 1e-8, (t, pair)
