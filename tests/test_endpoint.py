import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from engelkit import endpoint
from engelkit.charfield import ORACLE, coefficients
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
    _RESTART,
    _control_system,
    _default_samples,
    _sensitivity_pass,
)
from engelkit.flow import IntegrationError, adaptive_rk45
from engelkit.poly import VARS, Point4, SparsePoly, random_poly
import reference_endpoint
from reference_rk45 import reference_rk45, reference_tuple_rk45

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


def test_generated_variational_rhs_matches_the_full_loop():
    # The generated rhs on the entries that move, against the 28-state loop
    # at states whose other entries are at their restart values: equal on
    # the moving entries.  The generated rhs writes only the entries of A
    # that are not identically zero; products with those zeros can change
    # nothing but the sign of a zero sum (== counts 0.0 and -0.0 equal).
    rng = np.random.default_rng(53)
    pairs = [*CATALOG.values()]
    pairs += [PfaffianPair(random_poly(rng), random_poly(rng)) for _ in range(10)]
    for pair in pairs:
        sys = _control_system(pair)
        moving = list(sys.moving)
        assert moving[:4] == [0, 1, 2, 3]
        for _ in range(5):
            u1, u2 = rng.uniform(-1.0, 1.0, 2).tolist()
            s = np.array((0.0, 0.0, 0.0, 0.0, *_RESTART))
            s[moving] = rng.uniform(-2.0, 2.0, len(moving))
            got = sys.variational(u1, u2)(0.0, tuple(s[moving].tolist()))
            want = reference_endpoint.variational_rhs(pair, u1, u2)(0.0, tuple(s.tolist()))
            assert got == tuple(want[j] for j in moving)


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
        states = np.array(states)
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


def test_sard_sample_rejects_a_negative_detector_subset():
    # a negative subset sliced the curves from the end: with 4 curves,
    # detector_subset=-1 checked 3 arcs
    with pytest.raises(ValueError, match="detector_subset must be non-negative, got -1"):
        sard_sample("d224", 4, seed=9, detector_subset=-1)


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
        rep.write_endpoints_csv(fh)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,z,w,score"
    assert len(lines) == 4


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
            _control_system(pair), ORIGIN, ctrl, _default_samples(ctrl.n_segments), 1e-10, 1e-12
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
        record = adjoint_transport(pair, q0, ctrl)
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


def _xy_pairs(seed, count):
    """Seeded random pairs in which f or g depends on x or y."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        pair = PfaffianPair(random_poly(rng), random_poly(rng))
        if any(p.degree_in(v) > 0 for p in (pair.f, pair.g) for v in ("x", "y")):
            pairs.append(pair)
    return pairs


def _reference_pass(monkeypatch):
    """Run the endpoint pass on the unfolded tuple loop."""

    def unfolded(rhs, y0, t_span, rtol, atol, h0=None, stop_when=None, samples=()):
        times, states, h, sampled = reference_tuple_rk45(
            rhs, y0, t_span, rtol, atol, h0, stop_when, samples
        )
        return times, list(map(tuple, states.tolist())), h, list(map(tuple, sampled.tolist()))

    monkeypatch.setattr(endpoint, "adaptive_rk45", unfolded)


def _fixed(sys) -> list[int]:
    """The 28-state indices that the variational pass leaves out."""
    return [j for j in range(28) if j not in sys.moving]


def test_fixed_entries_of_the_catalog_and_of_pairs_with_x_and_y_terms():
    # The z and w rows of Phi and L's z-row column 5 and w-row column 4
    # never move; on the catalog, where f and g depend on (z, w) only, nor
    # do columns 0 and 1 of Phi's x and y rows, nor column 3 where f or g
    # does not depend on w.
    zw_rows = {16, 17, 18, 19, 21, 22, 23, 24, 25, 26}
    for name, pair in CATALOG.items():
        fixed = set(_fixed(_control_system(pair)))
        assert fixed >= zw_rows | {4, 5, 10, 11}, name
        assert len(fixed) in (15, 16), name
    for pair in _xy_pairs(61, 12):
        assert set(_fixed(_control_system(pair))) >= zw_rows


def test_variational_rhs_is_zero_on_the_fixed_entries():
    # On the full 28-state loop, at random states that keep the entries of
    # the set that restart at 0.0 there, and at random controls, every entry
    # the pass leaves out has an rhs of +0.0 or -0.0.
    rng = np.random.default_rng(62)
    for pair in [*CATALOG.values(), *_xy_pairs(63, 12)]:
        fixed = _fixed(_control_system(pair))
        zero = [j for j in fixed if _RESTART[j - 4] == 0.0]
        for _ in range(20):
            s = rng.uniform(-2.0, 2.0, 28)
            s[zero] = 0.0
            u1, u2 = rng.uniform(-1.0, 1.0, 2).tolist()
            value = reference_endpoint.variational_rhs(pair, u1, u2)(0.0, tuple(s.tolist()))
            assert all(value[j] == 0.0 for j in fixed), (pair, u1, u2)


def test_unfolded_steps_never_move_a_fixed_entry():
    # The full 28-state loop on the unfolded tuple loop: every accepted
    # state and dense sample keeps each entry the pass leaves out bit for
    # bit at its restart value.
    rng = np.random.default_rng(64)
    for pair in [*CATALOG.values(), *_xy_pairs(65, 6)]:
        fixed = _fixed(_control_system(pair))
        for _ in range(3):
            u1, u2 = rng.uniform(-1.0, 1.0, 2).tolist()
            y0 = (*rng.uniform(-0.5, 0.5, 4).tolist(), *_RESTART)
            _, states, _, sampled = reference_tuple_rk45(
                reference_endpoint.variational_rhs(pair, u1, u2), y0, (0.0, 0.5), 1e-10, 1e-12,
                samples=rng.uniform(0.0, 0.5, 5),
            )
            restart = np.array([y0[j] for j in fixed])
            for row in (*states, *sampled):
                assert row[fixed].tobytes() == restart.tobytes(), (pair, u1, u2)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _reduced_start(sys, q):
    """The pass's first state: q and the restart values of the moving entries of X."""
    return (*q, *(_RESTART[j - 4] for j in sys.moving[4:]))


def test_folded_step_is_bit_identical_to_the_tuple_loop():
    # One call per control segment, as the pass makes it: the folded step
    # and dense output give the tuple loop's times, states, carried step and
    # samples bit for bit.
    rng = np.random.default_rng(66)
    for pair in [*CATALOG.values(), *_xy_pairs(67, 6)]:
        sys = _control_system(pair)
        for n in (1, 7, 32, 64):
            u1, u2 = rng.uniform(-1.0, 1.0, 2).tolist()
            y0 = _reduced_start(sys, rng.uniform(-0.5, 0.5, 4).tolist())
            t_span = (3 / n, 4 / n)
            for h0 in (None, 0.3 / n):
                args = (y0, t_span, 1e-10, 1e-12, h0, None, rng.uniform(*t_span, 3))
                rhs = sys.variational(u1, u2)
                got = adaptive_rk45(rhs, *args)
                want = reference_tuple_rk45(rhs, *args)
                assert all(_bits(a) == _bits(b) for a, b in zip(got, want)), (pair, n)


def test_folded_pass_is_bit_identical_to_the_unfolded_pass(monkeypatch):
    # The whole variational pass on 1- to 64-segment controls from random
    # base points, on the catalog and on pairs with x and y terms.
    rng = np.random.default_rng(68)
    cases = []
    for pair in [*CATALOG.values(), *_xy_pairs(69, 4)]:
        for n in (1, 2, 5, 13, 32, 64):
            q0 = tuple(rng.uniform(-0.3, 0.3, 4).tolist())
            cases.append((pair, q0, ControlPath(rng.uniform(-1.0, 1.0, (n, 2)))))

    def passes():
        return [
            [_bits(a) for a in _sensitivity_pass(
                _control_system(pair), q0, ctrl, _default_samples(ctrl.n_segments),
                1e-10, 1e-12,
            )]
            for pair, q0, ctrl in cases
        ]

    folded = passes()
    _reference_pass(monkeypatch)
    assert passes() == folded


def _public_outputs(module, pair, q0, ctrl, **kwargs):
    """The three public functions of ``module`` on one control."""
    return (
        module.bryant_hsu_test(pair, q0, ctrl, **kwargs),
        module.endpoint_jacobian(pair, q0, ctrl, **kwargs),
        module.adjoint_transport(pair, q0, ctrl, **kwargs),
    )


def test_reduced_pass_is_bit_identical_to_the_full_pass_on_the_catalog():
    # Integrating only the entries that move changes the error norm's
    # divisor from 28 to their number.  On the catalog every step is set by
    # the x5 growth cap or the clip at t1, never by the norm, so all three
    # public functions give the full 28-state pass's outputs byte for byte:
    # 1 to 64 segments, q0 up to +-1 and controls up to +-2.
    rng = np.random.default_rng(73)
    for pair in CATALOG.values():
        for n in (1, 2, 5, 16, 32, 64):
            for q_scale, u_scale in ((0.0, 1.0), (1.0, 2.0)):
                q0 = tuple((q_scale * rng.uniform(-1.0, 1.0, 4)).tolist())
                ctrl = ControlPath(u_scale * rng.uniform(-1.0, 1.0, (n, 2)))
                got = _public_outputs(endpoint, pair, q0, ctrl)
                want = _public_outputs(reference_endpoint, pair, q0, ctrl, full=True)
                for a, b in zip(got, want):
                    assert _record_bits(a) == _record_bits(b), (pair, q0, n)


def test_reduced_pass_stays_near_the_full_pass_on_pairs_with_x_and_y_terms():
    # Where f or g depends on x or y, the error norm's divisor (the 12 to
    # 18 moving entries, not 28) does set steps, so outputs move.  On 40
    # seeded pairs from q0 up to +-1 with 16-segment controls up to +-2:
    # both classifications are the full pass's, and so is the class of
    # every IntegrationError (two curves blow up).  Measured, relative to
    # max(1, |.|): endpoints within 8.5e-13, Jacobians within 1.7e-12,
    # sampled states within 3.2e-11 and sampled transitions within 1.7e-10;
    # the bounds leave about 10x.  (Other seeds read up to 2e-9 on the
    # transitions.)
    rng = np.random.default_rng(76)
    samples = _default_samples(16)
    bounds = (1e-11, 2e-11, 3e-10, 2e-9)
    failed = 0
    for pair in _xy_pairs(77, 40):
        q0 = tuple(rng.uniform(-1.0, 1.0, 4).tolist())
        ctrl = ControlPath(rng.uniform(-2.0, 2.0, (16, 2)))
        runs = []
        for run in (
            lambda: _sensitivity_pass(_control_system(pair), q0, ctrl, samples, 1e-10, 1e-12),
            lambda: reference_endpoint.sensitivity_pass(
                pair, q0, ctrl, samples, 1e-10, 1e-12, full=True
            ),
        ):
            try:
                runs.append(run())
            except IntegrationError as exc:
                runs.append(exc)
        got, want = runs
        if isinstance(got, IntegrationError) or isinstance(want, IntegrationError):
            assert type(got) is type(want), (pair, q0)
            failed += 1
            continue
        for a, b, bound in zip(got, want, bounds):
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)), initial=0.0) <= bound
        verdict = bryant_hsu_test(pair, q0, ctrl)
        full = reference_endpoint.bryant_hsu_test(pair, q0, ctrl, full=True)
        assert verdict.classification == full.classification, (pair, q0)
        assert verdict.jacobian_classification == full.jacobian_classification, (pair, q0)
    assert failed == 2


@pytest.mark.parametrize(
    "f,q0",
    [
        # x' = -u2 x^4 overflows in a stage from 1e60 and blows up at t = 1/3 from -1
        (SparsePoly({(4, 0, 0, 0): 1}), (1e60, 0.0, 0.0, 0.0)),
        (SparsePoly({(4, 0, 0, 0): 1}), (-1.0, 0.0, 0.0, 0.0)),
        # f stays finite at z = 34.6 but its z-derivative is inf: in the
        # full pass the left-out x-row entries of Phi read inf * 0.0 = nan,
        # in the reduced pass the moving one in column 2 reads inf * 1.0
        (SparsePoly({(0, 0, 200, 0): 1}), (0.0, 0.0, 34.6, 0.0)),
    ],
    ids=["overflow", "blow-up", "nan-in-a-fixed-entry"],
)
def test_non_finite_pass_fails_like_the_unfolded_pass(f, q0, monkeypatch):
    # The same error as the tuple loop on the same entries, message and
    # all, and the same class as the full 28-state pass.
    pair = PfaffianPair(f, SparsePoly.zero())
    ctrl = ControlPath.constant(0.0, 1.0, 2)
    with pytest.raises(IntegrationError) as got:
        bryant_hsu_test(pair, q0, ctrl)
    with pytest.raises(IntegrationError) as full:
        reference_endpoint.bryant_hsu_test(pair, q0, ctrl, full=True)
    _reference_pass(monkeypatch)
    with pytest.raises(IntegrationError) as want:
        bryant_hsu_test(pair, q0, ctrl)
    assert type(got.value) is type(want.value) is type(full.value)
    assert str(got.value) == str(want.value)


def test_default_samples_are_split_as_exact_fractions():
    # The cached default split against the Fraction arithmetic it replaces;
    # the split is immutable.
    for n in range(1, 65):
        samples = _default_samples(n)
        m = max(16, 2 * n)
        fractions = [Fraction(k, m - 1) for k in range(m)]
        per_segment = [[] for _ in range(n)]
        for t in fractions:
            per_segment[max(math.ceil(t * n) - 1, 0)].append(float(t))
        assert samples == tuple(map(tuple, per_segment))
        assert _default_samples(n) is samples


def _stacked_pass_cases():
    """Catalog pairs and pairs with x and y terms on 1- to 64-segment random
    controls from the origin and from random base points, and the
    characteristic arcs of the three degenerate models."""
    rng = np.random.default_rng(70)
    cases = []
    for pair in [*CATALOG.values(), *_xy_pairs(71, 4)]:
        for n in (1, 2, 5, 16, 32, 64):
            for q0 in (ORIGIN, tuple(rng.uniform(-0.3, 0.3, 4).tolist())):
                cases.append((pair, q0, ControlPath(rng.uniform(-1.0, 1.0, (n, 2)))))
    for model, p0 in (
        ("d224", Point4(-(0.1**3) / 3.0, -(0.1**3) / 3.0, 0.1, 0.1)),
        ("d2334a", Point4(0, 0, 0.1, 0.1)),
        ("d2334b", Point4(0, 0, 0.1, 0.0)),
    ):
        pair = CATALOG[model]
        ctrl = char_control(pair, p0, endpoint.CHAR_ARC_DURATION[model], 64)
        cases.append((pair, p0, ctrl))
    return cases


def _record_bits(record) -> list[bytes]:
    """The bytes of every numeric field; strings and None are compared apart."""
    values = (getattr(record, f.name) for f in dataclasses.fields(record))
    return [_bits(v) for v in values if not isinstance(v, (str, type(None)))]


def test_stacked_pass_is_bit_identical_to_the_per_segment_pass():
    # The pass that stacks the segments once, the single frame evaluation
    # per sample and the thin SVD against the per-segment pass they replace:
    # every output of the three public functions is equal byte for byte.
    for pair, q0, ctrl in _stacked_pass_cases():
        got = bryant_hsu_test(pair, q0, ctrl)
        want = reference_endpoint.bryant_hsu_test(pair, q0, ctrl)
        assert got.classification == want.classification
        assert (got.witness is None) == (want.witness is None)
        assert _record_bits(got) == _record_bits(want), (pair, q0, ctrl.n_segments)
        got = endpoint_jacobian(pair, q0, ctrl)
        want = reference_endpoint.endpoint_jacobian(pair, q0, ctrl)
        assert _record_bits(got) == _record_bits(want), (pair, q0, ctrl.n_segments)
        got = adjoint_transport(pair, q0, ctrl)
        want = reference_endpoint.adjoint_transport(pair, q0, ctrl)
        assert _record_bits(got) == _record_bits(want), (pair, q0, ctrl.n_segments)


# Weights (a, b) of x and y under the dilations d_lam(x, y, z, w) =
# (lam^a x, lam^b y, lam z, lam w), which preserve each catalog distribution.
DILATION_WEIGHTS = {"engel_std": (2, 3), "d224": (3, 3), "d2334a": (2, 4), "d2334b": (2, 4)}


def test_weighted_dilations_map_endpoints_jacobians_and_covector_rows():
    # The control lam u from d_lam(q0) traces d_lam of the curve u traces
    # from q0.  With D = diag(lam^a, lam^b, lam, lam), and with no reference
    # solution: endpoint' = D endpoint, J' = D J / lam, and the covector
    # rows C' = C D / lam (a covector l at q0 is D^-1 l at d_lam(q0), and
    # d_lam pushes Z and W forward to lam Z and lam W).  On the catalog
    # every integrand is a polynomial in t that the steps integrate exactly,
    # so all three agree to round-off: at most 1.1e-15, 1.7e-16 and 1.7e-16
    # relative to the largest entry, measured on these cases; the bound
    # 1e-14 leaves 9x.  sigma_ratio and bh_smallest are not invariant under
    # the anisotropic D: on one d2334a curve at lam = 0.34, bh went from
    # 1.4e-3 to 5.4e-5 and sigma from 1.7e-4 to 6.7e-6, both from REGULAR
    # to AMBIGUOUS.  So both detectors classify the dilated curve with D
    # undone.
    rng = np.random.default_rng(72)
    for model, (a, b) in DILATION_WEIGHTS.items():
        pair = CATALOG[model]
        for n in (16, 32):
            for _ in range(3):
                lam = float(rng.uniform(0.3, 3.0))
                scale = lam ** np.array([a, b, 1.0, 1.0])
                q0 = rng.uniform(-0.3, 0.3, 4)
                u = rng.uniform(-1.0, 1.0, (n, 2))
                ctrl, dilated = ControlPath(u), ControlPath(lam * u)
                verdict = bryant_hsu_test(pair, q0, ctrl)
                end = endpoint_jacobian(pair, q0, ctrl)
                end_dilated = endpoint_jacobian(pair, scale * q0, dilated)
                rows = adjoint_transport(pair, q0, ctrl).constraint_matrix
                rows_dilated = adjoint_transport(pair, scale * q0, dilated).constraint_matrix
                jac_undone = end_dilated.matrix * lam / scale[:, None]
                rows_undone = rows_dilated * lam / scale
                for got, want in (
                    (end_dilated.endpoint / scale, end.endpoint),
                    (jac_undone, end.matrix),
                    (rows_undone, rows),
                ):
                    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (model, lam)
                bh_undone = float(np.linalg.svd(rows_undone, compute_uv=False)[-1])
                assert classify_statistic(bh_undone) == verdict.classification, (model, lam)
                sigma_undone = singular_score(jac_undone)
                assert classify_statistic(sigma_undone) == verdict.jacobian_classification


@pytest.mark.parametrize("model", ["d224", "d2334a", "d2334b"])
def test_weighted_dilations_keep_characteristic_arcs_singular(model):
    p0 = {
        "d224": Point4(-(0.1**3) / 3.0, -(0.1**3) / 3.0, 0.1, 0.1),
        "d2334a": Point4(0, 0, 0.1, 0.1),
        "d2334b": Point4(0, 0, 0.1, 0.0),
    }[model]
    # Both the dilated control and the characteristic arc char_control
    # builds from d_lam(p0) are singular.  The arcs' largest statistic
    # measured was bh_smallest 3.7e-11 (d2334a, lam = 3), 2700x below the
    # SINGULAR band.
    pair = CATALOG[model]
    a, b = DILATION_WEIGHTS[model]
    duration = endpoint.CHAR_ARC_DURATION[model]
    ctrl = char_control(pair, p0, duration, 64)
    for lam in (0.3, 1.7, 3.0):
        q0 = lam ** np.array([a, b, 1.0, 1.0]) * np.array(p0.as_floats())
        for dilated in (ControlPath(lam * ctrl.u), char_control(pair, q0, duration, 64)):
            verdict = bryant_hsu_test(pair, q0, dilated)
            assert verdict.classification == verdict.jacobian_classification == SINGULAR, lam


def _zw_part(poly: SparsePoly) -> SparsePoly:
    return SparsePoly({e: c for e, c in poly.terms.items() if e[0] == e[1] == 0})


def test_xy_translations_shift_the_endpoint_and_keep_jacobians_and_covector_rows():
    # Where f and g depend on (z, w) only, as on the catalog, the control
    # system commutes with translations in x and y: from q0 + (a, b, 0, 0)
    # the endpoint moves by (a, b, 0, 0), and the Jacobian, the covector
    # rows and both classifications stay.  Measured on these cases: endpoints
    # within 1.4e-15 and Jacobians and rows equal; the bounds 1e-14 on the
    # endpoint and 1e-14 relative to the largest entry leave 7x and more.
    rng = np.random.default_rng(80)
    pairs = list(CATALOG.values())
    while len(pairs) < 10:
        pair = PfaffianPair(_zw_part(random_poly(rng)), _zw_part(random_poly(rng)))
        if not (pair.f.is_zero() or pair.g.is_zero()):
            pairs.append(pair)
    for pair in pairs:
        for _ in range(3):
            q0 = rng.uniform(-0.3, 0.3, 4)
            ctrl = ControlPath(rng.uniform(-1.0, 1.0, (32, 2)))
            shift = np.array([*rng.uniform(-2.0, 2.0, 2), 0.0, 0.0])
            end = endpoint_jacobian(pair, q0, ctrl)
            moved = endpoint_jacobian(pair, q0 + shift, ctrl)
            assert np.max(np.abs(moved.endpoint - shift - end.endpoint)) <= 1e-14, pair
            rows = adjoint_transport(pair, q0, ctrl).constraint_matrix
            rows_moved = adjoint_transport(pair, q0 + shift, ctrl).constraint_matrix
            for got, want in ((moved.matrix, end.matrix), (rows_moved, rows)):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), pair
            verdict = bryant_hsu_test(pair, q0, ctrl)
            verdict_moved = bryant_hsu_test(pair, q0 + shift, ctrl)
            assert verdict_moved.classification == verdict.classification, pair
            assert verdict_moved.jacobian_classification == verdict.jacobian_classification


def test_characteristic_arcs_of_random_pairs_are_singular_with_the_annihilator_witness():
    # The paper's singular curves off the degeneration locus are the
    # integral curves of C = cZ + eW, and their abnormal covector is the
    # annihilator of D^2, lambda = g_z theta1 - f_z theta2, that is
    # (g_z, -f_z, 0, g_z f - f_z g) in (dx, dy, dz, dw).  On seeded pairs,
    # half of them free of x and y, from a rational q0 in [-1/2, 1/2]^4: a
    # 64-segment char_control arc of duration 0.05/|(c, e)(q0)| is SINGULAR
    # in both detectors, its unit witness is +-lambda(q0)/|lambda(q0)|, and
    # a random 32-segment control from q0 is not SINGULAR.  The witness,
    # transported along the arc by adjoint_transport, also kills [Z, W] =
    # (-f_z, -g_z, 0, 0) at every sample: |<Psi(t) lambda0, [Z, W](q(t))>|
    # is small.  Pairs without a field at q0 (|(c, e)(q0)| < 1e-3) are
    # skipped.  Measured on these pairs: bh_smallest <= 6.7e-10, sigma ratio
    # <= 5.6e-11, the witness within 5.8e-7 and the transported pairing with
    # [Z, W] <= 4.3e-7 (median 2e-15); the bounds 1e-8, 1e-9, 1e-5 and 1e-5
    # leave 15x and more.  With lambda0 in place of Psi(t) lambda0, 23 of
    # the arcs read above 1e-5.  63 pairs are kept, 11 of them free of x
    # and y.
    rng = np.random.default_rng(12)
    kept = {True: 0, False: 0}
    for i in range(200):
        f, g = random_poly(rng), random_poly(rng)
        if i % 2:
            f, g = _zw_part(f), _zw_part(g)
        pair = PfaffianPair(f, g)
        q0 = Point4(*(Fraction(int(n), 100) for n in rng.integers(-50, 51, size=4)))
        random_ctrl = ControlPath(rng.uniform(-1.0, 1.0, (32, 2)))
        co = coefficients(pair, ORACLE)
        speed = math.hypot(float(co.c.eval_exact(q0)), float(co.e.eval_exact(q0)))
        if speed < 1e-3:
            continue
        arc = char_control(pair, q0, 0.05 / speed, 64)
        verdict = bryant_hsu_test(pair, q0, arc)
        assert verdict.classification == verdict.jacobian_classification == SINGULAR, i
        assert verdict.bh_smallest <= 1e-8 and verdict.sigma_ratio <= 1e-9, i
        f_z, g_z = f.diff("z"), g.diff("z")
        annihilator = [g_z, -f_z, SparsePoly.zero(), g_z * f - f_z * g]
        lam = np.array([float(p.eval_exact(q0)) for p in annihilator])
        lam /= np.linalg.norm(lam)
        assert min(np.linalg.norm(verdict.witness - s * lam) for s in (1, -1)) <= 1e-5, i
        record = adjoint_transport(pair, q0, arc)
        fz, gz = f_z.compile(), g_z.compile()
        bracket = np.array([(-fz(*q), -gz(*q), 0.0, 0.0) for q in record.states.tolist()])
        pairing = np.sum((record.transports @ verdict.witness) * bracket, axis=1)
        assert np.max(np.abs(pairing)) <= 1e-5, i
        verdict = bryant_hsu_test(pair, q0, random_ctrl)
        assert SINGULAR not in (verdict.classification, verdict.jacobian_classification), i
        kept[any(p.degree_in(v) > 0 for p in (f, g) for v in "xy")] += 1
    assert kept[True] >= 40 and kept[False] >= 8, kept


def test_no_integration_takes_the_call_form_step(monkeypatch):
    # Every rhs the library hands the integrator is generated with its own
    # fused trial step; flow._trial_step, the call-form step for any other
    # rhs, is built only when one without it arrives.
    from engelkit import flow
    from engelkit.charfield import char_field
    from engelkit.flow import integrate, singular_surface

    call_form_sizes = []
    build = flow._trial_step

    def recording(n):
        call_form_sizes.append(n)
        return build(n)

    monkeypatch.setattr(flow, "_trial_step", recording)
    rng = np.random.default_rng(97)
    for name, pair in CATALOG.items():
        q0 = tuple(rng.uniform(-0.3, 0.3, 4).tolist())
        ctrl = ControlPath(rng.uniform(-1.0, 1.0, (4, 2)))
        horizontal_integrate(pair, q0, ctrl)
        endpoint_jacobian(pair, q0, ctrl, fd_check=True)
        bryant_hsu_test(pair, q0, ctrl)
        adjoint_transport(pair, q0, ctrl)
        integrate(char_field(pair, ORACLE), (0.0, 0.0, 0.1, 0.05), -0.5)
        if name != "engel_std":
            char_control(pair, (0.0, 0.0, 0.1, 0.05), 0.05, 4)
            singular_surface(pair, [(0.05, 0.02)], t_max=2.0)
            sard_sample(name, 2, seed=5, detector_subset=1)
    assert call_form_sizes == [], call_form_sizes
