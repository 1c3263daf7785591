import io
import math
from fractions import Fraction

import numpy as np
import pytest

from engelkit import flow
from engelkit.charfield import ORACLE, char_field
from engelkit.distribution import CATALOG, PfaffianPair, PolyVectorField
from engelkit.flow import (
    DEFAULT_ATOL,
    DEFAULT_EPS_CUT,
    DEFAULT_RTOL,
    DEFAULT_T_MAX,
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
from engelkit.endpoint import _RESTART, _control_system
from engelkit.poly import Point4, SparsePoly, random_poly
from reference_rk45 import reference_rk45, reference_tuple_rk45, tuple_stages
from reference_surface import OUTWARD, exact_offsets, star_node

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
    times, _, _, _ = adaptive_rk45(
        lambda t, y: np.zeros_like(y), np.zeros(1), (0.0, t1), 1e-10, 1e-12, h0=0.3 / 69
    )
    assert times[-1] == t1
    # a step within 1 % of t1 is stretched onto it, leaving no sliver step
    times, _, _, _ = adaptive_rk45(
        lambda t, y: np.zeros_like(y), np.zeros(1), (0.0, 1.0), 1e-10, 1e-12, h0=0.995
    )
    assert times == [0.0, 1.0]
    # after a clip, the carried step resumes from the unclipped proposal
    _, _, h, _ = adaptive_rk45(
        lambda t, y: np.zeros_like(y), np.zeros(1), (0.0, 1.0), 1e-10, 1e-12, h0=10.0
    )
    assert h == 10.0


def test_non_finite_trial_step_is_rejected():
    # the rhs is finite while y <= 1.5, so y = 1 + t is reachable up to t = 0.5
    with pytest.raises(NonFiniteStateError, match="non-finite") as err:
        adaptive_rk45(
            lambda t, y: (1.0 if y[0] <= 1.5 else math.inf,),
            np.array([1.0]),
            (0.0, 1.0),
            1e-10,
            1e-12,
            h0=0.3,
        )
    assert abs(err.value.t_reached - 0.5) <= 1e-3


@pytest.mark.parametrize("h0", [math.nan, 0.0, -0.1])
def test_a_first_step_that_is_not_positive_is_rejected(h0):
    # NaN would burn the whole step budget, 0.0 and -0.1 would underflow.
    with pytest.raises(ValueError, match=f"h0 must be positive, got h0={h0!r}"):
        adaptive_rk45(lambda t, y: (-y[0],), (1.0,), (0.0, 1.0), 1e-10, 1e-12, h0=h0)


def test_an_infinite_first_step_is_clipped_to_the_span():
    times, _, h, _ = adaptive_rk45(lambda t, y: (0.0,), (1.0,), (0.0, 1.0), 1e-10, 1e-12,
                                   h0=math.inf)
    assert times == [0.0, 1.0] and h == math.inf


def test_step_budget_error_names_the_budget(monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 5)
    decay = PolyVectorField(-1 * SparsePoly.var("x"), ZERO, ZERO, ZERO)
    for run, smallest in [
        (lambda: adaptive_rk45(lambda t, y: (-y[0],), (1.0,), (0.0, 1.0), 1e-10, 1e-12,
                               h0=1e-3), 1e-3),
        (lambda: integrate(decay, Point4(1, 0, 0, 0), 1.0), 1e-2),
    ]:
        with pytest.raises(IntegrationError, match="MAX_STEPS=5") as err:
            run()
        assert 0.0 < err.value.t_reached < 1.0
        # the work done so far: no step of y' = -y is rejected at these tolerances
        assert f"5 accepted, 0 rejected, smallest step {smallest!r}" in str(err.value)


@pytest.mark.parametrize("x0", [1e80, 1e60])
def test_overflow_in_the_rhs_is_a_non_finite_state(x0):
    # x' = x^4: at 1e80 the first evaluation overflows, from 1e60 a stage does.
    # Python's ** raises OverflowError where numpy returns inf.
    fld = PolyVectorField(SparsePoly({(4, 0, 0, 0): 1}), ZERO, ZERO, ZERO)
    with pytest.raises(NonFiniteStateError, match="non-finite") as err:
        integrate(fld, Point4(x0, 0, 0, 0), 1.0)
    with pytest.raises(NonFiniteStateError, match="non-finite") as reference:
        reference_rk45(fld.compile_rhs(), np.array([x0, 0, 0, 0]), (0.0, 1.0), 1e-10, 1e-12)
    assert err.value.t_reached == reference.value.t_reached == 0.0


def _equivalence_cases():
    rng = np.random.default_rng(17)
    cases = []
    for name, pair in CATALOG.items():
        fld = char_field(pair, ORACLE)
        for t_end, way in [(1.0, "forward"), (-1.0, "backward")]:
            q0 = tuple(rng.uniform(-0.5, 0.5, 4))
            cases.append(pytest.param(fld, q0, t_end, id=f"{name}-{way}"))
    for i in range(12):
        fld = PolyVectorField(*(random_poly(rng) for _ in range(4)))
        cases.append(pytest.param(fld, tuple(rng.uniform(-0.5, 0.5, 4)), 1.0, id=f"random{i}"))
    # x' = x^2 from x = 1 blows up at t = 1
    blowup = PolyVectorField(SparsePoly({(2, 0, 0, 0): 1}), ZERO, ZERO, ZERO)
    return cases + [pytest.param(blowup, (1.0, 0.0, 0.0, 0.0), 2.0, id="blowup")]


def _integrate_until(fld, q0, t_end, stop_when) -> Trajectory:
    """integrate's route with a stop: adaptive_rk45 on the compiled field at
    the default tolerances, from 0 to t_end > 0, its accepted steps wrapped
    in a Trajectory."""
    times, states, _, _ = adaptive_rk45(
        fld.compile_rhs(), q0, (0.0, t_end), flow.DEFAULT_RTOL, flow.DEFAULT_ATOL,
        stop_when=stop_when,
    )
    return Trajectory(times=times, states=states)


def _close(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= 1e-7 * np.maximum(1.0, np.abs(want)))
    )


@pytest.mark.parametrize("fld,q0,t_end", _equivalence_cases())
def test_integrate_takes_the_steps_of_adaptive_rk45(fld, q0, t_end):
    # integrate's float loop against the numpy reference on the same compiled
    # rhs: the same accepted steps, with times and states equal up to rounding;
    # with a stop, the driver on the same field meets the reference's stop
    forward = fld if t_end > 0 else -fld
    rhs = forward.compile_rhs()

    def both(stop_when=None):
        try:
            if stop_when is None:
                traj = integrate(fld, q0, t_end)
            else:
                traj = _integrate_until(forward, q0, abs(t_end), stop_when)
        except IntegrationError as exc:
            with pytest.raises(type(exc)) as ref:
                reference_rk45(rhs, np.array(q0), (0.0, abs(t_end)), 1e-10, 1e-12,
                               stop_when=stop_when)
            assert _close(exc.t_reached, ref.value.t_reached)
            return None
        times, states, _, _ = reference_rk45(
            rhs, np.array(q0), (0.0, abs(t_end)), 1e-10, 1e-12, stop_when=stop_when
        )
        assert _close(traj.times, times) and _close(traj.states, states)
        return traj

    traj = both()
    if traj is None:
        return
    # Stop at the first step past the middle that moves the state farther
    # from q0 than any step before it, with the threshold far from both.
    moved = np.sum(np.abs(traj.states - q0), axis=1)
    m = next(
        i for i in range(max(1, moved.size // 2), moved.size)
        if moved[i] > 1.001 * moved[:i].max()
    )
    threshold = 0.5 * (moved[:m].max() + moved[m])
    stopped = both(lambda t, y: sum(abs(a - b) for a, b in zip(y, q0)) > threshold)
    assert stopped.times.size == m + 1


def _variational_cases():
    rng = np.random.default_rng(29)
    cases = [pytest.param(pair, id=name) for name, pair in CATALOG.items()]
    return cases + [
        pytest.param(PfaffianPair(random_poly(rng), random_poly(rng)), id=f"random{i}")
        for i in range(8)
    ]


def _variational_start(sys, q):
    """q and the restart values (I, 0) of the entries of [Phi | L] that move."""
    return (*q, *(_RESTART[j - 4] for j in sys.moving[4:]))


@pytest.mark.parametrize("pair", _variational_cases())
def test_variational_pass_takes_the_steps_of_the_reference(pair):
    # The variational rhs of the endpoint detectors (the state and the
    # entries of Phi and L that move) on both integrators, with dense-output
    # samples and a carried first step: the same number of accepted steps,
    # and the same states at t1 and at the samples up to rounding.  The step
    # times themselves are not compared: the error estimate of the x and y
    # rows cancels down to rounding, so the two stage orderings move
    # interior step times by up to about 2e-6 on random pairs while the
    # solution at fixed times agrees to about 1e-14.
    rng = np.random.default_rng(37)
    sys = _control_system(pair)
    for _ in range(3):
        u1, u2 = rng.uniform(-1.0, 1.0, 2).tolist()
        y0 = _variational_start(sys, rng.uniform(-0.5, 0.5, 4).tolist())
        samples = rng.uniform(0.25, 1.0, 6)
        rhs = sys.variational(u1, u2)
        args = ((0.25, 1.0), 1e-10, 1e-12, 0.01, None, samples)
        times, states, _, sampled = adaptive_rk45(rhs, y0, *args)
        ref_times, ref_states, _, ref_sampled = reference_rk45(rhs, np.array(y0), *args)
        assert len(times) == len(ref_times) > 2
        assert times[-1] == ref_times[-1] == 1.0
        assert _close(states[-1], ref_states[-1]) and _close(sampled, ref_sampled), (u1, u2)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _zw_part(poly):
    """The terms of poly free of x and y."""
    return SparsePoly({e: c for e, c in poly.terms.items() if e[0] == e[1] == 0})


# x' = 1e307 w^2, y' = 1e307 z^2 and a rotation in (z, w): from x = y = 9e307
# every stage and state stays finite, but the 8n values a trial step tests
# for finiteness sum past the float range, and so does the sum the loop
# tests first, of the error norm's squares, k2 and the new state.
BIG = int(1e307)
SUM_OVERFLOWS = PolyVectorField(
    SparsePoly({(0, 0, 0, 2): BIG}), SparsePoly({(0, 0, 2, 0): BIG}),
    -1 * SparsePoly.var("w"), SparsePoly.var("z"),
)
SUM_OVERFLOWS_START = (9e307, 9e307, 0.6, 0.8)


def _unrolled_cases():
    # (rhs, y0, t_span, stop_when): an opaque rhs, which takes the call-form
    # step, then compiled fields and variational kernels, which carry fused
    # steps that form only the state entries their bodies read.
    rng = np.random.default_rng(43)
    cases = [
        pytest.param(
            lambda t, y: (math.cos(3.0 * t) * y[0] - y[0] ** 3,), (0.7,), (0.0, 4.0), None,
            id="n1",
        ),
    ]
    for name in CATALOG:
        fld = char_field(CATALOG[name], ORACLE)
        cases.append(pytest.param(
            fld.compile_rhs(), tuple(rng.uniform(-0.5, 0.5, 4)), (0.0, 3.0),
            lambda t, y: y[2] * y[2] + y[3] * y[3] < 1e-3, id=f"n4-{name}",
        ))
    # Random fields with x and y terms, whose stages must form x and y, and
    # their parts in z and w alone, whose stages leave x and y out.
    for i in range(3):
        comps = [random_poly(rng) for _ in range(4)]
        for kind, fld in (("xy", PolyVectorField(*comps)),
                          ("zw", PolyVectorField(*map(_zw_part, comps)))):
            cases.append(pytest.param(
                fld.compile_rhs(), tuple(rng.uniform(-0.5, 0.5, 4)), (0.0, 0.5), None,
                id=f"n4-random{i or ''}" + ("-zw" if kind == "zw" else ""),
            ))
    fld = char_field(PfaffianPair(random_poly(rng), random_poly(rng)), ORACLE)
    cases.append(pytest.param(
        fld.compile_rhs(), tuple(rng.uniform(-0.5, 0.5, 4)), (0.0, 1.0), None,
        id="n4-random-pair",
    ))
    # Finite stages whose sum overflows: each step tests them one by one.
    cases.append(pytest.param(
        SUM_OVERFLOWS.compile_rhs(), SUM_OVERFLOWS_START, (0.0, 1.0), None,
        id="n4-sum-overflows",
    ))
    # The variational pass on the entries of its 28 that move (12 to 18).
    pairs = [*CATALOG.items(), *((f"random{i or ''}", PfaffianPair(random_poly(rng),
                                                                    random_poly(rng)))
                                 for i in range(3))]
    for name, pair in pairs:
        sys = _control_system(pair)
        u1, u2 = rng.uniform(-1.0, 1.0, 2).tolist()
        y0 = _variational_start(sys, rng.uniform(-0.5, 0.5, 4).tolist())
        cases.append(pytest.param(
            sys.variational(u1, u2), y0, (0.25, 1.0), None, id=f"n28-{name}",
        ))
    return cases


def _call_form(rhs):
    """rhs as an opaque function, which adaptive_rk45 steps in call form."""
    return lambda t, y: rhs(t, y)


@pytest.mark.parametrize("rhs,y0,t_span,stop_when", _unrolled_cases())
def test_generated_trial_step_is_bit_identical_to_the_tuple_loop(rhs, y0, t_span, stop_when):
    # The generated loop, its unrolled trial steps and dense output, against
    # the generic tuple loop they replace: the same steps, states, carried
    # step and samples, bit for bit.  A compiled field's fused loop is also
    # run in call form, through an opaque wrapper of the same rhs.
    fused = hasattr(rhs, "rk45_loop")
    assert fused == (rhs.__name__ == "rhs")
    samples = np.random.default_rng(47).uniform(*t_span, 7)
    for h0 in (None, 0.01):
        args = (y0, t_span, 1e-10, 1e-12, h0, stop_when, samples)
        got, want = adaptive_rk45(rhs, *args), reference_tuple_rk45(rhs, *args)
        assert len(got[0]) == len(want[0]) > 2
        assert all(_bits(a) == _bits(b) for a, b in zip(got, want))
        if fused:
            called = adaptive_rk45(_call_form(rhs), *args)
            assert all(_bits(a) == _bits(b) for a, b in zip(got, called))


def _run_loop(loop, rhs, t, t1, y, h, max_steps, h_floor, samples=()):
    """A generated loop's result, with the times, states and samples it
    recorded, from (t, y) towards t1, trying h first."""
    n = len(y)
    pending = [(math.inf, -1), *sorted(zip(samples, range(len(samples))), reverse=True)]
    sampled = [(math.nan,) * n] * len(samples)
    times, states = [t], [y]
    result = loop(rhs, t, t1, y, h, 1e-10, 1e-12, max_steps, h_floor, None, pending, sampled,
                  times, states)
    return result, times, states, sampled


@pytest.mark.parametrize(
    "rhs,y0,t_span,stop_when", [c for c in _unrolled_cases() if c.id != "n1"]
)
def test_fused_trial_step_returns_what_the_call_form_returns(rhs, y0, t_span, stop_when):
    # At most two trial steps from random states towards t + 2h, with step
    # sizes from tiny to ones that send some entries past the float range,
    # and samples inside the first: the fused loop and the call form give
    # the same status, counters, steps and samples.  With a floor of h / 2,
    # a first trial rejected as non-finite ends the run as "non-finite", one
    # rejected on its error as "underflow" or in a second trial.
    n = len(y0)
    call_form = flow._rk45_loop(n)
    rng = np.random.default_rng(53)
    t = t_span[0]
    for h in (1e-9, 0.01, 0.5, 1e3, 1e60):
        y = tuple(np.add(y0, rng.uniform(-0.1, 0.1, n)).tolist())
        args = (t, t + 2.0 * h, y, h, 2, 0.5 * h, (t + h / 3.0, t + 2.0 * h / 3.0))
        got, want = _run_loop(rhs.rk45_loop, rhs, *args), _run_loop(call_form, rhs, *args)
        assert repr(got) == repr(want), h


def test_finite_stages_whose_sum_overflows_make_an_accepted_step():
    # The sum of the tested values is inf, yet no value is: the loop must
    # test them one by one and accept the step, as the tuple loop does.
    rhs = SUM_OVERFLOWS.compile_rhs()
    k1 = rhs(0.0, SUM_OVERFLOWS_START)
    *stages, y_new = tuple_stages(rhs, 0.0, 0.01, 0.01, SUM_OVERFLOWS_START, k1)
    values = [*k1, *(v for k in stages for v in k), *y_new]
    assert all(map(math.isfinite, values)) and sum(values) == math.inf
    assert sum([*stages[0], *y_new]) == math.inf
    for loop in (rhs.rk45_loop, flow._rk45_loop(4)):
        (status, t, _, accepted, rejected, _), times, states, _ = _run_loop(
            loop, rhs, 0.0, 0.01, SUM_OVERFLOWS_START, 0.01, 1, flow.H_FLOOR
        )
        assert (status, t, accepted, rejected) == (None, 0.01, 1, 0)
        assert times == [0.0, 0.01] and _bits(states[-1]) == _bits(y_new)


def _raises_if_called(t, q):
    raise AssertionError("a fused loop called its rhs argument")


@pytest.mark.parametrize("name", CATALOG)
def test_a_fused_loop_never_calls_its_rhs_argument(name):
    # All seven stages of a generated field's loop, the first included, run
    # its body inline: handed an rhs that raises if called, each catalog
    # field's loop and each of its control system's loops returns what it
    # returns when handed the rhs itself, samples and all.
    sys = _control_system(CATALOG[name])
    rng = np.random.default_rng(59)
    u1, u2 = rng.uniform(-1.0, 1.0, 2).tolist()
    q = rng.uniform(-0.5, 0.5, 4).tolist()
    cases = [
        (char_field(CATALOG[name], ORACLE).compile_rhs(), tuple(q), 3.0),
        (sys.control(u1, u2), tuple(q), 1.0),
        (sys.variational(u1, u2), _variational_start(sys, q), 1.0),
    ]
    for rhs, y0, t1 in cases:
        args = (0.0, t1, y0, 0.01, flow.MAX_STEPS, flow.H_FLOOR, (0.1, 0.35, t1))
        got = _run_loop(rhs.rk45_loop, _raises_if_called, *args)
        assert got[0][0] is None and got[0][3] > 2
        assert repr(got) == repr(_run_loop(rhs.rk45_loop, rhs, *args))


def _counting(rhs, calls):
    """rhs as an opaque function that counts its calls."""
    def opaque(t, q):
        calls.append(t)
        return rhs(t, q)

    return opaque


def test_an_opaque_rhs_is_called_once_and_then_six_times_per_trial_step(step_counts):
    # The call form calls the rhs for the first stage, then for the six
    # stages of each trial step, accepted or rejected: a d224 surface flow
    # (the sample of the pinned [105, 2] counts, with the cut as its stop
    # test) and a 13-entry d2334a variational segment.
    sys = _control_system(CATALOG["d2334a"])
    assert len(sys.moving) == 13
    cases = [
        (char_field(CATALOG["d224"], ORACLE).compile_rhs(), (0.0, 0.0, 0.01, 0.02),
         (0.0, DEFAULT_T_MAX), flow._cut_test()(DEFAULT_EPS_CUT)),
        (sys.variational(0.6, -0.8), _variational_start(sys, [0.1, -0.2, 0.3, 0.4]),
         (0.25, 1.0), None),
    ]
    for rhs, y0, t_span, stop_when in cases:
        calls = []
        flow.adaptive_rk45(_counting(rhs, calls), y0, t_span, DEFAULT_RTOL, DEFAULT_ATOL,
                           stop_when=stop_when)
        accepted, rejected = step_counts[-1]
        assert len(calls) == 1 + 6 * (accepted + rejected)
    assert step_counts[0] == [105, 2]


@pytest.mark.parametrize("name", CATALOG)
def test_fused_stages_form_only_the_entries_the_field_reads(name):
    # z and w of the characteristic flow (z alone for engel_std); z, w and
    # the entries of L that the x and y rows read of the variational state
    def formed(rhs, names):
        return [v for v in names if v in rhs.rk45_loop.__code__.co_varnames]

    zw = ["z"] if name == "engel_std" else ["z", "w"]
    rhs = char_field(CATALOG[name], ORACLE).compile_rhs()
    assert formed(rhs, ["x", "y", "z", "w"]) == zw
    names = ["x", "y", "z", "w", *(f"s{r}_{c}" for r in range(4) for c in range(6))]
    rhs = _control_system(CATALOG[name]).variational(0.5, -0.5)
    assert formed(rhs, names) == zw + ["s2_4", "s3_5"][:len(zw)]


# x' = x^4 overflows in a stage from 1e60 (Python's ** raises OverflowError)
# and blows up in finite time from 1; x' = x y, written as a product that
# gives inf without raising, blows up from y = 1e3.
QUARTIC = PolyVectorField(SparsePoly({(4, 0, 0, 0): 1}), ZERO, ZERO, ZERO)
PRODUCT = PolyVectorField(SparsePoly({(1, 1, 0, 0): 1}), ZERO, ZERO, ZERO)
# f = x^2 z + y w and g = x y: from x = 1 with u2 = -1, the control system
# runs x' = x^2 z + y w, which blows up in finite time; its variational pass
# moves 18 of its 28 entries.
BLOWS_UP = PfaffianPair(SparsePoly({(2, 0, 1, 0): 1, (0, 1, 0, 1): 1}),
                        SparsePoly({(1, 1, 0, 0): 1}))


def _failing_cases():
    # (rhs, y0, t_span, budget)
    sys = _control_system(BLOWS_UP)
    start = _variational_start(sys, (1.0, 0.5, 1.0, 0.5))
    return [
        pytest.param(QUARTIC.compile_rhs(), (1e60, 0.0, 0.0, 0.0), (0.0, 1.0), 20_000,
                     id="1e+60"),
        pytest.param(QUARTIC.compile_rhs(), (1.0, 0.0, 0.0, 0.0), (0.0, 1.0), 20_000, id="1.0"),
        pytest.param(PRODUCT.compile_rhs(), (1.0, 1e3, 0.0, 0.0), (0.0, 1.0), 20_000,
                     id="product"),
        pytest.param(sys.variational(0.0, -1.0), start, (0.0, 2.0), 20_000,
                     id="variational-blow-up"),
        pytest.param(sys.variational(0.3, -0.2), start, (0.0, 1.0), 5,
                     id="variational-budget"),
    ]


@pytest.mark.parametrize("rhs,y0,t_span,budget", _failing_cases())
def test_generated_trial_step_fails_like_the_tuple_loop(rhs, y0, t_span, budget, monkeypatch):
    # The fused loop, the call form and the tuple loop raise the same error.
    # The product case takes 16,132 trial steps to reach it.
    monkeypatch.setattr(flow, "MAX_STEPS", budget)
    args = (y0, t_span, 1e-10, 1e-12)
    errors = []
    for rk45, f in ((adaptive_rk45, rhs), (adaptive_rk45, _call_form(rhs)),
                    (reference_tuple_rk45, rhs)):
        with pytest.raises(IntegrationError) as err:
            rk45(f, *args)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1] == errors[2]


@pytest.mark.parametrize(
    "fld,y0",
    [(QUARTIC, (1e60, 0.0, 0.0, 0.0)), (PRODUCT, (1e200, 1e200, 0.0, 0.0)),
     (SUM_OVERFLOWS, (1.79e308, 0.0, 0.6, 0.8))],
    ids=["overflow-in-a-stage", "inf-stages", "inf-state"],
)
def test_a_failing_fused_stage_returns_like_the_call_form(fld, y0):
    # An OverflowError inside the inlined body, stages that are inf, and a
    # new state whose x is inf while every stage is finite: the first trial
    # is rejected as non-finite, which shrinks the step by the factor 0.2
    # to below the floor of 0.5, so the run ends as "non-finite".
    rhs = fld.compile_rhs()
    failed = (("non-finite", 0.0, 0.2, 0, 1, 1.0), [0.0], [y0], [])
    for loop in (rhs.rk45_loop, flow._rk45_loop(4)):
        assert _run_loop(loop, rhs, 0.0, 1.0, y0, 1.0, 2, 0.5) == failed


def test_a_non_finite_k2_alone_rejects_the_step():
    # Only the x entry of k2, at t = 0.2, is inf: no later stage reads x,
    # and neither the new state nor the error norm weighs k2, so the first
    # sum the loop tests must hold k2 itself.
    def rhs(t, y):
        return (math.inf if t == 0.2 else 0.0, -y[1])

    assert _run_loop(flow._rk45_loop(2), rhs, 0.0, 2.0, (0.0, 1.0), 1.0, 2, 0.5) == (
        ("non-finite", 0.0, 0.2, 0, 1, 1.0), [0.0], [(0.0, 1.0)], []
    )
    args = ((0.0, 1.0), (0.0, 2.0), 1e-10, 1e-12, 1.0)
    got, want = adaptive_rk45(rhs, *args), reference_tuple_rk45(rhs, *args)
    assert all(_bits(a) == _bits(b) for a, b in zip(got, want))


def test_a_span_shorter_than_the_step_floor_is_rejected():
    # No step can be taken, so the error names the floor, not a step underflow.
    fld = char_field(CATALOG["d224"], ORACLE)
    with pytest.raises(ValueError, match="shorter than the step floor H_FLOOR"):
        integrate(fld, Point4(0, 0, 0.1, 0.1), 1e-300)
    # the floor is relative to max(1, |t0|)
    with pytest.raises(ValueError, match="shorter than the step floor H_FLOOR"):
        adaptive_rk45(lambda t, y: y, (1.0,), (1e6, 1e6 + 1e-10), 1e-10, 1e-12)
    times, _, _, _ = adaptive_rk45(lambda t, y: y, (1.0,), (0.0, 2e-15), 1e-10, 1e-12)
    assert times == [0.0, 2e-15]


def _counted(rhs, calls):
    """rhs, counting its calls and the calls whose value is not finite."""
    def counted(t, y):
        value = rhs(t, y)
        calls[0] += 1
        calls[1] += not all(map(math.isfinite, value))
        return value

    return counted


def _controller_cases():
    # y' = -y, defined only for y > 0: a stage that overshoots below zero is NaN
    def positive_decay(t, y):
        return (-y[0] if y[0] > 0.0 else math.nan, y[0] * math.cos(t))

    def oscillator(t, y):
        return (y[1], -4.0 * y[0] + 0.1 * math.sin(t))

    # polynomial solutions of degree 3 and 4, which a trial step of any size
    # integrates to rounding
    def cubic(t, y):
        return (1.0 + t * t, t ** 3 - y[0])

    return [
        # error-based rejections: a first step far too large for the tolerance
        pytest.param(oscillator, (1.0, 0.0), (0.0, 3.0), 2.5, "rejected", id="large-h0"),
        # a first trial whose stages leave the domain
        pytest.param(positive_decay, (1.0, 0.0), (0.0, 3.0), 20.0, "non-finite",
                     id="non-finite"),
        # a step within 1 % of t1 stretched onto it
        pytest.param(cubic, (1.0, 0.0), (0.0, 0.5), 0.4955, "stretched", id="stretch"),
        # a step clipped by t1 hands on the larger step the controller proposed
        pytest.param(cubic, (1.0, 0.0), (0.0, 0.02), 3.0, "carried", id="carried"),
    ]


@pytest.mark.parametrize("rhs,y0,t_span,h0,path", _controller_cases())
def test_driver_step_control_is_bit_identical_to_the_reference_controller(
    rhs, y0, t_span, h0, path
):
    # adaptive_rk45 runs its step control inside the loop; the reference
    # keeps its own copy of the controller as methods.  Each case reaches
    # one of its paths, and steps, states, samples and the carried step
    # agree bit for bit.
    samples = np.random.default_rng(53).uniform(*t_span, 5)
    calls, ref_calls = [0, 0], [0, 0]
    got = adaptive_rk45(_counted(rhs, calls), y0, t_span, 1e-10, 1e-12, h0, None, samples)
    want = reference_tuple_rk45(_counted(rhs, ref_calls), y0, t_span, 1e-10, 1e-12, h0, None,
                                samples)
    assert calls == ref_calls
    assert all(_bits(a) == _bits(b) for a, b in zip(got, want))
    times, _, h, _ = got
    # first-same-as-last: one call to start, six per trial step
    rejected = (calls[0] - 1) // 6 - (len(times) - 1)
    if path == "rejected":
        assert rejected > 0 and calls[1] == 0
    elif path == "non-finite":
        assert rejected > 0 and calls[1] > 0
    elif path == "stretched":
        assert times == [0.0, 0.5] and rejected == 0
    else:
        assert times == [0.0, 0.02] and h == 3.0


def test_carried_steps_across_segments_are_bit_identical_to_the_reference_controller():
    # The endpoint passes carry each segment's last step into the next one;
    # every segment ends on a clip.
    def oscillator(t, y):
        return (y[1], -4.0 * y[0] + 0.1 * math.sin(t))

    y, h = (1.0, 0.0), None
    ref_y, ref_h = y, h
    for t0, t1 in zip(np.linspace(0.0, 2.0, 9), np.linspace(0.0, 2.0, 9)[1:]):
        times, states, h, _ = adaptive_rk45(oscillator, y, (t0, t1), 1e-10, 1e-12, h)
        ref_times, ref_states, ref_h, _ = reference_tuple_rk45(
            oscillator, ref_y, (t0, t1), 1e-10, 1e-12, ref_h
        )
        assert times == ref_times and _bits(states) == _bits(ref_states)
        assert _bits(h) == _bits(ref_h)
        y, ref_y = states[-1], tuple(ref_states[-1])


def _decay(calls):
    def rhs(t, y):
        calls[0] += 1
        return np.array([-y[0], y[0]])

    return rhs


def test_samples_add_no_steps_and_keep_one_rhs_call_saved_per_step():
    calls = [0]
    samples = np.random.default_rng(30).uniform(0.0, 1.0, size=100)
    times, _, _, sampled = adaptive_rk45(
        _decay(calls), np.array([1.0, 0.0]), (0.0, 1.0), 1e-10, 1e-12, samples=samples
    )
    sampled = np.array(sampled)
    # first-same-as-last: one rhs call to start, then six per step (no step
    # is rejected on this problem)
    assert calls[0] == 1 + 6 * (len(times) - 1)
    assert times == adaptive_rk45(_decay([0]), np.array([1.0, 0.0]), (0.0, 1.0), 1e-10, 1e-12)[0]
    assert sampled.shape == (100, 2)
    assert np.max(np.abs(sampled[:, 0] - np.exp(-samples))) <= 1e-9
    assert np.max(np.abs(sampled[:, 1] - (1.0 - np.exp(-samples)))) <= 1e-9


def test_samples_at_the_ends_are_the_stored_states():
    times, states, _, sampled = adaptive_rk45(
        _decay([0]), np.array([1.0, 0.0]), (0.0, 0.7), 1e-10, 1e-12, samples=[0.7, 0.3, 0.0]
    )
    states, sampled = np.array(states), np.array(sampled)
    assert sampled[0].tolist() == states[-1].tolist() and times[-1] == 0.7
    assert sampled[2].tolist() == states[0].tolist() == [1.0, 0.0]
    assert abs(sampled[1][0] - math.exp(-0.3)) <= 1e-9


@pytest.mark.parametrize("outside", [-1e-9, 1.0 + 1e-9, math.nan])
def test_sample_outside_t_span_is_rejected(outside):
    for samples in ([0.5, outside], [0.9, outside, 0.1], [outside, 0.2, 0.7, 0.4]):
        with pytest.raises(ValueError, match="t_span"):
            adaptive_rk45(_decay([0]), np.array([1.0, 0.0]), (0.0, 1.0), 1e-10, 1e-12,
                          samples=samples)


def test_the_driver_calls_no_numpy(monkeypatch):
    # States, samples and the sample check stay in Python floats: with
    # flow's numpy gone, the driver still runs, samples included.
    want = adaptive_rk45(lambda t, y: (-y[0], y[0]), (1.0, 0.0), (0.0, 1.0), 1e-10, 1e-12,
                         samples=(0.7, 0.3, 1.0))
    monkeypatch.setattr(flow, "np", None)
    got = adaptive_rk45(lambda t, y: (-y[0], y[0]), (1.0, 0.0), (0.0, 1.0), 1e-10, 1e-12,
                        samples=(0.7, 0.3, 1.0))
    assert got == want
    assert isinstance(got[1], list) and all(type(s) is tuple for s in (*got[1], *got[3]))


def test_call_without_samples_keeps_its_step_sequence():
    # pinned step sequence of the stop-free integrator; samples= must not change it
    times, _, h, sampled = adaptive_rk45(
        _decay([0]), np.array([1.0, 0.0]), (0.0, 1.0), 1e-6, 1e-9
    )
    sampled = np.array(sampled).reshape(len(sampled), 2)
    assert times == [
        0.0, 0.01, 0.060000000000000005, 0.20332359825311908, 0.38315797386466227,
        0.5868410389749562, 0.8073281076252028, 1.0,
    ]
    assert h == 0.23923187849802086
    assert sampled.shape == (0, 2)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0]), states=np.zeros((2, 4)))


def test_trajectory_csv_is_deterministic():
    fld = char_field(CATALOG["d2334b"], ORACLE)
    traj = integrate(fld, Point4(0, 0, 0.5, 0), 1.0, monitors={"rho": RHO})
    out1, out2 = io.StringIO(), io.StringIO()
    traj.write_csv(out1)
    traj.write_csv(out2)
    assert out1.getvalue() == out2.getvalue()
    first = out1.getvalue().splitlines()
    assert first[0] == "t,x,y,z,w,rho"


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
    sample = singular_surface(CATALOG["d224"], [(0.1, 0.1)])
    assert sample.converged == [True]
    dx, dy = sample.offsets[0]
    ref = (1 / 3) * 0.1**3
    assert abs(dx - ref) / ref < 0.05
    assert abs(dy - ref) / ref < 0.05
    assert sample.skew_product


def test_surface_d224_matches_the_closed_form_up_to_the_cut():
    # The d224 flow from (0, 0, z, w) moves x by (z^2 w / 3)(1 - e^{-6t}) and
    # y by (z w^2 / 3)(1 - e^{-6t}); at the cut rho <= eps_cut, so
    # e^{-6t} <= (eps_cut / rho0)^{3/2}.
    rng = np.random.default_rng(2024)
    grid = [
        tuple(float(s * m) for s, m in zip(rng.choice([-1.0, 1.0], 2),
                                            10.0 ** rng.uniform(-3.0, -1.0, 2)))
        for _ in range(16)
    ]
    sample = singular_surface(CATALOG["d224"], grid)
    assert sample.converged == [True] * 16
    for (z, w), offset in zip(grid, sample.offsets):
        shortfall = (sample.eps_cut / (z * z + w * w)) ** 1.5
        for got, ref in zip(offset, (z * z * w / 3.0, z * w * w / 3.0)):
            lo, hi = sorted((ref * (1.0 - shortfall), ref))
            assert lo - 1e-9 * abs(ref) <= got <= hi + 1e-9 * abs(ref), (z, w, got, ref)


def test_surface_d224_offsets_scale_as_the_cube_of_the_dilation():
    # d_lam(x, y, z, w) = (lam^3 x, lam^3 y, lam z, lam w) preserves d224,
    # so without the cut the offsets at (lam z, lam w) are lam^3 times those
    # at (z, w).  Each sample stops short by at most its cut truncation
    # (eps_cut / rho)^{3/2}, the larger one at the smaller rho.  With the
    # closed-form test's 1e-9 relative slack added, the worst sample measured
    # used 0.71 of the bound, and none exceeded its truncation by more than
    # 1.6e-12 relative.
    rng = np.random.default_rng(2025)
    grid, lams = [], rng.uniform(0.3, 3.0, 16).tolist()
    for _ in range(16):
        signs, mags = rng.choice([-1.0, 1.0], 2), 10.0 ** rng.uniform(-3.0, -1.0, 2)
        grid.append(tuple((signs * mags).tolist()))
    base = singular_surface(CATALOG["d224"], grid)
    dilated = singular_surface(CATALOG["d224"], [(lam * z, lam * w) for lam, (z, w) in zip(lams, grid)])
    assert base.converged == dilated.converged == [True] * 16
    for lam, (z, w), offset, got in zip(lams, grid, base.offsets, dilated.offsets):
        shortfall = (base.eps_cut / (min(1.0, lam * lam) * (z * z + w * w))) ** 1.5
        for g, o in zip(got, offset):
            assert abs(g - lam**3 * o) <= (shortfall + 1e-9) * abs(lam**3 * o), (lam, z, w)


def test_surface_invariant_axis_is_exact():
    sample = singular_surface(CATALOG["d224"], [(0.05, 0.0), (0.12, 0.0)])
    assert sample.converged == [True, True]
    assert sample.offsets == [(0.0, 0.0), (0.0, 0.0)]


def test_surface_d2334b_never_converges():
    sample = singular_surface(CATALOG["d2334b"], [(0.1, 0.0), (0.07, 0.07)], t_max=5.0)
    assert sample.converged == [False, False]
    assert sample.surface_points() == []


def test_surface_rejects_origin_and_bad_params():
    with pytest.raises(ValueError):
        singular_surface(CATALOG["d224"], [(0.0, 0.0)])
    with pytest.raises(ValueError):
        singular_surface(CATALOG["d224"], [(0.1, 0.1)], eps_cut=0.0)


D224_FIELD = char_field(CATALOG["d224"], ORACLE)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: integrate(D224_FIELD, (0, 0, 0.1, 0.1), math.nan), "t_end must be finite, got nan"),
        (lambda: integrate(D224_FIELD, (0, 0, 0.1, 0.1), math.inf), "t_end must be finite, got inf"),
        (lambda: integrate(D224_FIELD, (0, 0, 0.1, 0.1), -math.inf),
         "t_end must be finite, got -inf"),
        (lambda: integrate(D224_FIELD, (0, 0, 0.1, 0.1), 0.0),
         "t_end=0.0 is shorter than the step floor H_FLOOR=1e-15"),
        (lambda: integrate(D224_FIELD, (0, 0, 0.1, 0.1), -1e-20),
         "t_end=-1e-20 is shorter than the step floor H_FLOOR=1e-15"),
        (lambda: lyapunov_report(Point4(0, 0, 0.1, 0.1), t_end=math.nan),
         "t_end must be finite, got nan"),
        (lambda: singular_surface(CATALOG["d224"], [(0.1, 0.1)], t_max=1e-20),
         "t_max=1e-20 is shorter than the step floor H_FLOOR=1e-15"),
    ],
    ids=["nan", "inf", "minus-inf", "zero", "below-floor", "lyapunov-nan", "surface-t-max"],
)
def test_a_bad_time_is_named_by_the_callers_parameter(call, message):
    # these named the integrator's t_span, which no caller passes
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_the_step_floor_of_t_end_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(flow, "H_FLOOR", 1e-3)
    with pytest.raises(ValueError, match=r"^t_end=0\.0005 is shorter than .* H_FLOOR=0\.001$"):
        integrate(D224_FIELD, (0, 0, 0.1, 0.1), 5e-4)
    with pytest.raises(ValueError, match=r"^t_max=0\.0005 is shorter than .* H_FLOOR=0\.001$"):
        singular_surface(CATALOG["d224"], [(0.1, 0.1)], t_max=5e-4)


def test_surface_sample_whose_flow_fails_does_not_stop_the_grid():
    # the flow from (0, 0, 0.1, 0.01) underflows its step at t = 6.7
    pair = PfaffianPair(
        SparsePoly({(0, 0, 2, 1): 1, (1, 0, 0, 1): Fraction(1, 3), (0, 1, 1, 0): -2}),
        SparsePoly({(0, 0, 1, 2): 1, (0, 0, 3, 0): Fraction(3, 2), (1, 1, 0, 0): 1}),
    )
    sample = singular_surface(pair, [(0.01, 0.01), (0.1, 0.01), (0.1, 0.1)])
    assert list(sample.failures) == [1]
    assert sample.failures[1].startswith("step size underflow (last reachable time 6.7")
    assert sample.converged == [False, False, False]
    assert all(math.isnan(v) for v in sample.offsets[1])
    assert all(math.isfinite(v) for i in (0, 2) for v in sample.offsets[i])
    assert singular_surface(CATALOG["d224"], [(0.05, 0.1)]).failures == {}


def test_surface_samples_inside_the_cut_converge():
    # rho0 = 2e-12 and 5e-12 are inside the cut eps_cut = 1e-10, and 1.28e-10
    # falls inside it within the first two steps: the flow goes on until the
    # tail bound has its four states.  The offsets are
    # the closed form's z^2 w / 3, z w^2 / 3 up to the tail, which is below
    # 1e-10; measured, they are 0.77 to 0.89 of the closed form.
    sample = singular_surface(CATALOG["d224"], [(1e-6, 1e-6), (8e-6, 8e-6), (-1e-6, 2e-6)])
    assert sample.converged == [True, True, True]
    for (z, w), (dx, dy) in zip(sample.grid, sample.offsets):
        for got, ref in zip((dx, dy), (z * z * w / 3.0, z * w * w / 3.0)):
            assert abs(got - ref) <= 1e-10
            assert 0.5 * abs(ref) <= abs(got) <= abs(ref) and got * ref > 0.0


def _surface_by_integrate(pair, grid, t_max):
    """The per-sample route: each flow's steps are wrapped in a Trajectory
    and the tail bound reads its numpy rows; the cut is tested from the
    third accepted step on."""
    fld = char_field(pair, ORACLE)
    rhs = fld.compile_rhs()
    rho_fn = RHO.compile()
    offsets, converged, failures = [], [], {}
    for i, (z, w) in enumerate(grid):
        steps = [0]

        def cut(t, y):
            steps[0] += 1
            return steps[0] >= 3 and rho_fn(*y) < flow.DEFAULT_EPS_CUT

        try:
            traj = _integrate_until(fld, (0.0, 0.0, z, w), t_max, cut)
        except IntegrationError as exc:
            failures[i] = str(exc)
            offsets.append((math.nan, math.nan))
            converged.append(False)
            continue
        end = traj.endpoint
        ok = False
        if rho_fn(*end) < flow.DEFAULT_EPS_CUT and traj.times.size >= 4:
            ok = flow._tail_bound(rhs, traj.states, traj.times) < flow.TAIL_BOUND_LIMIT
        offsets.append((float(end[0]), float(end[1])))
        converged.append(ok)
    return offsets, converged, failures


def _surface_route_cases():
    rng = np.random.default_rng(61)
    grid = [(0.08, 0.03), (-0.05, 0.1), (0.002, -0.004), (1e-6, 2e-6), (0.1, 0.0)]
    cases = [pytest.param(CATALOG[name], grid, 30.0, id=name) for name in ("d224", "d2334a")]
    cases.append(pytest.param(CATALOG["d2334b"], grid[:3], 5.0, id="d2334b"))
    while len(cases) < 9:
        pair = PfaffianPair(*(
            SparsePoly({e: c for e, c in random_poly(rng).terms.items() if e[0] == e[1] == 0})
            for _ in range(2)
        ))
        # pairs whose flow moves x, so the offsets are not all zero
        if not char_field(pair, ORACLE).cx.is_zero():
            cases.append(pytest.param(pair, grid, 3.0, id=f"skew{len(cases) - 3}"))
    failing = PfaffianPair(
        SparsePoly({(0, 0, 2, 1): 1, (1, 0, 0, 1): Fraction(1, 3), (0, 1, 1, 0): -2}),
        SparsePoly({(0, 0, 1, 2): 1, (0, 0, 3, 0): Fraction(3, 2), (1, 1, 0, 0): 1}),
    )
    cases.append(pytest.param(failing, [(0.01, 0.01), (0.1, 0.01), (0.1, 0.1)], 30.0,
                              id="failing"))
    return cases


@pytest.mark.parametrize("pair,grid,t_max", _surface_route_cases())
def test_singular_surface_is_bit_identical_to_the_integrate_route(pair, grid, t_max):
    # singular_surface compiles the rhs once per grid and calls the driver
    # directly, on float tuples; the per-sample integrate route gives the
    # same offsets, convergence and failure messages, bit for bit.
    sample = singular_surface(pair, grid, t_max=t_max)
    offsets, converged, failures = _surface_by_integrate(pair, grid, t_max)
    assert _bits(sample.offsets) == _bits(offsets)
    assert sample.converged == converged and sample.failures == failures


def test_d224_surface_samples_take_pinned_step_counts(step_counts):
    # [accepted, rejected] trial steps per sample, exact: a controller or
    # tableau fault moves them at once.
    grid = [(0.01, 0.02), (-0.03, 0.05), (0.1, -0.07), (-0.002, -0.004)]
    assert singular_surface(CATALOG["d224"], grid).converged == [True] * 4
    assert step_counts == [[105, 2], [128, 2], [146, 2], [71, 2]]


def test_outward_surface_samples_take_pinned_step_counts(step_counts):
    # The origin of OUTWARD is a repelling star node, so the samples
    # integrate -C into it: [accepted, rejected] per sample of
    # ``surface --grid 0.01:0.05:2``, exact.
    grid = [(0.01, 0.01), (0.01, 0.05), (0.05, 0.01), (0.05, 0.05)]
    assert singular_surface(OUTWARD, grid).converged == [True] * 4
    assert step_counts == [[95, 3], [123, 4], [123, 4], [133, 4]]


def _star_node_pairs(seed, draws):
    """The star nodes among ``draws`` seeded homogeneous quadratic (z, w)
    pairs with coefficients in -3..3, attracting (lam < 0) and repelling
    (lam > 0), and the number skipped (no star node)."""
    rng = np.random.default_rng(seed)
    attracting, repelling, skipped = [], [], 0
    for _ in range(draws):
        (a, b, c), (d, e, f) = rng.integers(-3, 4, (2, 3)).tolist()
        pair = PfaffianPair(SparsePoly({(0, 0, 2, 0): a, (0, 0, 1, 1): b, (0, 0, 0, 2): c}),
                            SparsePoly({(0, 0, 2, 0): d, (0, 0, 1, 1): e, (0, 0, 0, 2): f}))
        node = star_node(pair)
        if node is None:
            skipped += 1
        else:
            (attracting if node[0] < 0 else repelling).append(pair)
    return attracting, repelling, skipped


# Relative offset error bound per sample magnitude: about 10x the worst
# measured on d224, OUTWARD and the 52 star nodes below, in either
# orientation (6.1e-7, 5.2e-10 and 3.7e-11).  The 1e-3 samples miss by more
# since the absolute tolerances bind there.
STAR_NODE_BOUNDS = {1e-3: 6e-6, 1e-2: 5e-9, 1e-1: 4e-10}
STAR_NODE_DIRECTIONS = [(1.0, 0.5), (-0.6, 1.0), (0.8, -0.9)]


def _offset_error(pair, z, w, dx, dy) -> float:
    """max(|dx - ex|, |dy - ey|) / max(|ex|, |ey|) against the exact offsets."""
    ex, ey = exact_offsets(pair, z, w)
    return float(max(abs(Fraction(dx) - ex), abs(Fraction(dy) - ey)) / max(abs(ex), abs(ey)))


def test_surface_offsets_match_the_exact_star_node_reference():
    # Against -(C^x, C^y) / (k lam) in exact arithmetic: every sample
    # converges within its magnitude's bound, whether the origin is reached
    # under +C (lam < 0) or under -C (lam > 0).  With a cut at rho < 1e-4
    # the quadrature tail is far above the bound, and the tail bound must
    # then mark every sample unconverged.  Of the 60 draws, 29 are
    # attracting, 23 repelling and 8 skipped.
    attracting, repelling, skipped = _star_node_pairs(151, 60)
    assert min(len(attracting), len(repelling)) >= 20, (len(attracting), len(repelling), skipped)
    for pair in [CATALOG["d224"], OUTWARD, *attracting, *repelling]:
        for m, bound in STAR_NODE_BOUNDS.items():
            grid = [(m * a, m * b) for a, b in STAR_NODE_DIRECTIONS]
            sample = singular_surface(pair, grid)
            assert sample.converged == [True] * len(grid), (pair, m)
            for (z, w), (dx, dy) in zip(grid, sample.offsets):
                assert _offset_error(pair, z, w, dx, dy) <= bound, (pair, z, w)
        grid = [(0.1 * a, 0.1 * b) for a, b in STAR_NODE_DIRECTIONS]
        sample = singular_surface(pair, grid, eps_cut=1e-4)
        assert not any(sample.converged), pair
        for (z, w), (dx, dy) in zip(grid, sample.offsets):
            assert _offset_error(pair, z, w, dx, dy) > STAR_NODE_BOUNDS[0.1], (pair, z, w)


def test_surface_membership():
    fld = char_field(CATALOG["d224"], ORACLE)
    sample = singular_surface(CATALOG["d224"], [(0.08, 0.03), (-0.05, 0.1)])
    for px, py, z, w in sample.surface_points():
        final = integrate(fld, (px, py, z, w), sample.t_max).endpoint
        assert abs(final[0]) + abs(final[1]) < 1e-6
        assert final[2] ** 2 + final[3] ** 2 < 2 * sample.eps_cut


def test_surface_csv_roundtrip_format():
    sample = singular_surface(CATALOG["d224"], [(0.1, 0.1)])
    out = io.StringIO()
    sample.write_csv(out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "z,w,x,y,converged"
    assert lines[1].endswith(",1")
    assert len(lines) == 2


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
