"""Settings shared by every test.

Each test runs under a step budget far below the library's million steps,
so an integrator that a fault has slowed fails the test with the budget's
IntegrationError within seconds instead of running for minutes.
"""

import dataclasses

import pytest

from engelkit import endpoint, flow

# The most trial steps one integrator call takes in these tests is 1,451
# (test_flow.py's surface route test, case skew1); the budget leaves 38 %
# headroom.  One test, which follows a blow-up through 16,132 steps, sets
# its own budget.
TEST_MAX_STEPS = 2_000


@pytest.fixture(autouse=True)
def step_budget(monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", TEST_MAX_STEPS)


@pytest.fixture
def step_counts(monkeypatch):
    """Accepted and rejected trial steps, as the generated loops count them:
    one [accepted, rejected] pair per ``flow.adaptive_rk45`` call and per
    segment of an endpoint pass (``horizontal_integrate`` and the
    variational pass), in call order.  A pass's pairs are the per-segment
    counters its kernel collects, and a failing segment's pair follows them.

    A step counts as accepted when its error norm is at most 1, the step
    that meets a ``stop_when`` included."""
    calls: list[list[int]] = []
    integrate = flow.adaptive_rk45

    def counted_rk45(rhs, y0, *args, **kwargs):
        loop = getattr(rhs, "rk45_loop", None) or flow._rk45_loop(len(y0))

        def rk45_loop(*loop_args):
            result = loop(*loop_args)
            _, _, _, accepted, rejected, _ = result
            calls.append([accepted, rejected])
            return result

        def counted(t, y):
            return rhs(t, y)

        counted.rk45_loop = rk45_loop
        return integrate(counted, y0, *args, **kwargs)

    def counted_pass(pass_kernel):
        def run(*args):
            result = pass_kernel(*args)
            status, _, _, _, accepted, rejected, _ = result
            calls.extend(map(list, args[-1]))  # the kernel's _counts
            if status not in (None, "span"):
                calls.append([accepted, rejected])
            return result

        return run

    control_system = endpoint._control_system

    def counted_system(pair):
        sys = control_system(pair)
        return dataclasses.replace(
            sys, control=counted_pass(sys.control), variational=counted_pass(sys.variational)
        )

    monkeypatch.setattr(flow, "adaptive_rk45", counted_rk45)
    monkeypatch.setattr(endpoint, "_control_system", counted_system)
    return calls
