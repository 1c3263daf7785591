"""Settings shared by every test.

Each test runs under a step budget far below the library's million steps,
so an integrator that a fault has slowed fails the test with the budget's
IntegrationError within seconds instead of running for minutes.
"""

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
    """Accepted and rejected trial steps of each integrator call made by flow
    and endpoint, one [accepted, rejected] pair per call in call order, as
    the generated loop counts them.

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

    monkeypatch.setattr(flow, "adaptive_rk45", counted_rk45)
    monkeypatch.setattr(endpoint, "adaptive_rk45", counted_rk45)
    return calls
