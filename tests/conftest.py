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
    and endpoint, one [accepted, rejected] pair per call in call order.

    A step counts as accepted when its error norm is at most 1, as
    ``adaptive_rk45`` decides."""
    calls: list[list[int]] = []
    integrate = flow.adaptive_rk45

    def counted_rk45(rhs, y0, *args, **kwargs):
        step = getattr(rhs, "trial_step", None) or flow._trial_step(len(y0))
        counts = [0, 0]
        calls.append(counts)

        def trial_step(*step_args):
            result = step(*step_args)
            counts[0 if result[6] <= 1.0 else 1] += 1
            return result

        def counted(t, y):
            return rhs(t, y)

        counted.trial_step = trial_step
        return integrate(counted, y0, *args, **kwargs)

    monkeypatch.setattr(flow, "adaptive_rk45", counted_rk45)
    monkeypatch.setattr(endpoint, "adaptive_rk45", counted_rk45)
    return calls
