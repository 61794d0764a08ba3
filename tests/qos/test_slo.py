"""SLO layer: objectives, burn rates, the enforcer's escalation ladder."""

import pytest

from repro.observability.stats import percentile_linear
from repro.qos.slo import SloEnforcer, SloObjective, SloTracker


class StubFlow:
    """Just enough of :class:`~repro.qos.flow.QosFlow` for the enforcer."""

    def __init__(self, weight=1.0, byte_rate=100.0):
        self.weight = weight
        self.byte_rate = byte_rate

    def set_weight(self, weight):
        self.weight = weight

    def scale_byte_rate(self, factor, min_scale=0.25):
        self.byte_rate = max(self.byte_rate * factor, 100.0 * min_scale)
        return self.byte_rate


def hot_tracker(tenant="victim", latency=2e-3, sessions=8):
    tracker = SloTracker()
    for _ in range(sessions):
        tracker.observe_session(tenant, latency)
    return tracker


def test_objective_requires_a_target():
    with pytest.raises(TypeError):
        SloObjective(tenant="t")
    SloObjective(tenant="t", latency_p99_s=1e-3)


def test_percentile_interpolates():
    assert percentile_linear([], 0.5) == 0.0
    assert percentile_linear([7.0], 0.99) == 7.0
    assert percentile_linear([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert percentile_linear([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0


class TestBurnRate:
    def test_absent_tenant_does_not_burn(self):
        tracker = SloTracker()
        objective = SloObjective(tenant="ghost", latency_p99_s=1e-3)
        assert tracker.burn_rate(objective) == 0.0

    def test_latency_burn_is_observed_over_target(self):
        tracker = hot_tracker(latency=2e-3)
        objective = SloObjective(tenant="victim", latency_p99_s=1e-3,
                                 window=8)
        assert tracker.burn_rate(objective) == pytest.approx(2.0)


class TestEnforcerLadder:
    def setup_method(self):
        self.tracker = hot_tracker()
        self.objective = SloObjective(tenant="victim", latency_p99_s=1e-3,
                                      window=8)
        self.enforcer = SloEnforcer(self.tracker, (self.objective,))
        self.victim = StubFlow()
        self.noisy = StubFlow()
        self.enforcer.bind("victim", self.victim)
        self.enforcer.bind("noisy", self.noisy)

    def test_escalation_boost_throttle_migrate(self):
        first = self.enforcer.evaluate()
        assert [a.action for a in first] == ["boost_weight"]
        assert self.victim.weight == 2.0

        second = self.enforcer.evaluate()
        assert [a.action for a in second] == ["throttle"]
        assert second[0].tenant == "noisy"
        assert self.noisy.byte_rate == pytest.approx(75.0)
        assert self.victim.weight == 2.0         # not boosted again

        third = self.enforcer.evaluate()
        assert [a.action for a in third] == ["migrate_hint"]
        # Still hot next pass: the tenant was hinted once, and stays so.
        assert self.enforcer.evaluate() == []

    def test_cool_burn_resets_the_streak(self):
        self.enforcer.evaluate()          # streak 1: boost
        for _ in range(8):                       # objective now met
            self.tracker.observe_session("victim", 1e-5)
        assert self.enforcer.evaluate() == []
        for _ in range(8):                       # hot again
            self.tracker.observe_session("victim", 2e-3)
        again = self.enforcer.evaluate()
        # The ladder restarted: boost (2 -> 4), not throttle.
        assert [a.action for a in again] == ["boost_weight"]
        assert self.victim.weight == 4.0

    def test_weight_cap_stops_boosting(self):
        self.victim.weight = 16.0
        assert self.enforcer.evaluate() == []
