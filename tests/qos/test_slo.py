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
    for i in range(sessions):
        tracker.observe_session(tenant, latency, now=float(i))
    return tracker


def test_objective_requires_a_target():
    with pytest.raises(ValueError):
        SloObjective(tenant="t")
    SloObjective(tenant="t", latency_p99_s=1e-3)
    SloObjective(tenant="t", min_sessions_per_s=1.0)


def test_percentile_interpolates():
    assert percentile_linear([], 0.5) == 0.0
    assert percentile_linear([7.0], 0.99) == 7.0
    assert percentile_linear([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert percentile_linear([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0


class TestBurnRate:
    def test_absent_tenant_does_not_burn(self):
        tracker = SloTracker()
        objective = SloObjective(tenant="ghost", latency_p99_s=1e-3)
        assert tracker.burn_rate(objective, now=0.0) == 0.0

    def test_latency_burn_is_observed_over_target(self):
        tracker = hot_tracker(latency=2e-3)
        objective = SloObjective(tenant="victim", latency_p99_s=1e-3,
                                 window=8)
        assert tracker.burn_rate(objective, now=8.0) == pytest.approx(2.0)

    def test_throughput_burn_is_target_over_observed(self):
        tracker = SloTracker()
        for i in range(8):
            tracker.observe_session("t", 1e-3, now=float(i))
        objective = SloObjective(tenant="t", min_sessions_per_s=2.0,
                                 window=8)
        # 8 sessions over 8 seconds = 1/s against a 2/s floor.
        assert tracker.burn_rate(objective, now=8.0) == pytest.approx(2.0)

    def test_burn_takes_the_hotter_target(self):
        tracker = hot_tracker(latency=0.5e-3)   # latency fine
        objective = SloObjective(tenant="victim", latency_p99_s=1e-3,
                                 min_sessions_per_s=10.0, window=8)
        burn = tracker.burn_rate(objective, now=8.0)
        assert burn > 1.0                        # throughput is burning


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
        first = self.enforcer.evaluate(now=8.0)
        assert [a.action for a in first] == ["boost_weight"]
        assert self.victim.weight == 2.0

        second = self.enforcer.evaluate(now=9.0)
        assert [a.action for a in second] == ["throttle"]
        assert second[0].tenant == "noisy"
        assert self.noisy.byte_rate == pytest.approx(75.0)
        assert self.victim.weight == 2.0         # not boosted again

        third = self.enforcer.evaluate(now=10.0)
        assert [a.action for a in third] == ["migrate_hint"]
        # Still hot next pass: the tenant was hinted once, and stays so.
        assert self.enforcer.evaluate(now=11.0) == []

    def test_cool_burn_resets_the_streak(self):
        self.enforcer.evaluate(now=8.0)          # streak 1: boost
        for i in range(8):                       # objective now met
            self.tracker.observe_session("victim", 1e-5, now=9.0 + i)
        assert self.enforcer.evaluate(now=17.0) == []
        for i in range(8):                       # hot again
            self.tracker.observe_session("victim", 2e-3, now=18.0 + i)
        again = self.enforcer.evaluate(now=26.0)
        # The ladder restarted: boost (2 -> 4), not throttle.
        assert [a.action for a in again] == ["boost_weight"]
        assert self.victim.weight == 4.0

    def test_weight_cap_stops_boosting(self):
        self.victim.weight = 16.0
        assert self.enforcer.evaluate(now=8.0) == []
