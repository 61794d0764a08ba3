"""The alert-rule engine: validation, the state machine, rule kinds."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.observability.alerts import AlertRule, AlertRuleEngine
from repro.observability.catalog import CATALOG
from repro.observability.metrics import MetricsRegistry
from repro.observability.timeseries import TimeSeriesStore


def _store():
    registry = MetricsRegistry()
    counter = CATALOG["repro_fault_injected_total"].create(registry).labels(
        kind="drill")
    store = TimeSeriesStore(registry, interval=0.001)
    return registry, counter, store


class TestValidation:
    def test_unknown_metric_raises_at_construction(self):
        with pytest.raises(ObservabilityError, match="unknown metric"):
            AlertRule(name="bad", metric="repro_no_such_metric")

    def test_unknown_kind_raises(self):
        with pytest.raises(ObservabilityError, match="unknown kind"):
            AlertRule(name="bad", metric="repro_fault_injected_total",
                      kind="anomaly")

    def test_burn_rate_needs_positive_target(self):
        with pytest.raises(ObservabilityError, match="positive target"):
            AlertRule(name="bad", metric="repro_frontend_request_seconds",
                      kind="burn_rate", target=0.0)

    def test_duplicate_rule_names_raise(self):
        _, _, store = _store()
        rule = AlertRule(name="dup", metric="repro_fault_injected_total")
        with pytest.raises(ObservabilityError, match="duplicate"):
            AlertRuleEngine(store, [rule, rule])


class TestStateMachine:
    def _engine(self, for_s):
        registry, counter, store = _store()
        rule = AlertRule(
            name="fault_burst", metric="repro_fault_injected_total",
            kind="threshold", bound=0.0, window=0.005, for_s=for_s)
        engine = AlertRuleEngine(store, [rule], registry=registry)
        return counter, store, engine

    def test_zero_holddown_fires_immediately(self):
        counter, store, engine = self._engine(for_s=0.0)
        store.scrape(ts=0.0)
        counter.inc()
        store.scrape(ts=0.001)
        engine.evaluate(0.001)
        assert engine.state_of("fault_burst") == "firing"

    def test_holddown_goes_through_pending(self):
        counter, store, engine = self._engine(for_s=0.002)
        store.scrape(ts=0.0)
        counter.inc()
        store.scrape(ts=0.001)
        engine.evaluate(0.001)
        assert engine.state_of("fault_burst") == "pending"
        counter.inc()
        store.scrape(ts=0.002)
        engine.evaluate(0.002)
        assert engine.state_of("fault_burst") == "pending"
        counter.inc()
        store.scrape(ts=0.003)
        engine.evaluate(0.003)
        assert engine.state_of("fault_burst") == "firing"

    def test_pending_clears_without_firing(self):
        counter, store, engine = self._engine(for_s=0.01)
        store.scrape(ts=0.0)
        counter.inc()
        store.scrape(ts=0.001)
        engine.evaluate(0.001)
        assert engine.state_of("fault_burst") == "pending"
        # The burst ends; the delta window slides past it.
        for i in range(2, 10):
            store.scrape(ts=i * 0.001)
            engine.evaluate(i * 0.001)
        assert engine.state_of("fault_burst") == "inactive"
        assert "firing" not in {t.to_state for t in engine.transitions()}

    def test_resolved_is_one_evaluation_wide(self):
        counter, store, engine = self._engine(for_s=0.0)
        store.scrape(ts=0.0)
        counter.inc()
        store.scrape(ts=0.001)
        engine.evaluate(0.001)
        assert engine.state_of("fault_burst") == "firing"
        for i in range(2, 10):
            store.scrape(ts=i * 0.001)
            engine.evaluate(i * 0.001)
            if engine.state_of("fault_burst") != "firing":
                break
        assert engine.state_of("fault_burst") == "resolved"
        store.scrape(ts=0.011)
        engine.evaluate(0.011)
        assert engine.state_of("fault_burst") == "inactive"

    def test_full_lifecycle_transition_order(self):
        counter, store, engine = self._engine(for_s=0.002)
        for i in range(20):
            if 1 <= i <= 4:
                counter.inc()
            store.scrape(ts=i * 0.001)
            engine.evaluate(i * 0.001)
        visited = [t.to_state for t in engine.transitions()]
        assert visited == ["pending", "firing", "resolved", "inactive"]

    def test_state_exported_through_registry(self):
        counter, store, engine = self._engine(for_s=0.0)
        store.scrape(ts=0.0)
        counter.inc()
        store.scrape(ts=0.001)
        engine.evaluate(0.001)
        family = store.registry.get("repro_alert_state")
        occupied = {labels["state"]: child.value
                    for labels, child in family.samples()
                    if labels["rule"] == "fault_burst"}
        assert occupied["firing"] == 1.0
        assert occupied["inactive"] == 0.0


class TestRuleKinds:
    def test_burn_rate_uses_percentile_over_target(self):
        registry = MetricsRegistry()
        hist = CATALOG["repro_frontend_request_seconds"].create(registry).labels(
            vm="vm-0", device="dev0", kind="launch")
        store = TimeSeriesStore(registry, interval=0.001)
        rule = AlertRule(
            name="slow", metric="repro_frontend_request_seconds",
            kind="burn_rate", q=0.99, target=0.01, bound=1.0)
        engine = AlertRuleEngine(store, [rule])
        hist.observe(0.001)
        store.scrape(ts=0.0)
        engine.evaluate(0.0)
        assert engine.state_of("slow") == "inactive"
        for _ in range(50):
            hist.observe(0.1)  # 10x the 10ms target
        store.scrape(ts=0.001)
        engine.evaluate(0.001)
        assert engine.state_of("slow") == "firing"
        assert engine.states["slow"].last_value > 1.0

    def test_absence_fires_when_series_never_appears(self):
        _, _, store = _store()
        rule = AlertRule(
            name="liveness", metric="repro_paging_swaps_total",
            kind="absence", window=None, for_s=0.0)
        engine = AlertRuleEngine(store, [rule])
        store.scrape(ts=0.0)
        engine.evaluate(0.0)
        assert engine.state_of("liveness") == "firing"

    def test_absence_clears_when_samples_flow(self):
        registry, counter, store = _store()
        rule = AlertRule(
            name="liveness", metric="repro_fault_injected_total",
            kind="absence", window=None, for_s=0.0)
        engine = AlertRuleEngine(store, [rule])
        counter.inc()
        store.scrape(ts=0.0)
        engine.evaluate(0.0)
        assert engine.state_of("liveness") == "inactive"

    def test_snapshot_carries_transitions(self):
        registry, counter, store = _store()
        rule = AlertRule(
            name="burst", metric="repro_fault_injected_total",
            kind="threshold", bound=0.5)
        engine = AlertRuleEngine(store, [rule])
        store.scrape(ts=0.0)
        counter.inc()
        store.scrape(ts=0.001)
        engine.evaluate(0.001)
        snap = engine.snapshot()
        assert snap["evaluations"] == 1
        (entry,) = snap["rules"]
        assert entry["state"] == "firing"
        assert entry["transitions"][0]["to"] == "firing"
