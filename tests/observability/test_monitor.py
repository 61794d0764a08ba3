"""The monitor orchestration: pipeline wiring, the drill, snapshot
diffs, the dashboard renderer, and a digest pin per scenario shape."""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

import pytest

from repro import cli
from repro.errors import ObservabilityError
from repro.hardware.clock import SimClock
from repro.observability.catalog import CATALOG
from repro.observability.dashboard import render_dashboard
from repro.observability.metrics import MetricsRegistry
from repro.observability.snapshots import (
    diff_snapshots,
    format_deltas,
    load_snapshot,
    parse_snapshot,
)
from repro.observability.export import snapshot_dict
from repro.analysis.monitor import (
    SCENARIOS,
    MonitorConfig,
    TelemetryPipeline,
    default_rules,
    run_monitor,
)


class TestMonitorConfig:
    def test_default_is_valid(self):
        MonitorConfig().validate()

    def test_unknown_scenario_raises(self):
        with pytest.raises(ObservabilityError, match="unknown monitor scenario"):
            MonitorConfig(scenario="prod").validate()

    def test_three_settable_fields(self):
        assert [f.name for f in fields(MonitorConfig)] == [
            "scenario", "seed", "interval"]


class TestCli:
    def test_scenario_choices_are_the_monitor_list(self, capsys):
        assert cli.main(["monitor", "--scenario", "prod"]) == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith(f"(choose from {', '.join(SCENARIOS)})")

    @pytest.mark.parametrize("interval", ["0", "-0.001", "nan", "inf"])
    def test_interval_must_be_positive(self, interval):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["monitor", "--interval", interval])
        assert exit_info.value.code == 2


class TestDefaultRules:
    @pytest.mark.parametrize(
        "scenario",
        ["quick", "prim", "noisy", "paging", "drill", "chaos"])
    def test_rules_are_catalog_valid_for_every_scenario(self, scenario):
        """One rule set serves every scenario."""
        MonitorConfig(scenario=scenario).validate()
        rules = default_rules()
        assert rules  # construction validated each against the catalog
        names = [r.name for r in rules]
        assert len(set(names)) == len(names)


class TestTelemetryPipeline:
    def test_clock_ticks_drive_scrape_and_evaluate(self):
        registry = MetricsRegistry()
        CATALOG["repro_fault_injected_total"].create(registry).labels(
            kind="x").inc()
        clock = SimClock()
        pipeline = TelemetryPipeline(registry, clock, interval=0.001)
        for _ in range(10):
            clock.advance(0.001)
        assert pipeline.store.scrapes >= 10
        assert pipeline.engine.evaluations >= 10

    def test_detach_stops_scraping(self):
        registry = MetricsRegistry()
        clock = SimClock()
        pipeline = TelemetryPipeline(registry, clock, interval=0.001)
        clock.advance(0.005)
        scrapes = pipeline.store.scrapes
        pipeline.detach()
        clock.advance(0.005)
        assert pipeline.store.scrapes == scrapes

    def test_cooldown_advances_only_the_clock(self):
        registry = MetricsRegistry()
        clock = SimClock()
        pipeline = TelemetryPipeline(registry, clock, interval=0.001)
        pipeline.cooldown(ticks=7)
        assert clock.now == pytest.approx(7 * 0.001)


def _drill(config):
    """The ``drill`` scenario's lifecycle record and telemetry."""
    result = run_monitor(config)
    return result.drill, result.scenarios[0]


class TestFaultDrill:
    def test_drill_walks_the_full_lifecycle(self):
        drill, telemetry = _drill(MonitorConfig(scenario="drill"))
        assert drill["visited_pending"]
        assert drill["visited_firing"]
        assert drill["visited_resolved"]
        order = [t["to"] for t in drill["transitions"]]
        assert order.index("pending") < order.index("firing")
        assert order.index("firing") < order.index("resolved")
        assert telemetry.dropped == 0

    @pytest.mark.parametrize("interval", [1e-4, 1e-2])
    def test_drill_schedule_is_cadence_independent(self, interval):
        """Warm-up, burst and cool-down are simulated seconds, so a finer
        or coarser cadence still outlasts the rule's 20 ms hold-down and
        50 ms window."""
        drill, telemetry = _drill(
            MonitorConfig(scenario="drill", interval=interval))
        assert [t["to"] for t in drill["transitions"]][:3] == [
            "pending", "firing", "resolved"]
        assert telemetry.dropped == 0

    def test_drill_scenario_is_deterministic(self):
        first = run_monitor(MonitorConfig(scenario="drill"))
        second = run_monitor(MonitorConfig(scenario="drill"))
        assert first.digest() == second.digest()


class TestSnapshotDiff:
    def _snapshots(self):
        registry = MetricsRegistry()
        counter = CATALOG["repro_fault_injected_total"].create(registry).labels(
            kind="drill")
        counter.inc(2.0)
        old = parse_snapshot(snapshot_dict(registry, now=1.0))
        counter.inc(6.0)
        new = parse_snapshot(snapshot_dict(registry, now=3.0))
        return old, new

    def test_counter_increase_and_rate(self):
        old, new = self._snapshots()
        deltas = diff_snapshots(old, new)
        (family,) = [d for d in deltas
                     if d.name == "repro_fault_injected_total"]
        (row,) = family.rows
        assert row["increase"] == 6.0
        assert row["rate"] == pytest.approx(3.0)

    def test_no_rate_without_sim_time(self):
        registry = MetricsRegistry()
        counter = CATALOG["repro_fault_injected_total"].create(registry).labels(
            kind="drill")
        counter.inc()
        old = parse_snapshot(snapshot_dict(registry))
        counter.inc()
        new = parse_snapshot(snapshot_dict(registry))
        (family,) = diff_snapshots(old, new)
        assert "rate" not in family.rows[0]

    def test_load_snapshot_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        CATALOG["repro_fault_injected_total"].create(registry).labels(
            kind="drill").inc(4.0)
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(snapshot_dict(registry, now=2.0)))
        snap = load_snapshot(str(path))
        assert snap.sim_time == 2.0
        assert "repro_fault_injected_total" in snap.families

    def test_format_deltas_renders_text(self):
        old, new = self._snapshots()
        text = format_deltas(diff_snapshots(old, new))
        assert "repro_fault_injected_total" in text


class TestDashboard:
    def test_render_smoke_on_a_real_drill(self):
        result = run_monitor(MonitorConfig(scenario="drill"))
        html = render_dashboard(result.to_dict())
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "repro monitor" in html
        assert "fault_burst" in html
        # Sparkline SVGs and the alert timeline made it in.
        assert "<svg" in html
        assert "firing" in html
        # Self-contained: no external fetches.
        assert "http://" not in html and "https://" not in html


class TestScenarioPins:
    """Every scenario shape, pinned byte for byte.

    The values were computed once on commit c94b719, before the scenario
    runners became one table, from its ``MonitorResult.to_dict()`` with
    the noisy card ``repro_qos_arbitration_wait_p99`` renamed to
    ``repro_qos_arbitrations_total`` (the metric it plots), then pasted
    here.  ``quick`` covers prim, noisy, paging and drill.
    """

    DIGESTS = {
        "quick": "94874d60ace47cc3c58af86c7fd44306"
                 "f1b007840beb175d99250f6d0737acec",
        "chaos": "671724db717bea0325a1fc87ee4fe985"
                 "ba35071c7313212863ee431354e4d5da",
    }
    QUICK_DASHBOARD = ("d2a72591809016192be694f93e16db0f"
                       "c58e31159bcf9f6d6e14b42a84d0d79a")

    @pytest.mark.parametrize("scenario", sorted(DIGESTS))
    def test_scenario_digest_is_pinned(self, scenario):
        result = run_monitor(MonitorConfig(scenario=scenario))
        assert result.digest() == self.DIGESTS[scenario]
        if scenario == "quick":
            html = render_dashboard(result.to_dict())
            assert (hashlib.sha256(html.encode()).hexdigest()
                    == self.QUICK_DASHBOARD)
