"""The ``repro monitor`` pipeline: scenarios run under live telemetry.

Every other driver in ``repro.analysis`` reports a *final* scorecard;
this one runs the same scenarios with the full telemetry pipeline
attached — the simulated-time :class:`TimeSeriesStore` scraping on a
fixed cadence, tail-based trace retention with histogram exemplars, and
the :class:`AlertRuleEngine` evaluating on every scrape — and reports
*trajectories*: what every series did over simulated time, which alert
rules moved, and which traces explain the worst latency buckets.

Scenarios (``MonitorConfig.scenario``):

- ``prim``: PrIM applications via :func:`run_app_traced`;
- ``noisy``: the seeded noisy-neighbor run — a victim VM runs a fixed
  session schedule and an aggressor flow is registered for exactly one
  mid-run session, producing one provable slow outlier.  The same
  schedule runs three times (full retention / head sampling / head +
  tail) to demonstrate that tail retention keeps the slowest-decile
  trace head sampling drops at the same budget;
- ``paging``: the rank-overcommit experiment with the pipeline attached
  to the paging arm (swap-latency exemplars);
- ``drill``: a deterministic fault drill that drives the fault-burst
  alert rule through pending → firing → resolved;
- ``cluster``: a fleet load-generator scenario scraped on the shared
  cluster clock;
- ``chaos``: the single-host chaos driver with the pipeline attached;
- ``quick``: the composite CI/bench suite — prim + noisy + paging +
  drill — sized to finish fast while still producing at least one
  exemplar on every instrumented latency histogram.

Everything runs on simulated time, so the resulting artifact is
digest-stable across runs at a fixed seed (the ``BENCH_MONITOR.json``
contract).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.observability.alerts import AlertRule, AlertRuleEngine
from repro.observability.critical_path import layer_self_times
from repro.observability.instruments import FAULT, bind
from repro.observability.timeseries import TimeSeriesStore

#: The latency histograms the tentpole instruments with exemplars; the
#: quick suite must produce at least one exemplar on each.
EXEMPLAR_FAMILIES = (
    "repro_frontend_request_seconds",
    "repro_backend_request_seconds",
    "repro_qos_arbitration_wait_seconds",
    "repro_paging_swap_seconds",
)

#: Max points per dashboard sparkline (downsampled deterministically).
SPARKLINE_POINTS = 160


@dataclass
class MonitorConfig:
    """One reproducible monitored run."""

    scenario: str = "quick"
    seed: int = 0
    #: Scrape cadence in simulated seconds (per-scenario overrides in
    #: :data:`SCENARIO_INTERVALS` win when set to None).
    interval: Optional[float] = None
    #: PrIM apps for the prim scenario.
    apps: Tuple[str, ...] = ("VA", "BS")
    nr_dpus: int = 60
    profile: str = "test"
    #: Noisy-neighbor schedule: total victim sessions, the 0-based index
    #: of the contended one, and the head-sampling budget for the
    #: tail-vs-head demonstration.
    noisy_sessions: int = 12
    noisy_slow_index: int = 10
    noisy_sample_rate: float = 0.25
    tail_factor: float = 1.5
    #: Overcommit quick sizing.
    oc_tenants: int = 4
    oc_ranks: int = 2
    oc_rounds: int = 4
    #: Chaos quick sizing.
    chaos_sessions: int = 4
    chaos_horizon_s: float = 1.0
    chaos_rate_per_s: float = 4.0

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ObservabilityError(
                f"unknown monitor scenario {self.scenario!r}; "
                f"known: {sorted(SCENARIOS)}")


#: Default scrape interval per scenario, sized so the quick suite keeps
#: every ring buffer loss-free (the CI gate asserts zero drops).
SCENARIO_INTERVALS: Dict[str, float] = {
    "prim": 1e-3,
    "noisy": 1e-3,
    "paging": 1e-3,
    "drill": 1e-3,
    "cluster": 2e-2,
    "chaos": 5e-3,
}


def default_rules(scenario: str) -> List[AlertRule]:
    """The rule set a monitored scenario evaluates.

    Rules are constructed (and therefore catalog-validated) for every
    scenario; a rule that names an unknown metric raises at this point,
    which is what the CI smoke job turns into a build failure.
    """
    rules = [
        AlertRule(
            name="frontend_p99_slow",
            metric="repro_frontend_request_seconds",
            kind="burn_rate", q=0.99, target=0.5, window=0.5, for_s=0.01,
            bound=1.0, op=">",
            description="frontend p99 request latency burning past 500ms"),
        AlertRule(
            name="fault_burst",
            metric="repro_fault_injected_total",
            kind="threshold", query="delta", op=">", bound=0.0,
            window=0.05, for_s=0.02,
            description="any injected fault within the last 50ms"),
        AlertRule(
            name="scrape_liveness",
            metric="repro_tsdb_scrapes_total",
            kind="absence", window=None, for_s=1.0,
            description="the store itself stopped producing samples"),
    ]
    return rules


class TelemetryPipeline:
    """Store + alert engine + tail sampling, attached to one machine.

    Construction wires everything: the store listens to the clock, the
    engine evaluates after every scrape, and the recorder (when given)
    switches to tail retention with exemplar capture.  Nothing here
    advances the clock.
    """

    def __init__(self, registry, clock, spans=None,
                 interval: float = 1e-3,
                 rules: Optional[List[AlertRule]] = None,
                 extra_registries=(),
                 tail_factor: float = 1.5) -> None:
        self.store = TimeSeriesStore(registry, interval=interval,
                                     extra_registries=extra_registries)
        self.engine = AlertRuleEngine(
            self.store,
            rules if rules is not None else default_rules("quick"),
            registry=registry)
        self.spans = spans
        if spans is not None:
            spans.tail_sampling = True
            spans.tail_factor = tail_factor
            spans.capture_exemplars = True
        self.clock = clock
        clock.add_listener(self._on_tick)
        # Baseline scrape at attach time, so the first real increment of
        # any counter is a visible delta rather than an opening value.
        self._on_tick(clock.now)

    def _on_tick(self, now: float) -> None:
        if self.store.maybe_scrape(now):
            self.engine.evaluate(self.store.last_ts)

    def detach(self) -> None:
        self.clock.remove_listener(self._on_tick)

    def cooldown(self, ticks: int = 120) -> None:
        """Advance the clock ``ticks`` scrape intervals of idle time, so
        windowed alert conditions can clear and resolve.  This is the
        only place the monitor advances time — it is a scenario driver,
        and the cool-down is part of the drill's schedule."""
        for _ in range(ticks):
            self.clock.advance(self.store.interval)


# -- summarization ----------------------------------------------------------

def _downsample(points: List[List[float]],
                limit: int = SPARKLINE_POINTS) -> List[List[float]]:
    if len(points) <= limit:
        return points
    stride = (len(points) + limit - 1) // limit
    sampled = points[::stride]
    if sampled[-1] != points[-1]:
        sampled.append(points[-1])
    return sampled


def _rate_trajectory(store: TimeSeriesStore, name: str) -> List[List[float]]:
    """Per-interval rate of a cumulative counter, for sparklines."""
    raw = store.trajectory(name)
    out: List[List[float]] = []
    for (t0, v0), (t1, v1) in zip(raw, raw[1:]):
        if t1 > t0:
            out.append([t1, (v1 - v0) / (t1 - t0)])
    return _downsample(out)


def _count_trajectory(store: TimeSeriesStore, name: str) -> List[List[float]]:
    """Cumulative value of a counter/gauge over time."""
    return _downsample([[t, v] for t, v in store.trajectory(name)])


def collect_exemplars(registry) -> Dict[str, dict]:
    """Exemplars currently attached to the instrumented histograms."""
    out: Dict[str, dict] = {}
    for family in registry.collect():
        if family.name not in EXEMPLAR_FAMILIES:
            continue
        count = 0
        worst: Optional[dict] = None
        for labels, child in family.samples():
            exemplars = getattr(child, "exemplars", None)
            if not exemplars:
                continue
            count += len(exemplars)
            for exemplar in exemplars.values():
                if worst is None or exemplar.value > worst["value"]:
                    worst = {"trace_id": exemplar.trace_id,
                             "value": exemplar.value, "ts": exemplar.ts,
                             "labels": dict(labels)}
        if count:
            out[family.name] = {"count": count, "worst": worst}
    return out


def top_traces(recorder, k: int = 5) -> List[dict]:
    """The ``k`` slowest retained traces with per-layer breakdowns."""
    ranked = sorted(
        (t for t in recorder.traces
         if t.root is not None and t.root.duration is not None),
        key=lambda t: -t.root.duration)[:k]
    out = []
    for trace in ranked:
        layers = layer_self_times(trace)
        out.append({
            "trace_id": trace.trace_id,
            "root": trace.root.name,
            "duration_s": trace.root.duration,
            "retention": trace.retention,
            "faulted": trace.faulted,
            "spans": len(trace.spans),
            "layers": {layer: seconds
                       for layer, seconds in sorted(layers.items())
                       if seconds > 0},
        })
    return out


@dataclass
class ScenarioTelemetry:
    """What one monitored sub-scenario produced."""

    name: str
    makespan_s: float = 0.0
    scrapes: int = 0
    samples: int = 0
    dropped: int = 0
    series: int = 0
    trajectories: Dict[str, List[List[float]]] = field(default_factory=dict)
    alerts: dict = field(default_factory=dict)
    exemplars: Dict[str, dict] = field(default_factory=dict)
    traces: List[dict] = field(default_factory=list)
    retention_counts: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "makespan_s": self.makespan_s,
            "scrapes": self.scrapes,
            "samples": self.samples,
            "dropped": self.dropped,
            "series": self.series,
            "trajectories": self.trajectories,
            "alerts": self.alerts,
            "exemplars": self.exemplars,
            "traces": self.traces,
            "retention_counts": self.retention_counts,
        }


def _summarize(name: str, pipeline: TelemetryPipeline, registry,
               recorder=None,
               trajectories: Optional[Dict[str, List[List[float]]]] = None,
               makespan_s: float = 0.0) -> ScenarioTelemetry:
    store = pipeline.store
    telemetry = ScenarioTelemetry(
        name=name, makespan_s=makespan_s, scrapes=store.scrapes,
        samples=store.samples_total, dropped=store.dropped_total,
        series=len(store.series),
        trajectories=trajectories or {},
        alerts=pipeline.engine.snapshot(),
        exemplars=collect_exemplars(registry))
    if recorder is not None:
        telemetry.traces = top_traces(recorder)
        counts: Dict[str, int] = {}
        for trace in recorder.traces:
            tier = trace.retention or "none"
            counts[tier] = counts.get(tier, 0) + 1
        telemetry.retention_counts = counts
    return telemetry


# -- scenario runners --------------------------------------------------------

def _interval(config: MonitorConfig, scenario: str) -> float:
    if config.interval is not None:
        return config.interval
    return SCENARIO_INTERVALS[scenario]


def _run_prim(config: MonitorConfig) -> List[ScenarioTelemetry]:
    from repro.analysis.figures import run_app_traced

    out = []
    for app in config.apps:
        holder: dict = {}

        def attach(vpim, _holder=holder) -> None:
            _holder["pipeline"] = TelemetryPipeline(
                vpim.machine.metrics, vpim.clock, spans=vpim.spans,
                interval=_interval(config, "prim"),
                rules=default_rules("prim"),
                tail_factor=config.tail_factor)
            _holder["vpim"] = vpim

        report, registry, recorder = run_app_traced(
            app, config.nr_dpus, mode="vm", profile=config.profile,
            on_vpim=attach)
        pipeline = holder["pipeline"]
        vpim = holder["vpim"]
        # Flush the last partial scrape interval so the trajectory ends
        # at (or past) the run's end.
        pipeline.cooldown(ticks=2)
        pipeline.detach()
        trajectories = {
            "repro_frontend_requests_total":
                _rate_trajectory(pipeline.store,
                                 "repro_frontend_requests_total"),
            "repro_rank_xfer_bytes_total":
                _count_trajectory(pipeline.store,
                                  "repro_rank_xfer_bytes_total"),
        }
        out.append(_summarize(f"prim:{app}", pipeline, registry,
                              recorder=recorder, trajectories=trajectories,
                              makespan_s=vpim.clock.now))
    return out


def _noisy_arm(config: MonitorConfig, sample_rate: float,
               telemetry: bool) -> Tuple[object, object, Optional[
                   TelemetryPipeline]]:
    """One pass of the fixed noisy-neighbor schedule.

    Returns ``(vpim, recorder, pipeline)``; the schedule is identical
    across arms (same seeds, same aggressor window), so trace ids line
    up one-to-one and retention outcomes are directly comparable.
    ``telemetry`` attaches the pipeline, which is what turns tail
    sampling on: the tail arm is the telemetry arm.
    """
    from repro.analysis.figures import machine_config
    from repro.analysis.qos import (
        NOISY_DEMAND, NOISY_MEAN_OP_S, VICTIM_PARAMS,
    )
    from repro.apps.prim.bs import BinarySearch
    from repro.core import VPim
    from repro.qos.config import QosConfig
    from repro.virt.opts import Optimization

    dpus = 8
    vpim = VPim(machine_config(2, dpus_per_rank=dpus))
    recorder = vpim.spans
    recorder.sample_rate = sample_rate
    pipeline = None
    if telemetry:
        pipeline = TelemetryPipeline(
            vpim.machine.metrics, vpim.clock, spans=recorder,
            interval=_interval(config, "noisy"),
            rules=default_rules("noisy"),
            tail_factor=config.tail_factor)
    # The unmanaged regime (enforce=False): contention is modeled but
    # nothing caps it, so the aggressor's head-of-line blocking makes the
    # contended session a genuine outlier (~2.3x) rather than the single
    # bounded WFQ quantum enforcement would allow.
    victim = vpim.vm_session(nr_vupmem=1, opts=Optimization(qos=QosConfig(
        weight=1.0, enforce=False, tenant="victim")))
    noisy_session = None
    for i in range(config.noisy_sessions):
        if i == config.noisy_slow_index:
            # The aggressor appears for exactly this session: its flow
            # registers bus demand at boot and unregisters right after,
            # making session ``i`` the one provable slow outlier.
            noisy_session = vpim.vm_session(
                nr_vupmem=1, opts=Optimization(qos=QosConfig(
                    weight=1.0, enforce=False, tenant="noisy",
                    demand=NOISY_DEMAND, mean_op_s=NOISY_MEAN_OP_S)))
        victim.run(BinarySearch(nr_dpus=dpus, seed=config.seed + i,
                                **VICTIM_PARAMS))
        if i == config.noisy_slow_index and noisy_session is not None:
            noisy_session.vm.qos_flow.close()
    return vpim, recorder, pipeline


def run_tail_demo(config: MonitorConfig) -> Tuple[dict,
                                                  Optional[
                                                      ScenarioTelemetry]]:
    """The tail-vs-head retention demonstration (plus its telemetry).

    Three identically-seeded arms: *reference* (full retention — the
    ground truth for root durations), *head* (systematic head sampling
    at the configured budget), *tail* (same budget plus finish-time tail
    retention).  The claim the bench pins: the slowest-decile trace is
    retained by the tail arm and provably dropped by the head arm.
    """
    ref_vpim, ref_recorder, _ = _noisy_arm(config, sample_rate=1.0,
                                           telemetry=False)
    durations = sorted(
        ((t.root.duration, t.trace_id) for t in ref_recorder.traces
         if t.root is not None and t.root.duration is not None),
        reverse=True)
    if not durations:
        raise ObservabilityError("noisy-neighbor reference retained nothing")
    decile = max(1, len(durations) // 10)
    slowest = [trace_id for _, trace_id in durations[:decile]]

    _, head_recorder, _ = _noisy_arm(config, config.noisy_sample_rate,
                                     telemetry=False)
    tail_vpim, tail_recorder, pipeline = _noisy_arm(
        config, config.noisy_sample_rate, telemetry=True)
    head_ids = {t.trace_id for t in head_recorder.traces}
    tail_ids = {t.trace_id for t in tail_recorder.traces}
    demo = {
        "sessions": config.noisy_sessions,
        "slow_index": config.noisy_slow_index,
        "sample_rate": config.noisy_sample_rate,
        "root_durations": [[tid, dur] for dur, tid in sorted(
            ((d, t) for d, t in durations))],
        "slowest_decile": slowest,
        "head_retained": sorted(head_ids),
        "tail_retained": sorted(tail_ids),
        "slowest_kept_by_tail": all(tid in tail_ids for tid in slowest),
        "slowest_dropped_by_head": all(tid not in head_ids
                                       for tid in slowest),
        "tail_tiers": {
            t.trace_id: t.retention for t in tail_recorder.traces},
    }
    telemetry = None
    if pipeline is not None:
        pipeline.cooldown(ticks=2)
        pipeline.detach()
        telemetry = _summarize(
            "noisy", pipeline, tail_vpim.machine.metrics,
            recorder=tail_recorder,
            trajectories={
                "repro_qos_arbitration_wait_p99":
                    _count_trajectory(
                        pipeline.store, "repro_qos_arbitrations_total"),
                "repro_frontend_requests_total":
                    _rate_trajectory(pipeline.store,
                                     "repro_frontend_requests_total"),
            },
            makespan_s=tail_vpim.clock.now)
    return demo, telemetry


def _run_paging(config: MonitorConfig) -> ScenarioTelemetry:
    from repro.analysis.overcommit import run_overcommit

    holder: dict = {}

    def attach(label: str, vpim) -> None:
        if label != "paging":
            return
        holder["pipeline"] = TelemetryPipeline(
            vpim.machine.metrics, vpim.clock, spans=vpim.spans,
            interval=_interval(config, "paging"),
            rules=default_rules("paging"),
            tail_factor=config.tail_factor)
        holder["vpim"] = vpim

    run_overcommit(tenants=config.oc_tenants,
                   physical_ranks=config.oc_ranks,
                   dpus_per_rank=8, rounds=config.oc_rounds,
                   n_elements=1 << 14, on_vpim=attach)
    pipeline = holder["pipeline"]
    vpim = holder["vpim"]
    pipeline.cooldown(ticks=2)
    pipeline.detach()
    return _summarize(
        "paging", pipeline, vpim.machine.metrics, recorder=vpim.spans,
        trajectories={
            "repro_paging_swap_bytes_total":
                _count_trajectory(pipeline.store,
                                  "repro_paging_swap_bytes_total"),
            "repro_paging_faults_total":
                _count_trajectory(pipeline.store,
                                  "repro_paging_faults_total"),
        },
        makespan_s=vpim.clock.now)


def run_fault_drill(config: MonitorConfig) -> Tuple[dict,
                                                    ScenarioTelemetry]:
    """Drive the fault-burst rule through pending → firing → resolved.

    One session provides background traffic; then the drill fires a
    deterministic burst of ``repro_fault_injected_total`` increments at
    known simulated times and idles long enough for the in-window delta
    to clear — the full alert lifecycle on a fixed simulated schedule.
    """
    from repro.analysis.figures import machine_config
    from repro.apps.prim.va import VectorAdd
    from repro.core import VPim

    vpim = VPim(machine_config(1, dpus_per_rank=8))
    pipeline = TelemetryPipeline(
        vpim.machine.metrics, vpim.clock, spans=vpim.spans,
        interval=_interval(config, "drill"),
        rules=default_rules("drill"),
        tail_factor=config.tail_factor)
    session = vpim.vm_session(nr_vupmem=1)
    session.run(VectorAdd(nr_dpus=8, seed=config.seed, n_elements=1 << 12))
    fault_obs = bind(vpim.machine.metrics, FAULT)
    # Clean warmup so the rule demonstrably starts inactive...
    pipeline.cooldown(ticks=30)
    # ...then a burst spread over several scrape intervals (the hold-down
    # is what turns the first breach into pending rather than firing)...
    for _ in range(8):
        fault_obs.injected["drill"].inc()
        vpim.clock.advance(pipeline.store.interval)
    # ...then silence long enough for the delta window to clear.
    pipeline.cooldown(ticks=120)
    pipeline.detach()
    transitions = [
        {"ts": t.ts, "rule": t.rule, "from": t.from_state,
         "to": t.to_state}
        for t in pipeline.engine.transitions() if t.rule == "fault_burst"
    ]
    visited = [t["to"] for t in transitions]
    drill = {
        "transitions": transitions,
        "visited_pending": "pending" in visited,
        "visited_firing": "firing" in visited,
        "visited_resolved": "resolved" in visited,
    }
    telemetry = _summarize(
        "drill", pipeline, vpim.machine.metrics, recorder=vpim.spans,
        trajectories={
            "repro_fault_injected_total":
                _count_trajectory(pipeline.store,
                                  "repro_fault_injected_total"),
        },
        makespan_s=vpim.clock.now)
    return drill, telemetry


def _run_cluster(config: MonitorConfig) -> ScenarioTelemetry:
    from repro.cluster.loadgen import LoadGenerator, ScenarioConfig

    generator = LoadGenerator(ScenarioConfig(nr_requests=12,
                                             seed=config.seed))
    cluster = generator.cluster
    pipeline = TelemetryPipeline(
        cluster.metrics, cluster.clock, spans=cluster.spans,
        interval=_interval(config, "cluster"),
        rules=default_rules("cluster"),
        extra_registries=[host.metrics for host in cluster.hosts],
        tail_factor=config.tail_factor)
    generator.run()
    pipeline.cooldown(ticks=2)
    pipeline.detach()
    return _summarize(
        "cluster", pipeline, cluster.metrics, recorder=cluster.spans,
        trajectories={
            "repro_cluster_queue_depth":
                _count_trajectory(pipeline.store,
                                  "repro_cluster_queue_depth"),
            "repro_cluster_sessions_completed_total":
                _count_trajectory(
                    pipeline.store,
                    "repro_cluster_sessions_completed_total"),
        },
        makespan_s=cluster.clock.now)


def _run_chaos(config: MonitorConfig) -> ScenarioTelemetry:
    from repro.analysis.chaos import ChaosConfig, run_chaos

    holder: dict = {}

    def attach(vpim) -> None:
        holder["pipeline"] = TelemetryPipeline(
            vpim.machine.metrics, vpim.clock, spans=vpim.spans,
            interval=_interval(config, "chaos"),
            rules=default_rules("chaos"),
            tail_factor=config.tail_factor)
        holder["vpim"] = vpim

    run_chaos(ChaosConfig(nr_ranks=2, dpus_per_rank=8,
                          nr_sessions=config.chaos_sessions,
                          seed=config.seed,
                          horizon_s=config.chaos_horizon_s,
                          fault_rate_per_s=config.chaos_rate_per_s),
              on_vpim=attach)
    pipeline = holder["pipeline"]
    vpim = holder["vpim"]
    pipeline.cooldown(ticks=120)
    pipeline.detach()
    return _summarize(
        "chaos", pipeline, vpim.machine.metrics, recorder=vpim.spans,
        trajectories={
            "repro_fault_injected_total":
                _count_trajectory(pipeline.store,
                                  "repro_fault_injected_total"),
            "repro_fault_recovered_total":
                _count_trajectory(pipeline.store,
                                  "repro_fault_recovered_total"),
        },
        makespan_s=vpim.clock.now)


# -- the result --------------------------------------------------------------

@dataclass
class MonitorResult:
    """Everything one monitored run produced."""

    scenario: str
    seed: int
    scenarios: List[ScenarioTelemetry] = field(default_factory=list)
    tail_demo: Optional[dict] = None
    drill: Optional[dict] = None

    @property
    def dropped_points(self) -> int:
        return sum(s.dropped for s in self.scenarios)

    def exemplar_families(self) -> Dict[str, int]:
        """Exemplar counts aggregated across scenarios, by family."""
        out: Dict[str, int] = {}
        for telemetry in self.scenarios:
            for name, info in telemetry.exemplars.items():
                out[name] = out.get(name, 0) + info["count"]
        return out

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "dropped_points": self.dropped_points,
            "exemplar_families": self.exemplar_families(),
            "scenarios": [s.to_dict() for s in self.scenarios],
            "tail_demo": self.tail_demo,
            "drill": self.drill,
        }

    def digest(self) -> str:
        """sha256 of the canonical JSON form (the determinism contract)."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


SCENARIOS = ("quick", "prim", "noisy", "paging", "drill", "cluster",
             "chaos")


def run_monitor(config: MonitorConfig = MonitorConfig()) -> MonitorResult:
    """Run the configured scenario(s) under the telemetry pipeline."""
    config.validate()
    result = MonitorResult(scenario=config.scenario, seed=config.seed)
    scenario = config.scenario
    if scenario in ("quick", "prim"):
        result.scenarios.extend(_run_prim(config))
    if scenario in ("quick", "noisy"):
        demo, telemetry = run_tail_demo(config)
        result.tail_demo = demo
        if telemetry is not None:
            result.scenarios.append(telemetry)
    if scenario in ("quick", "paging"):
        result.scenarios.append(_run_paging(config))
    if scenario in ("quick", "drill"):
        drill, telemetry = run_fault_drill(config)
        result.drill = drill
        result.scenarios.append(telemetry)
    if scenario == "cluster":
        result.scenarios.append(_run_cluster(config))
    if scenario == "chaos":
        result.scenarios.append(_run_chaos(config))
    return result
