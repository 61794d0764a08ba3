"""The ``repro monitor`` pipeline: scenarios run under live telemetry.

Every other driver in ``repro.analysis`` reports a *final* scorecard;
this one runs the same scenarios with the full telemetry pipeline
attached — the simulated-time :class:`TimeSeriesStore` scraping on a
fixed cadence, tail-based trace retention with histogram exemplars, and
the :class:`AlertRuleEngine` evaluating on every scrape — and reports
*trajectories*: what every series did over simulated time, which alert
rules moved, and which traces explain the worst latency buckets.

Scenarios (``MonitorConfig.scenario``), one row each in :data:`ROWS`:

- ``prim``: PrIM applications via :func:`run_app_traced`;
- ``noisy``: the seeded noisy-neighbor run — a victim VM runs a fixed
  session schedule and an aggressor flow is registered for exactly one
  mid-run session, producing one provable slow outlier.  The same
  schedule runs three times (full retention / head sampling / head +
  tail) to demonstrate that tail retention keeps the slowest-decile
  trace head sampling drops at the same budget;
- ``paging``: the paging arm of the rank-overcommit experiment
  (swap-latency exemplars);
- ``drill``: a deterministic fault drill that drives the fault-burst
  alert rule through pending → firing → resolved;
- ``chaos``: the single-host chaos driver with the pipeline attached;
- ``quick``: the composite CI/bench suite — prim + noisy + paging +
  drill — sized to finish fast while still producing at least one
  exemplar on every instrumented latency histogram.

Every scenario takes one path (:func:`_observe`): its driver builds and
runs a machine and calls ``attach`` once; then the clock
idles for the row's cool-down, the pipeline detaches and the run is
summarized.  Schedules (cool-downs, the drill's warm-up and burst) are
simulated seconds, advanced in whole scrape intervals, so a finer
``interval`` samples the same schedule more densely.

Everything runs on simulated time, so the resulting artifact is
digest-stable across runs at a fixed seed (the ``BENCH_MONITOR.json``
contract).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.observability.alerts import AlertRule, AlertRuleEngine
from repro.observability.critical_path import layer_self_times
from repro.observability.catalog import FAULT, bind
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

#: Tail retention keeps a root slower than this many times its layer's
#: decayed baseline.
TAIL_FACTOR = 1.5

#: ``prim``: the PrIM apps it runs, on this many DPUs each.
PRIM_APPS = ("VA", "BS")
PRIM_DPUS = 60
#: ``noisy``: victim sessions, the 0-based index of the contended one,
#: and the head-sampling budget of the tail-vs-head demonstration.
NOISY_SESSIONS = 12
NOISY_SLOW_INDEX = 10
NOISY_SAMPLE_RATE = 0.25
#: ``drill`` (simulated seconds): a clean warm-up, then DRILL_BURST
#: injected faults DRILL_GAP_S apart; the row's cool-down follows.
DRILL_WARMUP_S = 0.03
DRILL_BURST = 8
DRILL_GAP_S = 1e-3


@dataclass
class MonitorConfig:
    """One reproducible monitored run."""

    scenario: str = "quick"
    seed: int = 0
    #: Scrape cadence in simulated seconds; None takes the scenario
    #: row's own (:data:`ROWS`).
    interval: Optional[float] = None

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ObservabilityError(
                f"unknown monitor scenario {self.scenario!r}; "
                f"known: {sorted(SCENARIOS)}")


def default_rules() -> List[AlertRule]:
    """The rule set every monitored scenario evaluates.

    Construction validates each rule against the catalog: a rule that
    names an unknown metric raises here, which is what the CI smoke job
    turns into a build failure.
    """
    return [
        AlertRule(
            name="frontend_p99_slow",
            metric="repro_frontend_request_seconds",
            kind="burn_rate", q=0.99, target=0.5, window=0.5, for_s=0.01,
            bound=1.0,
            description="frontend p99 request latency burning past 500ms"),
        AlertRule(
            name="fault_burst",
            metric="repro_fault_injected_total",
            kind="threshold", bound=0.0, window=0.05, for_s=0.02,
            description="any injected fault within the last 50ms"),
        AlertRule(
            name="scrape_liveness",
            metric="repro_tsdb_scrapes_total",
            kind="absence", window=None, for_s=1.0,
            description="the store itself stopped producing samples"),
    ]


class TelemetryPipeline:
    """Store + alert engine + tail sampling, attached to one machine.

    Construction wires everything: the pipeline is the clock's listener
    and the store's only driver (scrape, then evaluate), and the
    recorder (when given) switches to tail retention with exemplar
    capture.  Only :meth:`cooldown` advances the clock.
    """

    def __init__(self, registry, clock, spans=None,
                 interval: float = 1e-3) -> None:
        self.store = TimeSeriesStore(registry, interval=interval)
        self.engine = AlertRuleEngine(self.store, default_rules(),
                                      registry=registry)
        self.spans = spans
        if spans is not None:
            spans.tail_sampling = True
            spans.tail_factor = TAIL_FACTOR
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

    def cooldown(self, ticks: int) -> None:
        """Advance the clock ``ticks`` scrape intervals of idle time, so
        windowed alert conditions can clear and resolve."""
        for _ in range(ticks):
            self.clock.advance(self.store.interval)


def _idle(pipeline: TelemetryPipeline, seconds: float) -> None:
    """Idle ``seconds`` of simulated time in whole scrape intervals (at
    least one, so the last partial interval is always scraped)."""
    pipeline.cooldown(max(1, round(seconds / pipeline.store.interval)))


# -- summarization ----------------------------------------------------------

def _trajectory(store: TimeSeriesStore, name: str,
                how: str) -> List[List[float]]:
    """A sparkline card's points: a counter's per-interval ``rate``, or
    the series' ``value`` over time; at most :data:`SPARKLINE_POINTS`."""
    raw = store.trajectory(name)
    if how == "rate":
        points = [[t1, (v1 - v0) / (t1 - t0)]
                  for (t0, v0), (t1, v1) in zip(raw, raw[1:]) if t1 > t0]
    else:
        points = [[t, v] for t, v in raw]
    if len(points) <= SPARKLINE_POINTS:
        return points
    stride = (len(points) + SPARKLINE_POINTS - 1) // SPARKLINE_POINTS
    sampled = points[::stride]
    if sampled[-1] != points[-1]:
        sampled.append(points[-1])
    return sampled


def collect_exemplars(registry) -> Dict[str, dict]:
    """Exemplars currently attached to the instrumented histograms."""
    out: Dict[str, dict] = {}
    for family in registry.collect():
        if family.name not in EXEMPLAR_FAMILIES:
            continue
        count = 0
        worst: Optional[dict] = None
        for labels, child in family.samples():
            if not child.exemplars:
                continue
            count += len(child.exemplars)
            exemplar = child.worst_exemplar()
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
    makespan_s: float
    scrapes: int
    samples: int
    dropped: int
    series: int
    trajectories: Dict[str, List[List[float]]]
    alerts: dict
    exemplars: Dict[str, dict]
    traces: List[dict]
    retention_counts: Dict[str, int]


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
            "scenarios": [asdict(s) for s in self.scenarios],
            "tail_demo": self.tail_demo,
            "drill": self.drill,
        }

    def digest(self) -> str:
        """sha256 of the canonical JSON form (the determinism contract)."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def _observe(result: MonitorResult, row: "Scenario", interval: float,
             name: str, drive: Callable) -> Tuple[object, ScenarioTelemetry]:
    """The one path every scenario takes.

    ``drive(attach)`` builds and runs one machine and calls
    ``attach(machine)`` once, before its first session (anything with
    ``metrics``, ``clock`` and ``spans`` will do).  Then the
    clock idles the row's cool-down, the pipeline detaches, and the run
    is summarized into ``result``.  Returns ``drive``'s value and the
    summary.
    """
    pipeline: Optional[TelemetryPipeline] = None

    def attach(target) -> TelemetryPipeline:
        nonlocal pipeline
        pipeline = TelemetryPipeline(
            target.metrics, target.clock, spans=target.spans,
            interval=interval)
        return pipeline

    value = drive(attach)
    _idle(pipeline, row.cooldown_s)
    pipeline.detach()
    store, spans = pipeline.store, pipeline.spans
    telemetry = ScenarioTelemetry(
        name=name, makespan_s=pipeline.clock.now, scrapes=store.scrapes,
        samples=store.samples_total, dropped=store.dropped_total,
        series=len(store.series),
        trajectories={metric: _trajectory(store, metric, how)
                      for metric, how in row.cards},
        alerts=pipeline.engine.snapshot(),
        exemplars=collect_exemplars(store.registry),
        traces=top_traces(spans),
        retention_counts=dict(Counter(
            trace.retention or "none" for trace in spans.traces)))
    result.scenarios.append(telemetry)
    return value, telemetry


# -- scenario drivers ---------------------------------------------------------
#
# Each takes ``(seed, observe, result)``: ``observe(name, drive)`` is
# :func:`_observe` bound to the run's result, row and cadence.

def _prim(seed: int, observe, result: MonitorResult) -> None:
    from repro.analysis.figures import run_app_traced

    for app in PRIM_APPS:
        observe(f"prim:{app}", lambda attach: run_app_traced(
            app, PRIM_DPUS, on_vpim=lambda vpim: attach(vpim.machine)))


def _noisy_arm(seed: int, sample_rate: float, attach=None):
    """One pass of the fixed noisy-neighbor schedule; returns its recorder.

    The schedule is identical across arms (same seeds, same aggressor
    window), so trace ids line up one-to-one and retention outcomes are
    directly comparable.  ``attach`` is what turns tail sampling on: the
    tail arm is the telemetry arm.
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
    vpim.spans.sample_rate = sample_rate
    if attach is not None:
        attach(vpim.machine)
    # The unmanaged regime (enforce=False): contention is modeled but
    # nothing caps it, so the aggressor's head-of-line blocking makes the
    # contended session a genuine outlier (~2.3x) rather than the single
    # bounded WFQ quantum enforcement would allow.
    victim = vpim.vm_session(nr_vupmem=1, opts=Optimization(qos=QosConfig(
        weight=1.0, enforce=False, tenant="victim")))
    for i in range(NOISY_SESSIONS):
        if i == NOISY_SLOW_INDEX:
            # The aggressor appears for exactly this session: its flow
            # registers bus demand at boot and unregisters right after,
            # making session ``i`` the one provable slow outlier.
            noisy_session = vpim.vm_session(
                nr_vupmem=1, opts=Optimization(qos=QosConfig(
                    weight=1.0, enforce=False, tenant="noisy",
                    demand=NOISY_DEMAND, mean_op_s=NOISY_MEAN_OP_S)))
        victim.run(BinarySearch(nr_dpus=dpus, seed=seed + i,
                                **VICTIM_PARAMS))
        if i == NOISY_SLOW_INDEX:
            noisy_session.vm.qos_flow.close()
    return vpim.spans


def _noisy(seed: int, observe, result: MonitorResult) -> None:
    """The tail-vs-head retention demonstration (plus its telemetry).

    Three identically-seeded arms: *reference* (full retention — the
    ground truth for root durations), *head* (systematic head sampling
    at :data:`NOISY_SAMPLE_RATE`), *tail* (same budget plus finish-time
    tail retention).  The claim the bench pins: the slowest-decile trace
    is retained by the tail arm and provably dropped by the head arm.
    """
    reference = _noisy_arm(seed, 1.0)
    durations = sorted(
        ((t.root.duration, t.trace_id) for t in reference.traces
         if t.root is not None and t.root.duration is not None),
        reverse=True)
    if not durations:
        raise ObservabilityError("noisy-neighbor reference retained nothing")
    slowest = [trace_id for _, trace_id in
               durations[:max(1, len(durations) // 10)]]
    head = _noisy_arm(seed, NOISY_SAMPLE_RATE)
    tail, _ = observe("noisy", lambda attach: _noisy_arm(
        seed, NOISY_SAMPLE_RATE, attach))
    head_ids = {t.trace_id for t in head.traces}
    tail_ids = {t.trace_id for t in tail.traces}
    result.tail_demo = {
        "sessions": NOISY_SESSIONS,
        "slow_index": NOISY_SLOW_INDEX,
        "sample_rate": NOISY_SAMPLE_RATE,
        "root_durations": [[tid, dur] for dur, tid in sorted(durations)],
        "slowest_decile": slowest,
        "head_retained": sorted(head_ids),
        "tail_retained": sorted(tail_ids),
        "slowest_kept_by_tail": all(tid in tail_ids for tid in slowest),
        "slowest_dropped_by_head": all(tid not in head_ids
                                       for tid in slowest),
        "tail_tiers": {t.trace_id: t.retention for t in tail.traces},
    }


def _paging(seed: int, observe, result: MonitorResult) -> None:
    from repro.analysis.overcommit import run_arm

    observe("paging", lambda attach: run_arm(
        "paging", tenants=4, physical_ranks=2, dpus_per_rank=8, rounds=4,
        n_elements=1 << 14, overcommit_ratio=2.0,
        on_vpim=lambda vpim: attach(vpim.machine)))


def _drill(seed: int, observe, result: MonitorResult) -> None:
    """Drive the fault-burst rule through pending → firing → resolved.

    One session provides background traffic; then, after a clean
    warm-up, the drill fires a burst of ``repro_fault_injected_total``
    increments at known simulated times, and the row's cool-down idles
    long enough for the in-window delta to clear — the full alert
    lifecycle on a fixed simulated schedule, whatever the cadence.
    """
    from repro.analysis.figures import machine_config
    from repro.apps.prim.va import VectorAdd
    from repro.core import VPim

    def drive(attach) -> None:
        vpim = VPim(machine_config(1, dpus_per_rank=8))
        pipeline = attach(vpim.machine)
        vpim.vm_session(nr_vupmem=1).run(
            VectorAdd(nr_dpus=8, seed=seed, n_elements=1 << 12))
        faults = bind(vpim.machine.metrics, FAULT)
        _idle(pipeline, DRILL_WARMUP_S)
        # The hold-down is what turns the first breach into pending
        # rather than firing.
        for _ in range(DRILL_BURST):
            faults.injected["drill"].inc()
            _idle(pipeline, DRILL_GAP_S)

    _, telemetry = observe("drill", drive)
    (rule,) = [r for r in telemetry.alerts["rules"]
               if r["name"] == "fault_burst"]
    transitions = [{"ts": t["ts"], "rule": rule["name"], "from": t["from"],
                    "to": t["to"]} for t in rule["transitions"]]
    visited = {t["to"] for t in transitions}
    result.drill = {
        "transitions": transitions,
        "visited_pending": "pending" in visited,
        "visited_firing": "firing" in visited,
        "visited_resolved": "resolved" in visited,
    }


def _chaos(seed: int, observe, result: MonitorResult) -> None:
    from repro.analysis.chaos import ChaosConfig, run_chaos

    observe("chaos", lambda attach: run_chaos(
        ChaosConfig(nr_ranks=2, dpus_per_rank=8, nr_sessions=4, seed=seed,
                    horizon_s=1.0, fault_rate_per_s=4.0),
        on_vpim=lambda vpim: attach(vpim.machine)))


# -- the scenario table -------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One row of the scenario table."""

    driver: Callable
    #: Default scrape cadence (simulated seconds), sized so the quick
    #: suite keeps every ring buffer loss-free (the CI gate asserts
    #: zero drops).
    interval: float
    #: Idle time after the run (simulated seconds): the last partial
    #: interval gets scraped and windowed alerts can clear.
    cooldown_s: float
    #: Sparkline cards, ``(metric, "rate" | "value")``; each card is
    #: titled by the metric it plots.
    cards: Tuple[Tuple[str, str], ...]


ROWS: Dict[str, Scenario] = {
    "prim": Scenario(_prim, 1e-3, 2e-3, (
        ("repro_frontend_requests_total", "rate"),
        ("repro_rank_xfer_bytes_total", "value"))),
    "noisy": Scenario(_noisy, 1e-3, 2e-3, (
        ("repro_qos_arbitrations_total", "value"),
        ("repro_frontend_requests_total", "rate"))),
    "paging": Scenario(_paging, 1e-3, 2e-3, (
        ("repro_paging_swap_bytes_total", "value"),
        ("repro_paging_faults_total", "value"))),
    "drill": Scenario(_drill, 1e-3, 0.12, (
        ("repro_fault_injected_total", "value"),)),
    "chaos": Scenario(_chaos, 5e-3, 0.6, (
        ("repro_fault_injected_total", "value"),
        ("repro_fault_recovered_total", "value"))),
}

#: The composite CI/bench suite, in run order.
QUICK = ("prim", "noisy", "paging", "drill")

#: Every ``--scenario`` choice.
SCENARIOS = ("quick", *ROWS)


def run_monitor(config: MonitorConfig = MonitorConfig()) -> MonitorResult:
    """Run the configured scenario(s) under the telemetry pipeline."""
    config.validate()
    result = MonitorResult(scenario=config.scenario, seed=config.seed)
    for name in QUICK if config.scenario == "quick" else (config.scenario,):
        row = ROWS[name]
        interval = row.interval if config.interval is None else config.interval
        row.driver(config.seed, partial(_observe, result, row, interval),
                   result)
    return result
