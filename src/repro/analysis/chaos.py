"""Chaos-run scorecards: did the stack survive its fault plan?

Two drivers, mirroring the two blast radii:

- :func:`run_chaos` — one host, one VM, a stream of sessions under an
  armed :class:`~repro.faults.FaultInjector`: rank/transport/backend
  faults fire mid-workload and the recovery paths (transport retries,
  session reruns on replacement ranks) either absorb them or lose the
  session.
- :func:`run_cluster_chaos` — a fleet scenario with host crashes: the
  scheduler evicts and re-places every tenant of a dead host.

Both return the injector's canonical fired-fault timeline (and its
sha256 digest) plus a ``repro_fault_*`` metric snapshot, which is the
replay contract ``benchmarks/bench_chaos_recovery.py`` asserts: same
seed, same workload -> byte-identical timeline and identical snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig, RankConfig
from repro.core.api import VPim
from repro.errors import ReproError
from repro.faults import FaultInjector, FaultKind, FaultPlan, run_with_recovery
from repro.observability.metrics import HistogramChild, MetricsRegistry

#: Metric families included in the recovery snapshot.
FAULT_METRICS: Tuple[str, ...] = (
    "repro_fault_injected_total",
    "repro_fault_detected_total",
    "repro_fault_recovered_total",
    "repro_fault_recovery_seconds",
    "repro_fault_sessions_lost_total",
    "repro_fault_retries_total",
    "repro_manager_allocation_retries_exhausted_total",
)

#: Fault kinds a single-host VM chaos run draws from by default.
DEFAULT_CHAOS_KINDS: Tuple[str, ...] = (
    "dpu_mram_bitflip",
    "dpu_kernel_fault",
    "rank_offline",
    "rank_degraded",
    "transport_corruption",
    "transport_stall",
    "backend_hang",
)


def fault_metric_snapshot(registries) -> Dict[str, float]:
    """Flatten the fault/recovery series of one or more registries.

    Keys are ``name{label=value,...}``; values are summed across
    registries (a fleet keeps per-host registries plus the control-plane
    one).  Histograms contribute their observation count under the plain
    key and their sum under ``<key>:sum`` so MTTR changes are caught.
    """
    if isinstance(registries, MetricsRegistry):
        registries = [registries]
    out: Dict[str, float] = {}
    for registry in registries:
        for name in FAULT_METRICS:
            if name not in registry:
                continue
            for labels, child in registry.get(name).samples():
                key = name + "{" + ",".join(
                    f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if isinstance(child, HistogramChild):
                    out[key] = out.get(key, 0.0) + child.count
                    out[key + ":sum"] = out.get(key + ":sum", 0.0) + child.sum
                else:
                    out[key] = out.get(key, 0.0) + child.value
    return out


# --------------------------------------------------------------------------
# Single host: sessions under fire
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ChaosConfig:
    """One reproducible single-host chaos run."""

    nr_ranks: int = 3
    dpus_per_rank: int = 8
    app: str = "VA"
    nr_sessions: int = 4
    seed: int = 0
    #: Expected fault events per simulated second over the horizon.
    fault_rate_per_s: float = 1.0
    horizon_s: float = 10.0
    kinds: Tuple[str, ...] = DEFAULT_CHAOS_KINDS
    #: Session-rerun budget per workload item.
    max_attempts: int = 4

    def validate(self) -> None:
        from repro.cluster.loadgen import APP_PARAMS
        if self.nr_ranks <= 0 or self.nr_sessions <= 0:
            raise ReproError("nr_ranks and nr_sessions must be positive")
        if self.app not in APP_PARAMS:
            raise ReproError(
                f"no chaos parameters for app {self.app!r}; "
                f"known: {sorted(APP_PARAMS)}")
        unknown = set(self.kinds) - {k.value for k in FaultKind}
        if unknown:
            raise ReproError(
                f"unknown fault kinds {sorted(unknown)}; "
                f"known: {sorted(k.value for k in FaultKind)}")


@dataclass
class ChaosResult:
    """Scorecard of one :func:`run_chaos` run."""

    config: ChaosConfig
    sessions_run: int = 0
    sessions_recovered: int = 0
    sessions_lost: int = 0
    total_attempts: int = 0
    faults_fired: int = 0
    makespan_s: float = 0.0
    timeline: str = ""
    timeline_digest: str = ""
    metric_snapshot: Dict[str, float] = field(default_factory=dict)

    @property
    def survival_rate(self) -> float:
        if self.sessions_run == 0:
            return 0.0
        return 1.0 - self.sessions_lost / self.sessions_run


def build_plan(config: ChaosConfig) -> FaultPlan:
    """The seeded plan a :class:`ChaosConfig` implies.

    Offline events are capped at ``nr_ranks - 1`` so the scenario stays
    winnable — there is always a replacement rank to recover onto.
    """
    kinds = tuple(FaultKind(name) for name in config.kinds)
    return FaultPlan.generate(
        seed=config.seed, horizon_s=config.horizon_s,
        rate_per_s=config.fault_rate_per_s, kinds=kinds,
        limits={FaultKind.RANK_OFFLINE: max(config.nr_ranks - 1, 0)})


def run_chaos(config: ChaosConfig = ChaosConfig(),
              plan: Optional[FaultPlan] = None,
              on_vpim=None) -> ChaosResult:
    """Run ``nr_sessions`` PrIM sessions on one VM while ``plan`` fires.

    Each session goes through
    :func:`~repro.faults.recovery.run_with_recovery`: transient faults
    are retried by the armed transport, hardware faults cause a rerun
    on a replacement rank, and only exhausted budgets count as lost.

    ``on_vpim``, when given, is called with the freshly built
    :class:`VPim` before any session runs — the telemetry pipeline's
    attachment seam (``repro monitor --scenario chaos``).
    """
    from repro.apps.registry import app_by_short_name
    from repro.cluster.loadgen import APP_PARAMS

    config.validate()
    if plan is None:
        plan = build_plan(config)
    machine_config = MachineConfig(
        host_cores=16, host_dram_bytes=8 << 30,
        ranks=[RankConfig(i, config.dpus_per_rank)
               for i in range(config.nr_ranks)])
    vpim = VPim(machine_config)
    if on_vpim is not None:
        on_vpim(vpim)
    injector = FaultInjector(plan, vpim.clock,
                             registry=vpim.machine.metrics)
    injector.arm_machine(vpim.machine, vpim.manager)
    session = vpim.vm_session(nr_vupmem=1)
    injector.arm_vm(session.vm)

    result = ChaosResult(config=config)
    params = dict(APP_PARAMS[config.app])
    spec = app_by_short_name(config.app)
    for i in range(config.nr_sessions):
        app = spec.cls(nr_dpus=config.dpus_per_rank,
                       seed=config.seed + i, **params)
        result.sessions_run += 1
        try:
            recovery = run_with_recovery(session, app,
                                         max_attempts=config.max_attempts)
        except ReproError:
            result.sessions_lost += 1
            continue
        result.total_attempts += recovery.attempts
        if recovery.recovered:
            result.sessions_recovered += 1
        if not recovery.verified:
            result.sessions_lost += 1

    result.faults_fired = len(injector.fired)
    result.makespan_s = vpim.clock.now
    result.timeline = injector.timeline()
    result.timeline_digest = injector.timeline_digest()
    result.metric_snapshot = fault_metric_snapshot(vpim.machine.metrics)
    return result


# --------------------------------------------------------------------------
# Fleet: host crashes under load
# --------------------------------------------------------------------------

@dataclass
class ClusterChaosResult:
    """Scorecard of one :func:`run_cluster_chaos` run."""

    crashed_hosts: List[str] = field(default_factory=list)
    evicted: int = 0
    completed: int = 0
    submitted: int = 0
    #: Admitted requests that never completed (the crash's real damage).
    sessions_lost: int = 0
    faults_fired: int = 0
    makespan_s: float = 0.0
    timeline: str = ""
    timeline_digest: str = ""
    metric_snapshot: Dict[str, float] = field(default_factory=dict)


def run_cluster_chaos(scenario, plan: FaultPlan,
                      drain_limit: int = 64) -> ClusterChaosResult:
    """Replay a fleet scenario while ``plan``'s host crashes fire.

    The injector arms every host's ranks and polls host-scope events at
    each load-generator event; a crash FAIL-lists the host's ranks and
    the scheduler requeues its tenants ahead of the queue.  After the
    scenario, any still-queued requests are drained onto surviving
    capacity (bounded by ``drain_limit`` placements) so a late crash
    cannot strand re-placements behind an empty event list.
    """
    from repro.cluster.loadgen import LoadGenerator

    generator = LoadGenerator(scenario)
    injector = FaultInjector(plan, generator.cluster.clock,
                             registry=generator.cluster.metrics)
    injector.arm_cluster(generator.cluster, generator.scheduler)
    crashed: List[str] = []
    evicted_total = [0]

    def deliver(gen) -> None:
        before = len(gen.scheduler.queue)
        crashed.extend(injector.fire_host_faults())
        evicted_total[0] += max(0, len(gen.scheduler.queue) - before)

    generator.on_event = deliver
    scenario_result = generator.run()

    # Post-scenario drain: re-place stragglers, complete them instantly.
    scheduler = generator.scheduler
    for _ in range(drain_limit):
        if not scheduler.queue:
            break
        placement = scheduler.try_place_next()
        if placement is None:
            break
        placement.acquire()
        record = generator._records[placement.request.request_id]
        record.outcome = "completed"
        record.host = placement.host.host_id
        scenario_result.completions += 1
        scheduler.release(placement)

    lost = sum(1 for record in scenario_result.records
               if record.outcome == "queued")
    registries = [generator.cluster.metrics] + [
        host.metrics for host in generator.cluster.hosts]
    return ClusterChaosResult(
        crashed_hosts=crashed,
        evicted=evicted_total[0],
        completed=scenario_result.completions,
        submitted=scenario_result.submitted,
        sessions_lost=lost,
        faults_fired=len(injector.fired),
        makespan_s=scenario_result.makespan_s,
        timeline=injector.timeline(),
        timeline_digest=injector.timeline_digest(),
        metric_snapshot=fault_metric_snapshot(registries),
    )


# --------------------------------------------------------------------------
# Report rows
# --------------------------------------------------------------------------

CHAOS_HEADERS = ["sessions", "recovered", "lost", "survival", "faults",
                 "attempts", "makespan s"]


def chaos_rows(result: ChaosResult) -> List[Tuple]:
    """Rows for :func:`repro.analysis.report.format_table`."""
    return [(result.sessions_run, result.sessions_recovered,
             result.sessions_lost, f"{result.survival_rate:.3f}",
             result.faults_fired, result.total_attempts,
             f"{result.makespan_s:.3f}")]


CLUSTER_CHAOS_HEADERS = ["subm", "done", "lost", "crashed", "evicted",
                         "faults", "makespan s"]


def cluster_chaos_rows(result: ClusterChaosResult) -> List[Tuple]:
    return [(result.submitted, result.completed, result.sessions_lost,
             ",".join(result.crashed_hosts) or "-", result.evicted,
             result.faults_fired, f"{result.makespan_s:.3f}")]
