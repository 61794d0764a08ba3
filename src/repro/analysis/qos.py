"""Noisy-neighbor isolation experiment (``repro.qos``, ``docs/qos.md``).

Two VMs share one host: a latency-sensitive *victim* running many small
Binary Search sessions, and a *noisy* tenant hammering the shared host
bus with large Vector Addition transfers.  The experiment runs the same
schedule twice:

- **QoS off** (``QosConfig(enforce=False)``): flows are registered (so
  contention is modeled) but the event loop serves kicks FIFO — every
  victim request can head-of-line block behind a whole in-flight bulk
  operation, and the bus steal is unweighted.
- **QoS on** (``enforce=True``): weighted-fair queueing caps the wait a
  request pays at one service quantum per busy neighbor, and the bus
  steal is weight-proportional.

The quantity under study is the victim's per-session latency
distribution (p99 foremost) and the aggregate throughput cost of
enforcing fairness — the classic isolation-vs-utilization trade, shown
here to be nearly free because fair queueing only reorders waits.

:func:`run_slo_demo` extends the experiment with the declarative SLO
layer: the victim declares a latency objective, the tracker measures
burn, and the enforcer actuates a weight boost mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.analysis.figures import machine_config
from repro.analysis.report import format_table
from repro.apps.prim.bs import BinarySearch
from repro.apps.prim.va import VectorAdd
from repro.core import VPim
from repro.observability.stats import percentile_nearest_rank
from repro.qos.config import QosConfig
from repro.qos.slo import SloEnforcer, SloObjective, SloTracker
from repro.virt.opts import Optimization

#: The victim's small, latency-sensitive job (many tiny roundtrips).
VICTIM_PARAMS = dict(n_elements=1 << 12, n_queries=1 << 8)
#: The noisy tenant's bulk job (large transfers occupying the bus).
NOISY_PARAMS = dict(n_elements=1 << 21)
#: The noisy tenant's declared offered load and typical op occupancy —
#: a tenant that keeps the bus permanently busy with multi-ms transfers.
NOISY_DEMAND = 1.0
NOISY_MEAN_OP_S = 5e-3


@dataclass
class ArmResult:
    """One arm (QoS off or on) of the noisy-neighbor experiment."""

    enforce: bool
    victim_latencies: List[float] = field(default_factory=list)
    noisy_latencies: List[float] = field(default_factory=list)
    makespan_s: float = 0.0

    @property
    def victim_p99(self) -> float:
        return percentile_nearest_rank(self.victim_latencies, 99)

    @property
    def victim_p50(self) -> float:
        return percentile_nearest_rank(self.victim_latencies, 50)

    @property
    def victim_mean(self) -> float:
        lat = self.victim_latencies
        return sum(lat) / len(lat) if lat else 0.0

    @property
    def sessions(self) -> int:
        return len(self.victim_latencies) + len(self.noisy_latencies)

    @property
    def throughput_per_s(self) -> float:
        """Completed sessions (victim + noisy) per simulated second."""
        if self.makespan_s <= 0:
            return 0.0
        return self.sessions / self.makespan_s


@dataclass
class IsolationResult:
    """Both arms plus the derived isolation scorecard."""

    off: ArmResult
    on: ArmResult

    @property
    def p99_improvement(self) -> float:
        """How much QoS shrinks the victim's p99 (>1 = better)."""
        if self.on.victim_p99 <= 0:
            return float("inf")
        return self.off.victim_p99 / self.on.victim_p99

    @property
    def throughput_ratio(self) -> float:
        """Aggregate throughput with QoS on vs off (1.0 = free isolation)."""
        if self.off.throughput_per_s <= 0:
            return 0.0
        return self.on.throughput_per_s / self.off.throughput_per_s


def _run_arm(enforce: bool, sessions: int, dpus_per_rank: int,
             victim_weight: float = 1.0) -> ArmResult:
    """One arm: boot both VMs, interleave victim/noisy sessions."""
    vpim = VPim(machine_config(2, dpus_per_rank=dpus_per_rank))
    victim = vpim.vm_session(nr_vupmem=1, opts=Optimization(qos=QosConfig(
        weight=victim_weight, enforce=enforce, tenant="victim")))
    noisy = vpim.vm_session(nr_vupmem=1, opts=Optimization(qos=QosConfig(
        weight=1.0, enforce=enforce, tenant="noisy",
        demand=NOISY_DEMAND, mean_op_s=NOISY_MEAN_OP_S)))

    arm = ArmResult(enforce=enforce)
    start = vpim.clock.now
    for seed in range(sessions):
        rep = noisy.run(VectorAdd(nr_dpus=dpus_per_rank, seed=seed,
                                  **NOISY_PARAMS))
        assert rep.verified
        arm.noisy_latencies.append(rep.segments_total)
        rep = victim.run(BinarySearch(nr_dpus=dpus_per_rank, seed=seed,
                                      **VICTIM_PARAMS))
        assert rep.verified
        # Execution latency (the four app segments, what Fig. 8 plots):
        # allocation/load are constant per session and would only dilute
        # the quantity under study, the cross-VM interference.
        arm.victim_latencies.append(rep.segments_total)
    arm.makespan_s = vpim.clock.now - start
    return arm


def run_isolation(sessions: int = 12,
                  dpus_per_rank: int = 60) -> IsolationResult:
    """The full experiment: identical schedules, QoS off vs on."""
    return IsolationResult(
        off=_run_arm(False, sessions, dpus_per_rank),
        on=_run_arm(True, sessions, dpus_per_rank),
    )


def isolation_table(result: IsolationResult) -> str:
    """Human-readable scorecard (the CLI demo and bench report body)."""
    rows = []
    for label, arm in (("QoS off (FIFO)", result.off),
                       ("QoS on (WFQ)", result.on)):
        rows.append((
            label,
            f"{arm.victim_p50 * 1e3:.2f}",
            f"{arm.victim_p99 * 1e3:.2f}",
            f"{arm.victim_mean * 1e3:.2f}",
            f"{arm.throughput_per_s:.1f}",
        ))
    table = format_table(
        ["arm", "victim p50 ms", "victim p99 ms", "victim mean ms",
         "sessions/s"],
        rows, title="Noisy neighbor: victim session latency")
    return (f"{table}\n\n"
            f"victim p99 improvement: {result.p99_improvement:.1f}x   "
            f"aggregate throughput ratio (on/off): "
            f"{result.throughput_ratio:.2f}")


@dataclass
class SloDemoResult:
    """What the SLO walkthrough produced."""

    objective_p99_s: float
    burn_before: float
    burn_after: float
    weight_before: float
    weight_after: float
    actions: List[str] = field(default_factory=list)
    latencies_before: List[float] = field(default_factory=list)
    latencies_after: List[float] = field(default_factory=list)


def run_slo_demo(sessions: int = 8,
                 dpus_per_rank: int = 60,
                 objective_p99_s: float = 5e-3) -> SloDemoResult:
    """SLO enforcement end to end on one host.

    The victim starts at weight 1 under enforcement; its declared p99
    objective burns hot against the noisy neighbor, and the enforcer's
    first actuation boosts the victim's weight — visible as a burn-rate
    drop over the following sessions.
    """
    vpim = VPim(machine_config(2, dpus_per_rank=dpus_per_rank))
    victim = vpim.vm_session(nr_vupmem=1, opts=Optimization(qos=QosConfig(
        weight=1.0, enforce=True, tenant="victim")))
    noisy = vpim.vm_session(nr_vupmem=1, opts=Optimization(qos=QosConfig(
        weight=1.0, enforce=True, tenant="noisy",
        demand=NOISY_DEMAND, mean_op_s=NOISY_MEAN_OP_S,
        bytes_per_s=512 << 20)))

    objective = SloObjective(tenant="victim", latency_p99_s=objective_p99_s,
                             window=sessions)
    tracker = SloTracker(metrics=vpim.machine.metrics)
    enforcer = SloEnforcer(tracker, (objective,),
                           metrics=vpim.machine.metrics)
    victim_flow = victim.vm.qos_flow
    noisy_flow = noisy.vm.qos_flow
    enforcer.bind("victim", victim_flow)
    enforcer.bind("noisy", noisy_flow)

    demo = SloDemoResult(objective_p99_s=objective_p99_s,
                         burn_before=0.0, burn_after=0.0,
                         weight_before=victim_flow.weight,
                         weight_after=victim_flow.weight)

    def one_round(sink: List[float], seed: int) -> None:
        rep = noisy.run(VectorAdd(nr_dpus=dpus_per_rank, seed=seed,
                                  **NOISY_PARAMS))
        assert rep.verified
        rep = victim.run(BinarySearch(nr_dpus=dpus_per_rank, seed=seed,
                                      **VICTIM_PARAMS))
        assert rep.verified
        sink.append(rep.segments_total)
        tracker.observe_session("victim", rep.segments_total)

    for seed in range(sessions):
        one_round(demo.latencies_before, seed)
    demo.burn_before = tracker.burn_rate(objective)
    actions = enforcer.evaluate()
    demo.actions = [f"{a.action}: {a.detail}" for a in actions]
    demo.weight_after = victim_flow.weight

    for seed in range(sessions):
        one_round(demo.latencies_after, sessions + seed)
    demo.burn_after = tracker.burn_rate(objective)
    return demo


def slo_demo_report(demo: SloDemoResult) -> str:
    """Human-readable SLO walkthrough."""
    lines = [
        f"objective: victim session p99 <= {demo.objective_p99_s * 1e3:.1f} ms",
        f"burn rate before actuation: {demo.burn_before:.2f} "
        f"(weight {demo.weight_before:.0f})",
    ]
    for action in demo.actions:
        lines.append(f"actuation: {action}")
    lines.append(
        f"burn rate after actuation:  {demo.burn_after:.2f} "
        f"(weight {demo.weight_after:.0f})")
    mean_before = (sum(demo.latencies_before)
                   / max(1, len(demo.latencies_before)))
    mean_after = (sum(demo.latencies_after)
                  / max(1, len(demo.latencies_after)))
    lines.append(
        f"victim mean session latency: {mean_before * 1e3:.2f} ms -> "
        f"{mean_after * 1e3:.2f} ms")
    return "\n".join(lines)
