"""Chaos replay contract: deterministic faults, invisible when unarmed.

Three properties back the ``repro.faults`` design:

- **Replay**: the same seed produces a byte-identical fault timeline
  (equal sha256 digests) and an identical ``repro_fault_*`` metric
  snapshot — faults are plan-driven, never wall-clock- or
  iteration-order-driven.
- **Zero unarmed overhead**: a run with *no* plan armed produces the
  exact same simulated durations and verification results as the
  no-faults baseline, so every published figure is unaffected by the
  subsystem existing.
- **Recovery**: sessions survive rank failures by re-running on
  replacement ranks (``sessions_lost == 0``).
"""

from repro.analysis.chaos import ChaosConfig, run_chaos
from repro.analysis.figures import machine_for_dpus
from repro.analysis.report import format_table
from repro.apps.prim.va import VectorAdd
from repro.core import VPim
from repro.faults import FaultInjector, FaultKind, FaultPlan

CHAOS = ChaosConfig(seed=3, fault_rate_per_s=6.0, nr_sessions=6)


def bench_same_seed_identical_timeline(once):
    def experiment():
        return run_chaos(CHAOS), run_chaos(CHAOS)

    first, second = once(experiment)
    assert first.timeline == second.timeline
    assert first.timeline_digest == second.timeline_digest
    assert first.metric_snapshot == second.metric_snapshot
    assert first.faults_fired > 0, "chaos run fired no faults"
    assert first.sessions_lost == 0
    rows = [(run, res.timeline_digest[:16], res.faults_fired,
             res.sessions_lost, f"{res.makespan_s:.4f}")
            for run, res in (("first", first), ("second", second))]
    print()
    print(format_table(
        ["run", "digest[:16]", "faults", "lost", "makespan s"], rows,
        title=f"Same-seed replay (seed={CHAOS.seed})"))


def _baseline_run(armed_empty_plan: bool):
    vpim = VPim(machine_for_dpus(16))
    if armed_empty_plan:
        injector = FaultInjector(FaultPlan(seed=0), vpim.clock,
                                 registry=vpim.machine.metrics)
        injector.arm_machine(vpim.machine, vpim.manager)
    session = vpim.vm_session(nr_vupmem=1)
    if armed_empty_plan:
        injector.arm_vm(session.vm)
    report = session.run(VectorAdd(nr_dpus=16, n_elements=1 << 16))
    return report, vpim.clock.now


def bench_unarmed_matches_baseline(once):
    def experiment():
        return _baseline_run(False), _baseline_run(True)

    (plain, plain_now), (armed, armed_now) = once(experiment)
    assert plain.verified and armed.verified
    assert plain.segments == armed.segments, (
        "an armed-but-empty fault plan changed the figures")
    assert plain_now == armed_now
    rows = [("no injector", f"{plain.segments_total * 1e3:.6f}",
             f"{plain_now:.9f}"),
            ("empty plan armed", f"{armed.segments_total * 1e3:.6f}",
             f"{armed_now:.9f}")]
    print()
    print(format_table(["setup", "segments ms", "clock s"], rows,
                       title="Zero unarmed overhead"))


def bench_rank_offline_recovers(once):
    """A rank dies mid-run; the session completes on a replacement."""
    def experiment():
        config = ChaosConfig(seed=3, nr_sessions=2, fault_rate_per_s=0.0)
        plan = FaultPlan(seed=config.seed)
        plan.add(1e-4, FaultKind.RANK_OFFLINE, "rank:*")
        return run_chaos(config, plan=plan)

    result = once(experiment)
    assert result.faults_fired == 1
    assert result.sessions_recovered >= 1, "no session re-ran after the loss"
    assert result.sessions_lost == 0
    print()
    print(f"\nrank offline at t=1e-4: {result.sessions_run} sessions, "
          f"{result.sessions_recovered} recovered on replacement ranks, "
          f"{result.sessions_lost} lost")


def bench_generated_plan_is_stable(once):
    """FaultPlan.generate is a pure function of its seed."""
    def experiment():
        kinds = tuple(FaultKind(name) for name in CHAOS.kinds)
        plans = [FaultPlan.generate(seed=11, horizon_s=20.0, rate_per_s=2.0,
                                    kinds=kinds) for _ in range(2)]
        return plans

    first, second = once(experiment)
    assert [e.describe() for e in first.events] \
        == [e.describe() for e in second.events]
    assert len(first.events) > 0
    print(f"\ngenerated plan: {len(first.events)} events, stable across "
          "regenerations")
