"""FaultInjector: events fire at the right seam, with the right effect."""

import pytest

from repro.apps.prim.va import VectorAdd
from repro.config import small_machine
from repro.core import VPim
from repro.errors import DpuFaultError, RankOfflineError
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.hardware.rank import CiCommand, RankHealth
from repro.virt.manager import RankState

from tests.faults.conftest import schedule

APP = dict(nr_dpus=8, n_elements=1 << 12)


class TestRankSeam:
    def test_mram_bitflip_is_silent_corruption(self, armed):
        vpim, injector, _ = armed
        rank = vpim.machine.ranks[0]
        rank.dpus[0].mram.write(0, bytes([0x00]))
        schedule(injector, 0.0, FaultKind.DPU_MRAM_BITFLIP, "rank:0",
                 dpu=0, offset=0, bit=3)
        # Any guarded rank operation fires the due event — no exception.
        rank.execute_ci(CiCommand.STATUS)
        assert rank.dpus[0].mram.read(0, 1)[0] == 0x08
        assert injector.fired[0].kind is FaultKind.DPU_MRAM_BITFLIP
        assert ("bit", 3) in injector.fired[0].params

    def test_kernel_fault_waits_for_a_launch(self, armed):
        vpim, injector, session = armed
        schedule(injector, 0.0, FaultKind.DPU_KERNEL_FAULT, "rank:*")
        # Non-launch operations leave the event pending.
        vpim.machine.ranks[0].execute_ci(CiCommand.STATUS)
        assert injector.pending
        with pytest.raises(DpuFaultError, match="injected kernel fault"):
            session.run(VectorAdd(**APP))
        assert not injector.pending
        assert vpim.machine.metrics.value(
            "repro_fault_detected_total",
            kind="dpu_kernel_fault", layer="hardware") == 1

    def test_rank_offline_marks_manager_fail(self, armed):
        vpim, injector, session = armed
        schedule(injector, 0.0, FaultKind.RANK_OFFLINE, "rank:*")
        with pytest.raises(RankOfflineError, match="offline"):
            session.run(VectorAdd(**APP))
        failed = vpim.manager.failed_ranks()
        assert len(failed) == 1
        idx = failed[0]
        assert vpim.machine.ranks[idx].health is RankHealth.OFFLINE
        assert vpim.manager.rank_table[idx].state is RankState.FAIL
        assert injector.fired[0].target == f"rank:{idx}"

    def test_rank_degraded_slows_guarded_operations(self, armed):
        vpim, injector, _ = armed
        rank = vpim.machine.ranks[0]
        baseline = rank.execute_ci(CiCommand.STATUS)
        schedule(injector, 0.0, FaultKind.RANK_DEGRADED, "rank:0",
                 factor=8.0)
        degraded = rank.execute_ci(CiCommand.STATUS)
        assert rank.health is RankHealth.DEGRADED
        assert rank.degradation == 8.0
        assert degraded == pytest.approx(8.0 * baseline)


class TestTransportAndBackendSeams:
    def test_corruption_retried_transparently(self, armed):
        vpim, injector, session = armed
        schedule(injector, 0.0, FaultKind.TRANSPORT_CORRUPTION,
                 "transport:*")
        report = session.run(VectorAdd(**APP))
        assert report.verified
        metrics = vpim.machine.metrics
        assert metrics.value("repro_fault_injected_total",
                             kind="transport_corruption") == 1
        assert metrics.value("repro_fault_retries_total",
                             layer="frontend") >= 1
        assert metrics.value("repro_fault_recovered_total",
                             kind="transient", action="retry") == 1

    def test_stall_adds_its_delay_to_the_run(self, armed):
        vpim, injector, session = armed
        stall_s = 0.25
        schedule(injector, 0.0, FaultKind.TRANSPORT_STALL, "transport:*",
                 stall_s=stall_s)
        start = vpim.clock.now
        report = session.run(VectorAdd(**APP))
        assert report.verified
        # The stall dwarfs the app itself; the run must have paid it.
        assert (vpim.clock.now - start) >= stall_s
        assert injector.fired[0].kind is FaultKind.TRANSPORT_STALL

    def test_backend_hang_detected_and_retried(self, armed):
        vpim, injector, session = armed
        schedule(injector, 0.0, FaultKind.BACKEND_HANG, "backend:*")
        report = session.run(VectorAdd(**APP))
        assert report.verified
        assert vpim.machine.metrics.value(
            "repro_fault_detected_total",
            kind="backend_hang", layer="frontend") == 1


class TestArmingContract:
    def test_unarmed_run_is_bit_identical_to_baseline(self):
        def run(arm: bool):
            vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
            if arm:
                injector = FaultInjector(FaultPlan(seed=0), vpim.clock)
                injector.arm_machine(vpim.machine, vpim.manager)
            session = vpim.vm_session(nr_vupmem=1)
            if arm:
                injector.arm_vm(session.vm)
            report = session.run(VectorAdd(**APP))
            return report.segments, vpim.clock.now

        assert run(False) == run(True)

    def test_future_events_do_not_fire_early(self, armed):
        vpim, injector, session = armed
        schedule(injector, 1e9, FaultKind.RANK_OFFLINE, "rank:*")
        report = session.run(VectorAdd(**APP))
        assert report.verified
        assert injector.fired == []
        assert len(injector.pending) == 1


class TestTimeline:
    def test_timeline_records_resolved_targets(self, armed):
        vpim, injector, session = armed
        schedule(injector, 0.0, FaultKind.TRANSPORT_STALL, "transport:*",
                 stall_s=0.1)
        session.run(VectorAdd(**APP))
        line = injector.timeline()
        assert "transport_stall transport:vm-0.vupmem0" in line
        assert "*" not in line
        assert len(injector.timeline_digest()) == 64

    def test_digest_covers_firing_order(self, armed):
        vpim, injector, session = armed
        schedule(injector, 0.0, FaultKind.TRANSPORT_STALL, "transport:*",
                 stall_s=0.1)
        empty_digest = injector.timeline_digest()
        session.run(VectorAdd(**APP))
        assert injector.timeline_digest() != empty_digest
