"""RankPager unit behaviour: faults, eviction, stickiness, pinning."""

import numpy as np
import pytest

from repro.config import small_machine
from repro.driver.driver import UpmemDriver
from repro.errors import ManagerError
from repro.hardware.dpu import DpuState
from repro.hardware.machine import Machine
from repro.paging.config import PagingConfig
from repro.paging.pager import PAGED_RANK_BASE
from repro.virt.manager import Manager, RankState


def build(ratio=2.0):
    machine = Machine(small_machine(nr_ranks=2, dpus_per_rank=2))
    driver = UpmemDriver(machine)
    manager = Manager(machine, driver,
                      paging=PagingConfig(overcommit_ratio=ratio))
    return machine, driver, manager


def scribble(rank, fill):
    """Materialize a recognizable pattern on every DPU of ``rank``."""
    for dpu in rank.dpus:
        dpu.mram.write(0, np.full(4096, fill, dtype=np.uint8))


def patterns(rank):
    return [bytes(dpu.mram.read(0, 4096)) for dpu in rank.dpus]


class TestAllocation:
    def test_manager_hands_out_virtual_ranks_first(self):
        _, _, manager = build()
        vrank = manager.allocate("dev-a")
        assert vrank >= PAGED_RANK_BASE
        assert manager.allocations.get("paged", 0) == 1
        assert manager.rank_table[vrank].state is RankState.ALLO

    def test_virtual_capacity_scales_with_ratio(self):
        _, _, manager = build(ratio=3.0)
        assert manager.pager.virtual_capacity == 6
        assert manager.rank_capacity() == 6

    def test_no_frame_bound_until_first_touch(self):
        _, driver, manager = build()
        vrank = manager.allocate("dev-a")
        assert manager.pager.nr_resident == 0
        driver.resolve_rank(vrank)
        assert manager.pager.nr_resident == 1
        assert manager.pager.faults.get("first_touch", 0) == 1


class TestSwapRoundTrip:
    def test_eviction_and_fault_back_preserve_state(self):
        machine, driver, manager = build(ratio=1.5)  # 3 vranks, 2 frames
        vranks = [manager.allocate(f"dev-{i}") for i in range(3)]
        fills = {vranks[0]: 0x11, vranks[1]: 0x22, vranks[2]: 0x33}
        saved = {}
        for vrank in vranks[:2]:
            rank = driver.resolve_rank(vrank)
            scribble(rank, fills[vrank])
            saved[vrank] = patterns(rank)

        # Third touch must evict the LRU resident (vranks[0]).
        rank = driver.resolve_rank(vranks[2])
        scribble(rank, fills[vranks[2]])
        pager = manager.pager
        assert pager.counts["evictions"] == 1
        assert pager.nr_swapped == 1
        assert pager.resident_rank(vranks[0]) is None
        assert vranks[0] in pager.store

        # Fault the evicted rank back in: bytes bit-identical, and the
        # frame it lands on was cleaned of the displaced tenant first.
        rank = driver.resolve_rank(vranks[0])
        assert patterns(rank) == saved[vranks[0]]
        assert pager.counts["swap_in_bytes"] > 0

    def test_swap_advances_the_machine_clock(self):
        machine, driver, manager = build(ratio=1.5)
        vranks = [manager.allocate(f"dev-{i}") for i in range(3)]
        for vrank in vranks[:2]:
            scribble(driver.resolve_rank(vrank), 0xAB)
        before = machine.clock.now
        driver.resolve_rank(vranks[2])     # eviction: checkpoint out
        assert machine.clock.now > before

    def test_store_is_dropped_after_fault_in(self):
        _, driver, manager = build(ratio=1.5)
        vranks = [manager.allocate(f"dev-{i}") for i in range(3)]
        for vrank in vranks:
            scribble(driver.resolve_rank(vrank), 0x44)
        evicted = next(v for v in vranks
                       if manager.pager.resident_rank(v) is None)
        driver.resolve_rank(evicted)
        # The frame holds the authoritative copy; no stale store entry.
        assert evicted not in manager.pager.store


def release(driver, vrank, owner):
    """Release like a real consumer: the driver's sysfs write reaches
    the Manager's observer, which routes vranks to the pager."""
    driver.release_rank(vrank, owner)


class TestStickyFrames:
    def test_release_keeps_frames_for_reuse(self):
        _, driver, manager = build()
        vrank = manager.allocate("dev-a")
        driver.claim_rank(vrank, "dev-a")
        pager = manager.pager
        assert pager.frames_held == 1
        release(driver, vrank, "dev-a")
        assert pager.frames_held == 1          # sticky
        # A new tenant reuses the frame with no manager allocation.
        acquired_before = pager.frames_acquired
        vrank2 = manager.allocate("dev-b")
        driver.resolve_rank(vrank2)
        assert pager.frames_acquired == acquired_before

    def test_first_touch_on_dirty_frame_wipes_predecessor(self):
        _, driver, manager = build()
        vrank = manager.allocate("dev-a")
        rank = driver.claim_rank(vrank, "dev-a")
        scribble(rank, 0x77)
        release(driver, vrank, "dev-a")
        vrank2 = manager.allocate("dev-b")
        rank2 = driver.resolve_rank(vrank2)
        for dpu in rank2.dpus:
            assert dpu.mram.is_zero()
            assert dpu.program is None

    def test_drain_returns_frames_through_manager(self):
        _, driver, manager = build()
        vrank = manager.allocate("dev-a")
        driver.claim_rank(vrank, "dev-a")
        release(driver, vrank, "dev-a")
        returned = manager.pager.drain()
        assert returned == 1
        assert manager.pager.frames_held == 0
        # The frame went back through a normal release: it is NANA
        # (isolation reset pending), owned by nobody.
        nana = [r for r in manager.rank_table.values()
                if r.state is RankState.NANA]
        assert len(nana) == 1
        assert driver.rank_owner(nana[0].rank_index) is None


class TestVictimSelection:
    def test_pinned_rank_is_never_evicted(self):
        _, driver, manager = build(ratio=1.5)
        vranks = [manager.allocate(f"dev-{i}") for i in range(3)]
        scribble(driver.resolve_rank(vranks[0]), 1)
        scribble(driver.resolve_rank(vranks[1]), 2)
        manager.pager.pin(vranks[0])           # LRU, but pinned
        driver.resolve_rank(vranks[2])
        assert manager.pager.resident_rank(vranks[0]) is not None
        assert manager.pager.resident_rank(vranks[1]) is None

    def test_weight_protects_heavier_tenant(self):
        _, driver, manager = build(ratio=1.5)
        # vranks[0] is older (more idle) but 100x heavier.
        vranks = [manager.allocate(f"dev-{i}", weight=100.0 if i == 0
                                   else 1.0) for i in range(3)]
        scribble(driver.resolve_rank(vranks[0]), 1)
        scribble(driver.resolve_rank(vranks[1]), 2)
        driver.resolve_rank(vranks[2])
        assert manager.pager.resident_rank(vranks[0]) is not None
        assert manager.pager.resident_rank(vranks[1]) is None

    def test_running_rank_is_not_checkpointable(self):
        _, driver, manager = build(ratio=1.5)
        vranks = [manager.allocate(f"dev-{i}") for i in range(3)]
        running = driver.resolve_rank(vranks[0])
        scribble(driver.resolve_rank(vranks[1]), 2)
        for dpu in running.dpus:
            dpu.state = DpuState.RUNNING
        driver.resolve_rank(vranks[2])
        # The running rank was skipped; the idle one was evicted.
        assert manager.pager.resident_rank(vranks[0]) is not None
        assert manager.pager.resident_rank(vranks[1]) is None
        for dpu in running.dpus:
            dpu.state = DpuState.IDLE

    def test_all_ranks_pinned_raises(self):
        _, driver, manager = build(ratio=1.5)
        vranks = [manager.allocate(f"dev-{i}") for i in range(3)]
        driver.resolve_rank(vranks[0])
        driver.resolve_rank(vranks[1])
        manager.pager.pin(vranks[0])
        manager.pager.pin(vranks[1])
        with pytest.raises(ManagerError, match="pinned or running"):
            driver.resolve_rank(vranks[2])


class TestPredictivePrefault:
    def test_overlap_credit_hides_swap_time(self):
        machine, driver, manager = build(ratio=1.5)
        vranks = [manager.allocate(f"dev-{i}") for i in range(3)]
        scribble(driver.resolve_rank(vranks[0]), 1)
        scribble(driver.resolve_rank(vranks[1]), 2)
        driver.claim_rank(vranks[2], "dev-2")  # evicts vranks[0]
        release(driver, vranks[2], "dev-2")    # frees a sticky frame
        before = machine.clock.now
        manager.pager.prefault(vranks[0], overlap=10.0)
        # The whole swap-in fits under the 10 s overlap window: only
        # metered as hidden time, nothing charged to the clock.
        assert machine.clock.now == before
        assert manager.pager.counts["prefault_overlap_s"] > 0
        assert manager.pager.faults.get("predictive", 0) == 1
        assert manager.pager.resident_rank(vranks[0]) is not None

    def test_prefault_of_resident_rank_is_a_noop(self):
        _, driver, manager = build()
        vrank = manager.allocate("dev-a")
        driver.resolve_rank(vrank)
        faults = dict(manager.pager.faults)
        manager.pager.prefault(vrank, overlap=1.0)
        assert manager.pager.faults == faults


class TestObservability:
    def test_paging_metrics_are_registered_and_move(self):
        machine, driver, manager = build(ratio=1.5)
        vranks = [manager.allocate(f"dev-{i}") for i in range(3)]
        scribble(driver.resolve_rank(vranks[0]), 1)
        scribble(driver.resolve_rank(vranks[1]), 2)
        driver.resolve_rank(vranks[2])
        registry = machine.metrics
        assert registry.get("repro_paging_faults_total").total() >= 3
        assert registry.get("repro_paging_evictions_total").total() == 1
        assert registry.get("repro_paging_swap_bytes_total").total() > 0
        assert registry.get("repro_paging_ranks").labels(
            state="swapped").value == 1

    def test_swap_spans_are_recorded(self):
        machine, driver, manager = build(ratio=1.5)
        vranks = [manager.allocate(f"dev-{i}") for i in range(3)]
        scribble(driver.resolve_rank(vranks[0]), 1)
        scribble(driver.resolve_rank(vranks[1]), 2)
        driver.resolve_rank(vranks[2])
        names = {span.name for trace in machine.spans.traces
                 for span in trace.spans}
        assert "paging.swap_out" in names
        assert "paging.swap_in" in names


class TestOffPath:
    def test_manager_without_paging_has_no_pager(self):
        machine = Machine(small_machine(nr_ranks=2, dpus_per_rank=2))
        driver = UpmemDriver(machine)
        manager = Manager(machine, driver)
        assert manager.pager is None
        assert driver.tiers == []
        assert manager.rank_capacity() == 2
        assert manager.allocate("dev-a") < 1000   # physical index

    def test_unknown_vrank_raises(self):
        _, _, manager = build()
        with pytest.raises(ManagerError, match="unknown virtual rank"):
            manager.pager.resolve(PAGED_RANK_BASE + 99)
