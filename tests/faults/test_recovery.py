"""Recovery paths: session reruns, quarantine/repair, failover, retries."""

import gc
import weakref

import numpy as np
import pytest

from repro.apps.prim.va import VectorAdd
from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE
from repro.errors import (
    BackendHungError,
    DpuFaultError,
    ManagerError,
    RankOfflineError,
    TransferError,
    TransientFaultError,
    TransportCorruptionError,
)
from repro.faults import (
    CheckpointStore,
    FaultKind,
    RecoveryReport,
    failover_device,
    fault_kind_of,
    run_with_recovery,
)
from repro.faults.retry import (
    MAX_TRANSPORT_RETRIES,
    TRANSPORT_RETRY_BACKOFF,
    TransportRetry,
    retry_backoff_time,
)
from repro.analysis.figures import machine_config
from repro.core import VPim
from repro.hardware.rank import RankHealth
from repro.paging.config import PagingConfig
from repro.sdk.dpu_set import DpuSet
from repro.sdk.transfer import DpuEntry, TransferMatrix, XferKind
from repro.virt.manager import RankState
from repro.virt.migration import migrate_device

from tests.faults.conftest import schedule

APP = dict(nr_dpus=8, n_elements=1 << 12)


class TestRunWithRecovery:
    def test_rank_offline_mid_run_completes_on_replacement(self, armed):
        """The tentpole acceptance scenario: a rank dies mid-session and
        the rerun finishes on the surviving rank."""
        vpim, injector, session = armed
        schedule(injector, 1e-4, FaultKind.RANK_OFFLINE, "rank:*")
        recovery = run_with_recovery(session, VectorAdd(**APP))
        assert recovery.verified
        assert recovery.recovered
        assert recovery.attempts == 2
        assert recovery.faults == ["rank_offline"]
        dead = vpim.manager.failed_ranks()
        assert len(dead) == 1
        # The rerun's allocation skipped the FAIL rank.
        states = vpim.manager.states()
        survivors = [idx for idx in states if idx not in dead]
        assert any(states[idx] is not RankState.FAIL for idx in survivors)
        metrics = vpim.machine.metrics
        assert metrics.value("repro_fault_recovered_total",
                             kind="rank_offline", action="rerun") == 1
        assert metrics.get("repro_fault_recovery_seconds").value(
            kind="rank_offline") == 1

    def test_budget_exhaustion_raises_and_counts_the_loss(self, armed):
        vpim, injector, session = armed
        for _ in range(3):
            schedule(injector, 0.0, FaultKind.DPU_KERNEL_FAULT, "rank:*")
        with pytest.raises(DpuFaultError):
            run_with_recovery(session, VectorAdd(**APP), max_attempts=2)
        assert vpim.machine.metrics.value(
            "repro_fault_sessions_lost_total") == 1

    def test_unverified_report_is_retried_as_corruption(self, armed):
        """Silent bit flips surface only through verify; the rerun path
        must treat a failed verify like a fault."""
        vpim, injector, session = armed

        class Flaky:
            """First run returns garbage, second runs the real app."""

            def __init__(self):
                self.runs = 0
                self.app = VectorAdd(**APP)

            def run(self, app):
                self.runs += 1
                report = session.run(app)
                if self.runs == 1:
                    report.verified = False
                return report

            @property
            def transport(self):
                return session.transport

        flaky = Flaky()
        recovery = run_with_recovery(flaky, flaky.app)
        assert flaky.runs == 2
        assert recovery.verified
        assert recovery.faults == ["dpu_mram_bitflip"]
        assert vpim.machine.metrics.value(
            "repro_fault_detected_total",
            kind="dpu_mram_bitflip", layer="session") == 1

    def test_fault_kind_mapping(self):
        assert fault_kind_of(RankOfflineError("x")) == "rank_offline"
        assert fault_kind_of(DpuFaultError("x")) == "dpu_kernel_fault"
        assert (fault_kind_of(TransportCorruptionError("x"))
                == "transport_corruption")
        assert fault_kind_of(ValueError("x")) == "unknown"

    def test_report_dataclass_flags(self):
        class FakeReport:
            verified = True

        report = RecoveryReport(report=FakeReport(), attempts=1)
        assert report.verified and not report.recovered


class TestFrontendRetryExhaustion:
    def test_exhausted_transport_retries_invalidate_the_cache(self, armed):
        """Satellite: a failed flush/roundtrip must not leave stale
        prefetched lines behind — the next read re-fetches."""
        vpim, injector, session = armed
        frontend = session.vm.devices[0].frontend
        # One more corruption than the transport's retry budget.
        for _ in range(MAX_TRANSPORT_RETRIES + 1):
            schedule(injector, 0.0, FaultKind.TRANSPORT_CORRUPTION,
                     "transport:*")
        with pytest.raises(TransportCorruptionError):
            session.run(VectorAdd(**APP))
        assert frontend.cache.nr_lines == 0
        # The whole-session rerun path still clears the incident.
        recovery = run_with_recovery(session, VectorAdd(**APP))
        assert recovery.verified

    def test_within_budget_retries_are_invisible(self, armed):
        vpim, injector, session = armed
        for _ in range(2):
            schedule(injector, 0.0, FaultKind.TRANSPORT_CORRUPTION,
                     "transport:*")
        report = session.run(VectorAdd(**APP))
        assert report.verified
        assert vpim.machine.metrics.value(
            "repro_fault_retries_total", layer="frontend") == 2

    def test_retry_backoff_doubles_per_attempt(self):
        assert retry_backoff_time(1) == TRANSPORT_RETRY_BACKOFF
        assert retry_backoff_time(3) == 4 * TRANSPORT_RETRY_BACKOFF


class TestManagerQuarantine:
    def test_mark_failed_then_repair_roundtrip(self, chaos_vpim):
        manager = chaos_vpim.manager
        manager.mark_failed(0)
        assert manager.failed_ranks() == [0]
        assert manager.stats.failures == 1
        chaos_vpim.machine.ranks[0].health = RankHealth.OFFLINE
        duration = manager.repair(0)
        assert duration > 0
        assert manager.failed_ranks() == []
        assert chaos_vpim.machine.ranks[0].health is RankHealth.OK
        assert manager.stats.repairs == 1

    def test_repair_refuses_healthy_ranks(self, chaos_vpim):
        with pytest.raises(ManagerError, match="NANA|NAAV|ALLO"):
            chaos_vpim.manager.repair(0)

    def test_blacklist_after_repeated_failures(self, chaos_vpim):
        manager = chaos_vpim.manager
        for _ in range(manager.blacklist_threshold):
            manager.mark_failed(0)
            if not manager.is_blacklisted(0):
                manager.repair(0)
        assert manager.is_blacklisted(0)
        with pytest.raises(ManagerError, match="blacklist"):
            manager.repair(0)

    def test_failed_ranks_never_allocated(self, chaos_vpim):
        manager = chaos_vpim.manager
        manager.mark_failed(0)
        allocated = manager.allocate("tenant-a")
        assert allocated != 0


class TestCheckpointFailover:
    def _linked_device(self, chaos_vpim):
        session = chaos_vpim.vm_session(nr_vupmem=1)
        device = session.vm.devices[0]
        session.vm.acquire_rank(device)
        return session, device

    def test_failover_without_checkpoint_relinks(self, chaos_vpim):
        session, device = self._linked_device(chaos_vpim)
        old = device.backend.mapping.rank.index
        replacement, action = failover_device(device, chaos_vpim.manager)
        assert action == "relink"
        assert replacement != old
        assert device.backend.mapping.rank.index == replacement
        assert chaos_vpim.manager.failed_ranks() == [old]

    def test_failover_with_checkpoint_restores_mram(self, chaos_vpim):
        session, device = self._linked_device(chaos_vpim)
        rank = device.backend.mapping.rank
        rank.dpus[0].mram.write(0, bytes([0xAB, 0xCD]))
        store = CheckpointStore(chaos_vpim.clock)
        store.save(device)
        replacement, action = failover_device(
            device, chaos_vpim.manager, store=store)
        assert action == "restore"
        new_rank = device.backend.mapping.rank
        assert new_rank.index == replacement
        assert bytes(new_rank.dpus[0].mram.read(0, 2)) == b"\xab\xcd"

    def test_paged_failover_skips_the_failed_frame(self):
        vpim = VPim(machine_config(2, dpus_per_rank=4),
                    paging=PagingConfig(overcommit_ratio=2.0))
        session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 28)
        dpus = DpuSet(session.transport, 4)
        dpus.push_to_mram(0, [np.full(64, 1, np.uint8)] * 4)
        device = session.vm.devices[0]
        frame = device.backend.mapping.peek_rank()
        assert frame.index == 0
        frame.health = RankHealth.OFFLINE
        failover_device(device, vpim.manager)
        # The failed frame left the pager's pool: the replacement's
        # first operation lands on the healthy rank.
        dpus.push_to_mram(0, [np.full(64, 2, np.uint8)] * 4)
        assert device.backend.mapping.peek_rank().index == 1
        assert vpim.manager.failed_ranks() == [0]
        assert vpim.manager.rank_table[0].state is RankState.FAIL
        assert vpim.manager.pager.frames_held == 1
        dpus.free()

    def test_failover_requires_a_linked_device(self, chaos_vpim):
        session = chaos_vpim.vm_session(nr_vupmem=1)
        device = session.vm.devices[0]
        with pytest.raises(ManagerError, match="not linked"):
            failover_device(device, chaos_vpim.manager)

    def test_checkpoint_store_requires_linkage(self, chaos_vpim):
        session = chaos_vpim.vm_session(nr_vupmem=1)
        store = CheckpointStore(chaos_vpim.clock)
        with pytest.raises(ManagerError, match="not linked"):
            store.save(session.vm.devices[0])


class TestBoundRequestAborts:
    """A planned request binds the caller's buffers at its payload GPAs
    for one roundtrip.  Every way out of that roundtrip — completion,
    retry, exhausted budget, a backend or rank error — must leave
    ``GuestMemory.nr_bound == 0``, the way loans leave
    ``pool.outstanding == 0``; a retry must still move the caller's
    bytes, into and out of the very same buffers.

    A read's destination is a block of the frontend's recycler, on loan
    for as long as the caller holds a row of it and not a moment longer:
    an aborted read's block is back as soon as the exception is."""

    SIZE = 17 * PAGE_SIZE       # past the batch buffer and the prefetch line

    def _warm(self, chaos_vpim):
        """A session whose write and read plans are compiled and hot."""
        session = chaos_vpim.vm_session(nr_vupmem=1)
        dpus = DpuSet(session.transport, 8)
        dpus.__enter__()
        dpus.push_to_mram(0, self._data(0))
        dpus.push_from_mram(0, self.SIZE)
        device = session.vm.devices[0]
        assert device.frontend.plans.nr_plans == 2
        return dpus, device

    def _data(self, seed):
        rng = np.random.default_rng(seed)
        return [rng.integers(0, 256, self.SIZE, dtype=np.uint8)
                for _ in range(8)]

    @staticmethod
    def _assert_no_loan(frontend):
        gc.collect()            # an exception's frames hold the rows
        assert frontend.blocks.on_loan == 0

    @staticmethod
    def _failing(k, error, seen=None):
        """A fault hook raising ``error`` on attempts 1..k; ``seen``
        collects what guest memory had bound at each attempt."""
        calls = [0]

        def hook(layer):
            if seen is not None:
                seen.append(list(layer.memory._bound.values()))
            calls[0] += 1
            if calls[0] <= k:
                raise error("injected", penalty_s=1e-4)
            return 0.0
        return hook

    @staticmethod
    def _arm(vpim, device, seam, hook):
        """Put ``hook`` at ``seam`` (``frontend``: before each send), with
        the transport's retry policy in front of the backend."""
        if seam == "frontend":
            device.frontend.fault_hook = TransportRetry(vpim.machine.metrics,
                                                        hook)
        else:
            device.frontend.fault_hook = TransportRetry(
                vpim.machine.metrics, lambda _frontend: 0.0)
            device.backend.fault_hook = hook

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seam", ["frontend", "backend"])
    def test_retried_requests_move_the_callers_bytes(self, chaos_vpim,
                                                     seam, k):
        dpus, device = self._warm(chaos_vpim)
        memory = device.frontend.memory
        error = TransientFaultError if seam == "frontend" else BackendHungError
        fresh = self._data(k)

        self._arm(chaos_vpim, device, seam, self._failing(k, error))
        dpus.push_to_mram(0, fresh)
        assert memory.nr_bound == 0
        for dpu, want in zip(device.backend.mapping.rank.dpus, fresh):
            assert np.array_equal(dpu.mram.read(0, self.SIZE), want)

        seen = []
        self._arm(chaos_vpim, device, seam, self._failing(k, error, seen))
        rows = dpus.push_from_mram(0, self.SIZE)
        assert memory.nr_bound == 0
        assert all(np.array_equal(r, w) for r, w in zip(rows, fresh))
        assert len(seen) == k + 1
        if seam == "backend":
            # The hook ran with the binding live: every attempt had the
            # rows the caller got back bound, and no others.
            for bound in seen:
                assert len(bound) == len(rows)
                assert all(b is r for b, r in zip(bound, rows))
        else:
            assert seen == [[]] * (k + 1), "nothing is bound before a send"
        assert device.frontend.plans.nr_plans == 2, "retries keep the plans"

        # k retries took one block, the caller's while it holds the rows;
        # let go of, it is where the next read lands.
        blocks = device.frontend.blocks
        assert blocks.on_loan == 1
        address = rows[0].ctypes.data
        seen.clear()
        rows = bound = None
        assert blocks.on_loan == 0
        rows = dpus.push_from_mram(0, self.SIZE)
        assert rows[0].ctypes.data == address
        assert all(np.array_equal(r, w) for r, w in zip(rows, fresh))
        dpus.__exit__(None, None, None)

    def test_exhausted_retries_leave_nothing_bound(self, chaos_vpim):
        dpus, device = self._warm(chaos_vpim)
        frontend = device.frontend
        k = MAX_TRANSPORT_RETRIES + 1
        self._arm(chaos_vpim, device, "backend",
                  self._failing(k, BackendHungError))
        with pytest.raises(BackendHungError):
            dpus.push_to_mram(0, self._data(1))
        assert frontend.memory.nr_bound == 0
        assert frontend.plans.nr_plans == 0     # ``retry_exhausted``
        device.backend.fault_hook = self._failing(k, BackendHungError)
        with pytest.raises(BackendHungError):
            dpus.push_from_mram(0, self.SIZE)
        assert frontend.memory.nr_bound == 0
        self._assert_no_loan(frontend)
        # The budget is per request: the next ones go through.
        device.backend.fault_hook = None
        fresh = self._data(2)
        dpus.push_to_mram(0, fresh)
        rows = dpus.push_from_mram(0, self.SIZE)
        assert all(np.array_equal(r, w) for r, w in zip(rows, fresh))
        dpus.__exit__(None, None, None)

    def test_backend_and_rank_errors_leave_nothing_bound(self, chaos_vpim):
        dpus, device = self._warm(chaos_vpim)
        memory = device.frontend.memory
        rank = device.backend.mapping.rank
        rank.health = RankHealth.OFFLINE
        with pytest.raises(RankOfflineError):
            dpus.push_to_mram(0, self._data(1))
        assert memory.nr_bound == 0
        with pytest.raises(RankOfflineError):
            dpus.push_from_mram(0, self.SIZE)
        assert memory.nr_bound == 0
        self._assert_no_loan(device.frontend)
        rank.health = RankHealth.OK

        def crash(_backend):
            raise RuntimeError("backend bug")
        device.backend.fault_hook = crash
        with pytest.raises(RuntimeError):
            dpus.push_from_mram(0, self.SIZE)
        assert memory.nr_bound == 0
        self._assert_no_loan(device.frontend)
        device.backend.fault_hook = None
        dpus.__exit__(None, None, None)

    def test_the_recycler_outlives_the_rank_not_the_allocation(self,
                                                               chaos_vpim):
        """Failover and migration change the rank behind the device, not
        the guest's buffers: reads keep landing in the same block.
        Release ends the allocation, and the recycler keeps nothing of it
        — rows still held stay the holder's and die with it."""
        dpus, device = self._warm(chaos_vpim)
        manager = chaos_vpim.manager
        blocks = device.frontend.blocks
        (block,) = blocks._idle             # the warm-up's, dropped

        failover_device(device, manager)    # onto a blank rank
        fresh = self._data(1)
        dpus.push_to_mram(0, fresh)
        rows = dpus.push_from_mram(0, self.SIZE)
        assert all(np.array_equal(r, w) for r, w in zip(rows, fresh))
        assert blocks.on_loan == 1 and not blocks._idle
        rows = None
        assert len(blocks._idle) == 1 and blocks._idle[0] is block

        manager.repair(0)
        assert migrate_device(device, manager) == 0
        rows = dpus.push_from_mram(0, self.SIZE)
        assert all(np.array_equal(r, w) for r, w in zip(rows, fresh))
        assert blocks.on_loan == 1 and not blocks._idle

        gone = weakref.ref(block)
        del block
        dpus.__exit__(None, None, None)
        assert blocks.on_loan == 0 and not blocks._idle
        assert all(np.array_equal(r, w) for r, w in zip(rows, fresh))
        del rows
        gc.collect()
        assert not blocks._idle and gone() is None

    def test_pinned_write_refuses_a_source_that_changed_shape(self,
                                                              chaos_vpim):
        """The plan key vouches for ``entry.size``; the pinned write
        checks the buffer actually handed over, before any byte moves.
        (The SDK rebuilds its entries, so only a caller of the frontend
        itself can get this far.)"""
        dpus, device = self._warm(chaos_vpim)
        before = self._data(0)
        for bad in (np.zeros(self.SIZE - 8, np.uint8),
                    np.zeros(self.SIZE // 4, np.uint32)):
            matrix = TransferMatrix(
                XferKind.TO_DPU, MRAM_HEAP_SYMBOL, 0,
                [DpuEntry(i, self.SIZE, buf)
                 for i, buf in enumerate(self._data(3))])
            matrix.entries[5].data = bad    # after DpuEntry normalised it
            with pytest.raises(TransferError, match="source 5"):
                device.frontend.write(matrix)
            assert device.frontend.memory.nr_bound == 0
            for dpu, want in zip(device.backend.mapping.rank.dpus, before):
                assert np.array_equal(dpu.mram.read(0, self.SIZE), want)
        dpus.push_to_mram(0, self._data(4))     # the plan still serves
        dpus.__exit__(None, None, None)

    def test_stale_generations_re_resolve(self, chaos_vpim):
        """``fill(0)`` on guest RAM drops the plans' pinned metadata
        views, on an MRAM the pinned write's destinations: both are
        noticed by generation and resolved again, and the data lands."""
        dpus, device = self._warm(chaos_vpim)
        frontend = device.frontend
        rank = device.backend.mapping.rank

        stale = frontend.plans.get(next(iter(frontend.plans._plans)))
        rank.dpus[3].mram.fill(0)
        fresh = self._data(5)
        dpus.push_to_mram(0, fresh)
        assert stale.pinned_write.valid()
        rows = dpus.push_from_mram(0, self.SIZE)
        assert all(np.array_equal(r, w) for r, w in zip(rows, fresh))

        misses = frontend.plans.counts["misses"]
        frontend.memory.region.fill(0)
        fresh = self._data(6)
        dpus.push_to_mram(0, fresh)
        rows = dpus.push_from_mram(0, self.SIZE)
        assert all(np.array_equal(r, w) for r, w in zip(rows, fresh))
        assert frontend.plans.counts["misses"] == misses + 2, "both shapes recompiled"
        assert frontend.memory.nr_bound == 0
        dpus.__exit__(None, None, None)
