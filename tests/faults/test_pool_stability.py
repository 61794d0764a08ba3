"""BufferPool stability under fault drills.

The zero-copy data plane loans pooled scratch buffers across the
serialize/transport/scatter path.  Every abort point — transport
corruption, DPU kernel faults, a rank dying mid-session — must return
the loans: ``pool.outstanding == 0`` between operations is the
invariant, and a pool that keeps reusing buffers afterwards proves no
buffer was leaked *or* double-released.

Planned requests loan nothing from the pool; what they hold for one
roundtrip is the binding of the caller's buffers at their payload GPAs
(``GuestMemory.bind``), and the same drills check it the same way:
``nr_bound == 0`` between operations.  A read's result block is on loan
from the frontend's recycler until its rows die, and the recycler is
empty once the session released its ranks, however the run ended.
"""

from __future__ import annotations

import pytest

from repro.apps.prim.va import VectorAdd
from repro.errors import DpuFaultError, TransportCorruptionError
from repro.faults import FaultKind, run_with_recovery

from tests.faults.conftest import schedule

APP = dict(nr_dpus=8, n_elements=1 << 12)


def backend_pools(session):
    return [dev.backend.pool for dev in session.vm.devices]


def assert_quiescent(session):
    for pool in backend_pools(session):
        assert pool.outstanding == 0
    for dev in session.vm.devices:
        assert dev.frontend.memory.nr_bound == 0
        blocks = dev.frontend.blocks
        assert blocks.on_loan == 0 and not blocks._idle


class TestPoolQuiescence:
    def test_clean_session_returns_every_loan(self, armed):
        _, _, session = armed
        report = session.run(VectorAdd(**APP))
        assert report.verified
        assert_quiescent(session)

    def test_transport_corruption_aborts_release_loans(self, armed):
        """Exhausted retries abort mid-transfer — the hot abort path."""
        vpim, injector, session = armed
        frontend = session.vm.devices[0].frontend
        for _ in range(frontend.max_transport_retries + 1):
            schedule(injector, 0.0, FaultKind.TRANSPORT_CORRUPTION,
                     "transport:*")
        with pytest.raises(TransportCorruptionError):
            session.run(VectorAdd(**APP))
        assert_quiescent(session)

    def test_dpu_fault_mid_session_releases_loans(self, armed):
        vpim, injector, session = armed
        schedule(injector, 0.0, FaultKind.DPU_KERNEL_FAULT, "rank:*")
        with pytest.raises(DpuFaultError):
            session.run(VectorAdd(**APP))
        assert_quiescent(session)

    def test_rank_offline_recovery_keeps_pool_balanced(self, armed):
        """The tentpole drill: rank dies mid-run, recovery reruns on the
        replacement.  Both the aborted and the successful attempt must
        balance their loans."""
        vpim, injector, session = armed
        schedule(injector, 1e-4, FaultKind.RANK_OFFLINE, "rank:*")
        recovery = run_with_recovery(session, VectorAdd(**APP))
        assert recovery.verified and recovery.recovered
        assert_quiescent(session)

    def test_pool_still_serves_after_repeated_drills(self, armed,
                                                     wire_reference):
        """No slow leak and no poisoned free list: after a storm of
        faulted sessions the pool still reuses buffers and every later
        clean run verifies.

        On the wire reference: a planned request loans nothing from the
        pool, and this drill targets the pooled plumbing."""
        vpim, injector, session = armed
        for _ in range(3):
            schedule(injector, 0.0, FaultKind.DPU_KERNEL_FAULT, "rank:*")
            with pytest.raises(DpuFaultError):
                session.run(VectorAdd(**APP))
            assert_quiescent(session)
        pools = backend_pools(session)
        reuse0 = sum(p.reuse_count for p in pools)
        report = session.run(VectorAdd(**APP))
        assert report.verified
        assert_quiescent(session)
        # The clean run was served from recycled scratch buffers.
        assert sum(p.reuse_count for p in pools) > reuse0
