"""Multi-tenant scenarios: rank sharing, isolation, coexistence."""

import numpy as np
import pytest

from repro.sdk.dpu_set import DpuSet
from repro.virt.manager import RankState


def test_two_vms_share_the_machine(vpim):
    a = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    b = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    with DpuSet(a.transport, 8) as da, DpuSet(b.transport, 8) as db:
        ra = da.channels[0].rank_index
        rb = db.channels[0].rank_index
        assert ra != rb
        da.push_to_mram(0, [np.full(16, 1, np.uint8)] * 8)
        db.push_to_mram(0, [np.full(16, 2, np.uint8)] * 8)
        assert (da.push_from_mram(0, 16)[0] == 1).all()
        assert (db.push_from_mram(0, 16)[0] == 2).all()


def test_vm_cannot_overcommit_ranks(vpim):
    a = vpim.vm_session(nr_vupmem=2, mem_bytes=1 << 30)
    b = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    set_a = DpuSet(a.transport, 16)   # takes both ranks
    with pytest.raises(Exception):
        DpuSet(b.transport, 8)        # nothing left, manager gives up
    set_a.free()


def test_released_rank_is_wiped_before_reuse_by_other_vm(vpim):
    """The isolation requirement R2: no residual data across tenants."""
    a = vpim.vm_session(nr_vupmem=2, mem_bytes=1 << 30)
    b = vpim.vm_session(nr_vupmem=2, mem_bytes=1 << 30)
    secret = np.full(64, 0xAB, dtype=np.uint8)
    with DpuSet(a.transport, 16) as da:      # hold BOTH ranks
        da.push_to_mram(0, [secret] * 16)
    # Both ranks released -> NANA.  VM b must wait for the reset and
    # then read zeros.
    with DpuSet(b.transport, 8) as db:
        leaked = db.push_from_mram(0, 64)
        assert all(not buf.any() for buf in leaked), "cross-VM data leak!"


def test_same_vm_nana_reuse_preserves_own_data(vpim):
    session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    with DpuSet(session.transport, 8) as dpus:
        dpus.push_to_mram(0, [np.full(16, 7, np.uint8)] * 8)
        first_rank = dpus.channels[0].rank_index
    # Immediate re-allocation by the same device: NANA fast path.
    with DpuSet(session.transport, 8) as dpus:
        assert dpus.channels[0].rank_index == first_rank
        # Data is the tenant's own, so the reset was skipped.
        assert (dpus.push_from_mram(0, 16)[0] == 7).all()
    assert session.vm.manager.allocations.get("nana_reuse", 0) >= 1


def test_native_and_vm_coexist(vpim):
    native = vpim.native_session()
    vm = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    with DpuSet(native.transport, 8) as dn:
        with DpuSet(vm.transport, 8) as dv:
            assert dn.channels[0].rank_index != dv.channels[0].rank_index
    # After both release, the manager sees the native rank free again.
    vpim.machine.clock.advance(1.0)
    assert len(vpim.manager.available_ranks()) == 2


def test_rank_states_follow_lifecycle(vpim):
    session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    manager = vpim.manager
    dpus = DpuSet(session.transport, 8)
    rank = dpus.channels[0].rank_index
    assert manager.rank_table[rank].state is RankState.ALLO
    dpus.free()
    assert manager.rank_table[rank].state is RankState.NANA
    vpim.machine.clock.advance(1.0)
    assert manager.states()[rank] is RankState.NAAV
