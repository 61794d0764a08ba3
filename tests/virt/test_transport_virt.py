"""Virtualized transport: combining, contention, poll penalty, kvm stats."""

import numpy as np
import pytest

from repro.config import small_machine
from repro.core import VPim
from repro.sdk.dpu_set import DpuSet


@pytest.fixture
def session():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    return vpim.vm_session(nr_vupmem=2, mem_bytes=1 << 30)


@pytest.fixture
def seq_session():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    return vpim.vm_session(nr_vupmem=2, mem_bytes=1 << 30,
                           preset_name="vPIM-Seq")


def test_parallel_flag_follows_opts(session, seq_session):
    assert session.transport.parallel_ranks
    assert not seq_session.transport.parallel_ranks


def test_sequential_combine_is_staircase(seq_session):
    with DpuSet(seq_session.transport, 16) as dpus:
        dpus.push_to_mram(0, [np.zeros(1 << 16, np.uint8)] * 16)
        comps = [c for _, c in dpus.last_completions]
    assert len(comps) == 2
    assert comps[1] > comps[0] * 1.9     # second waits for the first


def test_parallel_combine_is_uniform_with_contention(seq_session, session):
    data = [np.zeros(1 << 16, np.uint8)] * 16
    with DpuSet(seq_session.transport, 16) as dpus:
        t0 = seq_session.transport.clock.now
        dpus.push_to_mram(0, data)
        seq_elapsed = seq_session.transport.clock.now - t0
    with DpuSet(session.transport, 16) as dpus:
        t0 = session.transport.clock.now
        dpus.push_to_mram(0, data)
        par_elapsed = session.transport.clock.now - t0
        comps = [c for _, c in dpus.last_completions]
    # Parallel is faster than sequential, but not a full 2x: the backend
    # threads contend (Fig. 16's near-uniform completion times).
    assert par_elapsed < seq_elapsed
    assert par_elapsed > seq_elapsed / 2
    assert comps[0] == pytest.approx(comps[1])


def test_kvm_counts_requests(session):
    """A request is one VM exit and one IRQ injection: ``ci_ops(20)`` is
    20 of each whether a CI op makes a round trip (the first eight) or
    is counted in bulk."""
    stats = session.vm.kvm.stats
    with DpuSet(session.transport, 4) as dpus:
        requests = dpus.channels[0].device.frontend.requests

        def counts():
            return (stats.vmexits, stats.irq_injections,
                    requests.get("ci_op", 0))

        before = counts()
        dpus.ci_ops(20)
        assert counts() == tuple(n + 20 for n in before)


def test_poll_penalty_charged_in_vm(session):
    """200 status polls: 200 CI round trips, each a VM exit and an IRQ."""
    t = session.transport
    stats = session.vm.kvm.stats
    exits, irqs = stats.vmexits, stats.irq_injections
    penalty = t.launch_poll_penalty(run_duration=0.01)
    assert penalty == pytest.approx(200 * t.cost.ci_virt_roundtrip)
    assert (stats.vmexits, stats.irq_injections) == (exits + 200, irqs + 200)


def test_poll_penalty_zero_native():
    from repro.driver.native import NativeTransport
    from repro.hardware.machine import Machine
    native = NativeTransport(Machine(small_machine()))
    assert native.launch_poll_penalty(0.01) == 0.0


def test_alloc_failure_when_not_enough_devices():
    from repro.errors import AllocationError
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    with pytest.raises(AllocationError):
        DpuSet(session.transport, 16)   # needs 2 ranks, VM has 1 device


def test_dynamic_rank_relinking(session):
    """A device can be linked to different ranks over the VM's life
    (Section 3.3 dynamic rank allocation)."""
    with DpuSet(session.transport, 8) as dpus:
        first = dpus.channels[0].rank_index
    with DpuSet(session.transport, 8) as dpus:
        second = dpus.channels[0].rank_index
    # Rank 0 is NANA after release; the manager either reuses it for the
    # same device (previous user) or hands out rank 1.
    assert second in (0, 1)


def test_failed_multi_rank_alloc_releases_what_it_took():
    """The manager refusing a *later* device must not strand the ranks
    the earlier ones linked: nobody holds a channel to release them."""
    from repro.errors import ManagerError
    from repro.virt.manager import RankState
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=4))
    native = DpuSet(vpim.native_session().transport, 4)   # holds rank 0
    session = vpim.vm_session(nr_vupmem=2, mem_bytes=1 << 30)
    vm = session.vm
    with pytest.raises(ManagerError):
        DpuSet(session.transport, 8)     # device 0 links rank 1, device 1: none
    assert not any(device.linked for device in vm.devices)
    assert not [record for record in vpim.manager.rank_table.values()
                if record.state is RankState.ALLO
                and (record.assigned_device or "").startswith(vm.vm_id)]
    with DpuSet(session.transport, 4) as dpus:
        assert dpus.nr_dpus == 4
    native.free()
