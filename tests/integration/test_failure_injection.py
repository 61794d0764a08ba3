"""Failure injection: the stack must degrade loudly, then keep working."""

import numpy as np
import pytest

from repro.config import small_machine
from repro.core import VPim
from repro.errors import DpuFaultError, ManagerError, TransferError
from repro.sdk.dpu_set import DpuSet
from tests.tasklet_reference import TaskletProgram


class FaultyProgram(TaskletProgram):
    """A kernel that dies on one specific DPU."""

    name = "faulty"
    symbols = {"ok": 4}
    nr_tasklets = 2

    def kernel(self, ctx):
        if ctx.dpu_index == 1 and ctx.me() == 0:
            raise DpuFaultError("injected kernel fault")
        if ctx.me() == 0:
            ctx.set_host_u32("ok", 1)
            ctx.charge(1)
        yield ctx.barrier()


class GoodProgram(TaskletProgram):
    name = "good"
    symbols = {"ok": 4}
    nr_tasklets = 2

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.set_host_u32("ok", 7)
            ctx.charge(1)
        yield ctx.barrier()


@pytest.fixture
def vm_session():
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=4))
    return vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)


def test_kernel_fault_propagates_through_vm(vm_session):
    with DpuSet(vm_session.transport, 4) as dpus:
        dpus.load(FaultyProgram())
        with pytest.raises(DpuFaultError):
            dpus.launch()


def test_queue_survives_backend_failure(vm_session):
    """A failed request must not wedge the transferq (error status is
    posted and the next request flows normally)."""
    with DpuSet(vm_session.transport, 4) as dpus:
        dpus.load(FaultyProgram())
        with pytest.raises(DpuFaultError):
            dpus.launch()
        # The same device keeps serving requests.
        dpus.load(GoodProgram())
        dpus.launch()
        value = int(dpus.copy_from(0, "ok", 0, 4).view(np.uint32)[0])
        assert value == 7
        assert vm_session.vm.devices[0].queues.transferq.pending == 0


def test_unknown_symbol_write_fails_cleanly(vm_session):
    with DpuSet(vm_session.transport, 4) as dpus:
        dpus.load(GoodProgram())
        with pytest.raises(DpuFaultError):
            dpus.copy_to(0, "no_such_symbol", 0, np.zeros(4, np.uint8))
        dpus.launch()   # still functional afterwards


def test_mram_out_of_bounds_write(vm_session):
    """Bounds are validated when the request is built — even for writes
    the batch buffer would otherwise absorb silently."""
    with DpuSet(vm_session.transport, 4) as dpus:
        with pytest.raises(TransferError):
            dpus.copy_to_mram(0, (64 << 20) - 4, np.zeros(16, np.uint8))


def test_oversubscription_pool_exhaustion():
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=4),
                oversubscription=True)
    vpim.manager.emulated_pool.max_ranks = 1
    hold_phys = DpuSet(vpim.vm_session(nr_vupmem=1,
                                       mem_bytes=1 << 30).transport, 4)
    hold_emu = DpuSet(vpim.vm_session(nr_vupmem=1,
                                      mem_bytes=1 << 30).transport, 4)
    third = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    with pytest.raises(ManagerError):
        DpuSet(third.transport, 4)       # pool cap reached -> abandoned
    hold_phys.free()
    hold_emu.free()


def test_batched_writes_never_lost_on_fault(vm_session):
    """Buffered small writes flush before the launch that faults, so the
    data is already on the rank when the fault surfaces."""
    with DpuSet(vm_session.transport, 4) as dpus:
        dpus.load(FaultyProgram())
        dpus.copy_to_mram(0, 0, np.full(64, 3, np.uint8))   # batched
        with pytest.raises(DpuFaultError):
            dpus.launch()                                    # flush + fault
        got = dpus.copy_from_mram(0, 0, 64)
        assert (got == 3).all()


def test_double_sized_entry_rejected_before_hardware(vm_session):
    from repro.sdk.transfer import DpuEntry
    with pytest.raises(TransferError):
        DpuEntry(0, -5)
