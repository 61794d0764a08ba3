"""Checkpoint/restore and device migration (Section 7 extension)."""

import numpy as np
import pytest

from repro.analysis.figures import machine_config
from repro.config import small_machine
from repro.core import VPim
from repro.errors import DpuFaultError, ManagerError
from repro.hardware.machine import Machine
from repro.paging.config import PagingConfig
from repro.sdk.dpu_set import DpuSet
from repro.virt.emulation import EMULATED_RANK_BASE
from repro.virt.migration import (
    checkpoint_rank,
    consolidate,
    migrate_device,
    restore_rank,
)
from tests.tasklet_reference import TaskletProgram


class Marker(TaskletProgram):
    name = "marker"
    symbols = {"mark": 4}
    nr_tasklets = 2

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.set_host_u32("mark", 0xC0FFEE)
            ctx.charge(2)
        yield ctx.barrier()


@pytest.fixture
def machine():
    return Machine(small_machine(nr_ranks=2, dpus_per_rank=4))


def test_checkpoint_restore_roundtrip(machine):
    src, dst = machine.rank(0), machine.rank(1)
    program = Marker()
    for dpu in src.dpus:
        dpu.load_program(program, program.binary_size, program.symbols)
        dpu.write_symbol("mark", 0, b"\x01\x02\x03\x04")
    src.dpu(2).mram.write(1000, np.arange(64, dtype=np.uint8))

    checkpoint, save_time = checkpoint_rank(src)
    assert save_time > 0
    restore_time = restore_rank(dst, checkpoint)
    assert restore_time > 0

    assert dst.dpu(2).mram.read(1000, 64).tolist() == list(range(64))
    assert dst.dpu(0).read_symbol("mark", 0, 4) == b"\x01\x02\x03\x04"
    assert dst.dpu(0).program is program


def test_checkpoint_is_sparse(machine):
    src = machine.rank(0)
    src.dpu(0).mram.write(0, np.ones(100, dtype=np.uint8))
    checkpoint, _ = checkpoint_rank(src)
    # Only one 64 KB segment of one DPU was touched.
    assert checkpoint.nr_bytes <= 64 * 1024


def test_checkpoint_refused_while_running(machine):
    src = machine.rank(0)
    program = Marker()
    dpu = src.dpu(0)
    dpu.load_program(program, program.binary_size, program.symbols)
    dpu.begin_run()
    with pytest.raises(DpuFaultError):
        checkpoint_rank(src)


def test_restore_needs_enough_dpus(machine):
    from repro.config import RankConfig
    from repro.hardware.rank import Rank
    small = Rank(RankConfig(5, 2))
    checkpoint, _ = checkpoint_rank(machine.rank(0))  # 4 DPUs
    with pytest.raises(ManagerError):
        restore_rank(small, checkpoint)


def test_migrate_device_moves_data():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=4))
    session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    with DpuSet(session.transport, 4) as dpus:
        dpus.push_to_mram(0, [np.full(256, 9, np.uint8)] * 4)
        device = session.vm.devices[0]
        old = device.backend.mapping.rank.index
        new = migrate_device(device, vpim.manager)
        assert new != old
        # Reads now hit the new rank with identical content.
        got = dpus.push_from_mram(0, 256)
        assert all((buf == 9).all() for buf in got)
        # The old rank was released back to the manager.
        assert vpim.manager.rank_table[old].state.value in ("NANA", "NAAV")


def test_migrate_unlinked_device_rejected():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=4))
    session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    with pytest.raises(ManagerError):
        migrate_device(session.vm.devices[0], vpim.manager)


def test_migration_advances_clock():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=4))
    session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    with DpuSet(session.transport, 4) as dpus:
        dpus.push_to_mram(0, [np.ones(1 << 16, np.uint8)] * 4)
        t0 = vpim.machine.clock.now
        migrate_device(session.vm.devices[0], vpim.manager)
        assert vpim.machine.clock.now > t0


def test_consolidate_upgrades_emulated_tenant():
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8),
                oversubscription=True)
    holder = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    tenant = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    hold = DpuSet(holder.transport, 8)
    spilled = DpuSet(tenant.transport, 8)
    spilled.push_to_mram(0, [np.full(128, 5, np.uint8)] * 8)
    assert spilled.channels[0].rank_index >= EMULATED_RANK_BASE

    hold.free()                          # the physical rank frees up
    vpim.machine.clock.advance(1.0)      # its reset completes
    migrated = consolidate(vpim.manager, tenant.vm.devices)
    assert migrated == 1
    new_rank = tenant.vm.devices[0].backend.mapping.rank.index
    assert new_rank < EMULATED_RANK_BASE
    got = spilled.push_from_mram(0, 128)
    assert all((buf == 5).all() for buf in got)
    spilled.free()


def test_consolidate_noop_without_pool():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=4))
    session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    assert consolidate(vpim.manager, session.vm.devices) == 0


def test_consolidate_scan_causes_no_paging_traffic():
    vpim = VPim(machine_config(1, dpus_per_rank=4), oversubscription=True,
                paging=PagingConfig())
    sessions = [vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 28)
                for _ in range(2)]
    sets = [DpuSet(session.transport, 4) for session in sessions]
    for dpus in sets:
        dpus.push_to_mram(0, [np.full(64, 7, np.uint8)] * 4)
    pager = vpim.manager.pager
    assert [pager.resident_rank(dpus.channels[0].rank_index) is None
            for dpus in sets] == [True, False]
    faults, evictions = dict(pager.faults), pager.counts.get("evictions", 0)
    now = vpim.machine.clock.now
    devices = [device for session in sessions for device in session.vm.devices]
    assert consolidate(vpim.manager, devices) == 0
    assert dict(pager.faults) == faults
    assert pager.counts.get("evictions", 0) == evictions
    assert vpim.machine.clock.now == now
    for dpus in sets:
        dpus.free()
