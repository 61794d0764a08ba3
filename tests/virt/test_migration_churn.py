"""Migration under churn: checkpoint/restore/migrate amid live tenants.

Stresses the §7 mechanisms consolidation leans on: devices are
migrated while *other* VMs keep running applications, repeatedly, and
tenant state (MRAM bytes, WRAM symbols, loaded program) must survive
every hop.  A device whose rank is mid-launch must refuse to move.
"""

import numpy as np
import pytest

from repro.apps.prim.va import VectorAdd
from repro.config import small_machine
from repro.core import VPim
from repro.errors import DpuFaultError
from repro.sdk.dpu_set import DpuSet
from repro.virt.migration import migrate_device
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
def vpim():
    return VPim(small_machine(nr_ranks=4, dpus_per_rank=4))


def _seed_victim(session):
    """Give the victim VM distinctive MRAM and WRAM state."""
    device = session.vm.devices[0]
    session.vm.acquire_rank(device)
    rank = device.backend.mapping.rank
    program = Marker()
    for dpu in rank.dpus:
        dpu.load_program(program, program.binary_size, program.symbols)
        dpu.write_symbol("mark", 0, b"\xAA\xBB\xCC\xDD")
        dpu.mram.write(512, np.full(128, 0x5A, np.uint8))
    return device


def _assert_victim_intact(device):
    rank = device.backend.mapping.rank
    for dpu in rank.dpus:
        assert dpu.read_symbol("mark", 0, 4) == b"\xAA\xBB\xCC\xDD"
        assert (dpu.mram.read(512, 128) == 0x5A).all()
        assert dpu.program is not None and dpu.program.name == "marker"


def test_migrate_while_other_tenants_run(vpim):
    victim = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    worker = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    device = _seed_victim(victim)
    source = device.backend.mapping.rank.index

    # A busy neighbor runs a full app between the victim's launches...
    report = worker.run(VectorAdd(nr_dpus=4, n_elements=1 << 12, seed=1))
    assert report.verified
    # ...and the victim still migrates with its state intact.
    target = migrate_device(device, vpim.manager)
    assert target != source
    _assert_victim_intact(device)

    # The neighbor keeps working after the move.
    report = worker.run(VectorAdd(nr_dpus=4, n_elements=1 << 12, seed=2))
    assert report.verified


def test_repeated_migration_churn(vpim):
    victim = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    worker = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    device = _seed_victim(victim)

    hops = []
    for cycle in range(4):
        report = worker.run(
            VectorAdd(nr_dpus=4, n_elements=1 << 12, seed=cycle))
        assert report.verified
        hops.append(migrate_device(device, vpim.manager))
        _assert_victim_intact(device)
    # The device really moved each cycle (NANA reuse would stay put,
    # but the worker churns the rank pool between hops).
    assert len(hops) == 4


def test_migration_refused_while_running(vpim):
    victim = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    device = _seed_victim(victim)
    rank = device.backend.mapping.rank
    rank.dpus[0].begin_run()
    with pytest.raises(DpuFaultError):
        migrate_device(device, vpim.manager)
    # The device stayed linked to its original rank.
    assert device.backend.mapping.rank is rank
    from repro.hardware.dpu import DpuRunStats
    rank.dpus[0].finish_run(DpuRunStats())
    _assert_victim_intact(device)


def test_worker_dpuset_survives_neighbor_migration(vpim):
    """A DpuSet mid-conversation is unaffected by a neighbor's move."""
    victim = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    worker = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    device = _seed_victim(victim)

    with DpuSet(worker.transport, 4) as dpus:
        dpus.push_to_mram(0, [np.full(256, 3, np.uint8)] * 4)
        migrate_device(device, vpim.manager)
        got = dpus.push_from_mram(0, 256)
        assert all((buf == 3).all() for buf in got)
    _assert_victim_intact(device)
