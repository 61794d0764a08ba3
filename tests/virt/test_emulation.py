"""Oversubscription via emulated ranks (Section 7 extension)."""

import numpy as np
import pytest

from repro.analysis.figures import machine_config
from repro.apps.prim.va import VectorAdd
from repro.config import small_machine
from repro.core import VPim
from repro.errors import HardwareError, ManagerError
from repro.hardware.machine import Machine
from repro.sdk.dpu_set import DpuSet
from repro.virt.emulation import (
    DEFAULT_SLOWDOWN,
    EMULATED_RANK_BASE,
    EmulatedRankPool,
    emulated_cost_model,
)


def make_vpim(oversub=True, nr_ranks=1):
    return VPim(small_machine(nr_ranks=nr_ranks, dpus_per_rank=8),
                oversubscription=oversub)


def test_emulated_cost_model_derates():
    from repro.hardware.timing import DEFAULT_COST_MODEL
    derated = emulated_cost_model(DEFAULT_COST_MODEL, slowdown=10)
    assert derated.dpu_frequency_hz == pytest.approx(
        DEFAULT_COST_MODEL.dpu_frequency_hz / 10)
    with pytest.raises(ValueError):
        emulated_cost_model(DEFAULT_COST_MODEL, slowdown=0.5)


def test_pool_creates_machine_shaped_ranks():
    machine = Machine(small_machine(nr_ranks=1, dpus_per_rank=8))
    pool = EmulatedRankPool(machine)
    rank = pool.resolve(pool.create())
    assert rank.index == EMULATED_RANK_BASE
    assert rank.nr_dpus == 8
    assert pool.owns(rank.index)
    assert not pool.owns(0)


def test_pool_capacity():
    machine = Machine(small_machine())
    pool = EmulatedRankPool(machine, max_ranks=2)
    pool.create()
    pool.create()
    with pytest.raises(HardwareError):
        pool.create()
    pool.release(EMULATED_RANK_BASE)
    pool.create()  # slot freed


def test_spill_to_emulated_rank_when_exhausted():
    vpim = make_vpim()
    a = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    b = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    hold = DpuSet(a.transport, 8)          # the only physical rank
    rep = b.run(VectorAdd(nr_dpus=8, n_elements=1 << 14))
    assert rep.verified
    assert vpim.manager.stats.emulated_allocations == 1
    hold.free()


def test_emulated_rank_is_slower():
    app_args = dict(nr_dpus=8, n_elements=1 << 16)

    vpim = make_vpim()
    hold = DpuSet(vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30).transport, 8)
    spilled = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30).run(
        VectorAdd(**app_args))
    hold.free()

    vpim2 = make_vpim(oversub=False)
    physical = vpim2.vm_session(nr_vupmem=1).run(VectorAdd(**app_args))

    assert spilled.verified and physical.verified
    assert spilled.segments_total > 1.5 * physical.segments_total


def test_emulated_rank_destroyed_on_release():
    vpim = make_vpim()
    hold = DpuSet(vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30).transport, 8)
    b = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    with DpuSet(b.transport, 8) as dpus:
        emu_index = dpus.channels[0].rank_index
        assert emu_index >= EMULATED_RANK_BASE
    assert vpim.manager.emulated_pool.active == 0
    assert emu_index not in vpim.manager.rank_table
    hold.free()


def test_without_oversubscription_request_fails():
    vpim = make_vpim(oversub=False)
    hold = DpuSet(vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30).transport, 8)
    b = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    with pytest.raises(Exception):
        DpuSet(b.transport, 8)
    hold.free()


def test_physical_preferred_over_emulated():
    vpim = make_vpim(nr_ranks=2)
    session = vpim.vm_session(nr_vupmem=2, mem_bytes=1 << 30)
    with DpuSet(session.transport, 16) as dpus:
        indices = [c.rank_index for c in dpus.channels]
        assert all(i < EMULATED_RANK_BASE for i in indices)
    assert vpim.manager.stats.emulated_allocations == 0


def test_exhausted_pool_backs_off_and_is_abandoned():
    vpim = VPim(machine_config(1, dpus_per_rank=4), oversubscription=True)
    manager = vpim.manager
    granted = [manager.allocate(f"dev-{i}") for i in range(9)]
    assert granted == [0] + list(range(EMULATED_RANK_BASE,
                                       EMULATED_RANK_BASE + 8))
    before = vpim.machine.clock.now
    with pytest.raises(ManagerError):
        manager.allocate("dev-9")
    assert vpim.machine.clock.now > before          # step 5's backoff ran
    assert manager.stats.abandoned == 1
    assert vpim.machine.metrics.value(
        "repro_manager_allocations_total", policy="round_robin",
        outcome="abandoned") == 1
