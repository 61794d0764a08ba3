"""A stack is freed when its last reference dies.

Ownership is a tree (``docs/architecture.md``, "Who owns what"), so
dropping the last reference to a ``VPim`` and its sessions runs
``MemoryRegion.__del__`` at once, with the cycle collector off, whatever
options built the stack: every region and the guest RAM die, and the
extent pool holds their extents again.
"""

import gc
import types
import weakref

import numpy as np
import pytest

from repro.apps.prim.va import VectorAdd
from repro.config import small_machine
from repro.core import VPim
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.hardware import memory
from repro.hardware.memory import MemoryRegion
from repro.paging.config import PagingConfig
from repro.qos.config import QosConfig
from repro.sdk.dpu_set import DpuSet
from repro.virt.guest_memory import GuestMemory
from repro.virt.migration import migrate_device
from repro.virt.opts import OptimizationConfig

#: Scenario -> (``VPim`` options, VM options or ``None`` for native).
SCENARIOS = {
    "vm": ({}, {}), "native": ({}, None), "armed_faults": ({}, {}),
    "migrated": ({}, {}), "cache": ({}, {"cache": True}),
    "qos": ({}, {"qos": QosConfig()}),
    "paging": ({"paging": PagingConfig()}, {}),
    "oversubscription": ({"oversubscription": True}, {}),
}


def stack(scenario) -> list:
    """The roots of a stack: each session ran an app and keeps a set
    allocated with MRAM written.  Paging and oversubscription get one
    rank and serve a second VM past it."""
    vpim_opts, vm_opts = SCENARIOS[scenario]
    vpim = VPim(small_machine(nr_ranks=1 if vpim_opts else 2,
                              dpus_per_rank=8), **vpim_opts)
    plan = FaultPlan(seed=0)
    plan.add(0.0, FaultKind.RANK_DEGRADED, "rank:*")
    plan.add(0.0, FaultKind.TRANSPORT_STALL, "transport:*")
    injector = FaultInjector(plan, vpim.clock, registry=vpim.machine.metrics)
    if scenario == "armed_faults":
        injector.arm_machine(vpim.machine, vpim.manager)
    roots = [vpim, injector]
    for _ in range(2 if vpim_opts else 1):
        session = (vpim.native_session() if vm_opts is None else
                   vpim.vm_session(mem_bytes=1 << 30,
                                   opts=OptimizationConfig(**vm_opts)))
        if scenario == "armed_faults":
            injector.arm_vm(session.vm)
        assert session.run(VectorAdd(nr_dpus=8, n_elements=1 << 12)).verified
        dpus = DpuSet(session.transport, 8)
        dpus.push_to_mram(0, [np.full(4096, 7, np.uint8)] * 8)
        roots += [session, dpus]
    if scenario == "migrated":
        migrate_device(session.vm.devices[0], vpim.manager)
    assert len(injector.fired) == (2 if scenario == "armed_faults" else 0)
    return roots


def owned(roots, kinds) -> list:
    """The objects of ``kinds`` reachable from ``roots`` (not through
    what every stack shares: classes, modules, functions)."""
    found, seen, pending = [], set(), list(roots)
    while pending:
        obj = pending.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, kinds):
            found.append(obj)
        pending.extend(gc.get_referents(obj))
    return found


def assert_freed(roots: list) -> None:
    """Empty ``roots``, the caller's last references to a stack, with the
    cycle collector off: every region and guest RAM they owned dies."""
    gc.disable()
    try:
        alive = [weakref.ref(region)
                 for region in owned(roots, (MemoryRegion, GuestMemory))]
        assert alive, "the roots own no region"
        roots.clear()
        assert [ref for ref in alive if ref() is not None] == []
    finally:
        gc.enable()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_the_last_reference_frees_the_stack(scenario, monkeypatch):
    pool = memory._ExtentPool()
    monkeypatch.setattr(memory, "EXTENT_POOL", pool)
    roots = stack(scenario)
    regions = owned(roots, (MemoryRegion, GuestMemory))
    assert any(isinstance(r, GuestMemory) for r in regions) == (
        scenario != "native")
    extents = [ext for region in regions
               if isinstance(region, MemoryRegion)
               for ext in region._extents.values()]
    del regions
    assert_freed(roots)
    pooled = {id(ext) for free in pool._free.values() for ext, _ in free}
    assert extents and {id(ext) for ext in extents} <= pooled
