"""Shared fixtures: small armed stacks for fault-injection tests."""

from __future__ import annotations

import pytest

from repro.config import small_machine
from repro.core import VPim
from repro.faults import FaultInjector, FaultPlan


@pytest.fixture
def chaos_vpim() -> VPim:
    """A 2-rank stack; rank 1 is the replacement pool."""
    return VPim(small_machine(nr_ranks=2, dpus_per_rank=8))


def arm(vpim: VPim):
    """An empty-plan injector armed on machine + manager + one fresh VM
    of ``vpim``; returns ``(vpim, injector, session)``.

    Tests schedule events through ``injector.plan.add`` *before* running
    operations; an empty plan never fires.
    """
    plan = FaultPlan(seed=0)
    injector = FaultInjector(plan, vpim.clock, registry=vpim.machine.metrics)
    injector.arm_machine(vpim.machine, vpim.manager)
    session = vpim.vm_session(nr_vupmem=1)
    injector.arm_vm(session.vm)
    return vpim, injector, session


@pytest.fixture
def armed(chaos_vpim):
    """:func:`arm` on the 2-rank stack."""
    return arm(chaos_vpim)


def schedule(injector, at, kind, target, **params):
    """Add an event to an armed injector's pending queue."""
    event = injector.plan.add(at, kind, target, **params)
    injector.pending.append(event)
    return event
