"""Shared fixtures: small armed stacks for fault-injection tests."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig, Scheduler
from repro.config import small_machine
from repro.core import VPim
from repro.faults import FaultInjector, FaultPlan


@pytest.fixture
def cluster() -> Cluster:
    """A 3-host fleet, 2 ranks x 4 DPUs per host."""
    return Cluster(ClusterConfig(nr_hosts=3, ranks_per_host=2,
                                 dpus_per_rank=4))


@pytest.fixture
def scheduler(cluster) -> Scheduler:
    return Scheduler(cluster, policy="round_robin", queue_limit=4)


@pytest.fixture
def chaos_vpim() -> VPim:
    """A 2-rank stack; rank 1 is the replacement pool."""
    return VPim(small_machine(nr_ranks=2, dpus_per_rank=8))


@pytest.fixture
def armed(chaos_vpim):
    """An empty-plan injector armed on machine + manager + one fresh VM.

    Tests schedule events through ``injector.plan.add`` *before* running
    operations; an empty plan never fires.
    """
    plan = FaultPlan(seed=0)
    injector = FaultInjector(plan, chaos_vpim.clock,
                             registry=chaos_vpim.machine.metrics)
    injector.arm_machine(chaos_vpim.machine, chaos_vpim.manager)
    session = chaos_vpim.vm_session(nr_vupmem=1)
    injector.arm_vm(session.vm)
    return chaos_vpim, injector, session


def schedule(injector, at, kind, target, **params):
    """Add an event to an armed injector's pending queue."""
    event = injector.plan.add(at, kind, target, **params)
    injector.pending.append(event)
    return event
