"""Overcommit through the full stack: VMs, virtio, pager, manager."""

import pytest

from repro.analysis.figures import machine_config
from repro.analysis.overcommit import run_overcommit
from repro.apps.prim.va import VectorAdd
from repro.core import VPim
from repro.errors import VmConfigError
from repro.paging.config import PagingConfig
from repro.paging.pager import PAGED_RANK_BASE


def test_vm_session_runs_verified_on_a_paged_rank():
    vpim = VPim(machine_config(2, dpus_per_rank=4),
                paging=PagingConfig(overcommit_ratio=2.0))
    session = vpim.vm_session(nr_vupmem=1)
    report = session.run(VectorAdd(nr_dpus=4, n_elements=1 << 10))
    assert report.verified
    assert vpim.manager.allocations.get("paged", 0) == 1
    assert vpim.manager.pager.faults.get("first_touch", 0) >= 1


def test_four_tenants_on_two_ranks_all_verified_with_swapping():
    result = run_overcommit(tenants=4, physical_ranks=2, dpus_per_rank=4,
                            rounds=2, n_elements=1 << 12)
    paging = result.arms["paging"]
    assert paging.admitted == 4
    assert paging.evictions > 0
    assert paging.swap_bytes > 0
    # The acceptance bar: every tenant's outputs bit-identical to the
    # non-overcommitted reference host.
    assert result.identical_to_reference("paging")
    assert result.identical_to_reference("emulation")


def test_vm_shapes_validate_against_virtual_capacity():
    vpim = VPim(machine_config(2, dpus_per_rank=4),
                paging=PagingConfig(overcommit_ratio=2.0))
    # 4 devices exceed the 2 physical ranks but fit the 4 virtual ones.
    session = vpim.vm_session(nr_vupmem=4)
    assert len(session.vm.devices) == 4
    with pytest.raises(VmConfigError, match="allocatable ranks"):
        vpim.vm_session(nr_vupmem=5)


def test_release_destroys_the_vrank_record():
    vpim = VPim(machine_config(2, dpus_per_rank=4),
                paging=PagingConfig(overcommit_ratio=2.0))
    session = vpim.vm_session(nr_vupmem=1)
    session.run(VectorAdd(nr_dpus=4, n_elements=1 << 10))
    # The session released its rank at app exit: no paged record stays.
    paged = [idx for idx in vpim.manager.rank_table
             if idx >= PAGED_RANK_BASE]
    assert paged == []
    # The frame stayed sticky with the pager for the next tenant.
    assert vpim.manager.pager.frames_held == 1


def test_paging_host_advertises_virtual_capacity():
    vpim = VPim(machine_config(2, dpus_per_rank=4),
                paging=PagingConfig(overcommit_ratio=2.0))
    assert vpim.machine.nr_ranks == 2
    assert vpim.manager.rank_capacity() == 4


def test_host_without_paging_is_physically_sized():
    vpim = VPim(machine_config(2, dpus_per_rank=4))
    assert vpim.manager.rank_capacity() == 2
