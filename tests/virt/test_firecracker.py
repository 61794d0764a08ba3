"""Firecracker VMM: API validation, boot costs, device wiring."""

import pytest

from repro.config import small_machine
from repro.errors import VmConfigError
from repro.hardware.machine import Machine
from repro.hardware.timing import DEFAULT_COST_MODEL
from repro.virt.firecracker import Firecracker, VmConfig
from repro.virt.guest_memory import MIN_GUEST_SIZE


@pytest.fixture
def fc():
    return Firecracker(Machine(small_machine(nr_ranks=2, dpus_per_rank=4)))


def test_vm_config_validation(fc):
    machine = fc.machine
    with pytest.raises(VmConfigError):
        VmConfig(vcpus=0).validate(machine)
    with pytest.raises(VmConfigError):
        VmConfig(mem_bytes=0).validate(machine)
    with pytest.raises(VmConfigError):
        VmConfig(nr_vupmem=-1).validate(machine)
    with pytest.raises(VmConfigError):
        VmConfig(kernel_path="").validate(machine)


def test_smallest_guest_is_the_smallest_that_works(fc):
    with pytest.raises(VmConfigError, match=str(MIN_GUEST_SIZE)):
        VmConfig(mem_bytes=MIN_GUEST_SIZE - 1).validate(fc.machine)
    vm = fc.launch_vm(VmConfig(mem_bytes=MIN_GUEST_SIZE, nr_vupmem=1))
    vm.acquire_rank(vm.devices[0])       # initialize(): a config roundtrip
    assert vm.devices[0].initialized


def test_cannot_request_more_devices_than_ranks(fc):
    # Section 3.3: up to the number of physical UPMEMs.
    with pytest.raises(VmConfigError):
        VmConfig(nr_vupmem=3).validate(fc.machine)


def test_boot_time_includes_device_cost(fc):
    t0 = fc.machine.clock.now
    vm = fc.launch_vm(VmConfig(nr_vupmem=2, mem_bytes=1 << 30))
    boot = fc.machine.clock.now - t0
    assert boot == pytest.approx(vm.boot_time)
    # Section 3.2: each vUPMEM device adds at most 2 ms.
    per_device = (boot - DEFAULT_COST_MODEL.vm_boot_base) / 2
    assert per_device <= 2e-3 + 1e-9


def test_vm_has_devices_and_queues(fc):
    vm = fc.launch_vm(VmConfig(nr_vupmem=2, mem_bytes=1 << 30))
    assert len(vm.devices) == 2
    for device in vm.devices:
        assert not device.linked
        assert device.queues.transferq.capacity == 512
    assert {d.device_id for d in vm.devices} == {
        f"{vm.vm_id}.vupmem0", f"{vm.vm_id}.vupmem1"}


def test_acquire_rank_links_and_initializes(fc):
    vm = fc.launch_vm(VmConfig(nr_vupmem=1, mem_bytes=1 << 30))
    device = vm.devices[0]
    rank_index = vm.acquire_rank(device)
    assert device.linked
    assert device.backend.mapping.rank.index == rank_index
    assert device.initialized
    assert device.frontend.device_config is not None


def test_shutdown_releases_ranks(fc):
    vm = fc.launch_vm(VmConfig(nr_vupmem=1, mem_bytes=1 << 30))
    vm.acquire_rank(vm.devices[0])
    assert fc.driver.free_ranks() == [1]
    vm.shutdown()
    assert fc.driver.free_ranks() == [0, 1]


def test_vm_ids_are_unique(fc):
    a = fc.launch_vm(VmConfig(nr_vupmem=0, mem_bytes=1 << 30))
    b = fc.launch_vm(VmConfig(nr_vupmem=0, mem_bytes=1 << 30))
    assert a.vm_id != b.vm_id


def test_rust_path_selected_by_opts(fc):
    from repro.virt.opts import preset
    vm = fc.launch_vm(VmConfig(nr_vupmem=1, mem_bytes=1 << 30,
                               opts=preset("vPIM-rust")))
    assert vm.devices[0].backend.rust_data_path
    vm2 = fc.launch_vm(VmConfig(nr_vupmem=1, mem_bytes=1 << 30))
    assert not vm2.devices[0].backend.rust_data_path
