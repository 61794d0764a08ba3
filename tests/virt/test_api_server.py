"""The vUPMEM booking flow (Sections 3.2/3.3): a VmConfig names vCPUs,
memory, the number of vUPMEM devices and their preset, and
Firecracker.launch_vm boots it or refuses it before building a guest."""

import pytest

from repro.config import small_machine
from repro.errors import VmConfigError
from repro.hardware.machine import Machine
from repro.virt.firecracker import Firecracker, VmConfig
from repro.virt.opts import preset


@pytest.fixture
def fc():
    return Firecracker(Machine(small_machine(nr_ranks=2, dpus_per_rank=8)))


def boot(fc, nr_vupmem=1, **extra):
    return fc.launch_vm(VmConfig(vcpus=4, mem_bytes=1024 << 20,
                                 nr_vupmem=nr_vupmem, **extra))


def test_full_boot_flow(fc):
    vm = boot(fc, nr_vupmem=2)
    assert vm.boot_time > 0
    assert len(vm.kernel_cmdline) == 2
    assert len(vm.devices) == 2


def test_vupmem_preset_selection(fc):
    vm = boot(fc, nr_vupmem=1, opts=preset("vPIM-rust"))
    assert vm.devices[0].backend.rust_data_path


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        preset("bogus")


def test_too_many_devices_rejected(fc):
    with pytest.raises(VmConfigError, match="ranks"):
        boot(fc, nr_vupmem=10)


def test_guest_too_small_for_its_dma_arena_is_refused_at_start(fc):
    from repro.virt.guest_memory import MIN_GUEST_SIZE
    t0 = fc.machine.clock.now
    with pytest.raises(VmConfigError, match=str(MIN_GUEST_SIZE)):
        fc.launch_vm(VmConfig(mem_bytes=1 << 20, nr_vupmem=1))
    # Refused before boot: no boot time passed and no VM id was spent.
    assert fc.machine.clock.now == t0
    assert boot(fc).vm_id == "vm-0"
