"""Every exception in ``repro.errors`` is raised by its own layer.

One test per class: trigger the failure through the layer's real API and
check the message carries actionable context (what failed, where, and
what to do about it) — the error surface is part of the paper artifact's
usability.
"""

import numpy as np
import pytest

from repro import errors
from repro.config import small_machine
from repro.core import VPim
from repro.driver.driver import UpmemDriver
from repro.driver.ioctl import IoctlCode, IoctlRequest
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.hardware.rank import CiCommand, RankHealth
from repro.observability.metrics import MetricsRegistry
from repro.virt.firecracker import VmConfig
from repro.virt.guest_memory import GuestMemory
from repro.virt.serialization import deserialize_request
from repro.virt.virtio import Virtqueue


def test_every_error_derives_from_repro_error():
    classes = [obj for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)]
    assert len(classes) > 20
    for cls in classes:
        assert issubclass(cls, errors.ReproError)


# -- hardware layer ---------------------------------------------------------

def test_memory_access_error_on_out_of_bounds_read(machine):
    mram = machine.ranks[0].dpus[0].mram
    with pytest.raises(errors.MemoryAccessError, match="outside"):
        mram.read(mram.size, 1)


def test_dpu_fault_error_on_launch_without_program(machine):
    with pytest.raises(errors.DpuFaultError, match="without a loaded"):
        machine.ranks[0].dpus[0].begin_run()


def test_rank_offline_error_on_dead_rank_operation(machine):
    rank = machine.ranks[0]
    rank.health = RankHealth.OFFLINE
    with pytest.raises(errors.RankOfflineError, match="offline"):
        rank.execute_ci(CiCommand.STATUS)


def test_control_interface_error_on_negative_count(machine):
    with pytest.raises(errors.ControlInterfaceError, match="negative"):
        machine.ranks[0].execute_ci(CiCommand.STATUS, -1)


# -- SDK layer --------------------------------------------------------------

def test_allocation_error_when_machine_too_small():
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8))
    from repro.apps.prim.va import VectorAdd
    with pytest.raises(errors.AllocationError):
        vpim.native_session().run(VectorAdd(nr_dpus=64,
                                            n_elements=1 << 12))


def test_program_load_error_on_running_dpu(machine):
    dpu = machine.ranks[0].dpus[0]
    dpu.load_program(object(), binary_size=64, symbols={})
    dpu.begin_run()
    with pytest.raises(errors.ProgramLoadError, match="running"):
        dpu.load_program(object(), binary_size=64, symbols={})


def test_transfer_error_on_bad_entry_size():
    from repro.sdk.transfer import DpuEntry
    with pytest.raises(errors.TransferError, match="size"):
        DpuEntry(dpu_index=0, size=-1).validate()


def test_launch_error_before_load():
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8))
    from repro.sdk.dpu_set import DpuSet
    with DpuSet(vpim.native_session().transport, nr_dpus=8) as dpus:
        with pytest.raises(errors.LaunchError, match="dpu_load"):
            dpus.launch()


# -- driver layer -----------------------------------------------------------

def test_ioctl_error_for_non_owner(machine):
    driver = UpmemDriver(machine)
    driver.ioctl("p1", IoctlRequest(code=IoctlCode.ALLOC_RANK,
                                    rank_index=0))
    with pytest.raises(errors.IoctlError, match="does not own"):
        driver.ioctl("p2", IoctlRequest(code=IoctlCode.FREE_RANK,
                                        rank_index=0))


def test_mmap_error_on_claimed_rank(machine):
    driver = UpmemDriver(machine)
    driver.mmap_rank(0, "owner-a")
    with pytest.raises(errors.MmapError, match="owned by"):
        driver.mmap_rank(0, "owner-b")


# -- virtualization layer ---------------------------------------------------

def test_virtqueue_error_on_empty_chain():
    queue = Virtqueue("transferq", capacity=4)
    with pytest.raises(errors.VirtqueueError, match="empty"):
        queue.submit([])


def test_serialization_error_on_empty_request():
    with pytest.raises(errors.SerializationError, match="empty"):
        deserialize_request([], GuestMemory(1 << 20))


def test_translation_error_outside_guest_memory():
    memory = GuestMemory(1 << 20)
    with pytest.raises(errors.TranslationError, match="outside"):
        memory.translate_pages(np.array([1 << 30], dtype=np.uint64))


def test_device_not_linked_error_on_double_acquire():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    session = vpim.vm_session(nr_vupmem=1)
    device = session.vm.devices[0]
    session.vm.acquire_rank(device)
    with pytest.raises(errors.DeviceNotLinkedError, match="already linked"):
        session.vm.acquire_rank(device)


def test_manager_error_on_bad_repair():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    with pytest.raises(errors.ManagerError, match="not FAIL"):
        vpim.manager.repair(0)


def test_vm_config_error_on_zero_vcpus(machine):
    with pytest.raises(errors.VmConfigError, match="vcpus"):
        VmConfig(vcpus=0, mem_bytes=1 << 30,
                 nr_vupmem=1).validate(machine)


def test_transport_corruption_error_carries_penalty():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    plan = FaultPlan(seed=0)
    plan.add(0.0, FaultKind.TRANSPORT_CORRUPTION, "transport:*")
    injector = FaultInjector(plan, vpim.clock)
    session = vpim.vm_session(nr_vupmem=1)
    injector.arm_vm(session.vm)
    frontend = session.vm.devices[0].frontend
    with pytest.raises(errors.TransportCorruptionError,
                       match="integrity") as info:
        frontend.fault_hook.before_send(frontend)
    assert info.value.penalty_s > 0
    assert info.value.kind == "transport_corruption"


def test_backend_hung_error_carries_watchdog_penalty():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    plan = FaultPlan(seed=0)
    plan.add(0.0, FaultKind.BACKEND_HANG, "backend:*")
    injector = FaultInjector(plan, vpim.clock)
    session = vpim.vm_session(nr_vupmem=1)
    injector.arm_vm(session.vm)
    backend = session.vm.devices[0].backend
    with pytest.raises(errors.BackendHungError, match="watchdog") as info:
        backend.fault_hook(backend)
    assert info.value.penalty_s > 0
    assert info.value.kind == "backend_hang"


# -- fault injection --------------------------------------------------------

def test_fault_injection_error_on_bad_target():
    with pytest.raises(errors.FaultInjectionError, match="seam"):
        FaultEvent(at=0.0, kind=FaultKind.BACKEND_HANG, target="rank:0")


# -- observability ----------------------------------------------------------

def test_observability_error_on_invalid_metric_name():
    with pytest.raises(errors.ObservabilityError, match="invalid"):
        MetricsRegistry().counter("bad name!", "help")
