"""The Firecracker VMM model (Sections 3.2-3.4).

Responsibilities reproduced here:

- the **API server**: VM configuration requests specify vCPUs, memory and
  the number of vUPMEM devices (Section 3.3 "vUPMEM Booking");
- **boot**: device descriptions (MMIO region, IRQ) are passed to the
  guest on the kernel command line; each vUPMEM device adds up to 2 ms of
  boot time (Section 3.2);
- the **event loop**: Firecracker originally handles virtio events
  sequentially; vPIM's parallel-operation-handling optimization hands
  each rank operation to a dedicated thread so concurrent requests to
  different ranks overlap (Section 4.2, Figs. 15/16).  The sequential-
  vs-parallel behaviour is realized by the transport's duration
  combining; this module records which policy is active.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import VmConfigError
from repro.driver.driver import UpmemDriver
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.observability.catalog import VM, bind
from repro.sdk.profile import Profiler
from repro.virt.backend import VUpmemBackend
from repro.virt.frontend import VUpmemFrontend
from repro.virt.guest_memory import MIN_GUEST_SIZE, GuestMemory
from repro.virt.kvm import Kvm
from repro.virt.manager import Manager
from repro.virt.mmio import MmioWindow
from repro.virt.opts import OptimizationConfig
from repro.virt.transfer_cache import GuestCache, HostCache
from repro.virt.vm import Vm, VUpmemDevice


@dataclass
class VmConfig:
    """What the host sends to the Firecracker API server (§3.3 "vUPMEM
    Booking": vCPUs, memory, number of vUPMEM devices)."""

    vcpus: int = 16
    mem_bytes: int = 128 << 30
    nr_vupmem: int = 1
    kernel_path: str = "vmlinux.bin"
    rootfs_path: str = "rootfs.ext4"
    opts: OptimizationConfig = field(default_factory=OptimizationConfig)

    def validate(self, machine: Machine,
                 capacity: Optional[int] = None) -> None:
        """Reject impossible VM shapes.

        ``capacity`` overrides the physical rank count as the sizing
        limit — the Manager's :meth:`~repro.virt.manager.Manager.\
rank_capacity` passes the pager's virtual capacity here when demand
        paging (``docs/paging.md``) advertises more ranks than exist.
        """
        if self.vcpus <= 0:
            raise VmConfigError(f"vcpus must be positive, got {self.vcpus}")
        if self.mem_bytes < MIN_GUEST_SIZE:
            raise VmConfigError(
                f"mem_bytes must be at least {MIN_GUEST_SIZE} (the 1 MB "
                f"BIOS area plus the smallest DMA arena), got {self.mem_bytes}")
        if self.nr_vupmem < 0:
            raise VmConfigError(f"nr_vupmem must be >= 0, got {self.nr_vupmem}")
        limit = capacity if capacity is not None else machine.nr_ranks
        if self.nr_vupmem > limit:
            raise VmConfigError(
                f"VM requests {self.nr_vupmem} vUPMEM devices but the host "
                f"offers only {limit} allocatable ranks (Section 3.3)"
            )
        if not self.kernel_path:
            raise VmConfigError("a kernel image path is required")


class Firecracker:
    """One Firecracker process per VM; this class is the factory side.

    The listening-socket thread of Section 3.2 is modeled by
    :meth:`launch_vm`, which validates the configuration, builds the
    guest, attaches the vUPMEM devices and boots.
    """

    def __init__(self, machine: Machine, driver: Optional[UpmemDriver] = None,
                 manager: Optional[Manager] = None) -> None:
        self.machine = machine
        self.driver = driver or UpmemDriver(machine)
        self.manager = manager or Manager(machine, self.driver)
        self.cost: CostModel = machine.cost
        #: Per-launcher, not global: VM (and thus device) names depend
        #: only on this machine's launch order, so a seeded run names its
        #: devices identically no matter what ran earlier in the process
        #: (the fault-timeline replay contract hashes these names).
        self._vm_ids = itertools.count()
        #: Live telemetry (shares the machine registry): boots + devices.
        self.obs = bind(machine.metrics, VM)

    def launch_vm(self, config: VmConfig) -> Vm:
        """Boot a microVM with the requested vUPMEM devices attached."""
        config.validate(self.machine, capacity=self.manager.rank_capacity())
        vm_id = f"vm-{next(self._vm_ids)}"
        memory = GuestMemory(config.mem_bytes)
        kvm = Kvm()
        profiler = Profiler(self.machine.clock)
        vm = Vm(vm_id=vm_id, config=config, machine=self.machine,
                memory=memory, kvm=kvm, profiler=profiler,
                manager=self.manager)
        if config.opts.qos is not None:
            # One flow per VM: all of the VM's devices share its weight,
            # throttles and demand window (per-tenant isolation).  Imported
            # here so that a run without a QoS VM never loads repro.qos.
            from repro.qos.flow import attach
            vm.qos_flow = attach(self.machine, vm_id, config.opts.qos)

        boot_time = self.cost.vm_boot_base
        for i in range(config.nr_vupmem):
            device_id = f"{vm_id}.vupmem{i}"
            host_cache = HostCache() if config.opts.cache else None
            backend = VUpmemBackend(
                device_id=device_id, driver=self.driver, guest_memory=memory,
                cost=self.cost, rust_data_path=not config.opts.c_enhancement,
                metrics=self.machine.metrics, spans=self.machine.spans,
                transfer_cache=host_cache, qos=vm.qos_flow,
            )
            # One MMIO window + IRQ per device, passed to the guest on
            # the kernel command line (Section 3.2).
            mmio = MmioWindow(
                base_address=0xD000_0000 + i * 0x1000, irq=5 + i,
                config_fields={
                    "frequency_hz": self.driver.config.frequency_hz,
                    "clock_division": self.driver.config.clock_division,
                    "mram_bytes": self.driver.config.mram_bytes,
                    "nr_dpus": self.driver.config.nr_dpus,
                    "nr_control_interfaces":
                        self.driver.config.nr_control_interfaces,
                },
            )
            frontend = VUpmemFrontend(
                device_id=device_id, memory=memory,
                backend=backend, kvm=kvm, opts=config.opts, cost=self.cost,
                profiler=profiler, mmio=mmio,
                metrics=self.machine.metrics, spans=self.machine.spans,
                qos=vm.qos_flow,
                transfer_cache=(GuestCache(host_cache)
                                if host_cache is not None else None),
            )
            vm.devices.append(VUpmemDevice(device_id=device_id,
                                           frontend=frontend,
                                           backend=backend,
                                           queues=frontend.queues,
                                           mmio=mmio))
            vm.kernel_cmdline.append(mmio.command_line_entry())
            boot_time += self.cost.vupmem_boot_cost

        self.machine.clock.advance(boot_time)
        vm.boot_time = boot_time
        self.obs.boots.inc()
        self.obs.boot_seconds.observe(boot_time)
        self.obs.devices[vm_id].set(config.nr_vupmem)
        return vm
