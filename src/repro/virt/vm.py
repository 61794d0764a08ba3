"""The virtual machine object: guest memory, KVM context, vUPMEM devices."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.errors import DeviceNotLinkedError
from repro.hardware.machine import Machine
from repro.sdk.profile import Profiler
from repro.virt.backend import VUpmemBackend
from repro.virt.frontend import VUpmemFrontend
from repro.virt.guest_memory import GuestMemory
from repro.virt.kvm import Kvm
from repro.virt.virtio import VirtioPimQueues

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.qos.flow import QosFlow
    from repro.virt.firecracker import VmConfig
    from repro.virt.manager import Manager


@dataclass
class VUpmemDevice:
    """One vUPMEM device: frontend + backend + queues + MMIO window (§3.2:
    one such bundle per requested device, Fig. 3)."""

    device_id: str
    frontend: VUpmemFrontend
    backend: VUpmemBackend
    queues: VirtioPimQueues
    mmio: object = None
    initialized: bool = False

    @property
    def linked(self) -> bool:
        return self.backend.linked


@dataclass
class Vm:
    """A booted microVM (§3.2: one Firecracker process per VM)."""

    vm_id: str
    config: "VmConfig"
    machine: Machine
    memory: GuestMemory
    kvm: Kvm
    profiler: Profiler
    manager: "Manager"
    devices: List[VUpmemDevice] = field(default_factory=list)
    boot_time: float = 0.0
    #: The VM's QoS flow (``Optimization(qos=...)``); ``None`` = no flow
    #: registered, no arbitration, the exact default timing path.
    qos_flow: Optional["QosFlow"] = None
    #: Kernel command-line fragments describing the virtio devices
    #: (Section 3.2: how the guest learns MMIO regions and IRQs).
    kernel_cmdline: List[str] = field(default_factory=list)

    def free_devices(self) -> List[VUpmemDevice]:
        """Devices not currently linked to a physical rank."""
        return [device for device in self.devices if not device.linked]

    def acquire_rank(self, device: VUpmemDevice) -> int:
        """Ask the manager for a rank and link the device's backend to it.

        Dynamic rank allocation (Section 3.3): the same device may be
        linked to different physical ranks over the VM's lifetime.
        """
        if device.linked:
            raise DeviceNotLinkedError(
                f"device {device.device_id} is already linked"
            )
        # A paged rank's victim selection is QoS-weight-aware
        # (docs/paging.md): a heavier flow stays resident longer.
        weight = self.qos_flow.weight if self.qos_flow is not None else 1.0
        rank_index = self.manager.allocate(device.device_id, weight=weight)
        device.backend.link_rank(rank_index)
        if not device.initialized:
            try:
                self.machine.clock.advance(device.frontend.initialize())
            except Exception:
                # The config roundtrip failed (e.g. injected transport
                # fault): give the rank back, or it stays ALLO forever
                # with nobody holding a channel to release it.
                device.backend.unlink()
                raise
            device.initialized = True
        return rank_index

    def shutdown(self) -> None:
        """Release every linked device (VM teardown)."""
        for device in self.devices:
            if device.linked:
                device.backend.unlink()
        if self.qos_flow is not None:
            # Departed tenants stop contending: the flow leaves the
            # arbiter so survivors no longer pay for its demand.
            self.qos_flow.close()
