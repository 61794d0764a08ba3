"""The virtio-mmio register interface of a vUPMEM device.

Firecracker exposes virtio devices over MMIO; the guest learns each
device's register window and IRQ from the kernel command line (Section
3.2).  This module models the register file and the virtio device-status
initialization handshake the Appendix's "Device initialization" section
requires:

1. the driver resets the device and sets ACKNOWLEDGE, then DRIVER;
2. feature negotiation — the PIM device offers **no feature bits**
   (Appendix A.1), so the driver writes back 0 and sets FEATURES_OK;
3. the driver configures the two queues and sets DRIVER_OK;
4. only then may requests flow: "The driver must wait until the
   completion of device initialization before sending any requests."

Every MMIO write from the guest is a trapped access (a VMEXIT), which is
how the queue-notify "kick" register gets its cost.  The completion
interrupt is :meth:`~repro.virt.kvm.Kvm.inject_irq`'s: the window keeps
no interrupt-status register, because a synchronous request leaves none
pending.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

from repro.config import VIRTIO_PIM_DEVICE_ID
from repro.driver.driver import CONFIG_LAYOUT, DeviceConfig
from repro.errors import VirtError

#: "virt" in little-endian, the virtio-mmio magic value.
MAGIC_VALUE = 0x74726976
MMIO_VERSION = 2
VENDOR_ID = 0x76504D49  # "vPMI"


class Reg(enum.IntEnum):
    """Register offsets (the virtio-mmio layout subset we model; §3.2's
    MMIO transport)."""

    MAGIC = 0x000
    VERSION = 0x004
    DEVICE_ID = 0x008
    VENDOR_ID = 0x00C
    DEVICE_FEATURES = 0x010
    DRIVER_FEATURES = 0x020
    QUEUE_SEL = 0x030
    QUEUE_NUM = 0x038
    QUEUE_READY = 0x044
    QUEUE_NOTIFY = 0x050
    STATUS = 0x070
    CONFIG = 0x100


class DeviceStatus(enum.IntFlag):
    """The virtio device-status bits (the driver–device handshake behind
    §3.2's device initialization)."""

    RESET = 0
    ACKNOWLEDGE = 1
    DRIVER = 2
    DRIVER_OK = 4
    FEATURES_OK = 8
    FAILED = 128


#: ``DeviceStatus.DRIVER_OK`` as a plain int: the liveness test of every
#: queue notify, without an ``IntFlag`` operation.
_DRIVER_OK = int(DeviceStatus.DRIVER_OK)
#: The register every request writes (its kick), bound once like
#: ``_DRIVER_OK``.
_QUEUE_NOTIFY = Reg.QUEUE_NOTIFY


@dataclass
class MmioWindow:
    """One device's MMIO register window plus its assigned IRQ line (§3.2:
    passed to the guest on the kernel command line); ``config`` is what
    its config registers read, in :data:`CONFIG_LAYOUT` order.  The
    register state is the guest's to write."""

    base_address: int
    irq: int
    config: DeviceConfig
    status: int = field(default=0, init=False)
    queue_sel: int = field(default=0, init=False)
    queue_ready: Dict[int, bool] = field(default_factory=dict, init=False)

    # -- guest accessors -----------------------------------------------------

    def read(self, offset: int) -> int:
        if offset == Reg.MAGIC:
            return MAGIC_VALUE
        if offset == Reg.VERSION:
            return MMIO_VERSION
        if offset == Reg.DEVICE_ID:
            return VIRTIO_PIM_DEVICE_ID
        if offset == Reg.VENDOR_ID:
            return VENDOR_ID
        if offset == Reg.DEVICE_FEATURES:
            return 0  # Appendix A.1: no feature bits
        if offset == Reg.STATUS:
            return self.status
        if offset == Reg.QUEUE_READY:
            return int(self.queue_ready.get(self.queue_sel, False))
        if offset >= Reg.CONFIG:
            index = (offset - Reg.CONFIG) // 4
            if index < len(CONFIG_LAYOUT):
                value = getattr(self.config, CONFIG_LAYOUT[index])
                return int(value) & 0xFFFFFFFF
            raise VirtError(f"config read past the layout (offset {offset:#x})")
        raise VirtError(f"unmapped MMIO read at offset {offset:#x}")

    def write(self, offset: int, value: int) -> None:
        if offset == _QUEUE_NOTIFY:
            if not self.status & _DRIVER_OK:
                raise VirtError(
                    "queue notify before DRIVER_OK: the driver must wait "
                    "for device initialization (Appendix A.1)"
                )
        elif offset == Reg.STATUS:
            self._write_status(value)
        elif offset == Reg.DRIVER_FEATURES:
            if value != 0:
                raise VirtError(
                    "virtio-pim offers no feature bits; the driver must "
                    "negotiate 0"
                )
        elif offset == Reg.QUEUE_SEL:
            self.queue_sel = value
        elif offset == Reg.QUEUE_READY:
            self.queue_ready[self.queue_sel] = bool(value)
        else:
            raise VirtError(f"unmapped MMIO write at offset {offset:#x}")

    def _write_status(self, value: int) -> None:
        if value == 0:
            self.status = 0
            self.queue_ready.clear()
            return
        added = value & ~self.status
        # Enforce the initialization ordering.
        if added & DeviceStatus.DRIVER and not (value & DeviceStatus.ACKNOWLEDGE):
            raise VirtError("DRIVER before ACKNOWLEDGE")
        if added & DeviceStatus.FEATURES_OK and not (value & DeviceStatus.DRIVER):
            raise VirtError("FEATURES_OK before DRIVER")
        if added & DeviceStatus.DRIVER_OK and not (value & DeviceStatus.FEATURES_OK):
            raise VirtError("DRIVER_OK before FEATURES_OK")
        self.status = value

    def command_line_entry(self) -> str:
        """The kernel command-line fragment describing this device
        (Section 3.2: MMIO region + IRQ passed to the guest at boot)."""
        return f"virtio_mmio.device=4K@{self.base_address:#x}:{self.irq}"


def driver_init_sequence(window: MmioWindow,
                         nr_queues: int = 2) -> None:
    """Run the standard driver-side initialization dance on ``window``."""
    if window.read(Reg.MAGIC) != MAGIC_VALUE:
        raise VirtError("bad virtio-mmio magic")
    if window.read(Reg.DEVICE_ID) != VIRTIO_PIM_DEVICE_ID:
        raise VirtError(
            f"not a virtio-pim device (id {window.read(Reg.DEVICE_ID)})"
        )
    window.write(Reg.STATUS, 0)
    window.write(Reg.STATUS, int(DeviceStatus.ACKNOWLEDGE))
    window.write(Reg.STATUS,
                 int(DeviceStatus.ACKNOWLEDGE | DeviceStatus.DRIVER))
    window.write(Reg.DRIVER_FEATURES, window.read(Reg.DEVICE_FEATURES))
    window.write(Reg.STATUS, int(DeviceStatus.ACKNOWLEDGE
                                 | DeviceStatus.DRIVER
                                 | DeviceStatus.FEATURES_OK))
    for queue in range(nr_queues):
        window.write(Reg.QUEUE_SEL, queue)
        window.write(Reg.QUEUE_READY, 1)
    window.write(Reg.STATUS, int(DeviceStatus.ACKNOWLEDGE
                                 | DeviceStatus.DRIVER
                                 | DeviceStatus.FEATURES_OK
                                 | DeviceStatus.DRIVER_OK))
