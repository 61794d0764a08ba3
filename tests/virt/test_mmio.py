"""The virtio-mmio register window and device-status handshake."""

import numpy as np
import pytest

from repro.config import small_machine
from repro.core import VPim
from repro.driver.driver import DeviceConfig
from repro.errors import VirtError
from repro.sdk.dpu_set import DpuSet
from repro.virt.mmio import (
    DeviceStatus,
    MAGIC_VALUE,
    MmioWindow,
    Reg,
    driver_init_sequence,
)


@pytest.fixture
def window():
    return MmioWindow(base_address=0xD0000000, irq=5, config=DeviceConfig())


def is_live(window) -> bool:
    return bool(window.read(Reg.STATUS) & DeviceStatus.DRIVER_OK)


def test_identity_registers(window):
    assert window.read(Reg.MAGIC) == MAGIC_VALUE
    assert window.read(Reg.VERSION) == 2
    assert window.read(Reg.DEVICE_ID) == 42


def test_no_feature_bits_offered(window):
    # Appendix A.1: "No feature bits are needed".
    assert window.read(Reg.DEVICE_FEATURES) == 0
    with pytest.raises(VirtError):
        window.write(Reg.DRIVER_FEATURES, 1)


def test_config_space_readable(window):
    assert window.read(Reg.CONFIG) == 350_000_000       # frequency_hz
    assert window.read(Reg.CONFIG + 4 * 3) == 64        # nr_dpus
    assert window.read(Reg.CONFIG + 4 * 5) == 1         # power_management
    with pytest.raises(VirtError):
        window.read(Reg.CONFIG + 4 * 6)


def test_status_ordering_enforced(window):
    with pytest.raises(VirtError):
        window.write(Reg.STATUS, int(DeviceStatus.DRIVER))   # no ACK yet
    window.write(Reg.STATUS, int(DeviceStatus.ACKNOWLEDGE))
    with pytest.raises(VirtError):
        window.write(Reg.STATUS, int(DeviceStatus.ACKNOWLEDGE
                                     | DeviceStatus.DRIVER
                                     | DeviceStatus.DRIVER_OK))


def test_notify_before_driver_ok_rejected(window):
    """Appendix A.1: the driver must wait for initialization before
    sending any requests."""
    with pytest.raises(VirtError):
        window.write(Reg.QUEUE_NOTIFY, 0)


def test_full_init_sequence(window):
    driver_init_sequence(window)
    assert is_live(window)
    assert window.queue_ready == {0: True, 1: True}
    window.write(Reg.QUEUE_NOTIFY, 0)


def test_reset_clears_state(window):
    driver_init_sequence(window)
    window.write(Reg.STATUS, 0)
    assert not is_live(window)
    assert window.queue_ready == {}


def test_unmapped_access_rejected(window):
    with pytest.raises(VirtError):
        window.read(0x0FC)
    with pytest.raises(VirtError):
        window.write(0x0FC, 1)


def test_command_line_entry(window):
    entry = window.command_line_entry()
    assert "virtio_mmio.device=" in entry
    assert ":5" in entry


# -- integration through the VM -----------------------------------------------

def test_vm_devices_get_distinct_windows():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    session = vpim.vm_session(nr_vupmem=2, mem_bytes=1 << 30)
    windows = [d.frontend.mmio for d in session.vm.devices]
    assert windows[0].base_address != windows[1].base_address
    assert windows[0].irq != windows[1].irq
    assert len(session.vm.kernel_cmdline) == 2


def test_requests_flow_only_after_handshake():
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8))
    session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    frontend = session.vm.devices[0].frontend
    assert not is_live(frontend.mmio)
    with DpuSet(session.transport, 8) as dpus:
        assert is_live(frontend.mmio)              # initialize() ran the dance
        kicks = frontend.queues.transferq.kicks["transferq"]
        dpus.push_to_mram(0, [np.zeros(8192, np.uint8)] * 8)    # unbatched
        assert frontend.queues.transferq.kicks["transferq"] == kicks + 1
        # One trap per kick, one completion IRQ per request.
        stats = session.vm.kvm.stats
        assert stats.vmexits == stats.irq_injections == kicks + 1
