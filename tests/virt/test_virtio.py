"""Virtqueues: capacity, chains, kicks, the config layout."""

import numpy as np
import pytest

from repro.config import (
    MAX_SERIALIZED_BUFFERS,
    TRANSFERQ_SLOTS,
    VIRTIO_PIM_DEVICE_ID,
)
from repro.driver.driver import CONFIG_LAYOUT, DeviceConfig
from repro.errors import VirtqueueError
from repro.virt.guest_memory import GuestMemory
from repro.virt.mmio import MmioWindow, Reg
from repro.virt.virtio import (
    Descriptor,
    Virtqueue,
    VirtioPimQueues,
    write_buffer,
)


def desc(n: int = 1):
    return [Descriptor(gpa=i * 4096, length=64) for i in range(n)]


def test_device_id_is_42():
    window = MmioWindow(base_address=0xD0000000, irq=5, config=DeviceConfig())
    assert window.read(Reg.DEVICE_ID) == VIRTIO_PIM_DEVICE_ID == 42


def test_config_space_fields():
    # Appendix A.1: clock division, memory size, #CIs, frequency, power;
    # the MMIO config window serves them in layout order.
    for key in ("clock_division", "mram_bytes", "nr_control_interfaces",
                "frequency_hz", "power_management"):
        assert key in CONFIG_LAYOUT
    config = DeviceConfig()
    window = MmioWindow(base_address=0xD0000000, irq=5, config=config)
    assert [window.read(Reg.CONFIG + 4 * i)
            for i in range(len(CONFIG_LAYOUT))] == [
        int(getattr(config, key)) for key in CONFIG_LAYOUT]


def test_queues_shape():
    queues = VirtioPimQueues()
    assert queues.transferq.capacity == TRANSFERQ_SLOTS == 512
    assert queues.controlq.capacity == 64


def test_chain_roundtrip():
    """A request is one synchronous exchange: submitting a chain is one
    kick, and the queue holds nothing afterwards."""
    q = Virtqueue("q", 16)
    q.submit(desc(3))
    q.submit(desc(1))
    assert q.kicks == {"q": 2}


def test_empty_chain_rejected():
    with pytest.raises(VirtqueueError):
        Virtqueue("q", 16).submit([])


def test_chain_over_serialization_bound_rejected():
    q = Virtqueue("q", TRANSFERQ_SLOTS)
    with pytest.raises(VirtqueueError):
        q.submit(desc(MAX_SERIALIZED_BUFFERS + 1))
    assert q.kicks == {}                    # a refused chain is no kick


def test_capacity_enforced_across_outstanding_chains():
    """No chain is outstanding between requests: each one may use every
    slot, and none may use more."""
    q = Virtqueue("q", 8)
    q.submit(desc(5))
    q.submit(desc(5))
    with pytest.raises(VirtqueueError):
        q.submit(desc(9))
    assert q.kicks == {"q": 2}


def test_full_64_dpu_matrix_fits():
    # 2 + 2*64 = 130 buffers must fit the 512-slot transferq (Fig. 7).
    q = Virtqueue("transferq", TRANSFERQ_SLOTS)
    q.submit(desc(130))
    assert q.kicks == {"transferq": 1}


def test_write_buffer_places_data_in_guest_memory():
    mem = GuestMemory(64 << 20)
    data = np.arange(100, dtype=np.uint8)
    d = write_buffer(mem, data)
    assert d.length == 100
    assert np.array_equal(mem.read(d.gpa, 100), data)


def test_write_buffer_device_writable_flag():
    mem = GuestMemory(64 << 20)
    d = write_buffer(mem, np.zeros(8, dtype=np.uint8), device_writable=True)
    assert d.device_writable
