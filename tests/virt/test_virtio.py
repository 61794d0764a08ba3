"""Virtqueues: capacity, chains, completion flow, config space."""

import numpy as np
import pytest

from repro.config import (
    MAX_SERIALIZED_BUFFERS,
    TRANSFERQ_SLOTS,
    VIRTIO_PIM_DEVICE_ID,
)
from repro.errors import VirtqueueError
from repro.virt.guest_memory import GuestMemory
from repro.virt.virtio import (
    Descriptor,
    UsedElement,
    Virtqueue,
    VirtioPimConfigSpace,
    VirtioPimQueues,
    write_buffer,
)


def desc(n: int = 1):
    return [Descriptor(gpa=i * 4096, length=64) for i in range(n)]


def test_device_id_is_42():
    assert VirtioPimConfigSpace().device_id == VIRTIO_PIM_DEVICE_ID == 42


def test_config_space_fields():
    fields = VirtioPimConfigSpace().as_fields()
    # Appendix A.1: clock division, memory size, #CIs, frequency, power.
    for key in ("clock_division", "mram_bytes", "nr_control_interfaces",
                "frequency_hz", "power_management"):
        assert key in fields


def test_queues_shape():
    queues = VirtioPimQueues()
    assert queues.transferq.capacity == TRANSFERQ_SLOTS == 512
    assert queues.controlq.capacity == 64


def test_chain_roundtrip():
    q = Virtqueue("q", 16)
    rid = q.add_chain(desc(3))
    q.kick()
    popped = q.pop_avail()
    assert popped == (rid, desc(3))
    q.push_used(UsedElement(request_id=rid))
    used = q.pop_used()
    assert used.request_id == rid and used.status == 0
    assert q.kicks == {"q": 1}


def test_submit_and_complete_end_where_the_single_steps_do():
    """``submit`` + ``complete`` are add/kick/pop and push/pop of one
    synchronous request in two calls: same ids, counters and rings."""
    steps, both = Virtqueue("q", 16), Virtqueue("q", 16)
    for n in (3, 2, 1):
        rid = steps.add_chain(desc(n))
        depth = steps.pending
        steps.kick()
        steps.pop_avail()
        steps.push_used(UsedElement(request_id=rid, status=1))
        steps.pop_used()
        assert both.submit(desc(n)) == (rid, depth)
        both.complete(rid, status=1)
    state = [(q._next_id, q.kicks["q"], q.max_outstanding, q.pending,
              len(q._used)) for q in (steps, both)]
    assert state[0] == state[1] == (3, 3, 3, 0, 0)


def test_empty_chain_rejected():
    with pytest.raises(VirtqueueError):
        Virtqueue("q", 16).add_chain([])


def test_chain_over_serialization_bound_rejected():
    q = Virtqueue("q", TRANSFERQ_SLOTS)
    with pytest.raises(VirtqueueError):
        q.add_chain(desc(MAX_SERIALIZED_BUFFERS + 1))


def test_capacity_enforced_across_outstanding_chains():
    q = Virtqueue("q", 8)
    q.add_chain(desc(5))
    with pytest.raises(VirtqueueError):
        q.add_chain(desc(5))
    q.pop_avail()
    q.add_chain(desc(5))  # slots freed


def test_full_64_dpu_matrix_fits():
    # 2 + 2*64 = 130 buffers must fit the 512-slot transferq (Fig. 7).
    q = Virtqueue("transferq", TRANSFERQ_SLOTS)
    q.add_chain(desc(130))
    assert q.pending == 1


def test_pop_empty_returns_none():
    q = Virtqueue("q", 4)
    assert q.pop_avail() is None
    assert q.pop_used() is None


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
