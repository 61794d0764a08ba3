"""Virtqueues and the virtio-pim device plumbing (Appendix A.1).

The specification the paper proposes to the OASIS VIRTIO committee:

- device ID **42**;
- two queues: **transferq** (512 slots) carrying commands and data, and
  **controlq** carrying manager synchronization notifications;
- no feature bits;
- a device configuration layout exposing clock division, memory region
  size, number of control interfaces, DPU frequency and power management
  information — the same attributes the native driver publishes.

Buffers are (GPA, length) descriptors into guest memory; a request is a
descriptor chain.  The serialized transfer matrix occupies at most 130
buffers (request info + matrix metadata + 64 x (DPU metadata + page
buffer)), fitting the 512-pointer queue regardless of data size (Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.config import MAX_SERIALIZED_BUFFERS, TRANSFERQ_SLOTS
from repro.errors import VirtqueueError
from repro.observability.metrics import Counts
from repro.virt.guest_memory import GuestMemory


@dataclass(frozen=True)
class Descriptor:
    """One buffer reference in a descriptor chain (Appendix A.1: up to 131
    chained buffers per request)."""

    gpa: int
    length: int
    device_writable: bool = False


class Virtqueue:
    """One queue of the device (Appendix A.1: the 512-slot transferq and
    the controlq).  The exchange is synchronous: the device takes a
    chain as it is kicked and completes it before the kick returns, so
    no ring holds a chain between calls.

    ``kicks[name]`` counts its kicks; ``series`` maps the queue name to
    the child that reads it."""

    def __init__(self, name: str, capacity: int, series=None) -> None:
        self.name = name
        self.capacity = capacity
        self.kicks = Counts(series)

    def submit(self, chain: List[Descriptor]) -> None:
        """Post ``chain`` and kick: the Appendix A.1 bounds are checked
        and the kick counted."""
        if not chain:
            raise VirtqueueError(f"{self.name}: empty descriptor chain")
        if len(chain) > MAX_SERIALIZED_BUFFERS:
            raise VirtqueueError(
                f"{self.name}: chain of {len(chain)} buffers exceeds the "
                f"{MAX_SERIALIZED_BUFFERS}-buffer serialization bound"
            )
        if len(chain) > self.capacity:
            raise VirtqueueError(
                f"{self.name}: {len(chain)} descriptors exceed the "
                f"{self.capacity}-slot queue"
            )
        self.kicks[self.name] += 1


class VirtioPimQueues:
    """The two queues of one vUPMEM device (Appendix A.1: transferq for
    rank operations, controlq for manager notifications); ``series``
    maps a queue name to the child that reads its kicks."""

    def __init__(self, series=None) -> None:
        self.transferq = Virtqueue("transferq", TRANSFERQ_SLOTS, series)
        self.controlq = Virtqueue("controlq", 64, series)


def write_buffer(memory: GuestMemory, data: np.ndarray,
                 device_writable: bool = False, alloc=None) -> Descriptor:
    """Place ``data`` into guest pages — fresh ones from the rolling
    arena, or ``alloc(nr_pages)``'s — and return its descriptor."""
    u8 = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
    nr_pages = max(1, (u8.size + 4095) // 4096)
    gpa = (alloc or memory.alloc_pages)(nr_pages)
    memory.write(gpa, u8)
    return Descriptor(gpa=gpa, length=u8.size, device_writable=device_writable)
