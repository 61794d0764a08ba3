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

from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple
from collections import deque

import numpy as np

from repro.config import (
    MAX_SERIALIZED_BUFFERS,
    TRANSFERQ_SLOTS,
    VIRTIO_PIM_DEVICE_ID,
)
from repro.errors import VirtqueueError
from repro.driver.driver import DeviceConfig
from repro.observability.metrics import Counts
from repro.virt.guest_memory import GuestMemory


@dataclass(frozen=True)
class Descriptor:
    """One buffer reference in a descriptor chain (Appendix A.1: up to 131
    chained buffers per request)."""

    gpa: int
    length: int
    device_writable: bool = False


@dataclass
class UsedElement:
    """Completion record the device posts to the used ring (Appendix A.1;
    its arrival triggers the completion IRQ of §3.4)."""

    request_id: int
    written: int = 0
    status: int = 0  #: 0 = OK


class Virtqueue:
    """A split-ring virtqueue, simplified to what the device model needs
    (Appendix A.1: the 512-slot transferq and the controlq).

    ``kicks[name]`` counts its kicks; ``series`` maps the queue name to
    the child that reads it."""

    def __init__(self, name: str, capacity: int, series=None) -> None:
        self.name = name
        self.capacity = capacity
        self._avail: Deque[tuple] = deque()
        self._used: Deque[UsedElement] = deque()
        self._next_id = 0
        self.kicks = Counts(series)
        self.max_outstanding = 0

    def add_chain(self, chain: List[Descriptor],
                  flow: Optional[str] = None) -> int:
        """Post a descriptor chain; returns its request id.

        ``flow`` optionally tags the chain with the posting VM's QoS flow
        id (``docs/qos.md``), so the shared event loop and debug tooling
        can attribute queued work per tenant; ``None`` for untagged VMs.
        """
        if not chain:
            raise VirtqueueError(f"{self.name}: empty descriptor chain")
        if len(chain) > MAX_SERIALIZED_BUFFERS:
            raise VirtqueueError(
                f"{self.name}: chain of {len(chain)} buffers exceeds the "
                f"{MAX_SERIALIZED_BUFFERS}-buffer serialization bound"
            )
        outstanding = len(chain)
        for queued in self._avail:
            outstanding += len(queued[1])
        if outstanding > self.capacity:
            raise VirtqueueError(
                f"{self.name}: {outstanding} descriptors exceed the "
                f"{self.capacity}-slot queue"
            )
        request_id = self._next_id
        self._next_id += 1
        self._avail.append((request_id, list(chain), flow))
        if outstanding > self.max_outstanding:
            self.max_outstanding = outstanding
        return request_id

    def submit(self, chain: List[Descriptor],
               flow: Optional[str] = None) -> Tuple[int, int]:
        """One synchronous request, driver and device side at once: post
        ``chain``, kick, and let the device take it — the queue and its
        counters end as :meth:`add_chain`, :meth:`kick` and
        :meth:`pop_avail` leave them.  Returns ``(request_id, depth)``,
        ``depth`` being :attr:`pending` once the chain was posted."""
        request_id = self.add_chain(chain, flow)
        depth = len(self._avail)
        self.kicks[self.name] += 1
        taken = self._avail.popleft()
        assert taken[0] == request_id, "a chain was left on the queue"
        return request_id, depth

    def complete(self, request_id: int, status: int = 0) -> None:
        """The device posts a synchronous request's completion and the
        driver reaps it at once: :meth:`push_used` + :meth:`pop_used`,
        which leave the used ring as they found it — untouched when it
        is empty, as between requests it always is."""
        if self._used:      # an earlier completion is reaped first (FIFO)
            self._used.append(UsedElement(request_id=request_id,
                                          status=status))
            self._used.popleft()

    def pending_for(self, flow: str) -> int:
        """Queued chains tagged with QoS flow ``flow``."""
        return sum(1 for item in self._avail if item[2] == flow)

    def kick(self) -> None:
        """Guest notifies the device (MMIO write -> VMEXIT)."""
        self.kicks[self.name] += 1

    def pop_avail(self) -> Optional[tuple]:
        """Device side: take the next (request_id, chain) to process."""
        if not self._avail:
            return None
        return self._avail.popleft()

    def push_used(self, element: UsedElement) -> None:
        self._used.append(element)

    def pop_used(self) -> Optional[UsedElement]:
        if not self._used:
            return None
        return self._used.popleft()

    @property
    def pending(self) -> int:
        return len(self._avail)


@dataclass
class VirtioPimConfigSpace:
    """The device configuration layout presented over MMIO (Appendix A.1:
    frequency, clock division, MRAM size, DPU/CI population)."""

    device_id: int = VIRTIO_PIM_DEVICE_ID
    config: DeviceConfig = field(default_factory=DeviceConfig)

    def as_fields(self) -> dict:
        """The attributes the frontend driver reads during initialization."""
        return {
            "device_id": self.device_id,
            "frequency_hz": self.config.frequency_hz,
            "clock_division": self.config.clock_division,
            "mram_bytes": self.config.mram_bytes,
            "nr_dpus": self.config.nr_dpus,
            "nr_control_interfaces": self.config.nr_control_interfaces,
            "power_management": self.config.power_management,
        }


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
