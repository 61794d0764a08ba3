"""Reusable uint8 buffer pool for the zero-copy data plane.

The simulator moves transfer payloads for real (interleave shuffles,
scatter-gather between guest memory and MRAM), and before this pool every
hop allocated — and usually zero-filled — a fresh numpy array.  For a
64-DPU PrIM step that is hundreds of multi-megabyte allocations whose
lifetime is a single request.  :class:`BufferPool` keeps returned buffers
on exact-size free lists so steady-state traffic runs allocation-free,
mirroring the paper's point that host-side copy plumbing dominates
virtualized PIM cost (Section 5.4.1).

Fault safety: lease buffers with :meth:`lease` (a context manager) or
release in ``finally`` blocks.  Injected transport faults (repro.faults)
unwind through those scopes, so a drill that aborts mid-transfer returns
its buffers instead of leaking them; ``outstanding`` is the invariant the
chaos regression test pins.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np


class BufferPool:
    """Exact-size-keyed pool of contiguous 1-D uint8 scratch buffers.

    Buffers are handed out dirty (no zero fill): callers are expected to
    overwrite every byte, which all data-plane users do by construction.
    The pool is bounded by bytes alone: a full-rank wire request returns
    64 same-size buffers at once and must find all 64 again.
    """

    def __init__(self, max_pooled_bytes: int = 256 << 20) -> None:
        self._free: Dict[int, List[np.ndarray]] = {}
        self._max_pooled_bytes = max_pooled_bytes
        self._pooled_bytes = 0
        #: Buffers currently on loan (acquired, not yet released).
        self.outstanding = 0
        #: Times an acquire was served from the free list (cache hit).
        self.reuse_count = 0
        #: Times an acquire had to allocate (cold miss or size churn).
        self.alloc_count = 0

    def acquire(self, size: int) -> np.ndarray:
        """Return a uint8 buffer of exactly ``size`` bytes (contents dirty)."""
        if size < 0:
            raise ValueError(f"buffer size must be >= 0, got {size}")
        stack = self._free.get(size)
        if stack:
            buf = stack.pop()
            self._pooled_bytes -= size
            self.reuse_count += 1
        else:
            buf = np.empty(size, dtype=np.uint8)
            self.alloc_count += 1
        self.outstanding += 1
        return buf

    def release(self, buf: Optional[np.ndarray]) -> None:
        """Return ``buf`` to the pool.  ``None`` is a no-op so callers can
        release unconditionally from ``finally`` blocks."""
        if buf is None:
            return
        self.outstanding -= 1
        size = buf.size
        if self._pooled_bytes + size <= self._max_pooled_bytes:
            self._free.setdefault(size, []).append(buf)
            self._pooled_bytes += size

    @contextmanager
    def lease(self, size: int) -> Iterator[np.ndarray]:
        """Scoped acquire/release: the buffer is returned even when the
        body raises (e.g. an injected transport fault)."""
        buf = self.acquire(size)
        try:
            yield buf
        finally:
            self.release(buf)

    # -- introspection ----------------------------------------------------

    @property
    def pooled_bytes(self) -> int:
        """Bytes currently parked on free lists."""
        return self._pooled_bytes

    @property
    def free_buffers(self) -> int:
        return sum(len(s) for s in self._free.values())

    def clear(self) -> None:
        """Drop all pooled buffers (loaned buffers stay with borrowers)."""
        self._free.clear()
        self._pooled_bytes = 0
