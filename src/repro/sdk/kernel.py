"""The DPU-side programming model: programs, tasklets, and their context.

Real UPMEM DPU programs are C binaries compiled for the DPU ISA.  Here a
program is a :class:`DpuProgram` subclass whose :meth:`DpuProgram.kernel`
is a *generator function* executed once per tasklet (SPMD):

- ``ctx.me()`` is the tasklet id, ``ctx.nr_tasklets`` the launch width;
- ``ctx.mram_read`` / ``ctx.mram_write`` move data between the MRAM bank
  and WRAM-resident numpy buffers, charging the DMA engine;
- ``ctx.mem_alloc`` accounts WRAM heap usage against the 64 KB budget;
- ``yield ctx.barrier()`` suspends until every live tasklet reaches the
  same barrier (the ``barrier_wait`` of Fig. 2b);
- ``ctx.charge(n)`` accounts ``n`` pipeline instructions, which the
  11-cycle-rule timing model converts to cycles.

Host-visible variables (``__host`` in real DPU C) are declared in
``DpuProgram.symbols`` and accessed with the typed helpers.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Generator, Optional

import numpy as np

from repro.config import MAX_TASKLETS, MRAM_HEAP_SYMBOL, WRAM_SIZE
from repro.errors import DpuFaultError
from repro.hardware.dpu import Dpu

#: Sentinel yielded by kernels at barrier points.
BARRIER = object()


class DpuProgram:
    """Base class for DPU programs.

    Subclasses override :attr:`name`, :attr:`symbols`, :attr:`nr_tasklets`
    and :meth:`kernel`.  ``binary_size`` models the IRAM footprint of the
    compiled binary and is checked against the 24 KB IRAM at load time.
    """

    #: Program name (doubles as the DPU_BINARY path in examples).
    name: str = "dpu_program"
    #: Host-visible symbols: name -> size in bytes.
    symbols: Dict[str, int] = {}
    #: Number of tasklets the program runs with (PrIM optimum is app-specific).
    nr_tasklets: int = 16
    #: Modeled size of the compiled binary in IRAM bytes.
    binary_size: int = 8 * 1024

    def kernel(self, ctx: "TaskletContext") -> Generator:
        """The per-tasklet generator body.  Must be overridden."""
        raise NotImplementedError

    def instruction_estimate(self) -> Optional[int]:  # pragma: no cover - doc hook
        """Optional static estimate used by documentation tooling."""
        return None


class DpuSharedState:
    """Per-DPU state shared by all tasklets of one run.

    Holds the WRAM heap pointer and a scratch dict kernels use for
    cross-tasklet communication (what real programs place in shared WRAM).
    """

    def __init__(self, dpu: Dpu, nr_tasklets: int) -> None:
        self.dpu = dpu
        self.nr_tasklets = nr_tasklets
        self.wram_used = 0
        self.scratch: Dict[str, object] = {}
        self.dma_ops = 0
        self.dma_bytes = 0
        #: (offset, length) -> immutable buffer for ``readonly`` reads.
        #: SPMD kernels stream identical spans (query vectors, CSR index
        #: arrays, frontier bitmaps) once per tasklet; serving repeats
        #: from this per-run cache removes the redundant copies while the
        #: DMA engine still gets charged per call.  A kernel write evicts
        #: the spans it overlaps (:meth:`evict_reads`) and no others; the
        #: cache dies with the run.
        self.read_cache: Dict[tuple, np.ndarray] = {}

    def evict_reads(self, offset: int, nbytes: int) -> None:
        """Drop every cached span a write to ``[offset, offset + nbytes)``
        overlaps."""
        end = offset + nbytes
        stale = [key for key in self.read_cache
                 if key[0] < end and offset < key[0] + key[1]]
        for key in stale:
            del self.read_cache[key]

    def mem_alloc(self, size: int) -> int:
        """Bump-allocate ``size`` bytes of WRAM heap; returns the offset."""
        aligned = (size + 7) & ~7
        if self.wram_used + aligned > WRAM_SIZE:
            raise DpuFaultError(
                f"WRAM heap overflow: {self.wram_used} + {aligned} "
                f"> {WRAM_SIZE} bytes"
            )
        offset = self.wram_used
        self.wram_used += aligned
        return offset

    def mem_reset(self) -> None:
        """Reset the WRAM heap (``mem_reset()`` in Fig. 2b line 7)."""
        self.wram_used = 0


class TaskletContext:
    """Execution context handed to each tasklet's kernel generator."""

    def __init__(self, shared: DpuSharedState, tasklet_id: int) -> None:
        if not 0 <= tasklet_id < MAX_TASKLETS:
            raise DpuFaultError(
                f"tasklet id {tasklet_id} outside hardware range 0..{MAX_TASKLETS - 1}"
            )
        self._shared = shared
        self._id = tasklet_id
        self.instructions = 0

    # -- identity ----------------------------------------------------------

    def me(self) -> int:
        """Tasklet id, as ``me()`` in the UPMEM runtime."""
        return self._id

    @property
    def nr_tasklets(self) -> int:
        return self._shared.nr_tasklets

    @property
    def dpu_index(self) -> int:
        return self._shared.dpu.dpu_index

    # -- instruction accounting ---------------------------------------------

    def charge(self, instructions: int) -> None:
        """Account ``instructions`` pipeline slots to this tasklet."""
        if instructions < 0:
            raise DpuFaultError(f"negative instruction charge {instructions}")
        self.instructions += int(instructions)

    def charge_loop(self, iterations: int, instructions_per_iteration: float) -> None:
        """Convenience for ``for`` loops: charge n x cost instructions."""
        self.charge(int(iterations * instructions_per_iteration))

    def _mark_dirty(self, space: str, offset: int, nbytes: int) -> None:
        """Record a kernel store in the DPU's dirty log, when armed.

        The transfer cache's digest records claim "this extent still
        holds what the host last wrote"; any kernel-side store breaks
        that claim, so the backend arms this log around a launch and
        prunes overlapping digests afterwards.
        """
        log = self._shared.dpu.dirty_log
        if log is not None and nbytes:
            log.append((space, offset, nbytes))

    # -- WRAM heap ------------------------------------------------------------

    def mem_alloc(self, size: int) -> int:
        return self._shared.mem_alloc(size)

    def mem_reset(self) -> None:
        self._shared.mem_reset()

    # -- MRAM <-> WRAM DMA -----------------------------------------------------

    def mram_read(self, offset: int, length: int) -> np.ndarray:
        """DMA ``length`` bytes of MRAM at ``offset`` into a WRAM buffer."""
        data = self._shared.dpu.mram.read(offset, length)
        self._shared.dma_ops += 1
        self._shared.dma_bytes += length
        return data

    def mram_write(self, offset: int, data: np.ndarray) -> None:
        """DMA a WRAM buffer out to MRAM at ``offset``."""
        buf = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        self._shared.dpu.mram.write(offset, buf)
        self._shared.evict_reads(offset, buf.size)
        self._shared.dma_ops += 1
        self._shared.dma_bytes += buf.size
        self._mark_dirty(MRAM_HEAP_SYMBOL, offset, buf.size)

    def mram_read_blocks(self, offset: int, length: int,
                         block_bytes: int = 2048,
                         readonly: bool = False) -> np.ndarray:
        """Read ``length`` MRAM bytes as the hardware would: in WRAM-sized
        DMA blocks.

        Real kernels stream MRAM through small WRAM buffers (Fig. 2b uses
        one block per tasklet).  The data is fetched in one simulator
        operation for speed, but the DMA engine is charged one setup per
        ``block_bytes`` chunk, preserving the timing of the block loop.

        ``readonly=True`` promises the caller never mutates the returned
        buffer; repeated reads of the same span within one run (every
        tasklet streaming the same query/index array) are then served
        from a shared write-protected buffer instead of re-copied.  DMA
        charges are identical either way.
        """
        if block_bytes <= 0:
            raise DpuFaultError(f"block_bytes must be positive, got {block_bytes}")
        shared = self._shared
        shared.dma_ops += max(1, -(-length // block_bytes))
        shared.dma_bytes += length
        if readonly:
            key = (offset, length)
            data = shared.read_cache.get(key)
            if data is None:
                data = shared.dpu.mram.read(offset, length)
                data.flags.writeable = False
                shared.read_cache[key] = data
            return data
        return shared.dpu.mram.read(offset, length)

    def mram_write_blocks(self, offset: int, data: np.ndarray,
                          block_bytes: int = 2048) -> None:
        """Blocked counterpart of :meth:`mram_read_blocks` for writes."""
        if block_bytes <= 0:
            raise DpuFaultError(f"block_bytes must be positive, got {block_bytes}")
        buf = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        self._shared.dpu.mram.write(offset, buf)
        self._shared.evict_reads(offset, buf.size)
        self._shared.dma_ops += max(1, -(-buf.size // block_bytes))
        self._shared.dma_bytes += buf.size
        self._mark_dirty(MRAM_HEAP_SYMBOL, offset, buf.size)

    # -- host-visible symbols ----------------------------------------------------

    def _symbol(self, name: str) -> bytearray:
        try:
            return self._shared.dpu.symbols[name]
        except KeyError:
            raise DpuFaultError(f"kernel referenced unknown symbol {name!r}") from None

    def host_u32(self, name: str, index: int = 0) -> int:
        buf = self._symbol(name)
        return struct.unpack_from("<I", buf, index * 4)[0]

    def set_host_u32(self, name: str, value: int, index: int = 0) -> None:
        struct.pack_into("<I", self._symbol(name), index * 4, value & 0xFFFFFFFF)
        self._mark_dirty(name, index * 4, 4)

    def add_host_u32(self, name: str, value: int, index: int = 0) -> None:
        """Atomic add to a host variable (mutex-protected in real programs)."""
        self.set_host_u32(name, self.host_u32(name, index) + value, index)

    def host_u64(self, name: str, index: int = 0) -> int:
        return struct.unpack_from("<Q", self._symbol(name), index * 8)[0]

    def set_host_u64(self, name: str, value: int, index: int = 0) -> None:
        struct.pack_into("<Q", self._symbol(name), index * 8,
                         value & 0xFFFFFFFFFFFFFFFF)
        self._mark_dirty(name, index * 8, 8)

    def add_host_u64(self, name: str, value: int, index: int = 0) -> None:
        self.set_host_u64(name, self.host_u64(name, index) + value, index)

    def host_i64(self, name: str, index: int = 0) -> int:
        return struct.unpack_from("<q", self._symbol(name), index * 8)[0]

    def set_host_i64(self, name: str, value: int, index: int = 0) -> None:
        struct.pack_into("<q", self._symbol(name), index * 8, value)
        self._mark_dirty(name, index * 8, 8)

    # -- shared scratch ------------------------------------------------------------

    @property
    def shared(self) -> Dict[str, object]:
        """Per-DPU dict shared across tasklets (shared-WRAM stand-in)."""
        return self._shared.scratch

    def once(self, key: str, compute: Callable[[], object]) -> object:
        """``compute()`` of the first tasklet to ask, for every tasklet.

        For work whose inputs are the same for all tasklets of a run
        (decoding the arguments, a phase computed DPU-wide as array
        ops): the first tasklet to reach it computes, the others pick
        the result up and charge their own share.  DMA is not shared
        this way — every tasklet still issues its own reads.
        """
        scratch = self._shared.scratch
        if key not in scratch:
            scratch[key] = compute()
        return scratch[key]

    # -- synchronization ---------------------------------------------------------

    def barrier(self) -> object:
        """Return the barrier sentinel: use as ``yield ctx.barrier()``."""
        return BARRIER


def tasklet_range(ctx: TaskletContext, total: int) -> range:
    """Split ``total`` items across tasklets; returns this tasklet's range.

    Mirrors the block partitioning of Fig. 2b (lines 8-11): tasklet ``t``
    gets the contiguous block ``[t*chunk, min((t+1)*chunk, total))`` with
    ``chunk = ceil(total / nr_tasklets)``.
    """
    chunk = (total + ctx.nr_tasklets - 1) // ctx.nr_tasklets
    start = min(ctx.me() * chunk, total)
    stop = min(start + chunk, total)
    return range(start, stop)
