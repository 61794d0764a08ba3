"""The tasklet model of Fig. 2b: one generator per tasklet, barriers.

Every program under ``src/`` has one body, ``DpuProgram.run_rank``, in
which DPUs and tasklets are vector axes.  This module keeps the model
those bodies are checked against: a *generator function*
(:meth:`TaskletProgram.kernel`) executed once per tasklet (SPMD) on a
:class:`TaskletContext`, run DPU by DPU by :meth:`TaskletProgram.run`'s
phase scheduler:

- ``ctx.me()`` is the tasklet id, ``ctx.nr_tasklets`` the launch width;
- ``ctx.mram_read`` / ``ctx.mram_write`` move data between the MRAM bank
  and WRAM-resident numpy buffers, charging the DMA engine;
- ``ctx.mem_alloc`` accounts WRAM heap usage against the 64 KB budget;
- ``yield ctx.barrier()`` suspends until every live tasklet reaches the
  same barrier (the ``barrier_wait`` of Fig. 2b);
- ``ctx.charge(n)`` accounts ``n`` pipeline instructions, which the
  11-cycle-rule timing model converts to cycles.

A test program writes ``kernel`` on a :class:`TaskletProgram`; the
per-tasklet references of the shipped programs are in
``tests/apps/reference_kernels.py``.  The tasklets of DPU ``i`` share its
:class:`DpuContext`, whose counters are row ``i`` of the launch's
:class:`RankContext`'s.
"""

from __future__ import annotations

import inspect
import struct
import weakref
from typing import Dict, Generator, Optional, Tuple

import numpy as np

from repro.config import MAX_TASKLETS, MRAM_HEAP_SYMBOL, WRAM_SIZE
from repro.errors import DpuFaultError
from repro.hardware.dpu import Dpu
from repro.sdk.kernel import DpuProgram, RankContext, _dma_ops, _log_store

#: Sentinel yielded by kernels at barrier points.
BARRIER = object()

#: Safety valve against kernels that never terminate.
MAX_PHASES = 1_000_000

#: Per DPU context, the dict its tasklets share (what real programs
#: place in shared WRAM); it lives as long as the context, one run.
_SHARED: "weakref.WeakKeyDictionary[DpuContext, Dict[str, object]]" = (
    weakref.WeakKeyDictionary())


class TaskletProgram(DpuProgram):
    """A program written as per-tasklet generators.

    :meth:`run_rank` runs :meth:`run` on each DPU of the launch in launch
    order; :meth:`run` is the tasklet scheduler over :meth:`kernel`.
    """

    def kernel(self, ctx: "TaskletContext") -> Generator:
        """The per-tasklet generator body."""
        raise NotImplementedError

    def run_rank(self, rank: RankContext) -> None:
        for i, dpu in enumerate(rank.dpus):
            self.run(DpuContext(dpu, rank.nr_tasklets, rank, i))

    def run(self, dpu: DpuContext) -> None:
        """Execute the program on one DPU.

        Execution proceeds in *phases* separated by barriers: within a
        phase each live tasklet runs until it either yields (reaching a
        barrier) or returns.  All tasklets that yielded are resumed
        together in the next phase, which gives exactly the semantics of
        a full-width ``barrier_wait`` — the only synchronization
        primitive the PrIM kernels use.  Tasklet order is 0..N-1 inside
        a phase, which keeps results reproducible; SPMD kernels partition
        data disjointly so ordering cannot change results, and
        cross-tasklet reductions happen at barriers.
        """
        generators = []
        for t in range(dpu.nr_tasklets):
            gen = self.kernel(TaskletContext(dpu, t))
            if not inspect.isgenerator(gen):
                raise DpuFaultError(
                    f"kernel of {self.name!r} must be a generator function "
                    "(use 'yield ctx.barrier()' or end with 'return; yield')"
                )
            generators.append(gen)

        live = list(enumerate(generators))
        phases = 0
        while live:
            phases += 1
            if phases > MAX_PHASES:
                raise DpuFaultError(
                    f"program {self.name!r} exceeded {MAX_PHASES} barrier phases"
                )
            still_live = []
            for t, gen in live:
                try:
                    token = next(gen)
                except StopIteration:
                    continue
                if token is not BARRIER:
                    raise DpuFaultError(
                        f"tasklet {t} of {self.name!r} yielded a non-barrier "
                        f"value {token!r}"
                    )
                still_live.append((t, gen))
            live = still_live


class DpuContext:
    """One DPU of a launch: what each of its tasklets'
    :class:`TaskletContext` resolves to.

    Holds what all tasklets of the run share — the MRAM bank, the WRAM
    heap pointer, the host symbols, the DMA engine's counters — and the
    per-tasklet instruction counts as one vector.  The counters are row
    ``row`` of a :class:`RankContext`'s, the launch's (a one-DPU rank of
    its own when none is given).  Moving bytes (:meth:`mram_read`,
    :meth:`mram_write`) and charging the DMA engine (:meth:`dma`) are
    separate, because one move of a tasklet's blocked transfer is
    charged one setup per block.
    """

    def __init__(self, dpu: Dpu, nr_tasklets: int,
                 rank: Optional[RankContext] = None, row: int = 0) -> None:
        self.dpu = dpu
        self.nr_tasklets = nr_tasklets
        self._rank = rank if rank is not None else RankContext([dpu], nr_tasklets)
        self._row = row
        #: Pipeline instructions issued so far, one count per tasklet.
        self.instructions = self._rank.instructions[row]

    @property
    def dpu_index(self) -> int:
        return self.dpu.dpu_index

    @property
    def dma_ops(self) -> int:
        return int(self._rank.dma_ops[self._row])

    @property
    def dma_bytes(self) -> int:
        return int(self._rank.dma_bytes[self._row])

    @property
    def wram_used(self) -> int:
        return int(self._rank.wram_used[self._row])

    def dma(self, lengths, block_bytes: Optional[int] = 2048) -> None:
        """Charge the DMA engine for one transfer per entry of ``lengths``.

        ``lengths`` is a byte count or an integer array of them, one per
        tasklet piece.  Real kernels stream MRAM through small WRAM
        buffers (Fig. 2b uses one block per tasklet): a piece costs one
        setup per ``block_bytes`` chunk and at least one, which preserves
        the timing of the block loop although the bytes move in one
        simulator operation.  ``block_bytes=None`` is a plain transfer,
        one setup whatever its length.  A negative length is a fault.
        """
        lengths = np.asarray(lengths)
        self._rank.dma_ops[self._row] += int(_dma_ops(lengths, block_bytes).sum())
        self._rank.dma_bytes[self._row] += int(lengths.sum())

    # -- WRAM heap -------------------------------------------------------------

    def mem_alloc(self, size: int) -> int:
        """Bump-allocate ``size`` bytes of WRAM heap; returns their offset."""
        if size < 0:
            raise DpuFaultError(f"WRAM allocation of {size} bytes")
        total = (size + 7) & ~7
        offset = self.wram_used
        if offset + total > WRAM_SIZE:
            raise DpuFaultError(
                f"WRAM heap overflow: {offset} + {total} > {WRAM_SIZE} bytes"
            )
        self._rank.wram_used[self._row] = offset + total
        return offset

    # -- MRAM ------------------------------------------------------------------

    def mram_read(self, offset: int, length: int) -> np.ndarray:
        """``length`` bytes of MRAM at ``offset`` (bounds-checked by the
        bank), as a private uint8 buffer."""
        return self.dpu.mram.read(offset, length)

    def mram_write(self, offset: int, data: np.ndarray) -> None:
        """Store ``data`` in MRAM at ``offset`` (bounds-checked by the
        bank) and log the store."""
        buf = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        self.dpu.mram.write(offset, buf)
        _log_store(self.dpu, MRAM_HEAP_SYMBOL, offset, buf.size)

    # -- host-visible symbols ----------------------------------------------------

    def _slot(self, name: str, index: int, width: int) -> Tuple[bytearray, int]:
        """The symbol's storage and the byte offset of its ``index``-th
        ``width``-byte element."""
        try:
            buf = self.dpu.symbols[name]
        except KeyError:
            raise DpuFaultError(f"kernel referenced unknown symbol {name!r}") from None
        if not 0 <= index * width <= len(buf) - width:
            raise DpuFaultError(
                f"symbol {name!r}: index {index} of a {width}-byte element "
                f"outside its {len(buf)} bytes"
            )
        return buf, index * width

    def _load(self, fmt: str, name: str, index: int) -> int:
        buf, at = self._slot(name, index, struct.calcsize(fmt))
        return struct.unpack_from(fmt, buf, at)[0]

    def _store(self, fmt: str, name: str, index: int, value: int) -> None:
        width = struct.calcsize(fmt)
        buf, at = self._slot(name, index, width)
        struct.pack_into(fmt, buf, at, value)
        # The rank's copy of the symbol is stale now.
        self._rank._symbols.pop(name, None)
        _log_store(self.dpu, name, at, width)

    def host_u32(self, name: str, index: int = 0) -> int:
        return self._load("<I", name, index)

    def set_host_u32(self, name: str, value: int, index: int = 0) -> None:
        self._store("<I", name, index, value & 0xFFFFFFFF)

    def host_i64(self, name: str, index: int = 0) -> int:
        return self._load("<q", name, index)

    def set_host_i64(self, name: str, value: int, index: int = 0) -> None:
        self._store("<q", name, index, value)


class TaskletContext:
    """One tasklet's view of a :class:`DpuContext`, handed to each
    generator of a :class:`TaskletProgram`.

    Its own are the tasklet id, the instruction count it charges, DMA
    transfers that pay as they move, the shared dict and the helpers
    only the tasklet model uses (``mem_reset``, atomic adds, 64-bit
    unsigned host variables); the WRAM heap, the other host-symbol
    accessors, ``nr_tasklets`` and ``dpu_index`` are the DPU's and
    resolve there.
    """

    def __init__(self, dpu: DpuContext, tasklet_id: int) -> None:
        if not 0 <= tasklet_id < MAX_TASKLETS:
            raise DpuFaultError(
                f"tasklet id {tasklet_id} outside hardware range 0..{MAX_TASKLETS - 1}"
            )
        self._dpu = dpu
        self._id = tasklet_id

    def __getattr__(self, name: str):
        return getattr(self._dpu, name)

    # -- identity ----------------------------------------------------------

    def me(self) -> int:
        """Tasklet id, as ``me()`` in the UPMEM runtime."""
        return self._id

    # -- instruction accounting ---------------------------------------------

    @property
    def instructions(self) -> int:
        return int(self._dpu.instructions[self._id])

    def charge(self, instructions: int) -> None:
        """Account ``instructions`` pipeline slots to this tasklet."""
        if instructions < 0:
            raise DpuFaultError(f"negative instruction charge {instructions}")
        self._dpu.instructions[self._id] += int(instructions)

    def charge_loop(self, iterations: int, instructions_per_iteration: float) -> None:
        """Convenience for ``for`` loops: charge n x cost instructions."""
        self.charge(int(iterations * instructions_per_iteration))

    # -- WRAM heap -------------------------------------------------------------

    def mem_reset(self) -> None:
        """Reset the DPU's WRAM heap (``mem_reset()`` in Fig. 2b line 7)."""
        self._dpu._rank.wram_used[self._dpu._row] = 0

    # -- MRAM <-> WRAM DMA -----------------------------------------------------

    def mram_read(self, offset: int, length: int) -> np.ndarray:
        """DMA ``length`` bytes of MRAM at ``offset`` into a WRAM buffer."""
        return self.mram_read_blocks(offset, length, block_bytes=None)

    def mram_write(self, offset: int, data: np.ndarray) -> None:
        """DMA a WRAM buffer out to MRAM at ``offset``."""
        self.mram_write_blocks(offset, data, block_bytes=None)

    def mram_read_blocks(self, offset: int, length: int,
                         block_bytes: Optional[int] = 2048) -> np.ndarray:
        """Read ``length`` MRAM bytes as the hardware would: in WRAM-sized
        DMA blocks (:meth:`DpuContext.dma` charges one setup per block)."""
        self._dpu.dma(length, block_bytes)
        return self._dpu.mram_read(offset, length)

    def mram_write_blocks(self, offset: int, data: np.ndarray,
                          block_bytes: Optional[int] = 2048) -> None:
        """Blocked counterpart of :meth:`mram_read_blocks` for writes."""
        self._dpu.dma(np.asarray(data).nbytes, block_bytes)
        self._dpu.mram_write(offset, data)

    # -- host variables ----------------------------------------------------------

    def add_host_u32(self, name: str, value: int, index: int = 0) -> None:
        """Atomic add to a host variable (mutex-protected in real programs)."""
        self.set_host_u32(name, self.host_u32(name, index) + value, index)

    def host_u64(self, name: str, index: int = 0) -> int:
        return self._dpu.host_i64(name, index) & 0xFFFFFFFFFFFFFFFF

    def set_host_u64(self, name: str, value: int, index: int = 0) -> None:
        value &= 0xFFFFFFFFFFFFFFFF
        self._dpu.set_host_i64(name, value - (value >> 63 << 64), index)

    def add_host_u64(self, name: str, value: int, index: int = 0) -> None:
        self.set_host_u64(name, self.host_u64(name, index) + value, index)

    # -- shared scratch ------------------------------------------------------------

    @property
    def shared(self) -> Dict[str, object]:
        """Per-DPU dict shared across tasklets (shared-WRAM stand-in)."""
        return _SHARED.setdefault(self._dpu, {})

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
