"""The DPU-side programming model: programs, the DPU context, tasklets.

Real UPMEM DPU programs are C binaries compiled for the DPU ISA.  Here a
program is a :class:`DpuProgram` subclass, and the unit the host executes
is the **DPU**: a launch calls :meth:`DpuProgram.run` once per DPU with a
:class:`DpuContext`.  A program has exactly one body, in one of two forms.

**Tasklet form** — the default :meth:`DpuProgram.run`, the Fig. 2b
reference model.  :meth:`DpuProgram.kernel` is a *generator function*
executed once per tasklet (SPMD) on a :class:`TaskletContext`:

- ``ctx.me()`` is the tasklet id, ``ctx.nr_tasklets`` the launch width;
- ``ctx.mram_read`` / ``ctx.mram_write`` move data between the MRAM bank
  and WRAM-resident numpy buffers, charging the DMA engine;
- ``ctx.mem_alloc`` accounts WRAM heap usage against the 64 KB budget;
- ``yield ctx.barrier()`` suspends until every live tasklet reaches the
  same barrier (the ``barrier_wait`` of Fig. 2b);
- ``ctx.charge(n)`` accounts ``n`` pipeline instructions, which the
  11-cycle-rule timing model converts to cycles.

**Array form** — the PrIM programs override :meth:`DpuProgram.run` with
one body for the whole DPU in which tasklets are a vector axis:
``dpu.split(total)`` is the ``tasklet_range`` partition for all tasklets
at once, ``dpu.charge(vector)`` accounts one instruction count per
tasklet, ``dpu.dma(lengths)`` charges one blocked transfer per tasklet
piece, ``dpu.mem_alloc(size, tasklets=k)`` takes ``k`` tasklets' WRAM
buffers, and ``dpu.mram_read`` / ``dpu.mram_write`` move the union of the
pieces in one operation; a step only one tasklet takes (tasklet 0
storing the merged result) is written on ``TaskletContext(dpu, 0)``, the
same facade the tasklet form uses.  What the timing model sees — per-tasklet
instructions, DMA operations and bytes — is what the tasklet form of the
same program is charged, field by field
(``tests/apps/test_kernel_equivalence.py``).

Host-visible variables (``__host`` in real DPU C) are declared in
``DpuProgram.symbols`` and accessed with the typed helpers.
"""

from __future__ import annotations

import inspect
import struct
from typing import Dict, Generator, Optional, Tuple

import numpy as np

from repro.config import MAX_TASKLETS, MRAM_HEAP_SYMBOL, WRAM_SIZE
from repro.errors import DpuFaultError
from repro.hardware.dpu import Dpu

#: Sentinel yielded by kernels at barrier points.
BARRIER = object()

#: Safety valve against kernels that never terminate.
MAX_PHASES = 1_000_000


class DpuProgram:
    """Base class for DPU programs.

    Subclasses override :attr:`name`, :attr:`symbols`, :attr:`nr_tasklets`
    and either :meth:`kernel` (tasklet form) or :meth:`run` (array form).
    ``binary_size`` models the IRAM footprint of the compiled binary and
    is checked against the 24 KB IRAM at load time.
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
        """The per-tasklet generator body of a tasklet-form program."""
        raise NotImplementedError

    def run(self, dpu: "DpuContext") -> None:
        """Execute the program on one DPU.

        The default is the tasklet scheduler over :meth:`kernel`.
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

    def instruction_estimate(self) -> Optional[int]:  # pragma: no cover - doc hook
        """Optional static estimate used by documentation tooling."""
        return None


class DpuContext:
    """One DPU for the duration of one run: what a program body executes on.

    Holds what all tasklets of the run share — the MRAM bank, the WRAM
    heap pointer, the host symbols, the DMA engine's counters, a scratch
    dict for cross-tasklet communication (what real programs place in
    shared WRAM) — and the per-tasklet instruction counts as one vector.
    Moving bytes (:meth:`mram_read`, :meth:`mram_write`) and charging the
    DMA engine (:meth:`dma`) are separate here, because one move of an
    array-form body stands for the transfers of many tasklets;
    :class:`TaskletContext` pairs them again for the tasklet form.
    """

    def __init__(self, dpu: Dpu, nr_tasklets: int) -> None:
        self.dpu = dpu
        self.nr_tasklets = nr_tasklets
        self.wram_used = 0
        self.scratch: Dict[str, object] = {}
        self.dma_ops = 0
        self.dma_bytes = 0
        #: Pipeline instructions issued so far, one count per tasklet.
        self.instructions = np.zeros(nr_tasklets, dtype=np.int64)

    @property
    def dpu_index(self) -> int:
        return self.dpu.dpu_index

    # -- the tasklet axis ----------------------------------------------------

    def split(self, total: int) -> Tuple[np.ndarray, np.ndarray]:
        """Split ``total`` items across the tasklets: ``(starts, lens)``.

        Tasklet ``t`` gets the contiguous block ``[starts[t], starts[t] +
        lens[t])`` — :func:`tasklet_range` for every tasklet at once.
        """
        chunk = -(-total // self.nr_tasklets)
        starts = np.minimum(np.arange(self.nr_tasklets) * chunk, total)
        return starts, np.minimum(starts + chunk, total) - starts

    def charge(self, instructions: np.ndarray) -> None:
        """Account ``instructions[t]`` pipeline slots to each tasklet ``t``."""
        counts = np.asarray(instructions, dtype=np.int64)
        if counts.shape != self.instructions.shape:
            raise DpuFaultError(
                f"instruction charge of shape {counts.shape} for "
                f"{self.nr_tasklets} tasklets"
            )
        if (counts < 0).any():
            raise DpuFaultError(f"negative instruction charge {counts.min()}")
        self.instructions += counts

    def dma(self, lengths, block_bytes: Optional[int] = 2048) -> None:
        """Charge the DMA engine for one transfer per entry of ``lengths``.

        ``lengths`` is a byte count or an integer array of them, one per
        tasklet piece.  Real kernels stream MRAM through small WRAM
        buffers (Fig. 2b uses one block per tasklet): a piece costs one
        setup per ``block_bytes`` chunk and at least one, which preserves
        the timing of the block loop although the bytes move in one
        simulator operation.  ``block_bytes=None`` is a plain transfer,
        one setup whatever its length.
        """
        lengths = np.asarray(lengths)
        if block_bytes is None:
            self.dma_ops += lengths.size
        elif block_bytes <= 0:
            raise DpuFaultError(f"block_bytes must be positive, got {block_bytes}")
        else:
            self.dma_ops += int(
                np.maximum(1, -(-lengths // block_bytes)).sum())
        self.dma_bytes += int(lengths.sum())

    # -- WRAM heap -------------------------------------------------------------

    def mem_alloc(self, size: int, tasklets: int = 1) -> int:
        """Bump-allocate ``size`` bytes of WRAM heap for each of ``tasklets``
        tasklets; returns the offset of the first."""
        if size < 0 or tasklets < 0:
            raise DpuFaultError(
                f"WRAM allocation of {size} bytes for {tasklets} tasklets")
        total = ((size + 7) & ~7) * tasklets
        if self.wram_used + total > WRAM_SIZE:
            raise DpuFaultError(
                f"WRAM heap overflow: {self.wram_used} + {total} "
                f"> {WRAM_SIZE} bytes"
            )
        offset = self.wram_used
        self.wram_used += total
        return offset

    def mem_reset(self) -> None:
        """Reset the WRAM heap (``mem_reset()`` in Fig. 2b line 7)."""
        self.wram_used = 0

    # -- MRAM ------------------------------------------------------------------

    def _mark_dirty(self, space: str, offset: int, nbytes: int) -> None:
        """Record a kernel store in the DPU's dirty log, when armed.

        The transfer cache's digest records claim "this extent still
        holds what the host last wrote"; any kernel-side store breaks
        that claim, so the backend arms this log around a launch and
        prunes overlapping digests afterwards.
        """
        log = self.dpu.dirty_log
        if log is not None and nbytes:
            log.append((space, offset, nbytes))

    def mram_read(self, offset: int, length: int) -> np.ndarray:
        """``length`` bytes of MRAM at ``offset`` (bounds-checked by the
        bank), as a private uint8 buffer."""
        return self.dpu.mram.read(offset, length)

    def mram_write(self, offset: int, data: np.ndarray) -> None:
        """Store ``data`` in MRAM at ``offset`` (bounds-checked by the
        bank) and log the store."""
        buf = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        self.dpu.mram.write(offset, buf)
        self._mark_dirty(MRAM_HEAP_SYMBOL, offset, buf.size)

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
        self._mark_dirty(name, at, width)

    def host_u32(self, name: str, index: int = 0) -> int:
        return self._load("<I", name, index)

    def set_host_u32(self, name: str, value: int, index: int = 0) -> None:
        self._store("<I", name, index, value & 0xFFFFFFFF)

    def add_host_u32(self, name: str, value: int, index: int = 0) -> None:
        """Atomic add to a host variable (mutex-protected in real programs)."""
        self.set_host_u32(name, self.host_u32(name, index) + value, index)

    def host_u64(self, name: str, index: int = 0) -> int:
        return self._load("<Q", name, index)

    def set_host_u64(self, name: str, value: int, index: int = 0) -> None:
        self._store("<Q", name, index, value & 0xFFFFFFFFFFFFFFFF)

    def add_host_u64(self, name: str, value: int, index: int = 0) -> None:
        self.set_host_u64(name, self.host_u64(name, index) + value, index)

    def host_i64(self, name: str, index: int = 0) -> int:
        return self._load("<q", name, index)

    def set_host_i64(self, name: str, value: int, index: int = 0) -> None:
        self._store("<q", name, index, value)


class TaskletContext:
    """One tasklet's view of a :class:`DpuContext`, handed to each
    generator of a tasklet-form program.

    Its own are the tasklet id, the instruction count it charges and DMA
    transfers that pay as they move; the WRAM heap (``mem_alloc``,
    ``mem_reset``), the host-symbol accessors (``host_u32`` ...),
    ``nr_tasklets`` and ``dpu_index`` are the DPU's and resolve there.
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

    # -- shared scratch ------------------------------------------------------------

    @property
    def shared(self) -> Dict[str, object]:
        """Per-DPU dict shared across tasklets (shared-WRAM stand-in)."""
        return self._dpu.scratch

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
