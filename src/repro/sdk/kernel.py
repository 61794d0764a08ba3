"""The DPU-side programming model: programs, the launch, the DPU.

Real UPMEM DPU programs are C binaries compiled for the DPU ISA.  Here a
program is a :class:`DpuProgram` subclass, and the unit the host executes
is the **launch**: one call of :meth:`DpuProgram.run_rank` with a
:class:`RankContext` holding every DPU the launch boots.  That call is
the program's one body.  DPUs and tasklets are its two vector axes: the
:class:`RankContext` holds per DPU and tasklet what the hardware counts
(``host_u32`` returns one value per DPU, ``split`` and ``charge`` take
``(D, T)`` arrays, ``dma`` and ``mem_alloc`` one row per DPU), reads
MRAM rows of every DPU into one buffer (``read_ragged``) and stores one
row per DPU (``write_rows``).  ``rank.dpu(i)`` is DPU ``i``'s
:class:`DpuContext`, whose counters are row ``i`` of the rank's, for
per-DPU loops over rows too large to stack: ``dpu.split(total)`` is the
tasklets' block partition of Fig. 2b (lines 8-11), ``dpu.charge(vector)``
accounts one instruction count per tasklet, ``dpu.dma(lengths)``
charges one blocked transfer per tasklet piece, and ``dpu.mram_read`` /
``dpu.mram_write`` move the union of the pieces in one operation.

What the timing model sees — per-DPU, per-tasklet instructions, DMA
operations and bytes — is what the per-tasklet SPMD program of Fig. 2b
(one generator per tasklet, barriers between phases) would be charged,
field by field: ``tests/tasklet_reference.py`` keeps that model and
``tests/apps/test_kernel_equivalence.py`` compares every program with
its tasklet-form reference.

Host-visible variables (``__host`` in real DPU C) are declared in
``DpuProgram.symbols`` and accessed with the typed helpers.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import MRAM_HEAP_SYMBOL, WRAM_SIZE
from repro.errors import DpuFaultError
from repro.hardware.dpu import Dpu, DpuRunStats, LaunchStats


class DpuProgram:
    """Base class for DPU programs.

    Subclasses override :attr:`name`, :attr:`symbols`, :attr:`nr_tasklets`
    and :meth:`run_rank`.  ``binary_size`` models the IRAM footprint of
    the compiled binary and is checked against the 24 KB IRAM at load
    time.
    """

    #: Program name (doubles as the DPU_BINARY path in examples).
    name: str = "dpu_program"
    #: Host-visible symbols: name -> size in bytes.
    symbols: Dict[str, int] = {}
    #: Number of tasklets the program runs with (PrIM optimum is app-specific).
    nr_tasklets: int = 16
    #: Modeled size of the compiled binary in IRAM bytes.
    binary_size: int = 8 * 1024

    def run_rank(self, rank: "RankContext") -> None:
        """Execute the program on every DPU of one launch."""
        raise NotImplementedError


def _log_store(dpu: Dpu, space: str, offset: int, nbytes: int) -> None:
    """Record a kernel store in the DPU's dirty log, when armed.

    The transfer cache's digest records claim "this extent still holds
    what the host last wrote"; any kernel-side store breaks that claim,
    so the cache's host half arms this log around a launch and prunes
    overlapping digests afterwards.
    """
    log = dpu.dirty_log
    if log is not None and nbytes:
        log.append((space, offset, nbytes))


def _dma_ops(lengths: np.ndarray, block_bytes: Optional[int]) -> np.ndarray:
    """DMA setups of one transfer per entry of ``lengths``: one per
    ``block_bytes`` chunk and at least one, or one whatever the length
    (``block_bytes=None``).  A negative length is a fault."""
    if (lengths < 0).any():
        raise DpuFaultError(f"negative DMA length {lengths.min()}")
    if block_bytes is None:
        return np.ones(lengths.shape, dtype=np.int64)
    if block_bytes <= 0:
        raise DpuFaultError(f"block_bytes must be positive, got {block_bytes}")
    return np.maximum(1, -(-lengths // block_bytes))


class RankContext:
    """The DPUs of one launch running one program: what a program's body
    executes on.

    Holds per DPU what a :class:`DpuContext` holds per tasklet, as
    vectors with one row per DPU (``D`` DPUs, ``T`` tasklets each): the
    instruction counts ``(D, T)``, the DMA engines' counters and the WRAM
    heap pointers ``(D,)``.  Every check a DPU makes is made per row:
    symbol bounds, the 64 KB WRAM budget, MRAM bounds (the banks check
    each access), and every store lands in its DPU's dirty log.
    """

    def __init__(self, dpus: Sequence[Dpu], nr_tasklets: int) -> None:
        self.dpus: List[Dpu] = list(dpus)
        self.nr_tasklets = nr_tasklets
        nr_dpus = len(self.dpus)
        #: Pipeline instructions issued so far, per DPU and tasklet.
        self.instructions = np.zeros((nr_dpus, nr_tasklets), dtype=np.int64)
        self.dma_ops = np.zeros(nr_dpus, dtype=np.int64)
        self.dma_bytes = np.zeros(nr_dpus, dtype=np.int64)
        self.wram_used = np.zeros(nr_dpus, dtype=np.int64)
        self._contexts: List[Optional[DpuContext]] = [None] * nr_dpus
        #: Each symbol of every DPU as one ``(D, size)`` byte array.
        self._symbols: Dict[str, np.ndarray] = {}

    @property
    def nr_dpus(self) -> int:
        return len(self.dpus)

    def dpu(self, i: int) -> "DpuContext":
        """DPU ``i`` of the launch; its counters are row ``i`` of these."""
        ctx = self._contexts[i]
        if ctx is None:
            ctx = self._contexts[i] = DpuContext(self.dpus[i],
                                                 self.nr_tasklets, self, i)
        return ctx

    def stats(self) -> LaunchStats:
        """What the timing model needs, one :class:`DpuRunStats` per DPU."""
        return LaunchStats([
            DpuRunStats(tasklet_instructions=row, dma_ops=ops,
                        dma_bytes=nbytes)
            for row, ops, nbytes in zip(self.instructions.tolist(),
                                        self.dma_ops.tolist(),
                                        self.dma_bytes.tolist())])

    # -- the DPU and tasklet axes ----------------------------------------------

    def split(self, totals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split ``totals[d]`` items across DPU ``d``'s tasklets:
        ``(starts, lens)``, each ``(D, T)`` — :meth:`DpuContext.split` for
        every DPU at once."""
        totals = np.asarray(totals, dtype=np.int64)[:, None]
        chunk = -(-totals // self.nr_tasklets)
        starts = np.minimum(np.arange(self.nr_tasklets) * chunk, totals)
        return starts, np.minimum(starts + chunk, totals) - starts

    def charge(self, instructions: np.ndarray) -> None:
        """Account ``instructions[d, t]`` pipeline slots to tasklet ``t``
        of DPU ``d``."""
        counts = np.asarray(instructions, dtype=np.int64)
        if counts.shape != self.instructions.shape:
            raise DpuFaultError(
                f"instruction charge of shape {counts.shape} for "
                f"{self.nr_dpus} DPUs of {self.nr_tasklets} tasklets"
            )
        if (counts < 0).any():
            raise DpuFaultError(f"negative instruction charge {counts.min()}")
        self.instructions += counts

    def dma(self, lengths, where=None,
            block_bytes: Optional[int] = 2048) -> None:
        """Charge each DPU's DMA engine one transfer per entry of its row
        of ``lengths`` (``(D,)`` is one transfer per DPU), counting only
        the entries where ``where`` — broadcast against ``lengths`` — is
        true; :meth:`DpuContext.dma` per row.  A masked-out entry is
        free whatever its length."""
        if where is None:
            where = True
        lengths = np.where(where, lengths, 0).astype(np.int64, copy=False)
        ops = np.where(where, _dma_ops(lengths, block_bytes), 0)
        self.dma_ops += ops.reshape(self.nr_dpus, -1).sum(axis=1)
        self.dma_bytes += lengths.reshape(self.nr_dpus, -1).sum(axis=1)

    # -- WRAM heap -------------------------------------------------------------

    def mem_alloc(self, size, tasklets=1) -> None:
        """Bump-allocate ``size`` bytes of WRAM heap for each of
        ``tasklets[d]`` tasklets of every DPU ``d`` (either may be one
        value for all)."""
        size = np.asarray(size, dtype=np.int64)
        tasklets = np.asarray(tasklets, dtype=np.int64)
        if (size < 0).any() or (tasklets < 0).any():
            raise DpuFaultError(
                f"WRAM allocation of {size} bytes for {tasklets} tasklets")
        total = np.broadcast_to(((size + 7) & ~7) * tasklets,
                                self.wram_used.shape)
        over = self.wram_used + total > WRAM_SIZE
        if over.any():
            d = int(over.argmax())
            raise DpuFaultError(
                f"WRAM heap overflow on DPU {d} of the launch: "
                f"{self.wram_used[d]} + {total[d]} > {WRAM_SIZE} bytes"
            )
        self.wram_used += total

    # -- MRAM ------------------------------------------------------------------

    def read_ragged(self, offsets: np.ndarray, lengths: np.ndarray,
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """``lengths[d]`` MRAM bytes of each DPU ``d`` at ``offsets[d]``,
        one row after another in one buffer: ``(flat, starts)``, row ``d``
        being ``flat[starts[d]:starts[d] + lengths[d]]``.  A row of length
        0 is not read, and a negative length is a fault."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if (lengths < 0).any():
            raise DpuFaultError(f"negative MRAM read length {lengths.min()}")
        ends = np.cumsum(lengths)
        starts = ends - lengths
        flat = np.empty(int(lengths.sum()), dtype=np.uint8)
        for dpu, offset, start, end in zip(self.dpus, np.asarray(offsets).tolist(),
                                           starts.tolist(), ends.tolist()):
            if end > start:
                dpu.mram.read_into(offset, flat[start:end])
        return flat, starts

    def write_rows(self, offsets: np.ndarray, rows: Sequence[np.ndarray]) -> None:
        """Store ``rows[d]`` in DPU ``d``'s MRAM at ``offsets[d]`` and log
        each store in its DPU's dirty log."""
        for dpu, offset, row in zip(self.dpus, np.asarray(offsets).tolist(), rows):
            buf = np.ascontiguousarray(row).view(np.uint8).reshape(-1)
            dpu.mram.write(offset, buf)
            _log_store(dpu, MRAM_HEAP_SYMBOL, offset, buf.size)

    # -- host-visible symbols --------------------------------------------------

    def _column(self, name: str, index: int, dtype: str) -> np.ndarray:
        """Every DPU's ``index``-th ``dtype`` element of symbol ``name``."""
        raw = self._symbols.get(name)
        if raw is None:
            try:
                joined = b"".join([dpu.symbols[name] for dpu in self.dpus])
            except KeyError:
                raise DpuFaultError(
                    f"kernel referenced unknown symbol {name!r}") from None
            raw = self._symbols[name] = np.frombuffer(
                joined, dtype=np.uint8).reshape(self.nr_dpus, -1)
        width = np.dtype(dtype).itemsize
        size = raw.shape[1]
        if not 0 <= index * width <= size - width:
            raise DpuFaultError(
                f"symbol {name!r}: index {index} of a {width}-byte element "
                f"outside its {size} bytes"
            )
        at = index * width
        return (np.ascontiguousarray(raw[:, at:at + width]).view(dtype)[:, 0]
                .astype(np.int64))

    def host_u32(self, name: str, index: int = 0) -> np.ndarray:
        """``(D,)``: each DPU's :meth:`DpuContext.host_u32`."""
        return self._column(name, index, "<u4")

    def host_i64(self, name: str, index: int = 0) -> np.ndarray:
        """``(D,)``: each DPU's :meth:`DpuContext.host_i64`."""
        return self._column(name, index, "<i8")


class DpuContext:
    """One DPU of a launch: what a per-DPU step of a program's body runs on.

    Holds what all tasklets of the run share — the MRAM bank, the WRAM
    heap pointer, the host symbols, the DMA engine's counters — and the
    per-tasklet instruction counts as one vector.  The counters are row
    ``row`` of a :class:`RankContext`'s, the launch's (a one-DPU rank of
    its own when none is given).  Moving bytes (:meth:`mram_read`,
    :meth:`mram_write`) and charging the DMA engine (:meth:`dma`) are
    separate, because one move stands for the transfers of many
    tasklets.
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

    # -- the tasklet axis ----------------------------------------------------

    def split(self, total: int) -> Tuple[np.ndarray, np.ndarray]:
        """Split ``total`` items across the tasklets: ``(starts, lens)``.

        Tasklet ``t`` gets the contiguous block ``[starts[t], starts[t] +
        lens[t])`` with ``lens[t] <= chunk = ceil(total / nr_tasklets)``,
        the block partition of Fig. 2b (lines 8-11).
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
        one setup whatever its length.  A negative length is a fault.
        """
        lengths = np.asarray(lengths)
        self._rank.dma_ops[self._row] += int(_dma_ops(lengths, block_bytes).sum())
        self._rank.dma_bytes[self._row] += int(lengths.sum())

    # -- WRAM heap -------------------------------------------------------------

    def mem_alloc(self, size: int, tasklets: int = 1) -> int:
        """Bump-allocate ``size`` bytes of WRAM heap for each of ``tasklets``
        tasklets; returns the offset of the first."""
        if size < 0 or tasklets < 0:
            raise DpuFaultError(
                f"WRAM allocation of {size} bytes for {tasklets} tasklets")
        total = ((size + 7) & ~7) * tasklets
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
