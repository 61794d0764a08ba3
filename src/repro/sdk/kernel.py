"""The DPU-side programming model: programs, the launch, the DPU.

Real UPMEM DPU programs are C binaries compiled for the DPU ISA.  Here a
program is a :class:`DpuProgram` subclass, and the unit the host executes
is the **launch**: one call of :meth:`DpuProgram.run_rank` with a
:class:`RankContext` holding every DPU the launch boots.  That call is
the program's one body.  DPUs and tasklets are its two vector axes: the
:class:`RankContext` holds per DPU and tasklet what the hardware counts
(``host_u32`` returns and ``set_host_u32`` stores one value per DPU,
``split`` and ``charge`` take ``(D, T)`` arrays, ``dma`` and
``mem_alloc`` one row per DPU) and reads MRAM rows of every DPU into one
buffer (``read_ragged``).  Work on each DPU's own data is one step per
DPU: ``rank.map(step, *spans, into=...)`` hands DPU ``d``'s MRAM rows to
``step(d, *rows)`` and stores or returns what it computes.  DPUs never
talk to each other, so the steps are independent, and a large launch
runs them on every usable host core while the calling thread keeps
every check, region update and count.

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

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import MRAM_HEAP_SYMBOL, WRAM_SIZE
from repro.errors import DpuFaultError
from repro.hardware import copies
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
    """Record a kernel store in the DPU's dirty log, when the transfer
    cache's host half has armed it around the launch (``Dpu.dirty_log``)."""
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


#: ``(offsets, lengths)``: one MRAM span per DPU (either may be one value
#: for all).
Span = Tuple[object, object]

#: A step's row for a span of length 0, and what :meth:`RankContext.map`
#: resolves pieces against before rows and results exist (its slices
#: are never read or written).
_EMPTY = np.empty(0, dtype=np.uint8)
_EMPTY.flags.writeable = False
_NOWHERE = np.broadcast_to(np.zeros((), dtype=np.uint8),
                           (np.iinfo(np.intp).max,))


def _span(span: Span, nr_dpus: int,
          what: str = "span") -> Tuple[List[int], List[int]]:
    offsets, lengths = (np.broadcast_to(np.asarray(v, dtype=np.int64),
                                        (nr_dpus,)) for v in span)
    if (lengths < 0).any():
        raise DpuFaultError(f"negative MRAM {what} length {lengths.min()}")
    return offsets.tolist(), lengths.tolist()


def _row(mram, offset: int, size: int, at: int, length: int):
    """A step's row of ``size`` bytes at ``offset``: a read-only view of
    the bank when present in one extent and clear of the store at
    ``[at, at + length)``, else ``(size, pieces)`` to assemble."""
    if not size:
        return _EMPTY
    pieces = mram.read_pieces(offset, _NOWHERE[:size])
    view = pieces[0][1]
    if (len(pieces) > 1 or view is None
            or offset < at + length and at < offset + size):
        return size, pieces
    view.flags.writeable = False
    return view


def _run_steps(step: Callable[..., object], results: list,
               jobs: list) -> None:
    """:meth:`RankContext.map`'s runner, on the thread
    :func:`copies.hand_out` gives it: assembles rows, runs the steps and
    stores their results, in order — numpy and slice copies only.  Raises
    the first failure once every step has run."""
    failure = None
    for d, rows, dests, length in jobs:
        try:
            args = []
            for row in rows:
                if type(row) is tuple:
                    size, pieces = row
                    row = np.empty(size, dtype=np.uint8)
                    pos = 0
                    for dst, src in pieces:
                        row[pos:pos + dst.size] = 0 if src is None else src
                        pos += dst.size
                    row.flags.writeable = False
                args.append(row)
            result = step(d, *args)
            if dests is None:
                results[d] = result
                continue
            data = np.ascontiguousarray(result).view(np.uint8).reshape(-1)
            if data.size != length:
                raise DpuFaultError(f"step of DPU {d} of the launch returned "
                                    f"{data.size} bytes for {length}")
            pos = 0
            for dst, src in dests:      # stale edges first, then the data
                dst[...] = 0 if src is None else data[pos:pos + dst.size]
                pos += 0 if src is None else dst.size
        except Exception as exc:
            for dst, _ in dests or ():
                dst[...] = 0
            failure = failure or exc
    if failure is not None:
        raise failure


class RankContext:
    """The DPUs of one launch running one program: what a program's body
    executes on.

    Holds what the hardware counts as vectors with one row per DPU
    (``D`` DPUs, ``T`` tasklets each): the
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
        #: Each symbol of every DPU as one ``(D, size)`` byte array.
        self._symbols: Dict[str, np.ndarray] = {}

    @property
    def nr_dpus(self) -> int:
        return len(self.dpus)

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
        ``(starts, lens)``, each ``(D, T)``.  Tasklet ``t`` gets the block
        ``[starts[d, t], starts[d, t] + lens[d, t])`` of at most
        ``ceil(totals[d] / T)`` items, the partition of Fig. 2b (lines
        8-11)."""
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
        true; a masked-out entry is free whatever its length.  Real kernels
        stream MRAM through small WRAM buffers: a transfer costs one setup
        per ``block_bytes`` chunk and at least one, or one whatever its
        length with ``block_bytes=None``, although the bytes move as one
        row."""
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

    def read_ragged(self, offsets, lengths) -> Tuple[np.ndarray, np.ndarray]:
        """``lengths[d]`` MRAM bytes of each DPU ``d`` at ``offsets[d]``,
        one row after another in one buffer: ``(flat, starts)``, row ``d``
        being ``flat[starts[d]:starts[d] + lengths[d]]``.  Like
        :meth:`map`'s spans, either may be one value for every DPU.  A row
        of length 0 is not read, and a negative length is a fault."""
        offsets, lengths = _span((offsets, lengths), self.nr_dpus, "read")
        ends = np.cumsum(lengths, dtype=np.int64)
        starts = ends - lengths
        flat = np.empty(sum(lengths), dtype=np.uint8)
        for dpu, offset, start, end in zip(self.dpus, offsets,
                                           starts.tolist(), ends.tolist()):
            if end > start:
                dpu.mram.read_into(offset, flat[start:end])
        return flat, starts

    def map(self, step: Callable[..., object], *spans: Span,
            into: Optional[Span] = None) -> Optional[list]:
        """``step(d, *rows)`` for every DPU ``d``, ``rows`` its MRAM bytes
        at each of ``spans``; returns the results in DPU order or, with
        ``into`` (a span too), stores each there and logs it.

        The calling thread resolves every check, extent and mask first:
        each DPU's rows (a view of the bank, or pieces the step's thread
        assembles, zero where absent), then the ``into`` destinations by
        :meth:`MemoryRegion.write_pieces`' rule.  Rows are read-only and a
        step computes on what it is handed only: a launch that has charged
        ``copies.FLOOR`` DMA bytes runs its steps on every usable core.
        Every step runs; one that raises, or returns other than its
        ``into`` length, leaves that store zero, and the lowest failing
        DPU's error is raised.  Spans of length 0 are not checked.
        """
        columns = [_span(span, self.nr_dpus) for span in spans]
        out_at, out_len = _span(into or (0, 0), self.nr_dpus)
        jobs = []
        for d, (dpu, at, length) in enumerate(zip(self.dpus, out_at, out_len)):
            if length:
                dpu.mram.check(at, length)
            jobs.append([d, [_row(dpu.mram, offsets[d], lengths[d], at, length)
                             for offsets, lengths in columns],
                         None if into is None else [], length])
        for job, dpu, at, length in zip(jobs, self.dpus, out_at, out_len):
            if length:
                job[2] = dpu.mram.write_pieces(at, _NOWHERE[:length])
                _log_store(dpu, MRAM_HEAP_SYMBOL, at, length)
        results: list = [None] * self.nr_dpus
        run = partial(_run_steps, step, results)
        if (copies.CORES < 2 or self.nr_dpus < 2
                or self.dma_bytes.sum() < copies.FLOOR):
            run(jobs)
        else:
            copies.hand_out(run, [[job] for job in jobs],
                            self.dma_bytes.tolist())
        return results if into is None else None

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
        """``(D,)``: element ``index`` of each DPU's ``uint32`` symbol."""
        return self._column(name, index, "<u4")

    def host_i64(self, name: str, index: int = 0) -> np.ndarray:
        """``(D,)``: element ``index`` of each DPU's ``int64`` symbol."""
        return self._column(name, index, "<i8")

    def _store(self, name: str, index: int, dtype: str, values,
               where) -> None:
        self._column(name, index, dtype)        # the symbol's checks
        width = np.dtype(dtype).itemsize
        rows = np.broadcast_to(np.asarray(values).astype(dtype),
                               (self.nr_dpus,))
        for dpu, row, store in zip(self.dpus, rows, np.broadcast_to(
                where, (self.nr_dpus,)).tolist()):
            if store:
                dpu.symbols[name][index * width:(index + 1) * width] = (
                    row.tobytes())
                _log_store(dpu, name, index * width, width)
        self._symbols.pop(name, None)

    def set_host_u32(self, name: str, values, where=True,
                     index: int = 0) -> None:
        """Store ``values[d]`` (or one value for all) in element ``index``
        of symbol ``name`` of each DPU ``d`` where ``where`` holds, and
        log each store."""
        self._store(name, index, "<u4",
                    np.asarray(values, dtype=np.int64) & 0xFFFFFFFF, where)

    def set_host_i64(self, name: str, values, where=True,
                     index: int = 0) -> None:
        """:meth:`set_host_u32` for an ``int64`` symbol."""
        self._store(name, index, "<i8", np.asarray(values, dtype=np.int64),
                    where)
