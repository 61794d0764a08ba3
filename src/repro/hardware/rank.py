"""The rank: UPMEM's allocation and transfer granularity.

A rank bundles 8 PIM chips = 64 DPUs behind one control interface (CI).
All host interactions happen at rank granularity:

- ``write_mram`` / ``read_mram`` move data between host buffers and the
  MRAM banks of any subset of the rank's DPUs in one operation (one over
  several DPUs that moves at least ``copies.FLOOR`` bytes copies on every
  usable host core, :mod:`repro.hardware.copies`);
- ``launch`` boots a loaded program on a set of DPUs and runs it to
  completion (the hardware cannot pause/resume, Section 2);
- the CI carries command/status traffic and is the unit the paper's
  "CI operations" statistics count.

Hardware methods *return* simulated durations instead of advancing a clock
so that callers (native driver vs virtualized backend) can attribute the
time to the right place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DPUS_PER_CHIP, MAX_XFER_BYTES, RankConfig
from repro.errors import (
    ControlInterfaceError,
    MemoryAccessError,
    RankOfflineError,
    TransferError,
)
from repro.hardware import copies
from repro.hardware.chip import PimChip
from repro.hardware.clock import SimClock
from repro.hardware.copies import Piece
from repro.hardware.dpu import Dpu, DpuState, LaunchStats
from repro.hardware.memory import BlockRecycler, result_block
from repro.hardware.timing import CostModel, DEFAULT_COST_MODEL
from repro.observability.metrics import Counts, MetricsRegistry
from repro.observability.instruments import RANK, bind
from repro.observability.spans import SpanRecorder


class RankHealth(enum.Enum):
    """Fault-model health of a rank.

    Real UPMEM ranks fail and slow down (the §3.5 motivation for
    host-wide rank arbitration); the manager tracks this per rank.
    ``OK`` ranks behave normally, ``DEGRADED`` ranks run slower by the
    rank's ``degradation`` factor, ``OFFLINE`` ranks refuse every
    guarded operation until repaired or replaced.
    """

    OK = "ok"
    DEGRADED = "degraded"
    OFFLINE = "offline"


class CiCommand(enum.Enum):
    """Control-interface command kinds tracked by the statistics (the
    traffic classes behind Fig. 12's CI bar)."""

    STATUS = "status"
    BOOT = "boot"
    LOAD = "load"
    RESET = "reset"
    CONFIG = "config"


@dataclass
class CiCounters:
    """Per-rank control-interface statistics (drives Fig. 12's "CI" bar)."""

    ops: Dict[str, int] = field(default_factory=dict)

    def record(self, command: CiCommand, count: int = 1) -> None:
        self.ops[command.value] = self.ops.get(command.value, 0) + count

    @property
    def total(self) -> int:
        return sum(self.ops.values())


class ControlInterface:
    """The command/status port of a rank (§2: one CI per rank)."""

    def __init__(self, rank: "Rank") -> None:
        self._rank = rank
        self.counters = CiCounters()

    def record(self, command: CiCommand, count: int = 1) -> None:
        """Account ``count`` CI operations in stats and live metrics."""
        self.counters.record(command, count)
        self._rank.obs.ci_ops[command.value].inc(count)

    def execute(self, command: CiCommand, count: int = 1) -> float:
        """Perform ``count`` CI operations; returns their native duration."""
        if count < 0:
            raise ControlInterfaceError(f"negative CI op count {count}")
        self._rank._guard("ci")
        self.record(command, count)
        duration = self._rank.cost.ci_time(count) * self._rank.degradation
        self._rank.spans.event("rank.ci", "rank", duration,
                               rank=self._rank.index,
                               command=command.value, count=count)
        return duration

    def status(self) -> List[DpuState]:
        """One STATUS op reading the run state of every DPU."""
        self.record(CiCommand.STATUS)
        return [dpu.state for dpu in self._rank.dpus]


@dataclass(frozen=True)
class WriteSpec:
    """One DPU's slice of a write-to-rank operation (§2's rank-granular
    host-to-MRAM transfer)."""

    dpu_index: int
    offset: int
    data: np.ndarray


@dataclass(frozen=True)
class ReadSpec:
    """One DPU's slice of a read-from-rank operation (§2's rank-granular
    MRAM-to-host transfer)."""

    dpu_index: int
    offset: int
    length: int


@dataclass
class PinnedMramWrite:
    """A pre-resolved write-to-rank: the destination MRAM views of each
    spec, ready to take that spec's source as plain slice copies.

    Compiled once per transfer shape by the plan cache
    (:mod:`repro.virt.plans`); :meth:`Rank.write_mram_pinned` replays it
    against the sources of one request with accounting identical to
    :meth:`Rank.write_mram`.  It holds destinations only — never a
    source, which belongs to the caller of one request.  ``valid()``
    guards against MRAM backing-store turnover (``fill(0)`` on reset or
    restore recycles extents, invalidating every pinned view).
    """

    rank: "Rank"
    #: Per spec: ``(DPU index, size, destination views, one per
    #: extent-bounded chunk)``.
    targets: List[Tuple[int, int, List[np.ndarray]]]
    #: ``(region, generation)`` snapshots for every MRAM touched.
    generations: List[Tuple[object, int]]
    total: int

    def valid(self) -> bool:
        return all(region.generation == gen
                   for region, gen in self.generations)


class Rank:
    """One UPMEM rank: 64 DPUs across 8 chips behind one CI (§2, Fig. 1;
    the paper's allocation and transfer granularity)."""

    def __init__(self, config: RankConfig,
                 cost: CostModel = DEFAULT_COST_MODEL,
                 metrics: Optional[MetricsRegistry] = None,
                 spans: Optional[SpanRecorder] = None) -> None:
        self.config = config
        self.cost = cost
        self.index = config.index
        #: Live telemetry; shares the machine registry when the rank
        #: belongs to a :class:`~repro.hardware.machine.Machine`.
        self.obs = bind(metrics or MetricsRegistry(), RANK, rank=config.index)
        #: Trace context; shares the machine recorder inside a
        #: :class:`~repro.hardware.machine.Machine`.  Span events no-op
        #: outside an active trace, so bare rank use stays untraced.
        self.spans = spans or SpanRecorder(SimClock())
        self.dpus: List[Dpu] = [
            Dpu(config.index, i) for i in range(config.functional_dpus)
        ]
        self.chips: List[PimChip] = [
            PimChip(config.index, c, self.dpus[c * DPUS_PER_CHIP:(c + 1) * DPUS_PER_CHIP])
            for c in range((len(self.dpus) + DPUS_PER_CHIP - 1) // DPUS_PER_CHIP)
        ]
        self.ci = ControlInterface(self)
        #: Fault-model state (see :class:`RankHealth`); ``degradation``
        #: scales every guarded operation's duration (1.0 = nominal).
        self.health = RankHealth.OK
        self.degradation = 1.0
        #: Fault seam: ``hook(rank, op)`` before every guarded operation
        #: once :mod:`repro.faults` arms it; ``None`` keeps the paper's
        #: path byte-identical to a build without that package.
        self.fault_hook = None
        #: Transfer operations and bytes by ``write``/``read``: what
        #: ``repro_rank_xfer_ops_total``/``_bytes_total`` read.
        self.xfer_ops = Counts(self.obs.xfer_ops)
        self.xfer_bytes = Counts(self.obs.xfer_bytes)

    @property
    def nr_dpus(self) -> int:
        return len(self.dpus)

    def dpu(self, index: int) -> Dpu:
        try:
            return self.dpus[index]
        except IndexError:
            raise MemoryAccessError(
                f"rank {self.index} has {self.nr_dpus} DPUs, asked for {index}"
            ) from None

    def _guard(self, op: str) -> None:
        """Fault seam + health gate for host-visible rank operations.

        ``op`` is one of ``write``/``read``/``launch``/``ci``.  The hook
        may mutate state (bit flips, health changes) or mark the trace
        and raise; an OFFLINE rank then refuses the operation.  ``reset``
        is deliberately unguarded so repair paths can always run.
        """
        if self.fault_hook is not None:
            self.fault_hook(self, op)
        if self.health is RankHealth.OFFLINE:
            self.spans.mark_fault("rank_offline")
            raise RankOfflineError(
                f"rank {self.index} is offline; cannot {op} — repair the "
                f"rank or allocate a replacement")

    # -- transfers ---------------------------------------------------------

    def _account(self, op: str, total: int, nr_targets: int,
                 rust_interleave: bool) -> float:
        """The accounting tail every rank transfer shares: counts,
        modeled duration, latency histogram and span of one ``op``
        (``write``/``read``) that moved ``total`` bytes."""
        self.xfer_ops[op] += 1
        self.xfer_bytes[op] += total
        duration = (self.cost.rank_op_time(total, nr_targets, rust_interleave)
                    * self.degradation)
        self.obs.xfer_seconds[op].observe(duration)
        self.spans.event(f"rank.{op}", "rank", duration,
                         rank=self.index, bytes=total, targets=nr_targets)
        return duration

    def write_mram(self, specs: Sequence[WriteSpec],
                   rust_interleave: bool = False) -> float:
        """Write-to-rank: one rank operation covering ``specs``.

        Returns the simulated duration: fixed op cost + copy bandwidth +
        host-CPU interleaving work (C/AVX-512 unless ``rust_interleave``).
        Every spec is checked (DPU index, MRAM bounds, size limits) before
        the first byte moves, so a refused operation writes nothing.
        """
        self._guard("write")
        moves = []
        total = 0
        for spec in specs:
            buf = spec.data
            if not (isinstance(buf, np.ndarray) and buf.dtype == np.uint8
                    and buf.ndim == 1 and buf.flags.c_contiguous):
                buf = np.ascontiguousarray(buf).view(np.uint8).reshape(-1)
            if buf.size > MAX_XFER_BYTES:
                raise TransferError(
                    f"transfer of {buf.size} bytes exceeds the 4 GB rank limit"
                )
            mram = self.dpu(spec.dpu_index).mram
            mram.check(spec.offset, buf.size)
            moves.append((mram, spec.offset, buf))
            total += buf.size
        if total > MAX_XFER_BYTES:
            raise TransferError(
                f"rank operation of {total} bytes exceeds the 4 GB limit"
            )
        if total < copies.FLOOR or len(moves) < 2 or copies.CORES < 2:
            for mram, offset, buf in moves:
                mram.write(offset, buf)
        else:
            groups: Dict[object, List[Piece]] = {}
            for mram, offset, buf in moves:
                groups.setdefault(mram, []).extend(
                    mram.write_pieces(offset, buf))
            copies.fan_out(list(groups.values()))
        return self._account("write", total, len(specs), rust_interleave)

    def pin_mram_write(self, specs: Sequence[WriteSpec]) -> PinnedMramWrite:
        """Resolve ``specs`` into a replayable :class:`PinnedMramWrite`.

        Materializes (and zeroes) the destination segments exactly as
        :meth:`write_mram` would and returns their views; of each
        spec's ``data`` only the size is kept.  Raises
        :class:`MemoryAccessError`/:class:`TransferError` on anything
        unpinnable; callers fall back to the naive path.
        """
        total = 0
        targets: List[Tuple[int, int, List[np.ndarray]]] = []
        regions: Dict[int, object] = {}
        for spec in specs:
            size = spec.data.nbytes
            if size > MAX_XFER_BYTES:
                raise TransferError(
                    f"transfer of {size} bytes exceeds the 4 GB rank limit"
                )
            mram = self.dpu(spec.dpu_index).mram
            regions.setdefault(id(mram), mram)
            targets.append((spec.dpu_index, size,
                            mram.pin_chunks(spec.offset, size)))
            total += size
        if total > MAX_XFER_BYTES:
            raise TransferError(
                f"rank operation of {total} bytes exceeds the 4 GB limit"
            )
        generations = [(mram, mram.generation)
                       for mram in regions.values()]
        return PinnedMramWrite(rank=self, targets=targets,
                               generations=generations, total=total)

    def write_mram_pinned(self, pinned: PinnedMramWrite,
                          sources: Sequence[np.ndarray],
                          rust_interleave: bool = False) -> float:
        """Replay a :class:`PinnedMramWrite` with ``sources[i]`` as spec
        ``i``'s payload: :meth:`write_mram` minus the per-spec resolution
        — identical accounting, duration, and observable side effects.

        A source that is not the 1-D ``uint8`` array of the size its
        destinations were pinned for is refused before any byte moves.
        """
        self._guard("write")
        targets = pinned.targets
        if len(sources) != len(targets):
            raise TransferError(
                f"{len(sources)} sources for a pinned write of "
                f"{len(targets)} specs")
        for i, (src, (_, size, _)) in enumerate(zip(sources, targets)):
            if src.dtype != np.uint8 or src.ndim != 1 or src.size != size:
                raise TransferError(
                    f"source {i} is {src.dtype}{list(src.shape)}, pinned "
                    f"for {size} uint8 bytes")
        if (pinned.total < copies.FLOOR or len(targets) < 2
                or copies.CORES < 2):
            for src, (_, _, chunks) in zip(sources, targets):
                pos = 0
                for dst in chunks:
                    dst[...] = src[pos:pos + dst.size]
                    pos += dst.size
        else:
            groups: Dict[int, List[Piece]] = {}
            for src, (dpu_index, _, chunks) in zip(sources, targets):
                group = groups.setdefault(dpu_index, [])
                pos = 0
                for dst in chunks:
                    group.append((dst, src[pos:pos + dst.size]))
                    pos += dst.size
            copies.fan_out(list(groups.values()))
        return self._account("write", pinned.total, len(targets),
                             rust_interleave)

    def read_mram(self, specs: Sequence[ReadSpec],
                  rust_interleave: bool = False,
                  into: Optional[List[np.ndarray]] = None,
                  blocks: Optional[BlockRecycler] = None,
                  ) -> Tuple[List[np.ndarray], float]:
        """Read-from-rank: returns per-spec buffers and the duration.

        ``into`` (optional) supplies one pre-sized uint8 buffer per spec,
        which is how the backend reads straight into pooled scratch or
        the result rows a planned request brings; the returned list then
        holds those buffers.  Without it the results of a multi-spec read
        are rows of one :func:`~repro.hardware.memory.result_block`
        (what the virtualized frontend hands back too) — the caller's to
        keep, taken from ``blocks``, the recycler of the allocation that
        is reading, when there is one — and a single spec keeps the
        :meth:`MemoryRegion.read` fast path.
        """
        self._guard("read")
        total = 0
        for spec in specs:
            if spec.length > MAX_XFER_BYTES:
                raise TransferError(
                    f"transfer of {spec.length} bytes exceeds the 4 GB rank limit"
                )
            total += spec.length
        if total > MAX_XFER_BYTES:
            raise TransferError(
                f"rank operation of {total} bytes exceeds the 4 GB limit"
            )
        if into is None and len(specs) != 1:
            into = result_block([spec.length for spec in specs], blocks)
        if into is None:
            (spec,) = specs
            out = [self.dpu(spec.dpu_index).mram.read(spec.offset,
                                                      spec.length)]
        else:
            if len(into) != len(specs):
                raise TransferError(
                    f"into has {len(into)} buffers for {len(specs)} read "
                    "specs"
                )
            for i, (spec, buf) in enumerate(zip(specs, into)):
                if buf.size != spec.length:
                    raise TransferError(
                        f"into[{i}] holds {buf.size} bytes, spec reads "
                        f"{spec.length}"
                    )
            if total < copies.FLOOR or len(specs) < 2 or copies.CORES < 2:
                for spec, buf in zip(specs, into):
                    self.dpu(spec.dpu_index).mram.read_into(spec.offset, buf)
            else:
                groups: Dict[int, List[Piece]] = {}
                for spec, buf in zip(specs, into):
                    groups.setdefault(spec.dpu_index, []).extend(
                        self.dpu(spec.dpu_index).mram.read_pieces(
                            spec.offset, buf))
                copies.fan_out(list(groups.values()))
            out = list(into)
        return out, self._account("read", total, len(specs), rust_interleave)

    # -- execution -----------------------------------------------------------

    def launch(self, dpu_indices: Iterable[int],
               runner: Callable[[List[Dpu]], LaunchStats]) -> float:
        """Boot and run the loaded program on ``dpu_indices``.

        ``runner`` executes the whole launch functionally — called once,
        with the launch's DPUs — and returns its :class:`LaunchStats`; the
        rank converts each DPU's stats to time.  All DPUs run in parallel,
        so rank duration is the slowest DPU's duration.  The launch also
        performs the mandatory CI boot sequence.

        The launch is the unit that fails, too: if a DPU cannot boot or
        the runner raises, every DPU of the launch ends in the FAULT state
        the CI reports (none stays RUNNING) and each counts as a DPU fault.
        """
        self._guard("launch")
        dpus = [self.dpu(idx) for idx in dpu_indices]
        self.ci.record(CiCommand.BOOT, len(dpus))
        try:
            for dpu in dpus:
                dpu.begin_run()
            stats = runner(dpus)
        except Exception:
            for dpu in dpus:
                dpu.fault()
            self.obs.dpu_faults.inc(len(dpus))
            raise
        slowest = 0.0
        for dpu, run in zip(dpus, stats.per_dpu):
            dpu.finish_run(run)
            slowest = max(slowest, self.cost.dpu_run_time(
                run.tasklet_instructions, run.dma_ops, run.dma_bytes))
        slowest *= self.degradation
        self.obs.launches.inc()
        self.obs.dpu_boots.inc(len(dpus))
        self.obs.launch_seconds.observe(slowest)
        self.spans.event("rank.launch", "rank", slowest,
                         rank=self.index, dpus=len(dpus))
        return slowest

    # -- lifecycle ---------------------------------------------------------------

    def reset(self) -> float:
        """Erase every DPU's memories and state; returns the reset duration.

        This is what the manager triggers after a VM releases the rank to
        prevent cross-tenant information leaks (Section 3.5).
        """
        for dpu in self.dpus:
            dpu.reset()
        self.ci.record(CiCommand.RESET)
        self.obs.resets.inc()
        return self.cost.manager_reset

    def is_clean(self) -> bool:
        """True when all MRAM banks read back as zero (isolation check)."""
        return all(dpu.mram.is_zero() for dpu in self.dpus)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rank({self.index}, {self.nr_dpus} DPUs)"
