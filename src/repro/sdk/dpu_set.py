"""``DpuSet``: the host-side handle over allocated DPUs (Fig. 2a workflow).

The set may span several ranks; every rank-level operation is issued to
each underlying :class:`~repro.sdk.transport.RankChannel` and the
durations are combined by the transport (parallel or sequential), which
advances the simulated clock exactly once per logical operation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import MRAM_HEAP_SYMBOL
from repro.errors import AllocationError, LaunchError, TransferError
from repro.sdk.kernel import DpuProgram
from repro.sdk.transfer import DpuEntry, TransferMatrix, XferKind, as_u8
from repro.sdk.transport import RankChannel, Transport


class DpuSet:
    """A set of allocated DPUs, possibly spanning multiple ranks."""

    def __init__(self, transport: Transport, nr_dpus: int) -> None:
        if nr_dpus <= 0:
            raise AllocationError(f"cannot allocate {nr_dpus} DPUs")
        self.transport = transport
        self.channels: List[RankChannel] = transport.alloc_channels(nr_dpus)
        self.nr_dpus = nr_dpus
        # Map set-index -> (channel position, local DPU index).
        self._map: List[Tuple[int, int]] = []
        remaining = nr_dpus
        for ci, channel in enumerate(self.channels):
            take = min(remaining, channel.nr_dpus)
            self._map.extend((ci, local) for local in range(take))
            remaining -= take
            if remaining == 0:
                break
        if remaining > 0:
            raise AllocationError(
                f"transport allocated only {nr_dpus - remaining} of "
                f"{nr_dpus} requested DPUs"
            )
        self._freed = False
        self._loaded = False
        #: Per-rank completion times of the most recent operation (Fig. 16).
        self.last_completions: List[Tuple[int, float]] = []

    # -- context management ----------------------------------------------------

    def __enter__(self) -> "DpuSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._freed:
            self.free()

    # -- helpers -----------------------------------------------------------------

    def _check_alive(self) -> None:
        if self._freed:
            raise AllocationError("operation on a freed DPU set")

    def _split_entries(self, entries: Sequence[DpuEntry]) -> List[List[DpuEntry]]:
        """Regroup set-indexed entries into per-channel, locally-indexed
        lists.  On one rank the set index is the local index, so the
        entries pass through as they are."""
        for entry in entries:
            if not 0 <= entry.dpu_index < self.nr_dpus:
                raise TransferError(
                    f"entry targets DPU {entry.dpu_index}, set has {self.nr_dpus}"
                )
        if len(self.channels) == 1:
            return [list(entries)]
        per_channel: List[List[DpuEntry]] = [[] for _ in self.channels]
        for entry in entries:
            ci, local = self._map[entry.dpu_index]
            per_channel[ci].append(
                DpuEntry(dpu_index=local, size=entry.size, data=entry.data)
            )
        return per_channel

    def _run(self, durations: List[float], contended: bool = True) -> float:
        """Combine per-rank durations, advance the clock, record completions."""
        elapsed, completions = self.transport.combine(durations, contended)
        self.transport.clock.advance(elapsed)
        self.last_completions = [
            (self.channels[i].rank_index, completions[i])
            for i in range(len(completions))
        ]
        return elapsed

    def _active_channels(self) -> List[int]:
        """Channel positions that actually hold DPUs of this set."""
        used = sorted({ci for ci, _ in self._map})
        return used

    # -- tracing helpers -------------------------------------------------------

    def _begin_op(self, name: str, **attrs) -> object:
        """Open one SDK-layer span covering a logical set operation."""
        spans = self.transport.spans
        if spans is None:
            return None
        return spans.begin(name, "sdk", start=self.transport.clock.now,
                           nr_dpus=self.nr_dpus, **attrs)

    def _sibling(self, span) -> None:
        """Lay the next per-rank channel call out as a parallel sibling:
        rewind the op span's cursor so concurrent ranks' sub-spans start
        together (Fig. 16's parallel handling).  Sequential transports
        keep the advancing cursor, so siblings chain back-to-back."""
        spans = self.transport.spans
        if spans is not None and span is not None and \
                self.transport.parallel_ranks:
            spans.rewind(span)

    def _end_op(self, span, elapsed: float) -> None:
        """Close the SDK op span at exactly the combined elapsed time."""
        spans = self.transport.spans
        if spans is not None and span is not None:
            spans.end(span, duration=elapsed)

    # -- SDK operations ----------------------------------------------------------

    def load(self, program: DpuProgram) -> None:
        """``dpu_load``: install the program binary on every DPU."""
        self._check_alive()
        span = self._begin_op("sdk.load", program=program.name)
        durations = []
        for ci in self._active_channels():
            self._sibling(span)
            durations.append(self.channels[ci].load(program))
        self._end_op(span, self._run(durations))
        self._loaded = True

    def push(self, matrix_entries: Sequence[DpuEntry], kind: XferKind,
             symbol: str, offset: int) -> Optional[List[np.ndarray]]:
        """``dpu_push_xfer``: one parallel rank operation per involved rank."""
        self._check_alive()
        per_channel = self._split_entries(matrix_entries)
        span = self._begin_op(
            "sdk.push", kind="to_dpu" if kind is XferKind.TO_DPU else "from_dpu",
            symbol=symbol)
        durations: List[float] = []
        results_by_channel: List[List[np.ndarray]] = []
        involved: List[int] = []
        for ci, entries in enumerate(per_channel):
            if not entries:
                continue
            involved.append(ci)
            matrix = TransferMatrix(kind, symbol, offset, entries)
            matrix.validate()
            if durations:   # the first rank starts where the op span does
                self._sibling(span)
            if kind is XferKind.TO_DPU:
                durations.append(self.channels[ci].write(matrix))
                results_by_channel.append([])
            else:
                bufs, duration = self.channels[ci].read(matrix)
                durations.append(duration)
                results_by_channel.append(bufs)
        elapsed, completions = self.transport.combine(durations)
        self.transport.clock.advance(elapsed)
        self._end_op(span, elapsed)
        self.last_completions = [
            (self.channels[ci].rank_index, completions[j])
            for j, ci in enumerate(involved)
        ]
        if kind is XferKind.FROM_DPU:
            if len(involved) == 1:
                # One rank's rows are in entry order already.
                return results_by_channel[0]
            # Restitch per-channel buffers into set order.
            out: List[Optional[np.ndarray]] = [None] * len(matrix_entries)
            cursor = {ci: 0 for ci in involved}
            for pos, entry in enumerate(matrix_entries):
                ci, _ = self._map[entry.dpu_index]
                bufs = results_by_channel[involved.index(ci)]
                out[pos] = bufs[cursor[ci]]
                cursor[ci] += 1
            return [buf for buf in out if buf is not None]
        return None

    def push_to(self, symbol: str, offset: int,
                buffers: Sequence[np.ndarray]) -> None:
        """Distribute ``buffers[i]`` to set-DPU ``i`` in one parallel xfer."""
        if len(buffers) > self.nr_dpus:
            raise TransferError(
                f"{len(buffers)} buffers for a set of {self.nr_dpus} DPUs"
            )
        entries = []
        for i, buf in enumerate(buffers):
            u8 = as_u8(buf)
            entries.append(DpuEntry(dpu_index=i, size=u8.size, data=u8))
        self.push(entries, XferKind.TO_DPU, symbol, offset)

    def broadcast_to(self, symbol: str, offset: int, buffer: np.ndarray) -> None:
        """Send the same buffer to every DPU (``dpu_broadcast_to``)."""
        u8 = as_u8(buffer)
        entries = [DpuEntry(dpu_index=i, size=u8.size, data=u8)
                   for i in range(self.nr_dpus)]
        self.push(entries, XferKind.TO_DPU, symbol, offset)

    def push_from(self, symbol: str, offset: int, size: int) -> List[np.ndarray]:
        """Read ``size`` bytes from each DPU in one parallel xfer."""
        entries = [DpuEntry(dpu_index=i, size=size) for i in range(self.nr_dpus)]
        result = self.push(entries, XferKind.FROM_DPU, symbol, offset)
        assert result is not None
        return result

    def copy_to(self, dpu_index: int, symbol: str, offset: int,
                buffer: np.ndarray) -> None:
        """``dpu_copy_to``: serial transfer to a single DPU.

        This is the transfer style whose per-operation fixed cost makes
        SEL/UNI/SpMV/BFS scale poorly and NW/TRNS storm the device
        (Section 5.2) — and which the frontend's request batching absorbs.
        """
        u8 = as_u8(buffer)
        entries = [DpuEntry(dpu_index=dpu_index, size=u8.size, data=u8)]
        self.push(entries, XferKind.TO_DPU, symbol, offset)

    def copy_from(self, dpu_index: int, symbol: str, offset: int,
                  size: int) -> np.ndarray:
        """``dpu_copy_from``: serial read from a single DPU."""
        entries = [DpuEntry(dpu_index=dpu_index, size=size)]
        result = self.push(entries, XferKind.FROM_DPU, symbol, offset)
        assert result is not None and len(result) == 1
        return result[0]

    def copy_to_mram(self, dpu_index: int, offset: int,
                     buffer: np.ndarray) -> None:
        """Serial MRAM write to a single DPU."""
        self.copy_to(dpu_index, MRAM_HEAP_SYMBOL, offset, buffer)

    def copy_from_mram(self, dpu_index: int, offset: int,
                       size: int) -> np.ndarray:
        """Serial MRAM read from a single DPU."""
        return self.copy_from(dpu_index, MRAM_HEAP_SYMBOL, offset, size)

    def push_to_mram(self, offset: int, buffers: Sequence[np.ndarray]) -> None:
        """Shorthand for pushing to the MRAM heap symbol."""
        self.push_to(MRAM_HEAP_SYMBOL, offset, buffers)

    def push_from_mram(self, offset: int, size: int) -> List[np.ndarray]:
        return self.push_from(MRAM_HEAP_SYMBOL, offset, size)

    def launch(self, status_poll_cadence: Optional[float] = None) -> None:
        """``dpu_launch``: run and wait for completion.

        With ``status_poll_cadence`` unset this is the synchronous launch
        (the kernel-side wait of ``DPU_SYNCHRONOUS``).  When set, it
        models the asynchronous launch + userspace status-polling loop
        some applications use (e.g. the UPMEM Index Search demo): the
        application re-reads DPU status every ``status_poll_cadence``
        seconds, and each of those reads is a CI operation that a
        virtualized transport turns into a full round trip.
        """
        self._check_alive()
        if not self._loaded:
            raise LaunchError(
                "dpu_launch before dpu_load: no program is installed on "
                "this set's DPUs")
        span = self._begin_op("sdk.launch")
        durations = []
        for ci in self._active_channels():
            self._sibling(span)
            durations.append(self.channels[ci].launch())
        if status_poll_cadence is not None and durations:
            penalty = self.transport.launch_poll_penalty(
                max(durations), status_poll_cadence)
            durations = [d + penalty for d in durations]
        # DPU execution is device-side: ranks overlap perfectly.
        self._end_op(span, self._run(durations, contended=False))

    def ci_ops(self, count: int) -> None:
        """Issue explicit control-interface traffic (status/command ops)."""
        self._check_alive()
        per_channel = count  # each rank's CI sees the full command stream
        span = self._begin_op("sdk.ci_ops", count=count)
        durations = []
        for ci in self._active_channels():
            self._sibling(span)
            durations.append(self.channels[ci].ci_ops(per_channel))
        self._end_op(span, self._run(durations, contended=False))

    def free(self) -> None:
        """``dpu_free``: release all ranks of the set."""
        if self._freed:
            return
        span = self._begin_op("sdk.free")
        durations = []
        for channel in self.channels:
            self._sibling(span)
            durations.append(channel.release())
        self._end_op(span, self._run(durations, contended=False))
        self._freed = True

    # -- introspection --------------------------------------------------------------

    def dpus_per_channel(self) -> List[int]:
        counts = [0] * len(self.channels)
        for ci, _ in self._map:
            counts[ci] += 1
        return counts

    def __len__(self) -> int:
        return self.nr_dpus
