"""The transport abstraction that makes applications virtualization-agnostic.

A :class:`Transport` hands out :class:`RankChannel` objects — one per
allocated rank — through which the SDK performs rank operations.  Two
implementations exist:

- :class:`repro.driver.native.NativeTransport` talks to the physical
  ranks in performance mode (mmap), as native UPMEM applications do;
- :class:`repro.virt.transport.VirtTransport` routes every operation
  through the vUPMEM frontend driver, the virtio transferq, and the
  Firecracker backend.

Channel methods *return* simulated durations; the :class:`~repro.sdk.
dpu_set.DpuSet` combines them across ranks (parallel = max, sequential =
sum, per :attr:`Transport.parallel_ranks`) and advances the clock.  This
is what makes Fig. 15/16's sequential-vs-parallel handling observable.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple

import numpy as np

from repro.hardware.clock import SimClock
from repro.hardware.timing import CostModel
from repro.observability import MetricsRegistry
from repro.observability.spans import SpanRecorder
from repro.sdk.kernel import DpuProgram
from repro.sdk.profile import Profiler
from repro.sdk.transfer import TransferMatrix


class RankChannel(abc.ABC):
    """One allocated rank as seen by the SDK."""

    @property
    @abc.abstractmethod
    def nr_dpus(self) -> int:
        """Number of usable DPUs behind this channel."""

    @property
    @abc.abstractmethod
    def rank_index(self) -> int:
        """Physical rank index (for reporting)."""

    @abc.abstractmethod
    def load(self, program: DpuProgram) -> float:
        """Load ``program`` on every DPU; returns the duration."""

    @abc.abstractmethod
    def write(self, matrix: TransferMatrix) -> float:
        """Perform a write-to-rank operation; returns the duration."""

    @abc.abstractmethod
    def read(self, matrix: TransferMatrix) -> Tuple[List[np.ndarray], float]:
        """Perform a read-from-rank; returns per-entry buffers and duration."""

    @abc.abstractmethod
    def launch(self) -> float:
        """Boot the loaded program on all DPUs, synchronously."""

    @abc.abstractmethod
    def ci_ops(self, count: int) -> float:
        """Issue ``count`` synchronous control-interface operations."""

    @abc.abstractmethod
    def release(self) -> float:
        """Release the rank (free the DPUs); returns the duration."""


class Transport(abc.ABC):
    """Factory for rank channels plus the shared clock/profiler/cost model."""

    def __init__(self, clock: SimClock, cost: CostModel,
                 profiler: Optional[Profiler] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 spans: Optional[SpanRecorder] = None) -> None:
        self.clock = clock
        self.cost = cost
        self.profiler = profiler or Profiler(clock)
        #: Registry shared with the machine behind this transport; sessions
        #: record their run metrics here.
        self.metrics = metrics or MetricsRegistry()
        #: Span recorder shared with the machine behind this transport;
        #: ``None`` (e.g. bare test transports) disables tracing.
        self.spans = spans

    @property
    @abc.abstractmethod
    def parallel_ranks(self) -> bool:
        """Whether operations spanning several ranks execute concurrently."""

    @abc.abstractmethod
    def alloc_channels(self, nr_dpus: int) -> List[RankChannel]:
        """Allocate enough ranks to cover ``nr_dpus`` DPUs."""

    def launch_poll_penalty(self, run_duration: float) -> float:
        """Wall-time penalty of *userspace* status polling during a launch.

        Applications using the asynchronous launch API poll DPU status
        from a userspace loop (the UPMEM Index Search demo does).
        Natively those polls overlap the wait for free; a virtualized
        transport must override this to charge the per-poll round trip.
        """
        return 0.0

    # -- duration combining ----------------------------------------------------

    def contention(self) -> float:
        """Share of concurrent transfer work that serializes on the host
        memory bus (0 = perfectly parallel, 1 = sequential)."""
        return self.cost.native_parallel_contention

    def combine(self, durations: List[float],
                contended: bool = True) -> Tuple[float, List[float]]:
        """Combine per-rank durations of one logical operation.

        ``contended`` distinguishes host-side transfers (which share the
        memory bus when handled in parallel) from device-side work such
        as DPU launches (which overlap perfectly).  Returns ``(elapsed,
        completion_times)`` where ``completion_times[i]`` is when rank
        i's request finished, relative to the operation start — the
        series Fig. 16 plots.
        """
        if not durations:
            return 0.0, []
        if len(durations) == 1:
            # One rank overlaps nothing: ``d + (d - d) * c`` is ``d``.
            return durations[0], [durations[0]]
        if self.parallel_ranks:
            peak = max(durations)
            if not contended:
                return peak, list(durations)
            elapsed = peak + (sum(durations) - peak) * self.contention()
            # Fair bus sharing: concurrent requests finish together.
            return elapsed, [elapsed] * len(durations)
        completions = []
        acc = 0.0
        for d in durations:
            acc += d
            completions.append(acc)
        return acc, completions
