"""Profiling: the paper's two breakdowns.

*Application-centric* (Fig. 8): total execution time split into CPU-DPU,
DPU, Inter-DPU and DPU-CPU segments.  Applications wrap their phases in
``profiler.segment(...)`` context managers; simulated-clock deltas are
attributed to the innermost open segment.

*Driver-centric* (Figs. 12/13): time and counts per rank-operation kind
(write-to-rank, read-from-rank, CI) spent inside the guest driver and the
VMM — excluding SDK time — plus the write-to-rank step breakdown (page
management, serialization, interrupt, deserialization, data transfer).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.hardware.clock import SimClock

#: Application-centric segment names, in plot order.
SEGMENTS = ("CPU-DPU", "DPU", "Inter-DPU", "DPU-CPU")

#: Driver-centric operation kinds.
OP_WRITE = "W-rank"
OP_READ = "R-rank"
OP_CI = "CI"

#: Write-to-rank step names (Fig. 13): page management, matrix
#: serialization, virtio interrupt handling, matrix deserialization, and
#: the data transfer to UPMEM.  "Cache" is the content-aware transfer
#: cache's digest/probe cost — only ever recorded when
#: ``Optimization(cache=True)`` is on, so Fig. 13 runs never see it.
#: "QoS" is likewise opt-in: cross-VM throttle and queueing waits, only
#: recorded when the VM carries a ``QosConfig`` (``docs/qos.md``).
WRANK_STEPS = ("Page", "Ser", "Int", "Deser", "T-data", "Cache", "QoS")


@dataclass
class OpStats:
    """Count and cumulative driver/VMM time of one operation kind."""

    count: int = 0
    time: float = 0.0

    def record(self, duration: float, count: int = 1) -> None:
        self.count += count
        self.time += duration


@dataclass
class MessageStats:
    """Frontend<->backend message accounting (drives Fig. 14's claims).

    Mutate through the ``count_*`` methods; the frontend calls each next
    to the matching live counter of its
    :data:`~repro.observability.instruments.FRONTEND` table, so profiler
    totals and live metrics cannot drift apart.
    """

    requests: int = 0          #: virtio requests actually sent
    batched_writes: int = 0    #: small writes absorbed by the batch buffer
    cache_hits: int = 0        #: reads served from the prefetch cache
    cache_refills: int = 0     #: prefetch segment fetches

    def count_request(self, count: int = 1) -> None:
        self.requests += count

    def count_batched_writes(self, count: int = 1) -> None:
        self.batched_writes += count

    def count_cache_hits(self, count: int = 1) -> None:
        self.cache_hits += count

    def count_cache_refills(self, count: int = 1) -> None:
        self.cache_refills += count


class Profiler:
    """Collects both breakdowns against a simulated clock."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.segments: Dict[str, float] = {}
        self._stack: List[str] = []
        self._last_mark = clock.now
        self.driver: Dict[str, OpStats] = {}
        self.wrank_steps: Dict[str, float] = {}
        self.messages = MessageStats()
        #: Optional :class:`repro.analysis.trace.Tracer` receiving a
        #: timed event for every segment and driver operation.
        self.tracer = None

    def reset(self) -> None:
        """Clear all recorded data (fresh run on the same transport)."""
        self.segments.clear()
        self._stack.clear()
        self._last_mark = self.clock.now
        self.driver.clear()
        self.wrank_steps.clear()
        self.messages = MessageStats()

    # -- application-centric ----------------------------------------------

    def _settle(self) -> None:
        """Attribute clock progress since the last mark to the open segment."""
        now = self.clock.now
        delta = now - self._last_mark
        if delta > 0 and self._stack:
            name = self._stack[-1]
            self.segments[name] = self.segments.get(name, 0.0) + delta
        self._last_mark = now

    @contextmanager
    def segment(self, name: str) -> Iterator[None]:
        """Attribute simulated time spent in the body to segment ``name``."""
        self._settle()
        self._stack.append(name)
        start = self.clock.now
        try:
            yield
        finally:
            self._settle()
            self._stack.pop()
            if self.tracer is not None:
                self.tracer.record(name, "segment", start,
                                   self.clock.now - start)

    def segment_time(self, name: str) -> float:
        self._settle()
        return self.segments.get(name, 0.0)

    @property
    def total_time(self) -> float:
        self._settle()
        return sum(self.segments.values())

    # -- driver-centric --------------------------------------------------------

    def record_op(self, kind: str, duration: float, count: int = 1,
                  start: Optional[float] = None,
                  rank: Optional[int] = None) -> None:
        """Account ``duration`` of driver/VMM time against ``kind``.

        ``start`` is the operation's true simulated start.  Callers on
        the duration-returning path record *before* the clock advances,
        so it defaults to ``clock.now`` — not ``now - duration``, which
        misplaced events whose cost lands after other clock advances.
        Span-integrated callers pass the enclosing span's start instead.
        """
        self.driver.setdefault(kind, OpStats()).record(duration, count)
        if self.tracer is not None:
            if start is None:
                start = self.clock.now
            extra = {} if rank is None else {"rank": rank}
            self.tracer.record(kind, "op", start, duration,
                               count=count, **extra)

    def record_wrank_step(self, step: str, duration: float) -> None:
        self.record_wrank_steps({step: duration})

    def record_wrank_steps(self, steps: Dict[str, float]) -> None:
        """Account the Fig. 13 steps of one write-to-rank request."""
        totals = self.wrank_steps
        for step, duration in steps.items():
            if step not in WRANK_STEPS:
                raise ValueError(f"unknown write-to-rank step {step!r}")
            totals[step] = totals.get(step, 0.0) + duration

    def op_stats(self, kind: str) -> OpStats:
        return self.driver.get(kind, OpStats())

    # -- reporting ----------------------------------------------------------------

    def breakdown(self) -> Dict[str, float]:
        """The four-segment application breakdown, zero-filled."""
        self._settle()
        return {name: self.segments.get(name, 0.0) for name in SEGMENTS}

    def snapshot(self) -> "ProfileSnapshot":
        self._settle()
        return ProfileSnapshot(
            segments=dict(self.segments),
            driver={k: OpStats(v.count, v.time) for k, v in self.driver.items()},
            wrank_steps=dict(self.wrank_steps),
            messages=MessageStats(
                self.messages.requests,
                self.messages.batched_writes,
                self.messages.cache_hits,
                self.messages.cache_refills,
            ),
        )


@dataclass
class ProfileSnapshot:
    """Immutable copy of a profiler's state, for reports."""

    segments: Dict[str, float] = field(default_factory=dict)
    driver: Dict[str, OpStats] = field(default_factory=dict)
    wrank_steps: Dict[str, float] = field(default_factory=dict)
    messages: Optional[MessageStats] = None

    @property
    def total_time(self) -> float:
        return sum(self.segments.values())
