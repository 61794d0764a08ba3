"""Execution reports: what one application run measured."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.sdk.profile import SEGMENTS, ProfileSnapshot


@dataclass
class MessageStats:
    """One run's frontend->backend messages (Fig. 14's columns): the
    session's delta of its frontends' counts, zero on the native path."""

    requests: int = 0          #: virtio requests actually sent
    batched_writes: int = 0    #: small writes absorbed by the batch buffer
    cache_hits: int = 0        #: reads served from the prefetch cache
    cache_refills: int = 0     #: prefetch segment fetches


@dataclass
class ExecutionReport:
    """Everything recorded for one application run."""

    app_name: str
    mode: str                          #: "native", "vPIM", "vPIM-rust", ...
    nr_dpus: int
    total_time: float                  #: simulated seconds
    profile: ProfileSnapshot
    verified: bool
    vmexits: int = 0
    messages: MessageStats = field(default_factory=MessageStats)

    @property
    def segments(self) -> Dict[str, float]:
        return {name: self.profile.segments.get(name, 0.0)
                for name in SEGMENTS}

    @property
    def segments_total(self) -> float:
        """Sum of the four application segments — what Fig. 8 plots.

        ``total_time`` additionally includes allocation/load/free, which
        the paper reports separately (the 36 ms ``dpu_alloc`` manager
        cost, Section 4.2).
        """
        return sum(self.segments.values())

    def overhead_vs(self, baseline: "ExecutionReport") -> float:
        """Overhead factor of the segments relative to ``baseline``
        (the paper's execution-time comparison)."""
        base = baseline.segments_total
        if base <= 0:
            raise ValueError("baseline has zero execution time")
        return self.segments_total / base

    def segment_overhead_vs(self, baseline: "ExecutionReport",
                            segment: str) -> Optional[float]:
        """Per-segment overhead, or None when the baseline segment is ~0."""
        base = baseline.profile.segments.get(segment, 0.0)
        mine = self.profile.segments.get(segment, 0.0)
        if base <= 1e-12:
            return None
        return mine / base

    def row(self) -> str:
        """One human-readable table row (benchmark harness output)."""
        seg = self.segments
        return (f"{self.app_name:<12} {self.mode:<10} dpus={self.nr_dpus:<4} "
                f"total={self.total_time * 1e3:9.2f}ms  "
                f"CPU-DPU={seg['CPU-DPU'] * 1e3:8.2f}  "
                f"DPU={seg['DPU'] * 1e3:8.2f}  "
                f"Inter-DPU={seg['Inter-DPU'] * 1e3:8.2f}  "
                f"DPU-CPU={seg['DPU-CPU'] * 1e3:8.2f}  "
                f"ok={self.verified}")
