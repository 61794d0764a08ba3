"""Execution tracing: a timeline of rank operations and segments.

A :class:`Tracer` attached to a profiler records every driver-centric
operation and every application segment as a timed event on the
simulated clock, and exports the Chrome trace-event JSON format, so a
run can be inspected in ``chrome://tracing`` / Perfetto — the kind of
observability a production virtualization layer ships with.

When constructed with a :class:`~repro.observability.MetricsRegistry`,
the tracer mirrors its event flow into the ``repro_trace_*`` metrics, so
one run emits both artifacts: a timeline for Perfetto and a snapshot for
Prometheus (``docs/observability.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.observability import MetricsRegistry
from repro.observability.instruments import TRACE, bind


@dataclass
class TraceEvent:
    """One complete ('X') event on the timeline."""

    name: str
    category: str
    start: float            #: simulated seconds
    duration: float
    args: Dict[str, object] = field(default_factory=dict)

    #: tid of per-rank op tracks (``rank N`` renders as tid RANK_TID_BASE+N).
    RANK_TID_BASE = 10

    @property
    def tid(self) -> int:
        """Track id: segments, ops and misc each get a track, and ops
        carrying a ``rank`` arg get one track *per rank* so Fig. 16-style
        parallel handling renders as separate labeled rows."""
        rank = self.args.get("rank")
        if self.category == "op" and isinstance(rank, int):
            return self.RANK_TID_BASE + rank
        return {"segment": 1, "op": 2}.get(self.category, 3)

    @property
    def track_name(self) -> str:
        rank = self.args.get("rank")
        if self.category == "op" and isinstance(rank, int):
            return f"rank {rank}"
        return {"segment": "segments",
                "op": "driver ops"}.get(self.category, "misc")

    def to_chrome(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "cat": self.category,
            "ph": "X",
            "ts": self.start * 1e6,       # Chrome wants microseconds
            "dur": self.duration * 1e6,
            "pid": 1,
            "tid": self.tid,
            "args": self.args,
        }


class Tracer:
    """Collects trace events; attach via ``profiler.tracer = Tracer()``."""

    def __init__(self, max_events: int = 100_000,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self.dropped = 0
        #: Optional metrics bridge; ``None`` keeps the tracer standalone.
        self.obs = bind(registry, TRACE) if registry is not None else None

    def record(self, name: str, category: str, start: float,
               duration: float, **args: object) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            if self.obs is not None:
                self.obs.dropped.inc()
            return
        self.events.append(TraceEvent(name=name, category=category,
                                      start=start, duration=duration,
                                      args=dict(args)))
        if self.obs is not None:
            self.obs.events[category].inc()

    # -- queries ------------------------------------------------------------

    def by_category(self, category: str) -> List[TraceEvent]:
        return [e for e in self.events if e.category == category]

    def total_time(self, name: Optional[str] = None) -> float:
        return sum(e.duration for e in self.events
                   if name is None or e.name == name)

    # -- export ---------------------------------------------------------------

    def to_chrome_trace(self) -> str:
        """Serialize to the Chrome trace-event JSON format.

        Metadata (``M``) events naming the process and every used track
        follow the ``X`` events, so viewers label per-rank rows instead
        of showing bare tids.
        """
        tracks: Dict[int, str] = {}
        for event in self.events:
            tracks.setdefault(event.tid, event.track_name)
        metadata: List[Dict[str, object]] = [{
            "name": "process_name", "ph": "M", "pid": 1,
            "args": {"name": "vPIM simulation"},
        }]
        for tid in sorted(tracks):
            metadata.append({"name": "thread_name", "ph": "M", "pid": 1,
                             "tid": tid, "args": {"name": tracks[tid]}})
        payload = {
            "traceEvents": [e.to_chrome() for e in self.events] + metadata,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped},
        }
        return json.dumps(payload)

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_chrome_trace())
