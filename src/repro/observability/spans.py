"""Request-scoped distributed tracing over simulated time.

The paper's analysis lives in per-request breakdowns — Fig. 13 splits a
single write-to-rank into Page/Ser/Int/Deser/T-data steps and Fig. 16
shows per-rank completion timing — but aggregate metrics cannot answer
"which layer ate the latency of *this* request?".  This module adds the
span model that can: a :class:`Span` carries its identity (trace_id,
span_id, parent_id) plus a stack layer, and a :class:`SpanRecorder`
threads that identity through every seam of the stack (session → SDK →
frontend → virtio → backend → rank, plus the cluster control plane and
fault recovery).

Two properties are non-negotiable and shape the design:

- **No clock writes.**  Hardware, frontend and backend methods *return*
  durations; the SDK advances the clock once per logical operation.
  Spans therefore never read ``clock.now`` mid-operation — each open
  span keeps a *cursor* that children advance by their modeled
  durations, so nested spans are exact even though the clock has not
  moved yet.  Only root/scope spans (session runs, cluster actions)
  anchor on the clock, because the clock genuinely advances there.
- **Bounded memory.**  Spans buffer per active trace (capped), finished
  traces are retained per a deterministic head-sampling decision
  (``sample_rate``; faulted traces are always kept), and the retained
  list itself is capped.  Every drop increments a ``repro_span_*``
  counter, so counters stay exact even at ``sample_rate=0``.
- **A trace nothing can keep is counted, not built.**  Whether the
  retained list has room is known when the *root* opens; once it is
  full every tier ends in the ``trace_cap`` drop, so such a trace keeps
  a count where a built one keeps a list.  Ids, cursors, counters, the
  retention classification and the drop counts are those of building
  the trace and dropping it (``docs/observability.md``, "What the
  observer costs").
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.observability.instruments import SPAN, SPAN_RETENTION, bind
from repro.observability.logs import TraceLogger
from repro.observability.metrics import MetricsRegistry
from repro.observability.stats import DecayedMean

#: Stack layers, in top-down order.  The Perfetto export gives each its
#: own named track; :func:`~repro.observability.critical_path.
#: layer_self_times` reports per-layer self-time against this list.
LAYERS = ("session", "sdk", "frontend", "virtio", "backend", "rank",
          "paging", "cluster", "faults")

#: Tail retention warms up over this many roots per layer before it may
#: call one an outlier, and weighs each new root this much in the mean.
TAIL_MIN_SAMPLES = 8
TAIL_DECAY = 0.3

#: Per-rank Perfetto tracks start at this tid (`rank N` → RANK_TID_BASE+N).
RANK_TID_BASE = 100


class Span:
    """One timed unit of work on the simulated timeline.

    A plain record, one allocation per span: the recorder builds one for
    every ``begin`` (its handle) and for every ``event`` of a trace it
    can still retain.  ``trace_id`` /
    ``span_id`` / ``parent_id`` are what *propagates* across layer
    seams: a backend span's ``parent_id`` is the frontend request span
    that caused it, and a recovery rerun reuses the failed attempt's
    ``trace_id``.  Spans compare by identity.

    ``duration`` stores the *modeled* duration exactly as the layer
    reported it (not ``end - start``, which floats may round), so
    span-derived sums match the profiler's bit-for-bit.  ``cursor`` is
    where the next child starts (advanced as children complete).
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "layer",
                 "start", "end", "duration", "attributes", "links", "depth",
                 "cursor")

    def __init__(self, trace_id: str, span_id: int, parent_id: Optional[int],
                 name: str, layer: str, start: float,
                 end: Optional[float], duration: Optional[float],
                 attributes: Dict[str, object], depth: int,
                 cursor: float) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.duration = duration
        self.attributes = attributes
        self.links: Tuple[Dict[str, object], ...] = ()
        self.depth = depth
        self.cursor = cursor

    def link(self, kind: str, span_id: int) -> None:
        """Attach a causal link that is not a parent edge (e.g. a flush
        span linking the batched writes it absorbed, or a recovery rerun
        linking the attempt it retries)."""
        self.links += ({"kind": kind, "span_id": span_id},)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name}, {self.layer}, id={self.span_id}, "
                f"parent={self.parent_id}, [{self.start}, {self.end}])")


@dataclass
class Trace:
    """One finished trace: a root span and everything beneath it."""

    trace_id: str
    spans: List[Span] = field(default_factory=list)
    root: Optional[Span] = None
    faulted: bool = False
    sampled: bool = True
    #: Why the trace was retained: ``fault`` / ``tail`` / ``head``, or
    #: ``""`` for traces that no tier claimed (discarded).
    retention: str = ""
    #: Spans not buffered because the per-trace cap was hit.
    dropped_spans: int = 0
    #: ``None`` for a built trace.  A trace opened with the retained list
    #: already full is *counted*: ``spans`` stays empty, and when the
    #: root closes this is how many it would have held.
    counted_spans: Optional[int] = None

    def by_layer(self, layer: str) -> List[Span]:
        return [s for s in self.spans if s.layer == layer]

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def span(self, span_id: int) -> Optional[Span]:
        for s in self.spans:
            if s.span_id == span_id:
                return s
        return None

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def __len__(self) -> int:
        return len(self.spans)


class SpanRecorder:
    """Records span trees against a simulated clock.

    One recorder is shared machine-wide (``machine.spans``, like the
    clock and the metrics registry) or fleet-wide (``cluster.spans``),
    so context propagates across hosts the same way the shared
    :class:`~repro.hardware.clock.SimClock` does.

    API sketch::

        root = spans.begin("session.run", "session", start=clock.now)
        req = spans.begin("frontend.request", "frontend")   # at cursor
        spans.event("frontend.serialize", "frontend", ser_time)
        spans.end(req, duration=total)                      # exact
        spans.end(root, end=clock.now)

    Retention is decided when the root opens.  With room in
    :attr:`traces` the trace is *built*: every span is a :class:`Span`
    buffered in its :class:`Trace`.  With :attr:`traces` full (the
    steady state of a long run) no tier can retain it, so it is
    *counted*: ``begin`` still returns a live handle — callers read its
    ``start``/``cursor``/``span_id`` and the stack needs it — but
    nothing is buffered, and ``event`` allocates nothing.  Either way
    span ids, cursors, ``spans_started``, the per-layer started
    counter, ``exemplar()``, the classification at finish and the
    ``trace_cap``/``span_cap`` drop counts are the same (a counted
    trace's ``span_cap`` share is added when its root closes).
    """

    def __init__(self, clock, sample_rate: float = 1.0,
                 max_spans_per_trace: int = 100_000,
                 max_traces: int = 256,
                 registry: Optional[MetricsRegistry] = None,
                 tail_sampling: bool = False,
                 tail_factor: float = 2.0,
                 capture_exemplars: bool = False) -> None:
        self.clock = clock
        self.sample_rate = sample_rate
        self.max_spans_per_trace = max_spans_per_trace
        self.max_traces = max_traces
        #: Tail-based retention (off by default so replays stay
        #: byte-identical): a finished trace whose root duration exceeds
        #: ``tail_factor`` times the decayed mean of its root layer's
        #: recent durations is kept even if head sampling discarded it.
        self.tail_sampling = tail_sampling
        self.tail_factor = tail_factor
        self._tail_baseline: Dict[str, DecayedMean] = {}
        #: Hand out histogram exemplars?  Off by default: exemplar
        #: suffixes change the exported snapshot text, and default runs
        #: must stay bit-identical to pre-telemetry builds.
        self.capture_exemplars = capture_exemplars
        self._registry = registry
        self.obs = bind(registry, SPAN) if registry is not None else None
        #: ``obs.started`` (children by layer), read once per span.
        self._started = self.obs.started if self.obs is not None else None
        #: The ``SPAN_RETENTION`` memo, bound by the first classified trace.
        self._retention = None
        #: Finished traces that survived sampling/caps, oldest first.
        self.traces: List[Trace] = []
        #: Root span of the most recently finished trace (retained or
        #: not) — what recovery links ``retry_of`` against.
        self.last_root: Optional[Span] = None
        #: Trace-correlated structured logging (JSONL).
        self.log = TraceLogger(self)
        #: Spans started so far; also the id of the newest one.
        self.spans_started = 0
        self.spans_dropped: Dict[str, int] = {}
        self.traces_finished = 0
        self.traces_retained = 0
        self._stack: List[Span] = []
        self._trace: Optional[Trace] = None
        #: The active trace is built, not counted (set by its root).
        self._building = True
        self._last_finished: Optional[Trace] = None
        #: No tier claimed ``_last_finished``: a post-hoc fault still
        #: retains it or counts it as dropped, once.
        self._last_pending = False
        self._trace_seq = 0
        self._trace_ids = 0
        self._pin: Optional[Dict[str, object]] = None

    # -- identity ------------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any trace."""
        return self._stack[-1] if self._stack else None

    @property
    def cursor(self) -> Optional[float]:
        """Where the next child starts — the innermost open span's
        cursor — or ``None`` outside any trace.  Read before ``event``
        it is that event's start, built or counted."""
        return self._stack[-1].cursor if self._stack else None

    # -- sampling ------------------------------------------------------------

    def _sample_next(self) -> bool:
        """Deterministic systematic head sampling: keep trace *n* iff the
        integer part of ``n * rate`` advanced — no RNG, so replays are
        byte-identical (the chaos-digest contract)."""
        rate = min(max(self.sample_rate, 0.0), 1.0)
        self._trace_seq += 1
        n = self._trace_seq
        return math.floor(n * rate) > math.floor((n - 1) * rate)

    def next_trace(self, trace_id: Optional[str] = None,
                   retry_of: Optional[int] = None,
                   faulted: bool = False) -> None:
        """Pin the identity of the *next* root span.

        Recovery uses this so a rerun session carries the failed
        attempt's ``trace_id`` with a ``retry_of`` link, and is retained
        regardless of sampling (``faulted=True``)."""
        self._pin = {"trace_id": trace_id, "retry_of": retry_of,
                     "faulted": faulted}

    # -- recording -----------------------------------------------------------

    def _open_trace(self, span_id: int, name: str, layer: str,
                    start: Optional[float],
                    attributes: Dict[str, object]) -> Span:
        """The root span of a new trace, which becomes the active one.

        This is where retention is decided: a trace opened with the
        retained list full is counted, not built."""
        pin, self._pin = self._pin, None
        trace_id = pin["trace_id"] if pin is not None else None
        if not trace_id:
            self._trace_ids += 1
            trace_id = f"trace-{self._trace_ids:06d}"
        if start is None:
            start = self.clock.now
        root = Span(trace_id, span_id, None, name, layer,
                    start, None, None, attributes, 0, start)
        faulted = False
        if pin is not None:
            faulted = bool(pin["faulted"])
            if pin["retry_of"] is not None:
                root.link("retry_of", pin["retry_of"])  # type: ignore[arg-type]
        if self.sample_rate >= 1.0:     # every trace: nothing to work out
            self._trace_seq += 1
            sampled = True
        else:
            sampled = self._sample_next()
        self._trace = Trace(trace_id=trace_id, root=root, sampled=sampled,
                            faulted=faulted)
        self._building = len(self.traces) < self.max_traces
        return root

    def _buffer(self, span: Span) -> None:
        """Buffer ``span`` in the active trace, which is being built."""
        trace = self._trace
        if len(trace.spans) < self.max_spans_per_trace:
            trace.spans.append(span)
        else:
            trace.dropped_spans += 1
            self._drop("span_cap")

    def _drop(self, reason: str, count: int = 1) -> None:
        self.spans_dropped[reason] = self.spans_dropped.get(reason, 0) + count
        if self.obs is not None:
            self.obs.dropped[reason].inc(count)

    def begin(self, name: str, layer: str, start: Optional[float] = None,
              **attributes: object) -> Span:
        """Open a span and return its handle (always a live
        :class:`Span`, buffered only in a built trace).  With an open
        parent, ``start`` defaults to the parent's cursor
        (duration-returning layers); with an empty stack a new trace
        begins and ``start`` defaults to ``clock.now``."""
        stack = self._stack
        self.spans_started = span_id = self.spans_started + 1
        if stack:
            parent = stack[-1]
            if start is None:
                start = parent.cursor
            span = Span(parent.trace_id, span_id, parent.span_id, name, layer,
                        start, None, None, attributes, parent.depth + 1,
                        start)
        else:
            span = self._open_trace(span_id, name, layer, start, attributes)
        started = self._started
        if started is not None:
            started[layer].inc()
        if self._building:
            self._buffer(span)
        stack.append(span)
        return span

    def event(self, name: str, layer: str, duration: float,
              start: Optional[float] = None,
              **attributes: object) -> Optional[Span]:
        """Record a completed child span of exactly ``duration`` under
        the innermost open span, advancing its cursor.

        Returns the :class:`Span` in a built trace and ``None`` when
        there is none: outside a trace, or in a counted one.  A caller
        that needs the event's start or id reads :attr:`cursor` before
        the call and :attr:`spans_started` after it, which hold either
        way.

        No-op outside a trace (e.g. bare hardware unit tests), so layers
        can call this unconditionally on their hot path."""
        stack = self._stack
        if not stack:
            return None
        parent = stack[-1]
        if start is None:
            start = parent.cursor
        end = start + duration
        self.spans_started = span_id = self.spans_started + 1
        if end > parent.cursor:
            parent.cursor = end
        started = self._started
        if started is not None:
            started[layer].inc()
        if not self._building:
            return None
        span = Span(parent.trace_id, span_id, parent.span_id, name, layer,
                    start, end, duration, attributes, parent.depth + 1, end)
        self._buffer(span)
        return span

    def end(self, span: Optional[Span], end: Optional[float] = None,
            duration: Optional[float] = None, **attributes: object) -> None:
        """Close ``span``.  Precedence: explicit ``duration`` (exact) >
        explicit ``end`` > the span's cursor (sum of its children).

        Still-open descendants (an exception unwound past them) are
        closed at their cursors and flagged ``abandoned`` so one failed
        request cannot corrupt the stack for the rest of the run."""
        stack = self._stack
        # By identity, innermost first: only a span this recorder opened
        # and has not yet closed may unwind the stack.
        if not stack or (stack[-1] is not span and not any(
                open_span is span for open_span in stack)):
            return
        while stack[-1] is not span:
            inner = stack.pop()
            if inner.end is None:
                inner.end = inner.cursor
                inner.duration = inner.end - inner.start
                inner.attributes["abandoned"] = True
        stack.pop()
        if duration is not None:
            span.duration = duration
            span.end = span.start + duration
        elif end is not None:
            span.end = end
            span.duration = end - span.start
        else:
            span.end = span.cursor
            span.duration = span.end - span.start
        if attributes:
            span.attributes.update(attributes)
        if stack:
            parent = stack[-1]
            if span.end > parent.cursor:
                parent.cursor = span.end
        else:
            self._finish_trace()

    def rewind(self, span: Span) -> None:
        """Reset ``span``'s cursor to its start, so the next child
        overlaps the previous ones — how the SDK lays out per-rank
        siblings of one parallel operation (Fig. 16)."""
        span.cursor = span.start

    @contextmanager
    def scope(self, name: str, layer: str,
              **attributes: object) -> Iterator[Span]:
        """Span over a clock-advancing region (session runs, cluster
        placement/migration): starts and ends at ``clock.now``."""
        span = self.begin(name, layer, start=self.clock.now, **attributes)
        try:
            yield span
        finally:
            self.end(span, end=max(self.clock.now, span.cursor))

    def mark_fault(self, kind: str) -> None:
        """Flag the active trace as faulted: it is retained regardless of
        the sampling decision (you always want the timeline of the
        request that went wrong)."""
        trace = self._trace
        if trace is None:
            return
        trace.faulted = True
        if trace.root is not None:
            faults = trace.root.attributes.setdefault("faults", [])
            if isinstance(faults, list):
                faults.append(kind)

    def _classify(self, trace: Trace) -> str:
        """Retention tier of a finished trace, decided at *finish* time.

        ``fault`` always wins; ``tail`` claims traces whose root duration
        stands out against the decayed per-layer baseline (only after the
        baseline has seen ``TAIL_MIN_SAMPLES`` roots, so a cold start
        cannot mark everything an outlier); ``head`` is the fallback tier
        the start-time sampling decision feeds.  The baseline is scored
        *before* it absorbs this root — a trace is compared against its
        history, not against itself — and faulted roots never feed it
        (recovery reruns would drag the mean up and mask real outliers).
        """
        if trace.faulted:
            return "fault"
        root = trace.root
        if self.tail_sampling and root.duration is not None:
            duration = root.duration
            baseline = self._tail_baseline.get(root.layer)
            if baseline is None:
                baseline = DecayedMean(TAIL_DECAY)
                self._tail_baseline[root.layer] = baseline
            outlier = (baseline.n >= TAIL_MIN_SAMPLES
                       and duration > self.tail_factor * baseline.mean)
            baseline.update(duration)
            if outlier:
                return "tail"
        return "head" if trace.sampled else ""

    def _finish_trace(self) -> None:
        trace = self._trace
        self._trace = None
        if trace is None:  # pragma: no cover - defensive
            return
        self.traces_finished += 1
        root = self.last_root = trace.root
        held = len(trace.spans)
        if not self._building:
            # Ids are dense and one trace is active at a time, so every
            # span since the root is this trace's.  The per-trace cap,
            # which a built trace applies span by span, applies here.
            nr_spans = self.spans_started - root.span_id + 1
            held = trace.counted_spans = min(nr_spans,
                                             self.max_spans_per_trace)
            trace.dropped_spans = nr_spans - held
            if trace.dropped_spans:
                self._drop("span_cap", trace.dropped_spans)
        tier = self._classify(trace)
        trace.retention = tier
        keep = bool(tier)
        if keep and (not self._building
                     or len(self.traces) >= self.max_traces):
            self._drop("trace_cap", held)
            keep = False
        if keep:
            if self.tail_sampling:
                root.attributes["retention"] = tier
            self.traces.append(trace)
            self.traces_retained += 1
        self._last_finished = trace
        self._last_pending = not tier
        if self.obs is not None:
            self.obs.traces["true" if keep else "false"].inc()
            if self.tail_sampling:
                if self._retention is None:
                    self._retention = bind(self._registry,
                                           SPAN_RETENTION).retention
                self._retention[tier or "none"].inc()

    def mark_last_faulted(self, kind: str) -> None:
        """Retroactively flag the most recently finished trace as faulted.

        Recovery only learns about some failures after the session root
        closed (an exception unwinding past it, a failed ``verify``), so
        the faulted-always-retained guarantee needs this post-hoc path:
        the trace is flagged and, if head sampling had discarded it,
        retained after the fact — or, with the retained list full (now,
        or when its root opened), counted as dropped there.  Either
        happens once: a trace already retained or already dropped is
        only flagged.  The ``repro_span_traces_total`` counter keeps its
        finish-time label — only the internal retention changes.
        """
        trace = self._last_finished
        if trace is None:
            return
        trace.faulted = True
        trace.retention = "fault"
        if trace.root is not None:
            faults = trace.root.attributes.setdefault("faults", [])
            if isinstance(faults, list):
                faults.append(kind)
            if self.tail_sampling:
                trace.root.attributes["retention"] = "fault"
        if self._last_pending:
            self._last_pending = False
            counted = trace.counted_spans
            if counted is not None:
                self._drop("trace_cap", counted)
            elif len(self.traces) >= self.max_traces:
                self._drop("trace_cap", len(trace.spans))
            else:
                self.traces.append(trace)
                self.traces_retained += 1

    # -- queries -------------------------------------------------------------

    def exemplar(self) -> Optional[Tuple[str, float]]:
        """``(trace_id, sim_ts)`` of the active trace, or ``None``.

        This is what histogram instrumentation attaches to an
        observation so the bucket it lands in carries a pointer back to
        the request that produced it (OpenMetrics exemplars).  The
        timestamp is the innermost open span's cursor — the simulated
        instant the observed operation completed at.  Returns ``None``
        unless ``capture_exemplars`` is on (the monitor pipeline enables
        it; default runs keep exemplar-free snapshots)."""
        if not self.capture_exemplars or not self._stack:
            return None
        span = self._stack[-1]
        return (span.trace_id, span.cursor)

    def latest(self) -> Optional[Trace]:
        """The most recently retained trace."""
        return self.traces[-1] if self.traces else None

    def traces_for(self, trace_id: str) -> List[Trace]:
        """All retained traces sharing ``trace_id`` (recovery attempts)."""
        return [t for t in self.traces if t.trace_id == trace_id]

    def clear(self) -> None:
        """Drop retained traces (between independent experiment runs).

        The most recently finished trace is forgotten with them, so a
        later :meth:`mark_last_faulted` cannot reach back across the
        boundary: it is a no-op until the next trace finishes."""
        self.traces.clear()
        self._last_finished = None

    # -- Perfetto export -----------------------------------------------------

    def _tid_of(self, span: Span) -> int:
        rank = span.attributes.get("rank")
        if span.layer == "rank" and isinstance(rank, int):
            return RANK_TID_BASE + rank
        try:
            return LAYERS.index(span.layer) + 1
        except ValueError:
            return len(LAYERS) + 1

    def to_perfetto(self) -> Dict[str, object]:
        """Chrome trace-event JSON with nested spans on named tracks.

        Emits ``M`` metadata events naming the process and one thread
        per layer (plus one per rank), ``X`` complete events for every
        span, and ``s``/``f`` flow events binding each backend span to
        the frontend request that caused it — the guest→VMM causality
        Perfetto draws as arrows across tracks."""
        events: List[Dict[str, object]] = []
        tids: Dict[int, str] = {}
        for trace in self.traces:
            spans_by_id = {s.span_id: s for s in trace.spans}
            for span in trace.spans:
                if span.end is None:
                    continue
                tid = self._tid_of(span)
                rank = span.attributes.get("rank")
                if span.layer == "rank" and isinstance(rank, int):
                    tids[tid] = f"rank {rank}"
                else:
                    tids.setdefault(tid, span.layer)
                args: Dict[str, object] = {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                }
                if span.parent_id is not None:
                    args["parent_id"] = span.parent_id
                args.update(span.attributes)
                if span.links:
                    args["links"] = list(span.links)
                events.append({
                    "name": span.name, "cat": span.layer, "ph": "X",
                    "ts": span.start * 1e6, "dur": span.duration * 1e6,
                    "pid": 1, "tid": tid, "args": args,
                })
                parent = (spans_by_id.get(span.parent_id)
                          if span.parent_id is not None else None)
                if span.layer == "backend" and parent is not None:
                    flow = {"cat": "flow", "name": "request",
                            "id": span.span_id, "pid": 1}
                    events.append({**flow, "ph": "s",
                                   "tid": self._tid_of(parent),
                                   "ts": span.start * 1e6})
                    events.append({**flow, "ph": "f", "bp": "e", "tid": tid,
                                   "ts": span.start * 1e6})
        metadata: List[Dict[str, object]] = [{
            "name": "process_name", "ph": "M", "pid": 1,
            "args": {"name": "vPIM simulation"},
        }]
        for tid in sorted(tids):
            metadata.append({"name": "thread_name", "ph": "M", "pid": 1,
                             "tid": tid, "args": {"name": tids[tid]}})
        for tid in sorted(tids):
            metadata.append({"name": "thread_sort_index", "ph": "M", "pid": 1,
                             "tid": tid, "args": {"sort_index": tid}})
        return {
            "traceEvents": events + metadata,
            "displayTimeUnit": "ms",
            "otherData": {
                "traces_retained": len(self.traces),
                "traces_finished": self.traces_finished,
                "spans_dropped": dict(self.spans_dropped),
            },
        }

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_perfetto(), handle)
