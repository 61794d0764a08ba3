"""Request-scoped distributed tracing over simulated time.

The paper's analysis lives in per-request breakdowns — Fig. 13 splits a
single write-to-rank into Page/Ser/Int/Deser/T-data steps and Fig. 16
shows per-rank completion timing — but aggregate metrics cannot answer
"which layer ate the latency of *this* request?".  This module adds the
span model that can: a :class:`Span` carries its identity (trace_id,
span_id, parent_id) plus a stack layer, and a :class:`SpanRecorder`
threads that identity through every seam of the stack (session → SDK →
frontend → virtio → backend → rank, plus paging and fault recovery).

Two properties are non-negotiable and shape the design:

- **No clock writes.**  Hardware, frontend and backend methods *return*
  durations; the SDK advances the clock once per logical operation.
  Spans therefore never read ``clock.now`` mid-operation — each open
  span keeps a *cursor* that children advance by their modeled
  durations, so nested spans are exact even though the clock has not
  moved yet.  Only root/scope spans (session runs, swaps) anchor on
  the clock, because the clock genuinely advances there.
- **Bounded memory.**  Spans buffer per active trace (capped), finished
  traces are retained per a deterministic head-sampling decision
  (``sample_rate``; faulted traces are always kept), and the retained
  list itself is capped.  Every drop increments a ``repro_span_*``
  counter, so counters stay exact even at ``sample_rate=0``.
- **A trace nothing can keep is a tally, not built.**  Whether the
  retained list has room is known when the *root* opens; once it is
  full every tier ends in the ``trace_cap`` drop, so such a trace keeps
  counts on reused handles, and cursors only if something reads them.
  Ids, counters, the retention classification and the drop counts are
  those of building and dropping it (``docs/observability.md``).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.observability.catalog import SPAN, SPAN_RETENTION, bind
from repro.observability.metrics import Counts, MetricsRegistry
from repro.observability.stats import DecayedMean

#: Stack layers, in top-down order.  The Perfetto export gives each its
#: own named track; :func:`~repro.observability.critical_path.
#: layer_self_times` reports per-layer self-time against this list.
LAYERS = ("session", "sdk", "frontend", "virtio", "backend", "rank",
          "paging", "qos")

#: Tail retention warms up over this many roots per layer before it may
#: call one an outlier, and weighs each new root this much in the mean.
TAIL_MIN_SAMPLES = 8
TAIL_DECAY = 0.3

#: Per-rank Perfetto tracks start at this tid (`rank N` → RANK_TID_BASE+N).
RANK_TID_BASE = 100


class Span:
    """One timed unit of work on the simulated timeline.

    A plain record, one allocation per span of a built trace (a tally's
    spans are :class:`_Handle` s, and its root becomes a ``Span`` only
    when :attr:`SpanRecorder.last_root` is read).  ``trace_id`` /
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

    def link_all(self, kind: str, span_ids: Iterable[int]) -> None:
        """:meth:`link` each of ``span_ids`` in order, building the
        ``links`` tuple once rather than once per link."""
        self.links += tuple({"kind": kind, "span_id": span_id}
                            for span_id in span_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name}, {self.layer}, id={self.span_id}, "
                f"parent={self.parent_id}, [{self.start}, {self.end}])")


class _Handle:
    """A span of a tally: reused, never buffered, linked to nothing.  A
    root keeps its trace's number, name, layer, times and attributes; an
    inner one its span id, and its times only in a timeline."""

    start = cursor = 0.0

    @property
    def trace_id(self) -> str:
        return f"trace-{self.seq:06d}"

    def link(self, *_link) -> None:
        pass

    link_all = link


@dataclass
class Trace:
    """One finished trace: a root span and everything beneath it.

    Only a *built* trace has one; a tally is a few recorder fields and
    handles while it is active and nothing once it finishes."""

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

    def __len__(self) -> int:
        return len(self.spans)


class SpanRecorder:
    """Records span trees against a simulated clock.

    One recorder is shared machine-wide (``machine.spans``, like the
    clock and the metrics registry).

    API sketch::

        root = spans.begin("session.run", "session", start=clock.now)
        req = spans.begin("frontend.request", "frontend")   # at cursor
        spans.event("frontend.serialize", "frontend", ser_time)
        spans.end(req, duration=total)                      # exact
        spans.end(root, end=clock.now)

    Retention is decided when the root opens.  With room in
    :attr:`traces`, or an identity pinned by :meth:`next_trace`, the
    trace is *built*: every span is a :class:`Span` buffered in its
    :class:`Trace`.  Otherwise (the steady state of a long run) it is a
    *tally*: no ``Span``, no ``Trace``; its root is one of two
    :class:`_Handle` s used in turn, each inner span the handle of its
    depth, and ``begin``/``event`` add a span id and a per-layer count.
    Cursors are kept only when something reads them:
    ``capture_exemplars`` or ``tail_sampling`` (the root's duration).
    Either way span ids, the per-layer started counter, ``exemplar()``,
    ``last_root``'s identity and attributes, the classification at
    finish and the ``trace_cap``/``span_cap`` drops are the same.  The
    ``repro_span_*`` series read the recorder's integer counts.
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
        #: Spans started per layer and traces finished per ``retained``
        #: label: what ``repro_span_started_total`` and
        #: ``repro_span_traces_total`` read.
        self._started = Counts(self.obs.started if self.obs else None)
        self._finished = Counts(self.obs.traces if self.obs else None)
        #: The ``SPAN_RETENTION`` memo, bound by the first classified trace.
        self._retention = None
        #: Finished traces that survived sampling/caps, oldest first.
        self.traces: List[Trace] = []
        self._last_root = None
        #: Trace-correlated structured log (:meth:`log`), at most
        #: ``max_log_records``; overflow drops the newest record and
        #: counts it, as the span caps do.
        self.log_records: List[Dict[str, object]] = []
        self.max_log_records = 10_000
        self.log_dropped = 0
        #: Spans started so far; also the id of the newest one.
        self.spans_started = 0
        #: Drops by reason; ``repro_span_dropped_total`` reads it.
        self.spans_dropped = Counts(self.obs.dropped if self.obs else None)
        self.traces_finished = 0
        self.traces_retained = 0
        self._stack: List = []
        # The active trace: its root (``None`` outside a trace), whether
        # it is faulted and head-sampled, its :class:`Trace` — only when
        # it is built, so ``None`` means a tally — and whether it keeps a
        # timeline (built, or a tally something reads the cursors of).
        self._root = None
        self._faulted = False
        self._sampled = True
        self._trace: Optional[Trace] = None
        self._timed = True
        # A tally's handles: two roots, used in turn, and one per depth.
        self._roots = (_Handle(), _Handle())
        self._handles: List[Optional[_Handle]] = [None]
        # The most recently finished trace, as far as a post-hoc fault
        # may reach it: the spans it held (``None`` once :meth:`clear`
        # forgot it), its :class:`Trace` when it was built, and whether
        # no tier claimed it — then a post-hoc fault still retains it or
        # counts it as dropped, once.
        self._last_held: Optional[int] = None
        self._last_trace: Optional[Trace] = None
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
    def last_root(self) -> Optional[Span]:
        """Root of the most recently finished trace, retained or not (what
        recovery links ``retry_of`` to); a tally's becomes a Span here."""
        root = self._last_root
        if isinstance(root, _Handle):
            root = self._last_root = Span(
                root.trace_id, root.span_id, None, root.name, root.layer,
                root.start, root.end, root.duration, root.attributes, 0,
                root.cursor)
        return root

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

        This is where retention is decided: an unpinned trace opened
        with the retained list full is a tally, not built."""
        pin, self._pin = self._pin, None
        if start is None:
            start = self.clock.now
        if self.sample_rate >= 1.0:     # every trace: nothing to work out
            self._trace_seq += 1
            self._sampled = True
        else:
            self._sampled = self._sample_next()
        self._faulted = faulted = pin is not None and bool(pin["faulted"])
        trace_id = pin["trace_id"] if pin is not None else None
        if not trace_id:
            self._trace_ids = seq = self._trace_ids + 1
            if pin is None and len(self.traces) >= self.max_traces:
                # Ids are dense: a tally just before this one took the
                # other handle, which ``last_root`` may still hold.
                self._root = root = self._roots[seq & 1]
                root.seq, root.span_id, root.name, root.layer = (
                    seq, span_id, name, layer)
                root.start, root.cursor, root.attributes = (
                    start, start, attributes)
                self._timed = self.capture_exemplars or self.tail_sampling
                return root
            trace_id = f"trace-{seq:06d}"
        self._root = root = Span(trace_id, span_id, None, name, layer,
                                 start, None, None, attributes, 0, start)
        if pin is not None and pin["retry_of"] is not None:
            root.link("retry_of", pin["retry_of"])  # type: ignore[arg-type]
        self._trace = Trace(trace_id=trace_id, root=root,
                            sampled=self._sampled, faulted=faulted)
        self._buffer(self._trace, root)
        self._timed = True
        return root

    def _buffer(self, trace: Trace, span: Span) -> None:
        """Buffer ``span`` in ``trace``, the active one, being built."""
        if len(trace.spans) < self.max_spans_per_trace:
            trace.spans.append(span)
        else:
            trace.dropped_spans += 1
            self.spans_dropped["span_cap"] += 1

    def begin(self, name: str, layer: str, start: Optional[float] = None,
              **attributes: object) -> Span:
        """Open a span and return its handle: a :class:`Span` buffered in
        a built trace, a reused :class:`_Handle` in a tally.  With an
        open parent, ``start`` defaults to the parent's cursor
        (duration-returning layers); with an empty stack a new trace
        begins and ``start`` defaults to ``clock.now``."""
        stack = self._stack
        self.spans_started = span_id = self.spans_started + 1
        self._started[layer] += 1
        if not stack:
            span = self._open_trace(span_id, name, layer, start, attributes)
        elif self._trace is None:
            handles, depth = self._handles, len(stack)
            if depth == len(handles):
                handles.append(_Handle())
            span = handles[depth]
            span.span_id = span_id
            if self._timed:
                if start is None:
                    start = stack[-1].cursor
                span.start, span.cursor, span.end, span.attributes = (
                    start, start, None, attributes)
        else:
            parent = stack[-1]
            if start is None:
                start = parent.cursor
            span = Span(parent.trace_id, span_id, parent.span_id, name, layer,
                        start, None, None, attributes, parent.depth + 1,
                        start)
            self._buffer(self._trace, span)
        stack.append(span)
        return span

    def event(self, name: str, layer: str, duration: float,
              start: Optional[float] = None,
              **attributes: object) -> Optional[Span]:
        """Record a completed child span of exactly ``duration`` under
        the innermost open span, advancing its cursor.  Returns the
        :class:`Span` in a built trace, else ``None``; inside a trace the
        event's id is :attr:`spans_started` after the call either way.

        No-op outside a trace (e.g. bare hardware unit tests), so layers
        can call this unconditionally on their hot path."""
        stack = self._stack
        if not stack:
            return None
        self.spans_started = span_id = self.spans_started + 1
        self._started[layer] += 1
        if not self._timed:
            return None
        parent = stack[-1]
        if start is None:
            start = parent.cursor
        end = start + duration
        if end > parent.cursor:
            parent.cursor = end
        trace = self._trace
        if trace is None:
            return None
        span = Span(parent.trace_id, span_id, parent.span_id, name, layer,
                    start, end, duration, attributes, parent.depth + 1, end)
        self._buffer(trace, span)
        return span

    def end(self, span: Optional[Span], end: Optional[float] = None,
            duration: Optional[float] = None, **attributes: object) -> None:
        """Close ``span``.  Precedence: explicit ``duration`` (exact) >
        explicit ``end`` > the span's cursor (sum of its children).

        Still-open descendants (an exception unwound past them) are
        closed at their cursors and flagged ``abandoned`` so one failed
        request cannot corrupt the stack for the rest of the run."""
        stack = self._stack
        # By identity (neither class defines ``==``): only a span this
        # recorder opened and has not yet closed may unwind the stack.
        if not stack or (stack[-1] is not span and span not in stack):
            return
        timed = self._timed
        while stack[-1] is not span:
            inner = stack.pop()
            if timed and inner.end is None:
                inner.end = inner.cursor
                inner.duration = inner.end - inner.start
                inner.attributes["abandoned"] = True
        stack.pop()
        if stack and not timed:         # a tally's inner span keeps nothing
            return
        if duration is not None:
            span.duration = duration
            span.end = span.start + duration
        else:
            span.end = end if end is not None else span.cursor
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
        """Span over a clock-advancing region (session runs, rank
        swaps): starts and ends at ``clock.now``."""
        span = self.begin(name, layer, start=self.clock.now, **attributes)
        try:
            yield span
        finally:
            self.end(span, end=max(self.clock.now, span.cursor))

    def mark_fault(self, kind: str) -> None:
        """Flag the active trace as faulted: it is retained regardless of
        the sampling decision (you always want the timeline of the
        request that went wrong)."""
        root = self._root
        if root is None:
            return
        self._faulted = True
        root.attributes.setdefault("faults", []).append(kind)

    def _tail_outlier(self, root: Span) -> bool:
        """Whether tail retention claims this finished, unfaulted root.

        Retention tiers are decided at *finish* time: ``fault`` always
        wins; ``tail`` claims traces whose root duration stands out
        against the decayed per-layer baseline (only after the baseline
        has seen ``TAIL_MIN_SAMPLES`` roots, so a cold start cannot mark
        everything an outlier); ``head`` is the fallback tier the
        start-time sampling decision feeds.  The baseline is scored
        *before* it absorbs this root — a trace is compared against its
        history, not against itself — and faulted roots never feed it
        (recovery reruns would drag the mean up and mask real outliers).
        """
        duration = root.duration
        baseline = self._tail_baseline.get(root.layer)
        if baseline is None:
            baseline = DecayedMean(TAIL_DECAY)
            self._tail_baseline[root.layer] = baseline
        outlier = (baseline.n >= TAIL_MIN_SAMPLES
                   and duration > self.tail_factor * baseline.mean)
        baseline.update(duration)
        return outlier

    def _finish_trace(self) -> None:
        root, trace = self._root, self._trace
        self._root = self._trace = None
        self.traces_finished += 1
        self._last_root = root
        if trace is None:
            # A tally: ids are dense and one trace is active at a time,
            # so every span since the root is its own, and the per-trace
            # cap a built trace applies span by span applies here.
            held = self.spans_started - root.span_id + 1
            if held > self.max_spans_per_trace:
                self.spans_dropped["span_cap"] += (
                    held - self.max_spans_per_trace)
                held = self.max_spans_per_trace
        else:
            held = len(trace.spans)
        if self._faulted:
            tier = "fault"
        elif self.tail_sampling and self._tail_outlier(root):
            tier = "tail"
        else:
            tier = "head" if self._sampled else ""
        keep = False
        if trace is not None:
            trace.faulted = self._faulted
            trace.retention = tier
        if tier:
            if trace is None or len(self.traces) >= self.max_traces:
                self.spans_dropped["trace_cap"] += held
            else:
                keep = True
                if self.tail_sampling:
                    root.attributes["retention"] = tier
                self.traces.append(trace)
                self.traces_retained += 1
        self._last_held = held
        self._last_trace = trace
        self._last_pending = not tier
        self._finished["true" if keep else "false"] += 1
        if self.tail_sampling and self.obs is not None:
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
        if self._last_held is None:
            return
        trace, root = self._last_trace, self.last_root
        if trace is not None:
            trace.faulted = True
            trace.retention = "fault"
        root.attributes.setdefault("faults", []).append(kind)
        if self.tail_sampling:
            root.attributes["retention"] = "fault"
        if self._last_pending:
            self._last_pending = False
            if trace is None or len(self.traces) >= self.max_traces:
                self.spans_dropped["trace_cap"] += self._last_held
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
        stack = self._stack
        if not self.capture_exemplars or not stack:
            return None
        return (stack[0].trace_id, stack[-1].cursor)

    def latest(self) -> Optional[Trace]:
        """The most recently retained trace."""
        return self.traces[-1] if self.traces else None

    def clear(self) -> None:
        """Drop retained traces (between independent experiment runs).

        The most recently finished trace is forgotten with them, so a
        later :meth:`mark_last_faulted` cannot reach back across the
        boundary: it is a no-op until the next trace finishes."""
        self.traces.clear()
        self._last_held = self._last_trace = None

    # -- structured log ------------------------------------------------------

    def log(self, event: str, layer: str,
            **fields: object) -> Optional[Dict[str, object]]:
        """Emit one structured record, stamped with the simulated time
        and the identity of the innermost open span (if any), so a log
        line joins the request timeline that produced it (the
        correlation OpenTelemetry mandates between logs and traces)."""
        if len(self.log_records) >= self.max_log_records:
            self.log_dropped += 1
            return None
        record: Dict[str, object] = {"ts": self.clock.now, "event": event,
                                     "layer": layer}
        if self._stack:
            record["trace_id"] = self._stack[0].trace_id
            record["span_id"] = self._stack[-1].span_id
        record.update(fields)
        self.log_records.append(record)
        return record

    def save_log(self, path: str) -> None:
        """Write the log as JSONL: one JSON object per line."""
        with open(path, "w") as handle:
            handle.write("\n".join(json.dumps(r, sort_keys=True)
                                   for r in self.log_records) + "\n")

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
