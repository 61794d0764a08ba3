"""Counted == built: a trace the recorder cannot keep is counted, and
everything but the records is what building it would have given.

One op sequence drives two recorders on identical clock schedules:
``max_traces`` large, so every trace is *built*, and ``max_traces=0``,
so every trace is *counted*.  They must agree on every handle, every
``exemplar()``, the counters, ``last_root``, the per-layer started
series and the tail baseline; and what the counted side reports dropped
is what the built side holds (``docs/observability.md``, "What the
observer costs").
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.hardware.clock import SimClock
from repro.observability import SpanRecorder
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import LAYERS, Span

BUILT, COUNTED = 1 << 30, 0

small = st.integers(min_value=0, max_value=7)
seconds = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
maybe_start = st.none() | seconds
layer = st.sampled_from(LAYERS[:4])

ops = st.lists(st.one_of(
    st.tuples(st.just("begin"), layer, maybe_start),
    st.tuples(st.just("event"), layer, seconds, maybe_start),
    # ``small`` picks which open span ends: not the innermost one means
    # ending an outer span over open inner ones.
    st.tuples(st.just("end"), small, st.sampled_from(
        ["cursor", "duration", "end"]), seconds),
    st.tuples(st.just("rewind"), small),
    st.tuples(st.just("link"), small, small),
    st.tuples(st.just("mark_fault"), small),
    st.tuples(st.just("next_trace"), st.none() | st.just("pinned-trace"),
              st.none() | small, st.booleans()),
    st.tuples(st.just("mark_last_faulted"), small),
    st.tuples(st.just("scope"), layer, st.lists(seconds, max_size=3),
              seconds),
    st.tuples(st.just("advance"), seconds),
), max_size=60)


def handle_fields(span: Span):
    # ``retention`` is stamped on a root when its trace *is retained*
    # (tail sampling on): the one attribute only the built side can have.
    attributes = {key: value for key, value in span.attributes.items()
                  if key != "retention"}
    return (span.span_id, span.trace_id, span.parent_id, span.name,
            span.layer, span.start, span.end, span.duration, span.cursor,
            span.depth, span.links, attributes)


class Driver:
    """Interprets an op list against one recorder and logs what a caller
    of the recorder can see."""

    def __init__(self, max_traces: int, **recorder_args) -> None:
        self.clock = SimClock()
        self.registry = MetricsRegistry()
        self.recorder = SpanRecorder(self.clock, max_traces=max_traces,
                                     registry=self.registry,
                                     **recorder_args)
        self.handles = []       # every span ``begin`` returned
        self.open = []          # ... and the ones not ended yet
        self.seen = []          # exemplar() and current, after each op

    def run(self, sequence) -> "Driver":
        rec = self.recorder
        for op in sequence:
            getattr(self, "_" + op[0])(rec, *op[1:])
            current = rec.current
            self.seen.append((rec.exemplar(), rec.spans_started,
                              current and current.span_id))
        while self.open:        # finish what is still active
            self._end(rec, 0, "cursor", 0.0)
        return self

    def _begin(self, rec, layer, start):
        span = rec.begin(f"{layer}.op", layer, start=start, tag=len(
            self.handles))
        self.handles.append(span)
        self.open.append(span)

    def _event(self, rec, layer, duration, start):
        before = rec.spans_started
        rec.event(f"{layer}.step", layer, duration, start=start, n=before)
        # The id a caller derives holds whether or not a record exists.
        assert rec.spans_started == before + (1 if self.open else 0)

    def _end(self, rec, which, how, value):
        if not self.open:
            return
        index = which % len(self.open)
        span = self.open[index]
        del self.open[index:]
        if how == "duration":
            rec.end(span, duration=value)
        elif how == "end":
            rec.end(span, end=span.start + value, closed="by end")
        else:
            rec.end(span)

    def _rewind(self, rec, which):
        if self.open:
            rec.rewind(self.open[which % len(self.open)])

    def _link(self, rec, which, target):
        if self.open:
            self.open[which % len(self.open)].link("absorbed", target)

    def _mark_fault(self, rec, kind):
        rec.mark_fault(f"fault-{kind}")

    def _next_trace(self, rec, trace_id, retry_of, faulted):
        rec.next_trace(trace_id=trace_id, retry_of=retry_of,
                       faulted=faulted)

    def _mark_last_faulted(self, rec, kind):
        rec.mark_last_faulted(f"late-{kind}")

    def _scope(self, rec, layer, durations, advance):
        with rec.scope(f"{layer}.scope", layer) as span:
            self.handles.append(span)
            for duration in durations:
                rec.event(f"{layer}.step", layer, duration)
            self.clock.advance(advance)

    def _advance(self, rec, dt):
        self.clock.advance(dt)

    # -- what the two sides are compared on ---------------------------------

    def started_by_layer(self):
        family = self.registry.get("repro_span_started_total")
        return {labels["layer"]: child.value
                for labels, child in family.samples()}

    def dropped(self, reason: str) -> int:
        return self.recorder.spans_dropped.get(reason, 0)

    def retained_spans(self) -> int:
        return sum(len(trace) for trace in self.recorder.traces)

    def tail_baseline(self):
        return {layer: (mean.n, mean._ema, mean._weight)
                for layer, mean in self.recorder._tail_baseline.items()}

    def retention_series(self):
        if not (self.recorder.tail_sampling
                and self.recorder.traces_finished):
            return None
        family = self.registry.get("repro_span_retention_total")
        return sorted((labels["tier"], child.value)
                      for labels, child in family.samples())


@settings(max_examples=300, deadline=None)
@given(sequence=ops, tail_sampling=st.booleans(),
       capture_exemplars=st.booleans(),
       span_cap=st.sampled_from([1, 3, 100_000]))
def test_a_counted_trace_is_a_built_one_without_the_records(
        sequence, tail_sampling, capture_exemplars, span_cap):
    args = dict(tail_sampling=tail_sampling,
                capture_exemplars=capture_exemplars,
                max_spans_per_trace=span_cap)
    built = Driver(BUILT, **args).run(sequence)
    counted = Driver(COUNTED, **args).run(sequence)
    a, b = built.recorder, counted.recorder

    assert ([handle_fields(h) for h in built.handles]
            == [handle_fields(h) for h in counted.handles])
    assert built.seen == counted.seen
    assert a.spans_started == b.spans_started
    assert a.traces_finished == b.traces_finished
    assert (a.last_root is None) == (b.last_root is None)
    if a.last_root is not None:
        assert handle_fields(a.last_root) == handle_fields(b.last_root)
    assert built.started_by_layer() == counted.started_by_layer()
    assert built.tail_baseline() == counted.tail_baseline()
    assert built.retention_series() == counted.retention_series()

    # Every trace finished and every trace has a tier (sample_rate 1), so
    # the built side retained them all and the counted side none.
    assert len(a.traces) == a.traces_finished and b.traces == []
    assert built.dropped("trace_cap") == 0
    assert built.dropped("span_cap") == counted.dropped("span_cap")
    assert counted.dropped("trace_cap") == built.retained_spans()
    for side, retained in ((built, "true"), (counted, "false")):
        if side.recorder.traces_finished:
            finished = side.registry.get("repro_span_traces_total")
            assert ({labels["retained"]: child.value
                     for labels, child in finished.samples()}
                    == {retained: side.recorder.traces_finished})
        assert (sum(side.started_by_layer().values())
                == side.recorder.spans_started
                == side.retained_spans() + side.dropped("trace_cap")
                + side.dropped("span_cap"))


def _trace(recorder: SpanRecorder, events: int):
    root = recorder.begin("session.run", "session")
    returned = [recorder.event("sdk.push", "sdk", 1.0)
                for _ in range(events)]
    recorder.end(root)
    return root, returned


def test_the_per_trace_cap_splits_a_counted_trace_as_it_splits_a_built_one():
    built = SpanRecorder(SimClock(), max_spans_per_trace=3, max_traces=0)
    built.max_traces = 1            # room when the root opens: built
    _trace(built, events=4)         # 5 spans: 3 buffered, 2 over the cap
    assert built.spans_dropped == {"span_cap": 2}
    assert len(built.latest()) == 3 and built.latest().dropped_spans == 2

    counted = SpanRecorder(SimClock(), max_spans_per_trace=3, max_traces=0)
    _, returned = _trace(counted, events=4)
    assert returned == [None] * 4
    assert counted.spans_dropped == {"span_cap": 2, "trace_cap": 3}
    assert counted.spans_started == 5 and counted.traces == []


def test_a_trace_opened_with_room_is_built_even_if_the_list_fills():
    # Rate 0.5 discards the first trace and samples the second.
    recorder = SpanRecorder(SimClock(), sample_rate=0.5, max_traces=1)
    first, _ = _trace(recorder, events=1)
    assert recorder.traces == []
    root = recorder.begin("session.run", "session")
    one = recorder.event("sdk.push", "sdk", 1.0)
    # The discarded trace turns out faulted and takes the only slot.
    recorder.mark_last_faulted("dpu_mram_bitflip")
    assert [t.root for t in recorder.traces] == [first]
    two = recorder.event("sdk.push", "sdk", 1.0)
    recorder.end(root)
    # Built span by span although it ends in the ``trace_cap`` drop ...
    assert isinstance(one, Span) and isinstance(two, Span)
    assert recorder.spans_dropped == {"trace_cap": 3}
    # ... and the next one, opened with the list full, is counted.
    recorder.sample_rate = 1.0
    _, returned = _trace(recorder, events=2)
    assert returned == [None, None]
    assert recorder.spans_dropped == {"trace_cap": 6}
    assert recorder.spans_started == 8 == 2 + 6
