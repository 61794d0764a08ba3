"""Request-scoped tracing: propagation, attribution, sampling, recovery."""

from __future__ import annotations

import copy
import json

import pytest

from repro.analysis.figures import run_app_traced
from repro.apps.prim.va import VectorAdd
from repro.config import small_machine
from repro.core import VPim
from repro.faults import FaultInjector, FaultKind, FaultPlan, run_with_recovery
from repro.hardware.clock import SimClock
from repro.observability import (
    SpanRecorder,
    critical_path,
    layer_self_times,
    slowest_spans,
)
from repro.observability.metrics import MetricsRegistry

from tests.faults.conftest import schedule

APP = dict(nr_dpus=8, n_elements=1 << 12)


@pytest.fixture(scope="module")
def nw_traced():
    """The acceptance workload: ``repro trace NW --dpus 16 --preset vPIM``."""
    report, registry, recorder = run_app_traced("NW", 16, preset="vPIM")
    assert report.verified
    return report, registry, recorder


def _armed_stack(sample_rate: float = 1.0):
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    vpim.spans.sample_rate = sample_rate
    plan = FaultPlan(seed=0)
    injector = FaultInjector(plan, vpim.clock,
                             registry=vpim.machine.metrics)
    injector.arm_machine(vpim.machine, vpim.manager)
    session = vpim.vm_session(nr_vupmem=1)
    injector.arm_vm(session.vm)
    return vpim, injector, session


class TestCrossLayerPropagation:
    def test_every_backend_request_has_a_frontend_parent(self, nw_traced):
        _, _, recorder = nw_traced
        trace = recorder.latest()
        backends = trace.by_name("backend.request")
        assert backends
        for span in backends:
            parent = trace.span(span.parent_id)
            assert parent is not None
            assert parent.layer == "frontend"

    def test_all_layers_of_the_stack_appear(self, nw_traced):
        _, _, recorder = nw_traced
        trace = recorder.latest()
        layers = {span.layer for span in trace.spans}
        assert {"session", "sdk", "frontend", "virtio", "backend",
                "rank"} <= layers

    def test_single_trace_id_spans_the_whole_session(self, nw_traced):
        _, _, recorder = nw_traced
        trace = recorder.latest()
        assert len({span.trace_id for span in trace.spans}) == 1
        assert trace.root.name == "session.run"
        assert trace.root.parent_id is None

    def test_rank_spans_carry_rank_attribute(self, nw_traced):
        _, _, recorder = nw_traced
        trace = recorder.latest()
        rank_spans = trace.by_layer("rank")
        assert rank_spans
        assert all(isinstance(s.attributes.get("rank"), int)
                   for s in rank_spans)


class TestCriticalPathAttribution:
    def test_layer_self_times_partition_the_session_total(self, nw_traced):
        _, _, recorder = nw_traced
        trace = recorder.latest()
        self_times = layer_self_times(trace)
        assert sum(self_times.values()) == pytest.approx(
            trace.root.duration, abs=1e-9)

    def test_span_derived_wrank_time_matches_profiler(self, nw_traced):
        report, _, recorder = nw_traced
        trace = recorder.latest()
        for kind in ("W-rank", "R-rank", "CI"):
            tagged = [s for s in trace.spans
                      if s.attributes.get("op") == kind]
            profiled = report.profile.driver.get(kind)
            if profiled is None:
                assert not tagged
                continue
            assert sum(s.duration for s in tagged) == profiled.time

    def test_critical_path_descends_from_the_root(self, nw_traced):
        _, _, recorder = nw_traced
        trace = recorder.latest()
        chain = critical_path(trace)
        assert chain[0] is trace.root
        for parent, child in zip(chain, chain[1:]):
            assert child.parent_id == parent.span_id
            assert child.duration <= parent.duration + 1e-12

    def test_slowest_spans_filters_and_sorts(self, nw_traced):
        _, _, recorder = nw_traced
        trace = recorder.latest()
        slow = slowest_spans(trace, name="frontend.request", top=3)
        assert len(slow) == 3
        assert all(s.name == "frontend.request" for s in slow)
        durations = [s.duration for s in slow]
        assert durations == sorted(durations, reverse=True)


class TestHeadSampling:
    CFG = dict(config=None)

    def test_zero_rate_retains_nothing_but_counts_exactly(self):
        report, registry, recorder = run_app_traced(
            "CHK", 8, sample_rate=0.0,
            config=small_machine(nr_ranks=2, dpus_per_rank=8))
        assert report.verified
        assert recorder.traces == []
        assert recorder.traces_retained == 0
        assert recorder.traces_finished == 1
        assert recorder.spans_started > 0
        assert (registry.get("repro_span_started_total").total()
                == recorder.spans_started)
        assert registry.value("repro_span_traces_total",
                              retained="false") == 1

    def test_sampling_never_perturbs_the_timeline(self):
        clocks = {}
        for rate in (1.0, 0.0):
            report, _, recorder = run_app_traced(
                "CHK", 8, sample_rate=rate,
                config=small_machine(nr_ranks=2, dpus_per_rank=8))
            clocks[rate] = (recorder.clock.now, report.segments_total)
        assert clocks[1.0] == clocks[0.0]

    def test_systematic_sampling_keeps_the_expected_share(self):
        recorder = SpanRecorder(SimClock(), sample_rate=0.25)
        kept = 0
        for _ in range(100):
            root = recorder.begin("session.run", "session")
            recorder.end(root, duration=1.0)
            kept += 1 if recorder.traces and \
                recorder.traces[-1].root is root else 0
        assert kept == 25

    def test_span_cap_drops_and_counts(self):
        registry = MetricsRegistry()
        recorder = SpanRecorder(SimClock(), max_spans_per_trace=2,
                                registry=registry)
        root = recorder.begin("session.run", "session")
        recorder.event("a", "sdk", 1.0)
        recorder.event("b", "sdk", 1.0)   # over the cap
        recorder.end(root)
        trace = recorder.latest()
        assert len(trace) == 2
        assert trace.dropped_spans == 1
        assert recorder.spans_dropped["span_cap"] == 1
        assert registry.value("repro_span_dropped_total",
                              reason="span_cap") == 1
        # Counters stay exact: started counts the dropped span too.
        assert recorder.spans_started == 3

    def test_trace_cap_bounds_retained_traces(self):
        recorder = SpanRecorder(SimClock(), max_traces=2)
        for _ in range(4):
            root = recorder.begin("session.run", "session")
            recorder.end(root, duration=1.0)
        assert len(recorder.traces) == 2
        assert recorder.spans_dropped["trace_cap"] == 2
        assert recorder.traces_finished == 4


class TestFaultedTraces:
    def test_faulted_trace_retained_at_zero_sample_rate(self):
        vpim, injector, session = _armed_stack(sample_rate=0.0)
        schedule(injector, 0.0, FaultKind.TRANSPORT_CORRUPTION,
                 "transport:*")
        report = session.run(VectorAdd(**APP))
        assert report.verified          # retried within budget
        trace = vpim.spans.latest()
        assert trace is not None
        assert trace.faulted
        assert trace.root.attributes["faults"]

    def test_recovery_rerun_shares_trace_id_with_retry_link(self):
        vpim, injector, session = _armed_stack()
        schedule(injector, 1e-4, FaultKind.RANK_OFFLINE, "rank:*")
        recovery = run_with_recovery(session, VectorAdd(**APP))
        assert recovery.recovered
        recorder = vpim.spans
        attempts = recorder.traces_for(recorder.last_root.trace_id)
        assert len(attempts) == 2
        failed, rerun = attempts
        assert failed.faulted
        assert failed.root.span_id != rerun.root.span_id
        assert {"kind": "retry_of", "span_id": failed.root.span_id} \
            in rerun.root.links
        # The failed attempt's abandoned spans were closed, not leaked.
        assert all(s.end is not None for s in failed.spans)

    def test_unverified_run_is_retroactively_retained(self):
        recorder = SpanRecorder(SimClock(), sample_rate=0.0)
        root = recorder.begin("session.run", "session")
        recorder.end(root, duration=1.0)
        assert recorder.traces == []
        recorder.mark_last_faulted("dpu_mram_bitflip")
        trace = recorder.latest()
        assert trace is not None and trace.faulted
        assert trace.root.attributes["faults"] == ["dpu_mram_bitflip"]


    def test_a_dropped_trace_is_counted_once(self):
        registry = MetricsRegistry()
        recorder = SpanRecorder(SimClock(), max_traces=1, registry=registry)
        for _ in range(2):
            root = recorder.begin("session.run", "session")
            recorder.event("sdk.push", "sdk", 1.0)
            recorder.end(root)
        assert recorder.spans_dropped["trace_cap"] == 2
        # The second trace is gone already: flagging it (twice, even)
        # must not count its spans a second time.
        recorder.mark_last_faulted("dpu_mram_bitflip")
        recorder.mark_last_faulted("dpu_mram_bitflip")
        assert recorder.spans_dropped == {"trace_cap": 2}
        assert registry.value("repro_span_dropped_total",
                              reason="trace_cap") == 2
        retained = sum(len(trace) for trace in recorder.traces)
        assert recorder.spans_started == 4 == retained + 2
        assert recorder.last_root.attributes["faults"] == \
            ["dpu_mram_bitflip"] * 2

    def test_a_discarded_trace_is_dropped_once_when_there_is_no_room(self):
        recorder = SpanRecorder(SimClock(), sample_rate=0.0, max_traces=0)
        root = recorder.begin("session.run", "session")
        recorder.event("sdk.push", "sdk", 1.0)
        recorder.end(root)
        assert recorder.spans_dropped == {}      # discarded, not dropped
        recorder.mark_last_faulted("dpu_mram_bitflip")
        recorder.mark_last_faulted("dpu_mram_bitflip")
        assert recorder.spans_dropped == {"trace_cap": 2}
        assert recorder.traces == []

    def test_clear_forgets_the_last_finished_trace(self):
        recorder = SpanRecorder(SimClock())
        root = recorder.begin("session.run", "session")
        recorder.end(root, duration=1.0)
        kept = recorder.latest()
        recorder.clear()
        # Nothing to flag across the boundary: not flagged-and-lost.
        recorder.mark_last_faulted("dpu_mram_bitflip")
        assert recorder.traces == []
        assert not kept.faulted and "faults" not in root.attributes
        # The next finished trace is reachable again.
        root = recorder.begin("session.run", "session")
        recorder.end(root, duration=1.0)
        recorder.mark_last_faulted("dpu_mram_bitflip")
        assert recorder.latest().faulted


class TestTraceLogs:
    def test_transient_fault_log_is_trace_correlated(self):
        vpim, injector, session = _armed_stack()
        schedule(injector, 0.0, FaultKind.TRANSPORT_CORRUPTION,
                 "transport:*")
        session.run(VectorAdd(**APP))
        trace = vpim.spans.latest()
        records = vpim.spans.log.for_trace(trace.trace_id)
        assert records
        fault = next(r for r in records if r["event"] == "transient_fault")
        assert trace.span(fault["span_id"]) is not None
        lines = vpim.spans.log.to_jsonl().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_log_overflow_drops_newest_and_counts(self):
        recorder = SpanRecorder(SimClock())
        recorder.log.max_records = 1
        assert recorder.log.emit("first", "session") is not None
        assert recorder.log.emit("second", "session") is None
        assert recorder.log.dropped == 1
        assert [r["event"] for r in recorder.log.records] == ["first"]


class TestPerfettoExport:
    def test_export_shape_and_flow_events(self, nw_traced):
        _, _, recorder = nw_traced
        payload = json.loads(json.dumps(recorder.to_perfetto()))
        events = payload["traceEvents"]
        assert events[0]["ph"] == "X"
        phases = {e["ph"] for e in events}
        assert {"X", "M", "s", "f"} <= phases
        # Metadata events follow every X event.
        last_x = max(i for i, e in enumerate(events) if e["ph"] == "X")
        first_m = min(i for i, e in enumerate(events) if e["ph"] == "M")
        assert first_m > last_x
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"frontend", "backend", "virtio", "session"} <= names
        assert any(name.startswith("rank ") for name in names)
        flows = [e for e in events if e["ph"] in ("s", "f")]
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        finishes = {e["id"] for e in flows if e["ph"] == "f"}
        assert starts and starts == finishes

    def test_save_round_trips_through_json(self, tmp_path, nw_traced):
        _, _, recorder = nw_traced
        path = tmp_path / "trace.json"
        recorder.save(str(path))
        payload = json.loads(path.read_text())
        assert payload["otherData"]["traces_retained"] == len(recorder.traces)


class TestRecorderMechanics:
    def test_event_outside_a_trace_is_a_silent_noop(self):
        registry = MetricsRegistry()
        recorder = SpanRecorder(SimClock(), registry=registry)
        assert recorder.event("rank.write", "rank", 1.0) is None
        assert recorder.spans_started == 0
        assert registry.get("repro_span_started_total").total() == 0

    def test_cursor_nesting_and_rewind(self):
        recorder = SpanRecorder(SimClock())
        root = recorder.begin("session.run", "session", start=0.0)
        op = recorder.begin("sdk.push", "sdk")
        recorder.event("rank.write", "rank", 0.25)
        recorder.rewind(op)
        recorder.event("rank.write", "rank", 0.5)   # parallel sibling
        recorder.end(op, duration=0.5)
        recorder.end(root, duration=0.5)
        trace = recorder.latest()
        writes = trace.by_name("rank.write")
        assert [w.start for w in writes] == [0.0, 0.0]
        assert writes[1].end == 0.5

    def test_exception_unwind_closes_abandoned_descendants(self):
        recorder = SpanRecorder(SimClock())
        root = recorder.begin("session.run", "session", start=0.0)
        outer = recorder.begin("sdk.push", "sdk")
        recorder.begin("frontend.request", "frontend")
        recorder.end(outer, duration=1.0)
        assert recorder.current is root
        abandoned = recorder._trace.spans[-1]
        assert abandoned.name == "frontend.request"
        assert abandoned.attributes.get("abandoned") is True
        recorder.end(root)

    def test_end_matches_by_identity(self):
        recorder = SpanRecorder(SimClock())
        root = recorder.begin("session.run", "session", start=0.0)
        op = recorder.begin("sdk.push", "sdk")
        request = recorder.begin("frontend.request", "frontend")
        recorder.end(request, duration=0.25)
        open_spans = list(recorder._stack)
        assert open_spans == [root, op]

        # Closing a span a second time must not unwind anything.
        recorder.end(request, duration=0.25)
        assert recorder._stack == open_spans

        # Neither must a span this recorder never began, even when every
        # field equals an open one's.
        twin = copy.copy(op)
        assert all(getattr(twin, f) == getattr(op, f) for f in op.__slots__)
        recorder.end(twin, duration=1.0)
        assert all(a is b for a, b in zip(recorder._stack, open_spans))
        assert len(recorder._stack) == 2
        assert op.end is None and "abandoned" not in op.attributes

        recorder.end(op, duration=0.25)
        recorder.end(root)
        assert recorder.current is None
        assert recorder.latest().root is root
