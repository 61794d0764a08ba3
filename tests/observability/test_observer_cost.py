"""Count guard: what observing one transfer may cost, in counts not time.

Two rules, both deterministic (``docs/observability.md``, "What the
observer costs"):

1. **One record per handle.**  In steady state — the retained list
   is full, so every trace is counted, not built — a transfer allocates
   one :class:`Span` per ``begin`` (the handle its caller reads),
   **none per** ``event``, and one :class:`Trace` per finished trace —
   no other object of any class defined under ``repro.observability``.
   ``repro_span_started_total`` still advances once per span.
2. **No label resolution after first use.**  Once every label value a
   transfer path uses has been seen, it never calls
   :meth:`MetricFamily.labels` again; a *fresh* label value still
   creates its series on first touch.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import pkgutil
from collections import Counter

import numpy as np
import pytest

import repro.observability
from repro.config import small_machine
from repro.core import VPim
from repro.observability.metrics import MetricFamily
from repro.observability.spans import Span, SpanRecorder, Trace
from repro.sdk.dpu_set import DpuSet

NR_DPUS = 16
SIZES = (64, 512, 4096, 8192)
CALLS = 200
#: Spans the 200-call pass starts, by mode: what building every trace
#: allocated as records (PR 23), and what counting must still count.
SPANS_STARTED = {"vm": 3960, "native": 500}


def _observability_classes():
    found = set()
    for info in pkgutil.iter_modules(repro.observability.__path__):
        module = importlib.import_module(f"repro.observability.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__
                    and not issubclass(cls, (enum.Enum, BaseException))):
                found.add(cls)
    return found


class Tally:
    """Counts ``MetricFamily.labels`` calls, ``SpanRecorder.begin`` /
    ``event`` calls and observability-class instantiations while
    installed."""

    def __init__(self, monkeypatch) -> None:
        self.labels_calls = 0
        self.calls: Counter = Counter()
        self.instances: Counter = Counter()
        labels = MetricFamily.labels

        def counting_labels(family, **label_values):
            self.labels_calls += 1
            return labels(family, **label_values)

        monkeypatch.setattr(MetricFamily, "labels", counting_labels)
        for name in ("begin", "event"):
            monkeypatch.setattr(SpanRecorder, name, self._counting_call(
                name, getattr(SpanRecorder, name)))
        for cls in _observability_classes():
            monkeypatch.setattr(cls, "__init__",
                                self._counting_init(cls, cls.__init__))

    def _counting_call(self, name, method):
        def counting_call(recorder, *args, **kwargs):
            self.calls[name] += 1
            return method(recorder, *args, **kwargs)
        return counting_call

    def _counting_init(self, cls, init):
        def counting_init(obj, *args, **kwargs):
            if type(obj) is cls:      # not a subclass's super().__init__
                self.instances[cls] += 1
            init(obj, *args, **kwargs)
        return counting_init


def _transfers(dpus: DpuSet) -> None:
    """``CALLS`` transfers cycling the four entry points over a few
    shapes: the same sequence every time it runs."""
    for i in range(CALLS // 4):
        dpu, size = (i * 5) % NR_DPUS, SIZES[i % len(SIZES)]
        offset = (i % 3) * (16 << 10)
        payload = np.full(size, i % 251, dtype=np.uint8)
        dpus.copy_to_mram(dpu, offset, payload)
        got = dpus.copy_from_mram(dpu, offset, size)
        assert np.array_equal(got, payload)
        dpus.push_to_mram(offset, [payload] * NR_DPUS)
        rows = dpus.push_from_mram(offset, size)
        assert all(np.array_equal(row, payload) for row in rows)


def _series(registry):
    return {(family.name, tuple(sorted(labels.items())))
            for family in registry.collect()
            for labels, _ in family.samples()}


@pytest.mark.parametrize("mode", ["vm", "native"])
def test_steady_state_transfer_costs_one_record_per_span(mode, monkeypatch):
    # Three ranks: the DPU set fills two, the third is the fresh label.
    vpim = VPim(small_machine(nr_ranks=3, dpus_per_rank=8))
    # Low enough that the warm-up pass reaches the cap: in the steady
    # state of a long run every trace opens with the list full.
    vpim.spans.max_traces = 64
    session = (vpim.vm_session(nr_vupmem=3) if mode == "vm"
               else vpim.native_session())
    registry, spans = vpim.machine.metrics, vpim.spans
    started = registry.get("repro_span_started_total")

    with DpuSet(session.transport, NR_DPUS) as dpus:
        _transfers(dpus)                               # warm-up pass
        assert spans.spans_dropped.get("trace_cap", 0) > 0
        series_before = _series(registry)
        spans_before, traces_before = started.total(), spans.traces_finished

        tally = Tally(monkeypatch)
        _transfers(dpus)

        new_spans = int(started.total() - spans_before)
        new_traces = spans.traces_finished - traces_before
        assert new_traces == CALLS and new_spans == SPANS_STARTED[mode]
        assert tally.calls["begin"] + tally.calls["event"] == new_spans
        assert tally.labels_calls == 0
        assert dict(tally.instances) == {Span: tally.calls["begin"],
                                         Trace: new_traces}
        assert len(spans.traces) == spans.max_traces
        assert _series(registry) == series_before

        # A fresh label value still gets its series, on first use: a
        # new request kind here, a new rank below.
        dpus.ci_ops(3)
        after_ci = _series(registry)
        assert after_ci > series_before and tally.labels_calls > 0
        with DpuSet(session.transport, 8) as more:
            more.copy_to_mram(0, 0, np.zeros(64, dtype=np.uint8))
        fresh = _series(registry) - after_ci
        assert ("repro_rank_xfer_ops_total",
                (("direction", "write"), ("rank", "2"))) in fresh
