"""ExecutionReport metrics and formatting."""

import pytest

from repro.core.results import ExecutionReport
from repro.sdk.profile import ProfileSnapshot


def report(segments, total=None, name="APP", mode="native"):
    snap = ProfileSnapshot(segments=dict(segments))
    return ExecutionReport(
        app_name=name, mode=mode, nr_dpus=8,
        total_time=total if total is not None else sum(segments.values()),
        profile=snap, verified=True,
    )


def test_segments_zero_filled():
    rep = report({"DPU": 1.0})
    assert rep.segments == {"CPU-DPU": 0.0, "DPU": 1.0,
                            "Inter-DPU": 0.0, "DPU-CPU": 0.0}
    assert rep.segments_total == pytest.approx(1.0)


def test_overhead_segments_metric():
    base = report({"DPU": 1.0, "CPU-DPU": 1.0})
    mine = report({"DPU": 1.5, "CPU-DPU": 1.5}, mode="vPIM")
    assert mine.overhead_vs(base) == pytest.approx(1.5)


def test_overhead_leaves_out_allocation_and_teardown():
    base = report({"DPU": 1.0}, total=2.0)
    mine = report({"DPU": 1.0}, total=4.0, mode="vPIM")
    assert mine.overhead_vs(base) == pytest.approx(1.0)


def test_overhead_zero_baseline_rejected():
    base = report({})
    mine = report({"DPU": 1.0})
    with pytest.raises(ValueError):
        mine.overhead_vs(base)


def test_segment_overhead_none_for_empty_baseline():
    base = report({"DPU": 1.0})
    mine = report({"DPU": 1.0, "Inter-DPU": 0.5})
    assert mine.segment_overhead_vs(base, "Inter-DPU") is None
    assert mine.segment_overhead_vs(base, "DPU") == pytest.approx(1.0)


def test_row_format():
    rep = report({"DPU": 0.001})
    row = rep.row()
    assert "APP" in row and "native" in row and "dpus=8" in row
    assert "ok=True" in row
