"""Profiler: segment attribution, nesting, driver stats, reset."""

import pytest

from repro.hardware.clock import SimClock
from repro.sdk.profile import (
    OP_CI,
    OP_READ,
    OP_WRITE,
    Profiler,
    SEGMENTS,
)


@pytest.fixture
def setup():
    clock = SimClock()
    return clock, Profiler(clock)


def test_segment_attribution(setup):
    clock, prof = setup
    with prof.segment("CPU-DPU"):
        clock.advance(1.0)
    with prof.segment("DPU"):
        clock.advance(2.0)
    assert prof.segment_time("CPU-DPU") == pytest.approx(1.0)
    assert prof.segment_time("DPU") == pytest.approx(2.0)
    assert prof.total_time == pytest.approx(3.0)


def test_time_outside_segments_not_attributed(setup):
    clock, prof = setup
    clock.advance(5.0)
    with prof.segment("DPU"):
        clock.advance(1.0)
    clock.advance(5.0)
    assert prof.total_time == pytest.approx(1.0)


def test_nested_segments_attribute_to_innermost(setup):
    clock, prof = setup
    with prof.segment("CPU-DPU"):
        clock.advance(1.0)
        with prof.segment("DPU"):
            clock.advance(2.0)
        clock.advance(0.5)
    assert prof.segment_time("CPU-DPU") == pytest.approx(1.5)
    assert prof.segment_time("DPU") == pytest.approx(2.0)


def test_reentrant_segment_accumulates(setup):
    clock, prof = setup
    for _ in range(3):
        with prof.segment("Inter-DPU"):
            clock.advance(0.25)
    assert prof.segment_time("Inter-DPU") == pytest.approx(0.75)


def test_breakdown_zero_fills(setup):
    _, prof = setup
    breakdown = prof.breakdown()
    assert set(breakdown) == set(SEGMENTS)
    assert all(v == 0.0 for v in breakdown.values())


def test_driver_op_stats(setup):
    _, prof = setup
    prof.record_op(OP_WRITE, 0.5)
    prof.record_op(OP_WRITE, 0.25)
    prof.record_op(OP_CI, 0.01, count=100)
    assert prof.op_stats(OP_WRITE).count == 2
    assert prof.op_stats(OP_WRITE).time == pytest.approx(0.75)
    assert prof.op_stats(OP_CI).count == 100
    assert prof.op_stats(OP_READ).count == 0


def test_wrank_steps_validation(setup):
    _, prof = setup
    prof.record_wrank_steps({"T-data": 1.0})
    prof.record_wrank_steps({"T-data": 0.5})
    assert prof.wrank_steps["T-data"] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        prof.record_wrank_steps({"bogus": 1.0})


def test_snapshot_is_immutable_copy(setup):
    clock, prof = setup
    with prof.segment("DPU"):
        clock.advance(1.0)
    prof.record_op(OP_READ, 0.1)
    snap = prof.snapshot()
    with prof.segment("DPU"):
        clock.advance(1.0)
    prof.record_op(OP_READ, 0.1)
    assert snap.segments["DPU"] == pytest.approx(1.0)
    assert snap.driver[OP_READ].count == 1
    assert snap.total_time == pytest.approx(1.0)


def test_reset_clears_everything(setup):
    clock, prof = setup
    with prof.segment("DPU"):
        clock.advance(1.0)
    prof.record_op(OP_WRITE, 0.1)
    prof.reset()
    assert prof.total_time == 0.0
    assert prof.op_stats(OP_WRITE).count == 0


def test_reset_rebases_clock_mark(setup):
    clock, prof = setup
    clock.advance(10.0)
    prof.reset()
    with prof.segment("DPU"):
        clock.advance(1.0)
    assert prof.segment_time("DPU") == pytest.approx(1.0)
