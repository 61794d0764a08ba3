"""Cost model: the 11-cycle pipeline rule and derived helpers."""

import pytest

from repro.hardware.timing import CostModel, DEFAULT_COST_MODEL


@pytest.fixture
def cm() -> CostModel:
    return DEFAULT_COST_MODEL


def test_pipeline_full_with_11_tasklets(cm):
    # With >= 11 busy tasklets, time is bounded by total instructions.
    counts = [100] * 11
    assert cm.pipeline_time(counts) == pytest.approx(
        cm.cycles_to_seconds(1100))


def test_pipeline_underutilized_below_11_tasklets(cm):
    # One tasklet: each instruction is 11 cycles apart.
    assert cm.pipeline_time([100]) == pytest.approx(
        cm.cycles_to_seconds(1100))


def test_pipeline_balanced_16_tasklets(cm):
    counts = [50] * 16
    # 800 total > 11 * 50 = 550 -> throughput-bound.
    assert cm.pipeline_time(counts) == pytest.approx(cm.cycles_to_seconds(800))


def test_pipeline_skewed_tasklets_bound_by_slowest(cm):
    counts = [1000] + [1] * 15
    # 11 * 1000 > 1015: hazard-bound by the heavy tasklet.
    assert cm.pipeline_time(counts) == pytest.approx(
        cm.cycles_to_seconds(11_000))


def test_pipeline_empty_is_zero(cm):
    assert cm.pipeline_time([]) == 0.0


def test_dma_time_components(cm):
    t = cm.dma_time(nr_ops=2, total_bytes=1000)
    expected = cm.cycles_to_seconds(2 * cm.dma_setup_cycles + 500)
    assert t == pytest.approx(expected)


def test_rank_transfer_has_fixed_floor(cm):
    assert cm.rank_transfer_time(0) == pytest.approx(cm.rank_op_fixed)
    assert cm.rank_transfer_time(1 << 30) > cm.rank_transfer_time(1 << 20)


def test_interleave_rust_slower_than_c(cm):
    c = cm.interleave_time(1 << 20, rust=False)
    rust = cm.interleave_time(1 << 20, rust=True)
    assert rust / c == pytest.approx(cm.rust_slowdown)
    # The paper's Section 4.2 floor: C is at least 3.43x faster.
    assert rust / c >= 3.43


def test_pages_of(cm):
    assert cm.pages_of(0) == 0
    assert cm.pages_of(1) == 1
    assert cm.pages_of(4096) == 1
    assert cm.pages_of(4097) == 2


def test_with_overrides_replaces_only_named(cm):
    other = cm.with_overrides(rust_slowdown=5.0)
    assert other.rust_slowdown == 5.0
    assert other.rank_xfer_bandwidth == cm.rank_xfer_bandwidth
    # Frozen dataclass: the original is untouched.
    assert cm.rust_slowdown != 5.0


def test_manager_costs_match_paper(cm):
    # Section 4.2: 36 ms allocation, 597 ms reset.
    assert cm.manager_alloc == pytest.approx(36e-3)
    assert cm.manager_reset == pytest.approx(597e-3)


def test_boot_cost_within_paper_bound(cm):
    # Section 3.2: a vUPMEM device adds up to 2 ms of boot time.
    assert cm.vupmem_boot_cost <= 2e-3
