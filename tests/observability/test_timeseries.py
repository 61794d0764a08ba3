"""The simulated-time time-series store: scraping, retention, queries."""

from __future__ import annotations

import pytest

from repro.observability.catalog import CATALOG
from repro.observability.metrics import MetricsRegistry
from repro.observability.timeseries import TimeSeriesStore


def _counter(registry):
    return CATALOG["repro_frontend_requests_total"].create(registry).labels(
        vm="vm-0", device="dev0", kind="launch")


def _histogram(registry):
    return CATALOG["repro_frontend_request_seconds"].create(registry).labels(
        vm="vm-0", device="dev0", kind="launch")


class TestScraping:
    def test_grid_stamps_not_now(self):
        registry = MetricsRegistry()
        _counter(registry).inc()
        store = TimeSeriesStore(registry, interval=0.01)
        store.maybe_scrape(0.0137)
        series = store.select("repro_frontend_requests_total")[0]
        # Stamped at the grid point below 0.0137, not at 0.0137 itself.
        assert series.points[0][0] == pytest.approx(0.01)

    def test_one_scrape_per_grid_crossing(self):
        registry = MetricsRegistry()
        _counter(registry).inc()
        store = TimeSeriesStore(registry, interval=0.01)
        assert store.maybe_scrape(0.011) is True
        assert store.maybe_scrape(0.015) is False   # same grid cell
        assert store.maybe_scrape(0.019) is False
        assert store.maybe_scrape(0.021) is True    # next cell
        assert store.scrapes == 2

    def test_large_jump_yields_one_scrape(self):
        """A 10-interval leap scrapes once, at the latest grid point."""
        registry = MetricsRegistry()
        _counter(registry).inc()
        store = TimeSeriesStore(registry, interval=0.01)
        store.maybe_scrape(0.105)
        assert store.scrapes == 1
        series = store.select("repro_frontend_requests_total")[0]
        assert series.points[-1][0] == pytest.approx(0.10)

    def test_positive_interval_required(self):
        with pytest.raises(ValueError):
            TimeSeriesStore(MetricsRegistry(), interval=0.0)

    def test_self_metrics_do_not_mutate_during_sweep(self):
        """The store's own families are written after collect, so a
        scrape terminates and the accounting lands one scrape late."""
        registry = MetricsRegistry()
        _counter(registry).inc()
        store = TimeSeriesStore(registry, interval=0.001)
        store.scrape(ts=0.0)
        store.scrape(ts=0.001)
        # The second scrape captured the first one's self-accounting.
        assert store.trajectory("repro_tsdb_scrapes_total")[-1] == (0.001, 1.0)


class TestRetention:
    def test_exact_drop_accounting(self):
        registry = MetricsRegistry()
        counter = _counter(registry)
        store = TimeSeriesStore(registry, interval=0.001, max_points=4)
        for i in range(7):
            counter.inc()
            store.scrape(ts=i * 0.001)
        series = store.select("repro_frontend_requests_total")[0]
        assert len(series.points) == 4
        assert series.dropped == 3
        assert store.dropped_total >= 3  # self-metrics may also wrap

    def test_drop_counter_exported_by_name(self):
        registry = MetricsRegistry()
        counter = _counter(registry)
        store = TimeSeriesStore(registry, interval=0.001, max_points=2)
        for i in range(4):
            counter.inc()
            store.scrape(ts=i * 0.001)
        family = registry.get("repro_tsdb_dropped_points_total")
        dropped = {labels["name"]: child.value
                   for labels, child in family.samples()}
        assert dropped["repro_frontend_requests_total"] >= 2

    def test_lossless_run_reports_zero(self):
        registry = MetricsRegistry()
        counter = _counter(registry)
        store = TimeSeriesStore(registry, interval=0.001)
        for i in range(10):
            counter.inc()
            store.scrape(ts=i * 0.001)
        assert store.dropped_total == 0


class TestQueries:
    def _store_with_traffic(self):
        registry = MetricsRegistry()
        counter = _counter(registry)
        histogram = _histogram(registry)
        store = TimeSeriesStore(registry, interval=0.001)
        for i in range(10):
            counter.inc(2.0)
            histogram.observe(0.002 * (i + 1))
            store.scrape(ts=i * 0.001)
        return store

    def test_delta_full_window(self):
        store = self._store_with_traffic()
        # First point holds 2.0, last holds 20.0.
        assert store.delta("repro_frontend_requests_total") == 18.0

    def test_delta_bounded_window(self):
        store = self._store_with_traffic()
        # Exclusive cutoff: points with ts > 0.009 - 0.003 are in-window
        # (0.007, 0.008, 0.009), so the increase is 20 - 16.
        value = store.delta("repro_frontend_requests_total", window=0.003)
        assert value == pytest.approx(4.0)

    def test_window_percentile_monotone(self):
        store = self._store_with_traffic()
        p50 = store.window_percentile("repro_frontend_request_seconds", 0.5)
        p99 = store.window_percentile("repro_frontend_request_seconds", 0.99)
        assert 0 < p50 <= p99

    def test_missing_metric_queries_are_zero_or_none(self):
        store = self._store_with_traffic()
        assert store.delta("repro_paging_swaps_total") == 0.0
        assert store.window_percentile("repro_paging_swap_seconds",
                                       0.99) == 0.0

    def test_trajectory_sums_across_series(self):
        registry = MetricsRegistry()
        family = CATALOG["repro_frontend_requests_total"].create(registry)
        family.labels(vm="vm-0", device="dev0", kind="launch").inc()
        family.labels(vm="vm-1", device="dev0", kind="launch").inc(2.0)
        store = TimeSeriesStore(registry, interval=0.001)
        store.scrape(ts=0.0)
        store.scrape(ts=0.001)
        trajectory = store.trajectory("repro_frontend_requests_total")
        assert trajectory == [(0.0, 3.0), (0.001, 3.0)]

    def test_snapshot_round_trips_histogram_state(self):
        """Each histogram point is the full cumulative state."""
        store = self._store_with_traffic()
        (hist,) = store.select("repro_frontend_request_seconds")
        assert hist.kind == "histogram"
        assert hist.bounds
        _ts, count, total, buckets = hist.points[-1]
        assert count == 10
        assert total == pytest.approx(sum(
            0.002 * (i + 1) for i in range(10)))
        assert sum(buckets) == count
