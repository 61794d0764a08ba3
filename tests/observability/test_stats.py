"""The shared statistics module and the call sites that migrated to it.

Two percentile conventions coexist in the codebase on purpose, and this
file pins both so the dedup cannot silently change either:

- ``percentile_linear`` (q in [0, 1], linear interpolation) — the SLO
  tracker's convention (`SloTracker.latency_p99`);
- ``percentile_nearest_rank`` (q in [0, 100], nearest-rank) — the
  scorecard convention of `repro.analysis.qos` and
  `repro.analysis.overcommit`.
"""

from __future__ import annotations

import pytest

from repro.observability.stats import (
    DecayedMean,
    histogram_quantile,
    percentile_linear,
    percentile_nearest_rank,
)


class TestPercentileLinear:
    def test_empty_is_zero(self):
        assert percentile_linear([], 0.99) == 0.0

    def test_single_sample(self):
        assert percentile_linear([42.0], 0.5) == 42.0

    def test_interpolates(self):
        # Between sorted ranks: p50 of [1, 2, 3, 4] sits at rank 1.5.
        assert percentile_linear([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5

    def test_endpoints(self):
        samples = [5.0, 1.0, 3.0]
        assert percentile_linear(samples, 0.0) == 1.0
        assert percentile_linear(samples, 1.0) == 5.0

    def test_matches_slo_convention(self):
        """The SLO tracker's p99 is this function over its window."""
        from repro.qos.slo import SloTracker

        samples = [0.3, 0.1, 0.9, 0.5, 0.7]
        tracker = SloTracker()
        for latency in samples:
            tracker.observe_session("t", latency)
        for window in (1, 3, len(samples)):
            assert tracker.latency_p99("t", window) == percentile_linear(
                samples[-window:], 0.99)


class TestPercentileNearestRank:
    def test_empty_is_zero(self):
        assert percentile_nearest_rank([], 99) == 0.0

    def test_nearest_rank_p50(self):
        # Nearest rank: round(0.5 * (4 - 1)) = rank 2 -> an observed value.
        assert percentile_nearest_rank([4.0, 1.0, 3.0, 2.0], 50) == 3.0

    def test_p99_small_sample_is_max(self):
        assert percentile_nearest_rank([1.0, 2.0, 3.0], 99) == 3.0

    def test_picks_observed_values(self):
        values = [0.3, 0.1, 0.9, 0.5, 0.7]
        assert [percentile_nearest_rank(values, q)
                for q in (0, 25, 50, 90, 99, 100)] \
            == [0.1, 0.3, 0.5, 0.9, 0.9, 0.9]

    def test_the_two_conventions_differ(self):
        """The reason both survive: they disagree on interior ranks."""
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile_linear(values, 0.5) == 2.5
        assert percentile_nearest_rank(values, 50) == 3.0


class TestHistogramQuantile:
    BOUNDS = (0.001, 0.01, 0.1)

    def test_empty_is_zero(self):
        assert histogram_quantile(0.99, self.BOUNDS, [0, 0, 0, 0]) == 0.0

    def test_interpolates_within_bucket(self):
        # All mass in the (0.001, 0.01] bucket: p50 is its midpoint-ish.
        value = histogram_quantile(0.5, self.BOUNDS, [0, 10, 0, 0])
        assert 0.001 < value <= 0.01

    def test_overflow_clamps_to_top_bound(self):
        value = histogram_quantile(0.99, self.BOUNDS, [0, 0, 0, 5])
        assert value == self.BOUNDS[-1]

    def test_monotone_in_q(self):
        deltas = [3, 5, 2, 1]
        quantiles = [histogram_quantile(q, self.BOUNDS, deltas)
                     for q in (0.1, 0.5, 0.9, 0.99)]
        assert quantiles == sorted(quantiles)


class TestDecayedMean:
    def test_unbiased_first_update(self):
        mean = DecayedMean(alpha=0.3)
        mean.update(10.0)
        assert mean.mean == pytest.approx(10.0)

    def test_tracks_recent_values(self):
        mean = DecayedMean(alpha=0.5)
        for _ in range(20):
            mean.update(1.0)
        for _ in range(20):
            mean.update(9.0)
        assert mean.mean > 8.0  # the old regime has decayed away

    def test_counts_updates(self):
        mean = DecayedMean()
        for i in range(5):
            mean.update(float(i))
        assert mean.n == 5

    def test_constant_stream_is_exact(self):
        mean = DecayedMean(alpha=0.1)
        for _ in range(50):
            mean.update(3.5)
        assert mean.mean == pytest.approx(3.5)

