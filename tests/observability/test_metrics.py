"""Registry semantics: families, children, labels, histograms."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ObservabilityError
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    MAX_SERIES_PER_FAMILY,
    MetricsRegistry,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestRegistration:
    def test_counter_roundtrip(self, registry):
        fam = registry.counter("repro_test_total", "help text", ("label",))
        assert registry.get("repro_test_total") is fam
        assert "repro_test_total" in registry

    def test_registration_is_idempotent(self, registry):
        a = registry.counter("repro_x_total", "h", ("l",))
        b = registry.counter("repro_x_total", "h", ("l",))
        assert a is b

    def test_type_conflict_raises(self, registry):
        registry.counter("repro_x_total", "h")
        with pytest.raises(ObservabilityError):
            registry.gauge("repro_x_total", "h")

    def test_label_conflict_raises(self, registry):
        registry.counter("repro_x_total", "h", ("a",))
        with pytest.raises(ObservabilityError):
            registry.counter("repro_x_total", "h", ("b",))

    def test_bad_metric_name_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.counter("0bad-name", "h")

    def test_bad_label_name_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.counter("repro_x_total", "h", ("bad-label",))

    def test_get_unknown_raises(self, registry):
        with pytest.raises(ObservabilityError):
            registry.get("repro_missing_total")

    def test_names_sorted(self, registry):
        registry.counter("repro_b_total", "h")
        registry.counter("repro_a_total", "h")
        assert registry.names() == ["repro_a_total", "repro_b_total"]


class TestCounter:
    def test_inc_accumulates(self, registry):
        fam = registry.counter("repro_c_total", "h")
        fam.inc()
        fam.inc(4)
        assert fam.value() == 5.0

    def test_negative_inc_rejected(self, registry):
        fam = registry.counter("repro_c_total", "h")
        with pytest.raises(ObservabilityError):
            fam.inc(-1)

    def test_labeled_children_are_independent(self, registry):
        fam = registry.counter("repro_c_total", "h", ("rank",))
        fam.labels(rank="0").inc(2)
        fam.labels(rank="1").inc(3)
        assert fam.value(rank="0") == 2.0
        assert fam.value(rank="1") == 3.0
        assert fam.total() == 5.0

    def test_children_get_or_create(self, registry):
        fam = registry.counter("repro_c_total", "h", ("rank",))
        assert fam.labels(rank="0") is fam.labels(rank="0")

    def test_missing_label_raises(self, registry):
        fam = registry.counter("repro_c_total", "h", ("rank",))
        with pytest.raises(ObservabilityError):
            fam.labels()

    def test_unknown_label_raises(self, registry):
        fam = registry.counter("repro_c_total", "h", ("rank",))
        with pytest.raises(ObservabilityError):
            fam.labels(rank="0", extra="x")

    def test_untouched_series_reads_zero(self, registry):
        fam = registry.counter("repro_c_total", "h", ("rank",))
        assert fam.value(rank="99") == 0.0


class TestLabelCardinality:
    def test_cardinality_cap_enforced(self, registry):
        fam = registry.counter("repro_c_total", "h", ("i",))
        for i in range(MAX_SERIES_PER_FAMILY):
            fam.labels(i=str(i)).inc()
        with pytest.raises(ObservabilityError):
            fam.labels(i="overflow")

    def test_existing_child_still_usable_at_cap(self, registry):
        fam = registry.counter("repro_c_total", "h", ("i",))
        for i in range(MAX_SERIES_PER_FAMILY):
            fam.labels(i=str(i)).inc()
        fam.labels(i="0").inc()          # no new series: allowed
        assert fam.value(i="0") == 2.0


class TestGauge:
    def test_set_inc_dec(self, registry):
        fam = registry.gauge("repro_g", "h")
        fam.set(10)
        child = fam.labels()
        child.inc(5)
        child.dec(3)
        assert fam.value() == 12.0


class TestHistogram:
    def test_default_buckets_shape(self):
        assert len(DEFAULT_BUCKETS) == 22
        assert DEFAULT_BUCKETS[0] == 1e-6
        assert DEFAULT_BUCKETS[-1] == 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_observe_counts_and_sum(self, registry):
        fam = registry.histogram("repro_h_seconds", "h")
        fam.observe(0.5e-6)
        fam.observe(2.0)
        child = fam.labels()
        assert child.count == 2
        assert child.sum == pytest.approx(2.0000005)

    def test_bucketing_is_cumulative(self, registry):
        fam = registry.histogram("repro_h_seconds", "h",
                                 buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            fam.observe(v)
        cumulative = fam.labels().cumulative_buckets()
        assert [c for _, c in cumulative] == [1, 2, 3, 4]
        assert cumulative[-1][0] == math.inf

    def test_boundary_lands_in_le_bucket(self, registry):
        # Prometheus semantics: buckets are <= (le), not <.
        fam = registry.histogram("repro_h_seconds", "h", buckets=(1.0, 2.0))
        fam.observe(1.0)
        cumulative = fam.labels().cumulative_buckets()
        assert cumulative[0] == (1.0, 1)

    @given(bounds=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=24, unique=True).map(sorted),
           values=st.lists(st.floats(allow_nan=False), max_size=40),
           data=st.data())
    def test_observe_picks_the_linear_scan_bucket(self, bounds, values, data):
        """Every finite float, every exact bound and +-inf lands in the
        first bucket whose bound is >= the value (``le`` semantics), the
        bucket a left-to-right ``value <= bound`` scan stops at."""
        exact = data.draw(st.lists(st.sampled_from(bounds), max_size=8))
        child = MetricsRegistry().histogram(
            "repro_h_seconds", "h", buckets=bounds).labels()
        expected = [0] * (len(bounds) + 1)
        for value in [*values, *exact, math.inf, -math.inf]:
            child.observe(value)
            expected[next((i for i, bound in enumerate(bounds)
                           if value <= bound), len(bounds))] += 1
        assert child.bucket_counts == expected
        assert child.count == len(values) + len(exact) + 2

    def test_nan_rejected(self, registry):
        fam = registry.histogram("repro_h_seconds", "h")
        with pytest.raises(ObservabilityError):
            fam.observe(float("nan"))

    def test_value_reports_count(self, registry):
        fam = registry.histogram("repro_h_seconds", "h")
        fam.observe(0.1)
        fam.observe(0.2)
        assert fam.value() == 2

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.histogram("repro_h_seconds", "h", buckets=(2.0, 1.0))


class TestReset:
    def test_reset_clears_children_keeps_schema(self, registry):
        fam = registry.counter("repro_c_total", "h", ("rank",))
        fam.labels(rank="0").inc(7)
        registry.reset()
        assert "repro_c_total" in registry
        assert registry.value("repro_c_total", rank="0") == 0.0

    def test_registry_value_of_absent_family_is_zero(self, registry):
        assert registry.value("repro_never_registered_total") == 0.0
