"""Exporters: Prometheus text exposition validity and JSON snapshots."""

from __future__ import annotations

import json
import re

import pytest

from repro.observability.export import (
    format_value,
    render_json,
    render_prometheus,
    save_snapshot,
    snapshot_dict,
)
from repro.observability.metrics import MetricsRegistry

#: One sample line: name{labels} value  (labels optional).
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$")


@pytest.fixture
def registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    c = reg.counter("repro_ops_total", "Operations", ("rank", "direction"))
    c.labels(rank="0", direction="write").inc(3)
    c.labels(rank="1", direction="read").inc()
    g = reg.gauge("repro_depth", "Queue depth", ("queue",))
    g.labels(queue="transferq").set(5)
    h = reg.histogram("repro_lat_seconds", "Latency")
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    return reg


class TestPrometheusText:
    def test_every_line_is_comment_or_sample(self, registry):
        for line in render_prometheus(registry).strip().split("\n"):
            assert line.startswith("# ") or _SAMPLE_RE.match(line), line

    def test_help_and_type_precede_samples(self, registry):
        text = render_prometheus(registry)
        assert ("# HELP repro_ops_total Operations\n"
                "# TYPE repro_ops_total counter\n"
                'repro_ops_total{rank="0",direction="write"} 3') in text

    def test_gauge_rendered(self, registry):
        assert ('repro_depth{queue="transferq"} 5\n'
                in render_prometheus(registry))

    def test_histogram_series(self, registry):
        text = render_prometheus(registry)
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_sum 5.55" in text
        assert "repro_lat_seconds_count 3" in text

    def test_families_in_name_order(self, registry):
        text = render_prometheus(registry)
        positions = [text.index(f"# HELP {name} ")
                     for name in ("repro_depth", "repro_lat_seconds",
                                  "repro_ops_total")]
        assert positions == sorted(positions)

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_x_total", "h", ("app",))
        fam.labels(app='we"ird\\name\nline').inc()
        text = render_prometheus(reg)
        assert r'app="we\"ird\\name\nline"' in text

    def test_ends_with_newline(self, registry):
        assert render_prometheus(registry).endswith("\n")


class TestFormatValue:
    @pytest.mark.parametrize("value,expected", [
        (3.0, "3"),
        (0.25, "0.25"),
        (float("inf"), "+Inf"),
        (float("-inf"), "-Inf"),
    ])
    def test_rendering(self, value, expected):
        assert format_value(value) == expected


class TestJson:
    def test_roundtrips_through_json(self, registry):
        payload = json.loads(render_json(registry))
        assert payload == snapshot_dict(registry)

    def test_counter_samples(self, registry):
        payload = snapshot_dict(registry)
        by_name = {m["name"]: m for m in payload["metrics"]}
        ops = by_name["repro_ops_total"]
        assert ops["type"] == "counter"
        assert ops["label_names"] == ["rank", "direction"]
        assert {"labels": {"rank": "0", "direction": "write"},
                "value": 3.0} in ops["samples"]

    def test_histogram_sample_shape(self, registry):
        payload = snapshot_dict(registry)
        by_name = {m["name"]: m for m in payload["metrics"]}
        sample = by_name["repro_lat_seconds"]["samples"][0]
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(5.55)
        assert sample["buckets"][-1] == {"le": "+Inf", "count": 3}


class TestSaveSnapshot:
    def test_prom_format(self, registry, tmp_path):
        path = tmp_path / "metrics.prom"
        save_snapshot(registry, str(path), fmt="prom")
        assert path.read_text() == render_prometheus(registry)

    def test_json_format(self, registry, tmp_path):
        path = tmp_path / "metrics.json"
        save_snapshot(registry, str(path), fmt="json")
        assert json.loads(path.read_text()) == snapshot_dict(registry)

    def test_unknown_format_rejected(self, registry, tmp_path):
        with pytest.raises(ValueError):
            save_snapshot(registry, str(tmp_path / "x"), fmt="yaml")
