"""OpenMetrics exemplar rendering and exposition-format escaping."""

from __future__ import annotations

import json
import math
import re

import pytest

from repro.observability.catalog import CATALOG
from repro.observability.export import (
    _escape_label_value,
    format_exemplar,
    format_value,
    render_json,
    render_prometheus,
    snapshot_dict,
)
from repro.observability.metrics import Exemplar, MetricsRegistry

TRICKY = [
    'back\\slash',
    'new\nline',
    'quo"te',
    'all\\three\n"at once"',
    'trailing backslash\\',
    '',
]


def _unescape(value: str) -> str:
    """Reverse of the exposition-format escaping, char by char."""
    out, i = [], 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", "n": "\n", '"': '"'}[nxt])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class TestEscaping:
    @pytest.mark.parametrize("raw", TRICKY)
    def test_round_trip(self, raw):
        assert _unescape(_escape_label_value(raw)) == raw

    def test_backslash_escaped_before_others(self):
        # If the order were wrong, \n would double-escape to \\n.
        assert _escape_label_value("a\nb") == "a\\nb"
        assert _escape_label_value("a\\nb") == "a\\\\nb"

    def test_quote(self):
        assert _escape_label_value('say "hi"') == 'say \\"hi\\"'


class TestFormatValue:
    def test_integers_render_bare(self):
        assert format_value(3.0) == "3"
        assert format_value(0.0) == "0"
        assert format_value(-7.0) == "-7"

    def test_infinities(self):
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"

    def test_nan_parses_back(self):
        assert math.isnan(float(format_value(float("nan"))))

    @pytest.mark.parametrize("value", [
        0.0, 1.0, -1.0, 0.1, 1e-9, 12345.678, 1e20, -2.5e-3,
        float("inf"), float("-inf"),
    ])
    def test_parse_back_property(self, value):
        text = format_value(value)
        parsed = float("inf") if text == "+Inf" else (
            float("-inf") if text == "-Inf" else float(text))
        assert parsed == value


class TestFormatExemplar:
    def test_openmetrics_suffix_shape(self):
        suffix = format_exemplar(
            Exemplar(trace_id="trace-000011", value=0.0846, ts=0.25))
        assert suffix == ' # {trace_id="trace-000011"} 0.0846 0.25'

    def test_trace_id_is_escaped(self):
        suffix = format_exemplar(
            Exemplar(trace_id='odd"id\\', value=1.0, ts=0.0))
        assert 'trace_id="odd\\"id\\\\"' in suffix


class TestRenderedExposition:
    def _registry(self):
        registry = MetricsRegistry()
        hist = CATALOG["repro_frontend_request_seconds"].create(registry).labels(
            vm="vm-0", device="dev0", kind="launch")
        hist.observe(0.004, exemplar=("trace-000003", 0.1))
        return registry

    def test_bucket_line_carries_exemplar(self):
        text = render_prometheus(self._registry())
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_frontend_request_seconds_bucket")
                 and "# {" in l]
        assert len(lines) == 1
        assert 'trace_id="trace-000003"' in lines[0]
        assert lines[0].rstrip().endswith("0.004 0.1")

    def test_unexemplared_buckets_are_clean(self):
        registry = MetricsRegistry()
        hist = CATALOG["repro_frontend_request_seconds"].create(registry).labels(
            vm="vm-0", device="dev0", kind="launch")
        hist.observe(0.004)  # no exemplar kwarg: default path
        text = render_prometheus(registry)
        assert "# {" not in text.replace("# HELP", "").replace("# TYPE", "")

    def test_json_snapshot_carries_per_bucket_exemplar(self):
        snap = snapshot_dict(self._registry())
        family = [f for f in snap["metrics"]
                  if f["name"] == "repro_frontend_request_seconds"][0]
        buckets = family["samples"][0]["buckets"]
        exemplared = [b for b in buckets if "exemplar" in b]
        assert len(exemplared) == 1
        assert exemplared[0]["exemplar"] == {
            "trace_id": "trace-000003", "value": 0.004, "ts": 0.1}

    def test_render_json_is_valid_json(self):
        parsed = json.loads(render_json(self._registry()))
        assert parsed["metrics"]

    def test_label_values_parse_back_from_exposition(self):
        """Property: every tricky label value survives render + parse."""
        registry = MetricsRegistry()
        family = CATALOG["repro_fault_injected_total"].create(registry)
        for raw in TRICKY:
            family.labels(kind=raw).inc()
        text = render_prometheus(registry)
        pattern = re.compile(
            r'^repro_fault_injected_total\{kind="((?:[^"\\]|\\.)*)"\} ')
        recovered = set()
        for line in text.splitlines():
            match = pattern.match(line)
            if match:
                recovered.add(_unescape(match.group(1)))
        assert recovered == set(TRICKY)
