"""Live metrics for the simulated vPIM stack.

The paper explains *where* virtualization time goes (Figs. 12-16); this
package makes those breakdowns observable while a run is in flight
instead of only in post-hoc traces.  See ``docs/observability.md`` for
the full metric catalog and ``docs/architecture.md`` for where each
instrumented layer sits in the stack.

The package re-exports what the paper path uses; the tools are imported
from their modules where they are used:

- :mod:`~repro.observability.metrics` — ``Counter`` / ``Gauge`` /
  ``Histogram`` families in a :class:`MetricsRegistry`;
- :mod:`~repro.observability.catalog` — one table per component, one
  row per metric, and the :func:`~repro.observability.catalog.bind`
  that turns a table into the namespace of children the component
  touches;
- :mod:`~repro.observability.spans` — request-scoped distributed
  tracing (``Span``/``SpanRecorder``/``Trace``) over simulated
  time, with Perfetto export, head-based sampling and a
  trace-correlated structured JSONL log;
- :mod:`~repro.observability.stats` — the shared percentile /
  decayed-mean math every consumer of "p99" goes through;
- :mod:`~repro.observability.export` — Prometheus-text and JSON
  exporters (``repro metrics`` prints these);
- :mod:`~repro.observability.critical_path` — per-layer self-time and
  critical-path attribution over finished traces;
- :mod:`~repro.observability.timeseries` — the simulated-time
  time-series store behind ``repro monitor``;
- :mod:`~repro.observability.alerts` — declarative alert rules
  evaluated against the store;
- :mod:`~repro.observability.snapshots` — JSON-snapshot parsing and
  diffing (``repro metrics --diff``);
- :mod:`~repro.observability.dashboard` — the self-contained HTML
  dashboard renderer (see ``docs/monitoring.md``).
"""

from repro.observability.catalog import CATALOG
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    MetricFamily,
    MetricsRegistry,
)
from repro.observability.spans import LAYERS, Span, SpanRecorder, Trace

__all__ = [
    "CATALOG",
    "DEFAULT_BUCKETS",
    "LAYERS",
    "MetricFamily",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "Trace",
]
