"""Live metrics for the simulated vPIM stack.

The paper explains *where* virtualization time goes (Figs. 12-16); this
package makes those breakdowns observable while a run is in flight
instead of only in post-hoc traces.  See ``docs/observability.md`` for
the full metric catalog and ``docs/architecture.md`` for where each
instrumented layer sits in the stack.

- :mod:`~repro.observability.metrics` — ``Counter`` / ``Gauge`` /
  ``Histogram`` families in a :class:`MetricsRegistry`;
- :mod:`~repro.observability.catalog` — the declared metric set shared by
  code, docs, and tests;
- :mod:`~repro.observability.instruments` — one declarative table per
  component and the :func:`~repro.observability.instruments.bind` that
  turns it into the namespace of children the component touches;
- :mod:`~repro.observability.export` — Prometheus-text and JSON
  exporters (``repro metrics`` prints these);
- :mod:`~repro.observability.spans` — request-scoped distributed
  tracing (``Span``/``SpanRecorder``/``Trace``) over simulated
  time, with Perfetto export and head-based sampling;
- :mod:`~repro.observability.critical_path` — per-layer self-time and
  critical-path attribution over finished traces;
- :mod:`~repro.observability.logs` — trace-correlated structured JSONL
  logging;
- :mod:`~repro.observability.stats` — the shared percentile /
  decayed-mean math every consumer of "p99" goes through;
- :mod:`~repro.observability.timeseries` — the simulated-time
  time-series store behind ``repro monitor``;
- :mod:`~repro.observability.alerts` — declarative alert rules
  evaluated against the store;
- :mod:`~repro.observability.snapshots` — JSON-snapshot parsing and
  diffing (``repro metrics --diff``);
- :mod:`~repro.observability.dashboard` — the self-contained HTML
  dashboard renderer (see ``docs/monitoring.md``).
"""

from repro.observability.catalog import CATALOG, instrument, register_all
from repro.observability.export import (
    render_json,
    render_prometheus,
    save_snapshot,
    snapshot_dict,
)
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    MetricFamily,
    MetricsRegistry,
)

# Import order matters: spans pulls in instruments/logs, which need the
# names above bound before any partially-initialized re-entry through
# repro.hardware (machine imports this package).
from repro.observability.critical_path import (  # noqa: E402
    critical_path,
    layer_self_times,
    slowest_spans,
)
from repro.observability.logs import TraceLogger  # noqa: E402
from repro.observability.spans import (  # noqa: E402
    LAYERS,
    Span,
    SpanRecorder,
    Trace,
)
from repro.observability.alerts import (  # noqa: E402
    AlertRule,
    AlertRuleEngine,
)
from repro.observability.dashboard import render_dashboard  # noqa: E402
from repro.observability.snapshots import (  # noqa: E402
    diff_snapshots,
    format_deltas,
    load_snapshot,
    parse_snapshot,
)
from repro.observability.timeseries import TimeSeriesStore  # noqa: E402

__all__ = [
    "AlertRule",
    "AlertRuleEngine",
    "CATALOG",
    "DEFAULT_BUCKETS",
    "LAYERS",
    "MetricFamily",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "TimeSeriesStore",
    "Trace",
    "TraceLogger",
    "critical_path",
    "diff_snapshots",
    "format_deltas",
    "instrument",
    "layer_self_times",
    "load_snapshot",
    "parse_snapshot",
    "register_all",
    "render_dashboard",
    "render_json",
    "render_prometheus",
    "save_snapshot",
    "slowest_spans",
    "snapshot_dict",
]
