"""A simulated-time time-series store over the metrics registry.

The registry answers "what is the cumulative count *now*?"; the paper's
evaluation needs trajectories (Fig. 8/13/16 are all time-resolved), and
the alert engine needs windows.  This store bridges the two: it scrapes
the registry on a fixed simulated-time cadence and keeps a
bounded ring buffer of points per series, exactly the way a Prometheus
server would — except the clock is the simulation's, so two runs at the
same seed produce byte-identical trajectories.

Design constraints, in order:

- **No clock writes.**  The store is told the time
  (:meth:`TimeSeriesStore.maybe_scrape`) and scrapes when it crosses a
  grid boundary; it never advances time itself.  The clock's one
  listener is :class:`~repro.analysis.monitor.TelemetryPipeline`, which
  scrapes and then evaluates the alert rules.
- **Deterministic stamps.**  Samples are stamped at the grid time
  ``floor(now / interval) * interval``, not at ``now``: the wall of
  drivers advancing the clock by irregular modeled durations would
  otherwise leak scheduling order into timestamps.  One scrape per
  boundary crossing, however large the jump — a 10-interval leap yields
  one sample at the latest grid point, bounding scrape work.
- **Bounded memory, exact accounting.**  Each series keeps at most
  ``max_points`` points; every overwritten point increments a drop
  counter (per series, and the ``repro_tsdb_dropped_points_total``
  family by metric name).  The CI smoke job fails on any nonzero drop,
  so quick-suite retention is provably lossless.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.observability.catalog import TSDB, bind
from repro.observability.metrics import HistogramChild, MetricsRegistry
from repro.observability.stats import histogram_quantile

#: Series key: metric name + sorted label items.
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


class Series:
    """One stream of points for a (name, label-set) pair.

    Counter/gauge points are ``(ts, value)``; histogram points are
    ``(ts, count, sum, bucket_counts)`` with per-bucket *cumulative over
    time* counts (each point is the histogram's full state at that
    instant), so windowed queries difference two points.
    """

    __slots__ = ("name", "kind", "bounds", "points", "dropped")

    def __init__(self, name: str, kind: str, max_points: int,
                 bounds: Optional[Tuple[float, ...]] = None) -> None:
        self.name = name
        self.kind = kind
        self.bounds = bounds
        self.points: Deque[tuple] = deque(maxlen=max_points)
        self.dropped = 0

    def append(self, point: tuple) -> bool:
        """Append, returning True if an old point was overwritten."""
        overwrote = (self.points.maxlen is not None
                     and len(self.points) == self.points.maxlen)
        if overwrote:
            self.dropped += 1
        self.points.append(point)
        return overwrote

    def window(self, window: Optional[float]) -> List[tuple]:
        """Points within ``window`` seconds of the newest (all if None)."""
        if not self.points:
            return []
        if window is None:
            return list(self.points)
        cutoff = self.points[-1][0] - window
        return [p for p in self.points if p[0] >= cutoff]

    def __len__(self) -> int:
        return len(self.points)


class TimeSeriesStore:
    """Scrapes a registry on a simulated cadence and answers windowed queries.

    Usage (``TelemetryPipeline`` does the scraping as the clock moves)::

        store = TelemetryPipeline(machine.metrics, machine.clock).store
        ... run any scenario ...
        store.delta("repro_frontend_requests_total", window=0.01)
        store.window_percentile("repro_frontend_request_seconds", 0.99)
    """

    def __init__(self, registry: MetricsRegistry,
                 interval: float = 0.001,
                 max_points: int = 4096) -> None:
        if interval <= 0:
            raise ValueError(f"scrape interval must be positive, got {interval}")
        self.interval = interval
        self.max_points = max_points
        self.registry = registry
        self.obs = bind(registry, TSDB)
        self.series: Dict[SeriesKey, Series] = {}
        self.scrapes = 0
        self.samples_total = 0
        self.dropped_total = 0
        #: Grid timestamp of the most recent scrape (None before any).
        self.last_ts: Optional[float] = None
        self._last_grid = -1

    # -- scraping ------------------------------------------------------------

    def maybe_scrape(self, now: float) -> bool:
        """Scrape iff ``now`` crossed a grid boundary since the last scrape."""
        grid = math.floor(now / self.interval)
        if grid <= self._last_grid:
            return False
        self._last_grid = grid
        self.scrape(grid * self.interval)
        return True

    def scrape(self, ts: float) -> int:
        """Record one point per live series, stamped ``ts``.  Returns the
        number of points appended."""
        appended = 0
        drops: Dict[str, int] = {}
        for family in self.registry.collect():
            for labels, child in family.samples():
                key = (family.name, tuple(sorted(labels.items())))
                series = self.series.get(key)
                if isinstance(child, HistogramChild):
                    if series is None:
                        series = Series(family.name, family.kind,
                                        self.max_points,
                                        bounds=tuple(child.buckets))
                        self.series[key] = series
                    point = (ts, child.count, child.sum,
                             tuple(child.bucket_counts))
                else:
                    if series is None:
                        series = Series(family.name, family.kind,
                                        self.max_points)
                        self.series[key] = series
                    point = (ts, child.value)
                if series.append(point):
                    drops[family.name] = drops.get(family.name, 0) + 1
                appended += 1
        self.scrapes += 1
        self.samples_total += appended
        self.last_ts = ts
        # Self-accounting happens after the sweep so a scrape never
        # mutates the families it is iterating.
        self.obs.scrapes.inc()
        if appended:
            self.obs.samples.inc(appended)
        for name, count in drops.items():
            self.dropped_total += count
            self.obs.dropped[name].inc(count)
        self.obs.series.set(len(self.series))
        return appended

    # -- lookup --------------------------------------------------------------

    def select(self, name: str) -> List[Series]:
        """Every series of the metric ``name``, whatever its labels."""
        return [series for series in self.series.values()
                if series.name == name]

    # -- windowed queries ----------------------------------------------------

    def delta(self, name: str, window: Optional[float] = None) -> float:
        """Increase over ``window`` (newest minus oldest in-window point),
        summed across the metric's series.  The right verb for counters."""
        total = 0.0
        for series in self.select(name):
            points = series.window(window)
            if len(points) >= 2:
                total += points[-1][1] - points[0][1]
        return total

    def window_percentile(self, name: str, q: float,
                          window: Optional[float] = None) -> float:
        """Latency quantile of a histogram over ``window``.

        Differences the first and last in-window points of each of the
        metric's series, sums the per-bucket increments across series, and runs
        the shared :func:`histogram_quantile` estimate — the store-side
        twin of PromQL's ``histogram_quantile(q, rate(..._bucket))``.
        """
        bounds: Optional[Tuple[float, ...]] = None
        deltas: Optional[List[float]] = None
        for series in self.select(name):
            if series.kind != "histogram" or series.bounds is None:
                continue
            points = series.window(window)
            if len(points) < 2:
                # A single point still carries cumulative state: measure
                # from zero so short runs are queryable.
                if len(points) == 1:
                    first: tuple = (points[0][0], 0, 0.0,
                                    tuple(0 for _ in points[0][3]))
                    points = [first, points[0]]
                else:
                    continue
            if bounds is None:
                bounds = series.bounds
                deltas = [0.0] * len(points[-1][3])
            if series.bounds != bounds or deltas is None:
                continue
            for i, (newest, oldest) in enumerate(zip(points[-1][3],
                                                     points[0][3])):
                deltas[i] += newest - oldest
        if bounds is None or deltas is None:
            return 0.0
        return histogram_quantile(q, bounds, deltas)

    def trajectory(self, name: str) -> List[Tuple[float, float]]:
        """The (ts, value) polyline of a metric for plotting, summed
        across its series at identical timestamps."""
        merged: Dict[float, float] = {}
        for series in self.select(name):
            for point in series.points:
                merged[point[0]] = merged.get(point[0], 0.0) + point[1]
        return sorted(merged.items())
