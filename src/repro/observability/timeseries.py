"""A simulated-time time-series store over the metrics registry.

The registry answers "what is the cumulative count *now*?"; the paper's
evaluation needs trajectories (Fig. 8/13/16 are all time-resolved), and
the alert engine needs windows.  This store bridges the two: it scrapes
one or more registries on a fixed simulated-time cadence and keeps a
bounded ring buffer of points per series, exactly the way a Prometheus
server would — except the clock is the simulation's, so two runs at the
same seed produce byte-identical trajectories.

Design constraints, in order:

- **No clock writes.**  The store *listens* to the shared
  :class:`~repro.hardware.clock.SimClock` (``attach``) and scrapes when
  time crosses a grid boundary; it never advances time itself.
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
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.observability.instruments import TSDB, bind
from repro.observability.metrics import (
    HistogramChild,
    MetricsRegistry,
)
from repro.observability.stats import histogram_quantile, percentile_linear

#: Series key: metric name + sorted label items.
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


class Series:
    """One stream of points for a (name, label-set) pair.

    Counter/gauge points are ``(ts, value)``; histogram points are
    ``(ts, count, sum, bucket_counts)`` with per-bucket *cumulative over
    time* counts (each point is the histogram's full state at that
    instant), so windowed queries difference two points.
    """

    __slots__ = ("name", "labels", "kind", "bounds", "points", "dropped")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...],
                 kind: str, max_points: int,
                 bounds: Optional[Tuple[float, ...]] = None) -> None:
        self.name = name
        self.labels = labels
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
    """Scrapes registries on a simulated cadence and answers windowed queries.

    Usage::

        store = TimeSeriesStore(machine.metrics, interval=0.001)
        store.attach(machine.clock)     # scrape as simulated time moves
        ... run any scenario ...
        store.rate("repro_frontend_requests_total", window=0.01)
        store.window_percentile("repro_frontend_request_seconds", 0.99)
    """

    def __init__(self, registry: MetricsRegistry,
                 interval: float = 0.001,
                 max_points: int = 4096,
                 extra_registries: Sequence[MetricsRegistry] = ()) -> None:
        if interval <= 0:
            raise ValueError(f"scrape interval must be positive, got {interval}")
        self.interval = interval
        self.max_points = max_points
        self.registry = registry
        self.registries: List[MetricsRegistry] = [registry]
        self.registries.extend(extra_registries)
        self.obs = bind(registry, TSDB)
        self.series: Dict[SeriesKey, Series] = {}
        self.scrapes = 0
        self.samples_total = 0
        self.dropped_total = 0
        #: Grid timestamp of the most recent scrape (None before any).
        self.last_ts: Optional[float] = None
        self._last_grid = -1
        self._clocks: List = []

    # -- scraping ------------------------------------------------------------

    def attach(self, clock) -> None:
        """Scrape whenever ``clock`` moves past a grid boundary."""
        clock.add_listener(self._on_tick)
        self._clocks.append(clock)

    def detach(self) -> None:
        """Stop listening to every attached clock."""
        for clock in self._clocks:
            clock.remove_listener(self._on_tick)
        self._clocks.clear()

    def add_registry(self, registry: MetricsRegistry) -> None:
        """Scrape ``registry`` too (cluster scenarios: per-host + fleet)."""
        if registry not in self.registries:
            self.registries.append(registry)

    def _on_tick(self, now: float) -> None:
        self.maybe_scrape(now)

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
        for registry in self.registries:
            for family in registry.collect():
                for labels, child in family.samples():
                    key = (family.name, tuple(sorted(labels.items())))
                    series = self.series.get(key)
                    if isinstance(child, HistogramChild):
                        if series is None:
                            series = Series(family.name, key[1], family.kind,
                                            self.max_points,
                                            bounds=tuple(child.buckets))
                            self.series[key] = series
                        point = (ts, child.count, child.sum,
                                 tuple(child.bucket_counts))
                    else:
                        if series is None:
                            series = Series(family.name, key[1], family.kind,
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

    def names(self) -> List[str]:
        """Distinct metric names seen so far, sorted."""
        return sorted({s.name for s in self.series.values()})

    def select(self, name: str,
               labels: Optional[Dict[str, str]] = None) -> List[Series]:
        """Series for ``name`` whose labels are a superset of ``labels``."""
        want = labels or {}
        out = []
        for series in self.series.values():
            if series.name != name:
                continue
            have = dict(series.labels)
            if all(have.get(k) == v for k, v in want.items()):
                out.append(series)
        return out

    def latest(self, name: str,
               labels: Optional[Dict[str, str]] = None) -> Optional[float]:
        """Most recent value (summed across matching series); None if no
        matching series holds a point.  Histograms report their count."""
        matched = [s for s in self.select(name, labels) if s.points]
        if not matched:
            return None
        total = 0.0
        for series in matched:
            total += series.points[-1][1]
        return total

    # -- windowed queries ----------------------------------------------------

    def delta(self, name: str, labels: Optional[Dict[str, str]] = None,
              window: Optional[float] = None) -> float:
        """Increase over ``window`` (newest minus oldest in-window point),
        summed across matching series.  The right verb for counters."""
        total = 0.0
        for series in self.select(name, labels):
            points = series.window(window)
            if len(points) >= 2:
                total += points[-1][1] - points[0][1]
        return total

    def rate(self, name: str, labels: Optional[Dict[str, str]] = None,
             window: Optional[float] = None) -> float:
        """Per-second increase over ``window``, summed across series."""
        total = 0.0
        for series in self.select(name, labels):
            points = series.window(window)
            if len(points) >= 2:
                elapsed = points[-1][0] - points[0][0]
                if elapsed > 0:
                    total += (points[-1][1] - points[0][1]) / elapsed
        return total

    def gauge_percentile(self, name: str, q: float,
                         labels: Optional[Dict[str, str]] = None,
                         window: Optional[float] = None) -> float:
        """Linear-interp percentile of a gauge's in-window values."""
        values: List[float] = []
        for series in self.select(name, labels):
            values.extend(p[1] for p in series.window(window))
        return percentile_linear(values, q)

    def window_percentile(self, name: str, q: float,
                          labels: Optional[Dict[str, str]] = None,
                          window: Optional[float] = None) -> float:
        """Latency quantile of a histogram over ``window``.

        Differences the first and last in-window points of each matching
        series, sums the per-bucket increments across series, and runs
        the shared :func:`histogram_quantile` estimate — the store-side
        twin of PromQL's ``histogram_quantile(q, rate(..._bucket))``.
        """
        bounds: Optional[Tuple[float, ...]] = None
        deltas: Optional[List[float]] = None
        for series in self.select(name, labels):
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

    def trajectory(self, name: str,
                   labels: Optional[Dict[str, str]] = None
                   ) -> List[Tuple[float, float]]:
        """The (ts, value) polyline of a series for plotting, summed
        across matching series at identical timestamps."""
        merged: Dict[float, float] = {}
        for series in self.select(name, labels):
            for point in series.points:
                merged[point[0]] = merged.get(point[0], 0.0) + point[1]
        return sorted(merged.items())

    def snapshot(self) -> dict:
        """The store as plain data (the dashboard/JSON artifact payload)."""
        series = []
        for key in sorted(self.series, key=lambda k: (k[0], k[1])):
            s = self.series[key]
            entry: dict = {
                "name": s.name,
                "labels": dict(s.labels),
                "kind": s.kind,
                "dropped": s.dropped,
            }
            if s.kind == "histogram":
                entry["bounds"] = list(s.bounds or ())
                entry["points"] = [
                    {"ts": p[0], "count": p[1], "sum": p[2],
                     "buckets": list(p[3])}
                    for p in s.points
                ]
            else:
                entry["points"] = [[p[0], p[1]] for p in s.points]
            series.append(entry)
        return {
            "interval": self.interval,
            "scrapes": self.scrapes,
            "samples": self.samples_total,
            "dropped": self.dropped_total,
            "series": series,
        }
