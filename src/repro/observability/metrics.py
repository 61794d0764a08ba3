"""Labeled metric primitives: Counter, Gauge, Histogram, and the registry.

This is the live-telemetry counterpart of the paper's post-hoc breakdowns
(Figs. 12-16): every layer of the simulated stack registers instruments
here, observations are *simulated* durations from :class:`~repro.hardware.
clock.SimClock`, and a snapshot can be exported at any point in
Prometheus text or JSON form (:mod:`repro.observability.export`).

The data model mirrors Prometheus':

- a **family** is one named metric of one type with a fixed label schema
  (e.g. ``repro_rank_xfer_bytes_total{rank, direction}``);
- a **child** is one label-value combination of a family, holding the
  actual number(s);
- the **registry** owns the families, enforces name/label validity, and
  caps per-family label cardinality so an instrumentation bug cannot eat
  the host's memory.

Instruments are get-or-create: registering the same (name, type, labels)
twice returns the existing family, so independently constructed
components can share one machine-wide registry without coordination.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError


@dataclass(frozen=True, slots=True)
class Exemplar:
    """One trace reference attached to a histogram bucket.

    The OpenMetrics exemplar model: which trace produced an observation
    that landed in this bucket, the observed value, and the simulated
    timestamp.  Exporters render it as ``# {trace_id="..."} value ts``
    after the bucket sample, and the dashboard uses it to jump from a
    latency bucket straight to the trace that explains it.
    """

    trace_id: str
    value: float
    ts: float

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Histogram buckets (seconds), every family's.  Simulated latencies in this
#: reproduction span sub-microsecond page-management steps to multi-second
#: application phases, so the ladder is log-spaced across 1 us .. 10 s.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Per-family cap on distinct label-value combinations.
MAX_SERIES_PER_FAMILY = 4096


def _validate_metric_name(name: str) -> None:
    if not _METRIC_NAME_RE.match(name or ""):
        raise ObservabilityError(f"invalid metric name {name!r}")


def _validate_label_names(names: Sequence[str]) -> None:
    for label in names:
        if not _LABEL_NAME_RE.match(label or "") or label.startswith("__"):
            raise ObservabilityError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise ObservabilityError(f"duplicate label names in {list(names)}")


class _Child:
    """One label-value combination of a family."""

    __slots__ = ("label_values",)

    def __init__(self, label_values: Tuple[str, ...]) -> None:
        self.label_values = label_values


class CounterChild(_Child):
    """A monotonically increasing count."""

    __slots__ = ("_value", "_sources")

    def __init__(self, label_values: Tuple[str, ...]) -> None:
        super().__init__(label_values)
        self._value = 0.0
        self._sources: Optional[List[Tuple[Dict, object]]] = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counters cannot decrease (inc by {amount})")
        self._value += amount

    def follow(self, counts: Dict, key: object) -> None:
        """Count ``counts[key]`` too: a plain integer its owner adds to
        where a hot path would otherwise call :meth:`inc`.  Every read
        of :attr:`value` includes it, so a scrape at any moment is
        exact; several owners may feed one series."""
        if self._sources is None:
            self._sources = []
        self._sources.append((counts, key))

    @property
    def value(self) -> float:
        value = self._value
        if self._sources is not None:
            for counts, key in self._sources:
                value += counts[key]
        return value


class Counts(dict):
    """Counts by key that counter series read instead of keeping their own.

    The owner adds to a plain number (``counts[key] += n``) where it
    would call :meth:`CounterChild.inc`.  ``series`` maps a key to the
    child that reports it (a tuple of children: several series report
    one count) — a family's bound children keyed by label value, or a
    dict of children.  A key's first add creates its series (on first
    touch, as ``inc`` would) and makes it :meth:`~CounterChild.follow`
    the count, so a scrape at any moment reads the exact value.  Read
    with ``get(key, 0)``: indexing an absent key is a first touch.  The
    series hold this dict, not its owner, so a count a series follows
    keeps no closed session's memory alive."""

    def __init__(self, series=None) -> None:
        super().__init__()
        self._series = series

    def __missing__(self, key) -> int:
        self[key] = 0
        if self._series is not None:
            children = self._series[key]
            for child in (children if isinstance(children, tuple)
                          else (children,)):
                child.follow(self, key)
        return 0


class GaugeChild(_Child):
    """A value that can go up and down (queue depth, pool occupancy)."""

    __slots__ = ("_value",)

    def __init__(self, label_values: Tuple[str, ...]) -> None:
        super().__init__(label_values)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class HistogramChild(_Child):
    """A distribution of observations over fixed buckets.

    Bucket counts are stored per-bucket and cumulated at export time, the
    way Prometheus expects ``le`` series.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "exemplars")

    def __init__(self, label_values: Tuple[str, ...]) -> None:
        super().__init__(label_values)
        self.buckets = DEFAULT_BUCKETS
        self.bucket_counts = [0] * (len(DEFAULT_BUCKETS) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0
        #: bucket index -> most recent :class:`Exemplar` that landed there
        #: (the +Inf bucket is index ``len(buckets)``).  Lazily allocated:
        #: un-exemplared histograms pay one ``None`` check per observe.
        self.exemplars: Optional[Dict[int, Exemplar]] = None

    def observe(self, value: float,
                exemplar: Optional[Tuple[str, float]] = None) -> None:
        """Record ``value``; ``exemplar`` is an optional ``(trace_id,
        sim_ts)`` pair linking the bucket to the trace that produced it."""
        if value != value:
            raise ObservabilityError("cannot observe NaN")
        self.count += 1
        self.sum += value
        # First bound >= value: the bounds are strictly increasing, so
        # this is the bucket a linear ``value <= bound`` scan stops at.
        index = bisect_left(self.buckets, value)
        self.bucket_counts[index] += 1
        if exemplar is not None:
            if self.exemplars is None:
                self.exemplars = {}
            trace_id, ts = exemplar
            self.exemplars[index] = Exemplar(trace_id=trace_id,
                                             value=value, ts=ts)

    def exemplar_for(self, bucket_index: int) -> Optional[Exemplar]:
        """The latest exemplar of one bucket (``len(buckets)`` = +Inf)."""
        if self.exemplars is None:
            return None
        return self.exemplars.get(bucket_index)

    def worst_exemplar(self) -> Optional[Exemplar]:
        """The exemplar from the highest populated bucket — the trace
        behind this histogram's worst recent latency."""
        if not self.exemplars:
            return None
        return self.exemplars[max(self.exemplars)]

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out: List[Tuple[float, int]] = []
        acc = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            acc += n
            out.append((bound, acc))
        out.append((math.inf, acc + self.bucket_counts[-1]))
        return out


_CHILD_TYPES = {
    "counter": CounterChild,
    "gauge": GaugeChild,
    "histogram": HistogramChild,
}


class MetricFamily:
    """One named metric: a type, a help string, a label schema, children."""

    def __init__(self, name: str, kind: str, help: str,
                 label_names: Sequence[str] = ()) -> None:
        _validate_metric_name(name)
        _validate_label_names(label_names)
        if kind not in _CHILD_TYPES:
            raise ObservabilityError(f"unknown metric type {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self._children: Dict[Tuple[str, ...], _Child] = {}

    # -- child access ------------------------------------------------------

    def labels(self, **label_values: object) -> _Child:
        """The child for one label-value combination (created on demand)."""
        if set(label_values) != set(self.label_names):
            raise ObservabilityError(
                f"{self.name}: got labels {sorted(label_values)}, "
                f"schema is {sorted(self.label_names)}"
            )
        key = tuple(str(label_values[n]) for n in self.label_names)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= MAX_SERIES_PER_FAMILY:
                raise ObservabilityError(
                    f"{self.name}: label cardinality exceeds "
                    f"{MAX_SERIES_PER_FAMILY} series (runaway label values?)"
                )
            child = _CHILD_TYPES[self.kind](key)
            self._children[key] = child
        return child

    def _unlabeled(self) -> _Child:
        if self.label_names:
            raise ObservabilityError(
                f"{self.name} requires labels {list(self.label_names)}")
        return self.labels()

    # Convenience for label-less families.
    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)  # type: ignore[attr-defined]

    def follow(self, counts: Dict, key: object) -> None:
        self._unlabeled().follow(counts, key)  # type: ignore[attr-defined]

    def set(self, value: float) -> None:
        self._unlabeled().set(value)  # type: ignore[attr-defined]

    def observe(self, value: float,
                exemplar: Optional[Tuple[str, float]] = None) -> None:
        self._unlabeled().observe(value,  # type: ignore[attr-defined]
                                  exemplar=exemplar)

    # -- introspection ------------------------------------------------------

    @property
    def children(self) -> List[_Child]:
        return list(self._children.values())

    def samples(self) -> List[Tuple[Dict[str, str], _Child]]:
        """``(labels_dict, child)`` pairs in insertion order."""
        return [
            (dict(zip(self.label_names, key)), child)
            for key, child in self._children.items()
        ]

    def value(self, **label_values: object) -> float:
        """Current value for one label set; 0 if never touched.

        For histograms this returns the observation *count* (the natural
        "how many" question tests ask).
        """
        key = tuple(str(label_values.get(n, "")) for n in self.label_names)
        if set(label_values) != set(self.label_names):
            raise ObservabilityError(
                f"{self.name}: got labels {sorted(label_values)}, "
                f"schema is {sorted(self.label_names)}"
            )
        child = self._children.get(key)
        if child is None:
            return 0.0
        if isinstance(child, HistogramChild):
            return float(child.count)
        return child.value  # type: ignore[attr-defined]

    def total(self) -> float:
        """Sum over all children (histograms contribute their count)."""
        out = 0.0
        for child in self._children.values():
            if isinstance(child, HistogramChild):
                out += child.count
            else:
                out += child.value  # type: ignore[attr-defined]
        return out


class MetricsRegistry:
    """The machine-wide instrument store.

    One registry exists per simulated host (``machine.metrics``); every
    layer — ranks, manager, vUPMEM frontends/backends, sessions, the
    span recorder — registers its families here, and the exporters render
    a consistent snapshot of all of them.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # -- registration -------------------------------------------------------

    def _register(self, name: str, kind: str, help: str,
                  labels: Sequence[str] = ()) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if (existing.kind != kind
                    or existing.label_names != tuple(labels)):
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}{list(existing.label_names)}, "
                    f"cannot re-register as {kind}{list(labels)}"
                )
            return existing
        family = MetricFamily(name, kind, help, labels)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, "histogram", help, labels)

    # -- lookup ------------------------------------------------------------

    def get(self, name: str) -> MetricFamily:
        try:
            return self._families[name]
        except KeyError:
            raise ObservabilityError(
                f"metric {name!r} is not registered") from None

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def names(self) -> List[str]:
        return sorted(self._families)

    def collect(self) -> Iterable[MetricFamily]:
        """Families in name order (the exporters' iteration contract)."""
        for name in sorted(self._families):
            yield self._families[name]

    def value(self, name: str, **label_values: object) -> float:
        """Shortcut: current value of one series, 0 if absent."""
        if name not in self._families:
            return 0.0
        return self._families[name].value(**label_values)

    def reset(self) -> None:
        """Drop all recorded values but keep the registered schemas."""
        for family in self._families.values():
            family._children.clear()
