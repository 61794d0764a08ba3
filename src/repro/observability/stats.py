"""Shared statistics primitives for telemetry consumers.

Percentile math comes in two conventions — a linear-interpolation
variant (numpy's default, feeding the SLO layer's burn rates) and a
nearest-rank variant (feeding the QoS and overcommit scorecards).  Both
conventions are legitimate and *different* on small samples, so they are
kept as two named functions here instead of being silently unified; the
unit tests pin each convention's exact outputs.

:class:`DecayedMean` is the exponentially-decayed baseline the QoS
arbiter's activity tracking and the tail sampler's per-layer duration
baselines both need: a deterministic, allocation-free EMA with bias
correction so early samples are not dragged toward zero.
"""

from __future__ import annotations

from typing import Sequence


def percentile_linear(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 1] (numpy default).

    This is the SLO-layer convention: between-rank positions interpolate
    between neighbouring order statistics, so p99 of a small window moves
    smoothly as samples arrive.  Returns 0.0 for empty input.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def percentile_nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100] (scorecard convention).

    Picks the order statistic whose rank is closest to ``q`` percent of
    the way through the sorted sample — an actually-observed value, which
    is what the analysis scorecards report.  Returns 0.0 for empty input.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = int(round(q / 100.0 * (len(ordered) - 1)))
    return ordered[rank]


def histogram_quantile(q: float,
                       bounds: Sequence[float],
                       bucket_deltas: Sequence[float]) -> float:
    """Prometheus-style quantile estimate from bucket increments.

    ``bounds`` are the finite upper bounds of the ladder (the +Inf bucket
    is ``bucket_deltas[-1]``); ``bucket_deltas`` are per-bucket (not
    cumulative) observation counts over the window, one longer than
    ``bounds``.  Interpolates linearly within the bucket the target rank
    falls into, the way ``histogram_quantile()`` does; observations in
    the +Inf bucket clamp to the highest finite bound.  Returns 0.0 when
    the window holds no observations.
    """
    total = sum(bucket_deltas)
    if total <= 0:
        return 0.0
    target = q * total
    acc = 0.0
    for i, count in enumerate(bucket_deltas[:-1]):
        prev = acc
        acc += count
        if acc >= target and count > 0:
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i]
            return lo + (hi - lo) * (target - prev) / count
    return bounds[-1] if bounds else 0.0


class DecayedMean:
    """A bias-corrected exponential moving average.

    ``alpha`` is the per-update decay: each new sample carries weight
    ``alpha`` and history carries ``1 - alpha``.  The raw EMA of a short
    stream underestimates (history weight points at the zero init), so
    the mean is normalized by the accumulated weight — after one update
    the mean *is* the sample, exactly.
    """

    __slots__ = ("alpha", "n", "_ema", "_weight")

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.n = 0
        self._ema = 0.0
        self._weight = 0.0

    def update(self, value: float) -> None:
        self.n += 1
        self._ema = (1.0 - self.alpha) * self._ema + self.alpha * value
        self._weight = (1.0 - self.alpha) * self._weight + self.alpha

    @property
    def mean(self) -> float:
        """The decayed mean; 0.0 before any update."""
        if self._weight <= 0.0:
            return 0.0
        return self._ema / self._weight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecayedMean(mean={self.mean:.6g}, n={self.n})"

