"""Victim selection for the rank pager (``docs/paging.md``).

The policy only *ranks* candidates; residency, pinning and QoS weights
live in the :class:`~repro.paging.pager.RankPager`, which passes the
eligible candidates in.  It is QoS-weight-aware: a tenant with twice
the weight looks half as evictable, so the pager's victim choice
composes with the weighted-fair scheduling of ``repro.qos`` instead of
fighting it.

Ties break toward the lowest virtual-rank index, keeping victim
selection fully deterministic (run-to-run reproducibility is a
simulation invariant).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

#: Weights below this are clamped so a zero-weight flow cannot produce
#: an infinite eviction score (it just becomes maximally evictable).
MIN_WEIGHT = 1e-6


class LruPolicy:
    """Evict the rank idle the longest, scaled by QoS weight.

    Score is ``idle_time / weight``: a weight-2 tenant must sit idle
    twice as long as a weight-1 tenant before it becomes the victim.
    """

    def __init__(self) -> None:
        self._last_used: Dict[int, float] = {}

    def touch(self, vrank: int, now: float) -> None:
        """Record one access to ``vrank`` at simulated time ``now``."""
        self._last_used[vrank] = now

    def forget(self, vrank: int) -> None:
        """Drop all state for a released rank."""
        self._last_used.pop(vrank, None)

    def victim(self, candidates: Iterable[int], now: float,
               weight_of: Callable[[int], float]) -> Optional[int]:
        """The candidate to evict, or ``None`` if there are none."""
        best: Optional[int] = None
        best_score = float("-inf")
        for vrank in sorted(candidates):
            idle = now - self._last_used.get(vrank, float("-inf"))
            score = idle / max(weight_of(vrank), MIN_WEIGHT)
            if score > best_score:
                best, best_score = vrank, score
        return best
