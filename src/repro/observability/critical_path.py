"""Critical-path attribution over finished traces.

Reproduces the paper's Fig. 12/13-style breakdowns from spans alone:
:func:`layer_self_times` attributes every instant of the root span's
window to exactly one stack layer (the deepest span covering it), so the
per-layer self-times *partition* the session total — they sum back to it
to float precision, which the tests cross-check against the
:class:`~repro.sdk.profile.Profiler`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.observability.spans import Span, Trace


def _attribution_intervals(trace: Trace) -> List[Tuple[float, float, Span]]:
    """Split ``[root.start, root.end]`` into intervals each owned by the
    deepest span covering it.

    A sweep over sorted span boundaries keeps an active set; at every
    elementary interval the owner is the active span of maximal
    ``(depth, buffer order)`` — later-buffered spans of equal depth win,
    so overlapping parallel siblings attribute to the one drawn on top.
    Exact partitioning (no gaps, no double counting) is what makes the
    1e-9 sum criterion hold even with overlapping or overflowing spans.
    """
    root = trace.root
    if root is None or root.end is None:
        return []
    indexed = [(i, s) for i, s in enumerate(trace.spans) if s.end is not None]
    points = sorted({root.start, root.end}
                    | {s.start for _, s in indexed}
                    | {s.end for _, s in indexed})
    points = [p for p in points if root.start <= p <= root.end]
    starts_at: Dict[float, List[Tuple[int, Span]]] = {}
    ends_at: Dict[float, List[Tuple[int, Span]]] = {}
    for entry in indexed:
        starts_at.setdefault(entry[1].start, []).append(entry)
        ends_at.setdefault(entry[1].end, []).append(entry)
    active: Dict[int, Span] = {}
    intervals: List[Tuple[float, float, Span]] = []
    for i, point in enumerate(points):
        for order, span in ends_at.get(point, ()):
            active.pop(order, None)
        for order, span in starts_at.get(point, ()):
            active[order] = span
        if i + 1 >= len(points):
            break
        nxt = points[i + 1]
        if nxt <= point or not active:
            continue
        owner_order = max(active, key=lambda o: (active[o].depth, o))
        intervals.append((point, nxt, active[owner_order]))
    return intervals


def layer_self_times(trace: Trace) -> Dict[str, float]:
    """Per-layer self-time of one trace: simulated seconds each layer
    spent with no deeper layer active.  Values sum to the root span's
    duration exactly (up to float addition error)."""
    totals: Dict[str, float] = {}
    for start, end, owner in _attribution_intervals(trace):
        totals[owner.layer] = totals.get(owner.layer, 0.0) + (end - start)
    return totals


def critical_path(trace: Trace) -> List[Span]:
    """Root-to-leaf chain following the longest-duration child at each
    level — the request spine a latency fix must shorten."""
    root = trace.root
    if root is None:
        return []
    path = [root]
    current: Optional[Span] = root
    while current is not None:
        children = [s for s in trace.spans if s.parent_id == current.span_id
                    and s.duration is not None]
        if not children:
            break
        current = max(children, key=lambda s: (s.duration, -s.span_id))
        path.append(current)
    return path


def slowest_spans(trace: Trace, name: Optional[str] = None,
                  layer: Optional[str] = None, top: int = 5) -> List[Span]:
    """The ``top`` longest spans, optionally filtered by name/layer."""
    spans = [s for s in trace.spans if s.duration is not None
             and (name is None or s.name == name)
             and (layer is None or s.layer == layer)]
    spans.sort(key=lambda s: (-s.duration, s.span_id))
    return spans[:top]
