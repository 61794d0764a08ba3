"""The host-memory backing store for swapped-out rank state.

A :class:`SwapStore` holds :class:`~repro.virt.migration.RankCheckpoint`
contents keyed by virtual rank, with the MRAM segment payloads
*content-addressed*: two tenants whose checkpoints contain identical
64 KB segments (common — identical input datasets, zero-heavy buffers)
share one stored copy.  The digest function is the exact one the
transfer cache uses (:mod:`repro.virt.digest`), so the two
content-addressed indexes in this codebase cannot drift.

Collision keying: a digest is only ever trusted *within* the store's own
payload table, where it was computed from the payload it names — a
2^-64 cross-payload collision would silently share a wrong segment,
which is the same accepted trade the transfer cache documents.

Checkpoints are stored structurally (per-DPU segment-digest maps plus
the small program/symbol state), and :meth:`get` rebuilds a
``RankCheckpoint`` without copying payload bytes — ``load_segments``
copies into MRAM extents on restore, so read-only views are safe to
hand out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.hardware.dpu import DpuState
from repro.observability.metrics import Counts
from repro.virt.digest import content_digest
from repro.virt.migration import DpuSnapshot, RankCheckpoint


@dataclass
class _StoredDpu:
    """One DPU's checkpoint with segments replaced by payload digests."""

    segments: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: ``segment index -> (digest, size)``; payloads live in the store.
    symbols: Dict[str, bytes] = field(default_factory=dict)
    program: object = None
    state: DpuState = DpuState.IDLE


@dataclass
class _StoredCheckpoint:
    source_rank: int = 0
    dpus: List[_StoredDpu] = field(default_factory=list)


class SwapStore:
    """Content-addressed, refcounted store of swapped-out rank state.

    ``counts["dedup_hits"]`` counts segment stores that matched an
    already-held payload; ``series`` maps that key to the child that
    reads it."""

    def __init__(self, series=None) -> None:
        self._payloads: Dict[int, bytes] = {}
        self._refs: Dict[int, int] = {}
        self._vranks: Dict[int, _StoredCheckpoint] = {}
        self.counts = Counts(series)

    # -- write side ---------------------------------------------------------

    def put(self, vrank: int, checkpoint: RankCheckpoint,
            ) -> Tuple[int, int, int]:
        """Store ``checkpoint``; returns ``(raw, deduped, hits)``.

        ``raw`` is the checkpoint's logical segment byte count, ``deduped``
        how many of those bytes matched a payload already held (and were
        therefore not stored again), ``hits`` the number of segments that
        deduplicated.  A prior checkpoint for the same vrank is replaced.
        """
        if vrank in self._vranks:
            self.drop(vrank)
        stored = _StoredCheckpoint(source_rank=checkpoint.source_rank)
        raw = 0
        deduped = 0
        hits = 0
        for snap in checkpoint.dpus:
            sdpu = _StoredDpu(symbols=dict(snap.symbols),
                              program=snap.program, state=snap.state)
            for seg_idx, payload in snap.mram_segments.items():
                digest = content_digest(payload)
                size = int(np.asarray(payload).nbytes)
                raw += size
                if digest in self._payloads:
                    self._refs[digest] += 1
                    deduped += size
                    hits += 1
                    self.counts["dedup_hits"] += 1
                else:
                    self._payloads[digest] = (
                        np.ascontiguousarray(payload)
                        .view(np.uint8).reshape(-1).tobytes())
                    self._refs[digest] = 1
                sdpu.segments[seg_idx] = (digest, size)
            stored.dpus.append(sdpu)
        self._vranks[vrank] = stored
        return raw, deduped, hits

    # -- read side ----------------------------------------------------------

    def __contains__(self, vrank: int) -> bool:
        return vrank in self._vranks

    def get(self, vrank: int) -> RankCheckpoint:
        """Rebuild the stored checkpoint (payloads as read-only views)."""
        stored = self._vranks[vrank]
        checkpoint = RankCheckpoint(source_rank=stored.source_rank)
        for sdpu in stored.dpus:
            segments = {}
            for seg_idx, (digest, size) in sdpu.segments.items():
                segments[seg_idx] = np.frombuffer(
                    self._payloads[digest], dtype=np.uint8, count=size)
            checkpoint.dpus.append(DpuSnapshot(
                mram_segments=segments, symbols=dict(sdpu.symbols),
                program=sdpu.program, state=sdpu.state))
        return checkpoint

    def drop(self, vrank: int) -> None:
        """Discard a vrank's checkpoint, releasing unshared payloads."""
        stored = self._vranks.pop(vrank, None)
        if stored is None:
            return
        for sdpu in stored.dpus:
            for digest, _size in sdpu.segments.values():
                self._refs[digest] -= 1
                if self._refs[digest] == 0:
                    del self._refs[digest]
                    del self._payloads[digest]

    # -- accounting ---------------------------------------------------------

    @property
    def nr_checkpoints(self) -> int:
        return len(self._vranks)

    @property
    def raw_bytes(self) -> int:
        """Logical segment bytes across all stored checkpoints."""
        return sum(size * self._refs[digest]
                   for digest, size in self._sizes().items())

    @property
    def stored_bytes(self) -> int:
        """Unique payload bytes actually held in host memory."""
        return sum(len(p) for p in self._payloads.values())

    def _sizes(self) -> Dict[int, int]:
        return {digest: len(p) for digest, p in self._payloads.items()}
