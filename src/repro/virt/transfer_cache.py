"""Content-aware transfer suppression (the PIM-CACHE-inspired extension).

The paper's W-rank write path is dominated by T-data (98.3% of the rust
path, Fig. 13), and iterative PrIM workloads rewrite largely-unchanged
buffers every iteration.  This module is all of the opt-in
``Optimization(cache=True)`` (see ``docs/transfer_cache.md``), a layer in
front of the copy path: the paper's frontend and backend each hold one
``transfer_cache`` attribute, ``None`` unless the option is set.

- :class:`GuestCache` (frontend) remembers per ``(dpu, space, offset)``
  extent the 64-bit digest of the last payload written there; a write
  whose extent digest matches is *suppressed* — dropped from the batch
  buffer or sent as a ``SKIP`` extent.  It also runs the adaptive bypass.
- :class:`HostCache` (backend) is the resident mirror, fed from the
  digests that ride the wire and the batch records; it validates every
  ``SKIP`` before trusting it (a mismatch is a protocol violation, not a
  silent corruption), and holds the host's content-aware steps.

The digest function lives in :mod:`repro.virt.digest`, shared with the
paging subsystem's deduplicating :class:`~repro.paging.store.SwapStore`.
Collision safety comes from *extent keying*: a digest is only compared
with the one stored for the exact same ``(dpu, space, offset, size)``
extent, so a colliding payload at a first-touch extent is never
suppressed; within one extent a 2^-64 collision is the accepted
content-addressing trade.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SerializationError
from repro.sdk.profile import OP_WRITE
from repro.sdk.transfer import TransferMatrix
from repro.virt.digest import content_digest
from repro.virt.serialization import CacheMeta, SkipExtent

__all__ = ["CACHE_BYPASS_HIT_RATE", "CACHE_BYPASS_MIN_PROBES",
           "ExtentDigestIndex", "GuestCache", "HostCache", "content_digest"]

#: Adaptive bypass (``docs/transfer_cache.md``): once at least
#: ``CACHE_BYPASS_MIN_PROBES`` *revisit* probes (extents that already held
#: a digest: a cold first push of 64 first-touch entries carries no
#: signal) show a suppression rate below ``CACHE_BYPASS_HIT_RATE``,
#: digesting costs more than it saves (the BFS 0.96x of the committed
#: ablation) and stops until the next ``load``.  0 disables the bypass.
CACHE_BYPASS_HIT_RATE = 0.02
CACHE_BYPASS_MIN_PROBES = 64

#: Records kept per (dpu, space) region before LRU eviction.  PrIM apps
#: touch a handful of distinct extents per DPU per region; the bound only
#: exists so adversarial write patterns cannot grow the index unbounded.
MAX_RECORDS_PER_REGION = 128


class ExtentDigestIndex:
    """Per-extent content digests with overlap invalidation.

    Keys are ``(dpu_index, space)`` regions holding ``offset -> (size,
    digest)`` records, LRU-bounded per region.  ``space`` is the transfer
    matrix's symbol — the MRAM heap symbol for MRAM transfers, the WRAM
    variable name otherwise — so MRAM offsets and symbol-relative offsets
    can never alias each other.
    """

    def __init__(self, max_records_per_region: int = MAX_RECORDS_PER_REGION,
                 ) -> None:
        self.max_records_per_region = max_records_per_region
        self._regions: Dict[Tuple[int, str], Dict[int, Tuple[int, int]]] = {}

    def lookup(self, dpu_index: int, space: str, offset: int, size: int,
               digest: int) -> bool:
        """True iff the exact extent is recorded with the same digest.

        Hits require the full ``(offset, size, digest)`` triple to match:
        a first-touch extent — even one whose payload digest collides
        with a record at another offset — always misses.
        """
        return self.record(dpu_index, space, offset) == (size, digest)

    def record(self, dpu_index: int, space: str,
               offset: int) -> Optional[Tuple[int, int]]:
        """The ``(size, digest)`` recorded at this exact offset, if any."""
        region = self._regions.get((dpu_index, space))
        return region.get(offset) if region is not None else None

    def insert(self, dpu_index: int, space: str, offset: int, size: int,
               digest: int) -> None:
        """Record an extent digest, invalidating overlapping records.

        A write to ``[offset, offset+size)`` makes any record overlapping
        that span stale (partial overwrites change content without
        matching the old key), so overlaps are dropped before inserting.
        """
        region = self._regions.setdefault((dpu_index, space), {})
        self._drop_overlaps(region, offset, size, keep=offset)
        # dict preserves insertion order; re-inserting moves to the back,
        # which is all the LRU bound needs.
        region.pop(offset, None)
        region[offset] = (size, digest)
        while len(region) > self.max_records_per_region:
            region.pop(next(iter(region)))

    def prune(self, dpu_index: int, space: str, offset: int,
              size: int) -> int:
        """Drop records overlapping a dirtied extent; returns the count."""
        region = self._regions.get((dpu_index, space))
        return self._drop_overlaps(region, offset, size) if region else 0

    def invalidate_all(self) -> int:
        """Drop every record; returns how many were held."""
        count = self.nr_records
        self._regions.clear()
        return count

    @staticmethod
    def _drop_overlaps(region: Dict[int, Tuple[int, int]], offset: int,
                       size: int, keep: Optional[int] = None) -> int:
        if size <= 0:
            return 0
        stale = [off for off, (sz, _) in region.items()
                 if off != keep and off < offset + size and offset < off + sz]
        for off in stale:
            del region[off]
        return len(stale)

    @property
    def nr_records(self) -> int:
        return sum(len(region) for region in self._regions.values())


class GuestCache:
    """The frontend's half: digests of what the device holds, probed
    before a write leaves the guest, and the adaptive bypass."""

    def __init__(self, host: "HostCache") -> None:
        #: The device's half: a whole-index drop clears both.
        self.host = host
        self.index = ExtentDigestIndex()
        #: Revisit probes and hits since the last ``load``.
        self.probes = self.hits = 0
        self.bypassed = False

    def suppress(self, frontend, matrix: TransferMatrix, batched: bool,
                 ) -> Tuple[Optional[TransferMatrix], Optional[CacheMeta],
                            float]:
        """Digest a write matrix and split off what the device holds;
        returns ``(matrix, cache_meta, cache_time)``: the entries still to
        send (``None``: all suppressed, the op is recorded here), their
        cache wire content (``None`` once bypassed) and the probe time.
        A batched write is recorded now, as it enters the batch buffer:
        a failed flush drops the whole index."""
        if self.bypassed:
            return matrix, None, 0.0
        index, symbol, offset = self.index, matrix.symbol, matrix.offset
        kept, skips, digests = [], [], {}
        suppressed = revisits = 0
        for entry in matrix.entries:
            digest = digests[entry.dpu_index] = content_digest(entry.data)
            # Only a revisit could hit: first touches are no bypass signal.
            record = index.record(entry.dpu_index, symbol, offset)
            revisits += record is not None
            if record == (entry.size, digest):
                skips.append(SkipExtent(dpu_index=entry.dpu_index,
                                        size=entry.size, digest=digest))
                suppressed += entry.size
            else:
                kept.append(entry)
        cache_time = frontend.cost.digest_probe_time(
            [e.size for e in matrix.entries])
        self.probes += revisits
        self.hits += len(skips)
        if (0 < CACHE_BYPASS_MIN_PROBES <= self.probes
                and self.hits / self.probes < CACHE_BYPASS_HIT_RATE):
            # Not paying: stop digesting.  Both halves are dropped, so
            # this probe cannot vouch for what it found either.
            self.bypassed = True
            frontend.invalidate("adaptive_bypass")
            kept, skips, suppressed = list(matrix.entries), [], 0
        obs, spans = frontend.obs, frontend.spans
        obs.cache_hits.inc(len(skips))
        obs.cache_misses.inc(len(kept))
        obs.cache_suppressed.inc(suppressed)
        spans.event("cache.lookup", "frontend", cache_time, op=OP_WRITE,
                    entries=len(matrix.entries), hits=len(skips))
        if skips:
            spans.event("cache.suppress", "frontend", 0.0, op=OP_WRITE,
                        extents=len(skips), bytes=suppressed)
        frontend.profiler.record_wrank_steps({"Cache": cache_time})
        if not kept:
            frontend.profiler.record_op(OP_WRITE, cache_time)
            return None, None, cache_time
        if skips:
            matrix = TransferMatrix(matrix.kind, symbol, offset, kept)
        cache_meta = CacheMeta(digests, skips)
        if batched:
            self.landed(matrix, cache_meta)
        return matrix, cache_meta, cache_time

    def landed(self, matrix: TransferMatrix,
               cache_meta: Optional[CacheMeta]) -> None:
        """Record the digests of ``matrix``'s entries, now on the device
        (``cache_meta`` is what :meth:`suppress` returned with it)."""
        if cache_meta is None:
            return
        for entry in matrix.entries:
            self.index.insert(entry.dpu_index, matrix.symbol, matrix.offset,
                              entry.size, cache_meta.digests[entry.dpu_index])

    def invalidate(self, event: str) -> int:
        """Drop both halves' records for ``event``, an
        ``INVALIDATION`` row that drops digests; returns how many guest
        records went.  A ``load`` starts a new workload, so the bypass
        statistics start again too."""
        self.host.invalidate_all()
        if event == "load":
            self.probes = self.hits = 0
            self.bypassed = False
        return self.index.invalidate_all()

    def prune(self, dirty: List[Tuple[int, str, int, int]]) -> int:
        """Drop the digests a launch's dirty stores overlap (the host
        pruned its own); returns the count."""
        return sum(self.index.prune(*store) for store in dirty)


class HostCache(ExtentDigestIndex):
    """The backend's half: the resident mirror a SKIP must be found in,
    plus the content-aware steps of the device model."""

    def validate(self, header, skips: List[SkipExtent]) -> None:
        """Raise unless every SKIP extent is resident with its digest:
        trusting one the mirror cannot vouch for would corrupt the DPU."""
        for skip in skips:
            if not self.lookup(skip.dpu_index, header.symbol, header.offset,
                               skip.size, skip.digest):
                raise SerializationError(
                    f"SKIP extent (dpu {skip.dpu_index}, symbol "
                    f"{header.symbol!r}, offset {header.offset}, size "
                    f"{skip.size}) is not resident on the backend")

    @staticmethod
    def broadcast(matrix: Optional[TransferMatrix]) -> bool:
        """True iff every entry carries the same payload (all-DPUs
        pattern): the write is deserialized and translated once, then
        fanned out — only the modeled time changes, every page is still
        validated and written."""
        if matrix is None or len(matrix.entries) < 2:
            return False
        first, *rest = matrix.entries
        return all(e.size == first.size and np.array_equal(e.data, first.data)
                   for e in rest)

    def wrote(self, space: str, extents) -> None:
        """Record the ``(dpu, offset, size, digest)`` extents of a landed
        write or batch flush (a digest of 0: not digested)."""
        for dpu_index, offset, size, digest in extents:
            if digest:
                self.insert(dpu_index, space, offset, size, digest)

    @staticmethod
    def run_at(records: list, i: int) -> list:
        """The batch records replayed with ``records[i]`` as one rank
        operation: it and the adjacent records carrying the *same*
        payload to the same offset on distinct DPUs (the broadcast
        argument-push pattern)."""
        first = records[i]
        run = [first]
        for j in range(i + 1, len(records)):
            nxt = records[j]
            if (nxt.offset != first.offset
                    or nxt.data.size != first.data.size
                    or any(nxt.dpu_index == r.dpu_index for r in run)
                    or not np.array_equal(nxt.data, first.data)):
                break
            run.append(nxt)
        return run

    def launch(self, mapping) -> Tuple[float, List[Tuple[int, str, int, int]]]:
        """Run a launch with every DPU's dirty log armed; returns the run
        time and the ``(dpu, space, offset, size)`` stores collected,
        which prune the resident digests they overlap and travel back to
        the guest in the completion, so its index stays honest too."""
        dpus = mapping.rank.dpus
        for dpu in dpus:
            dpu.dirty_log = []
        dirty: List[Tuple[int, str, int, int]] = []
        try:
            run_time = mapping.launch()
        finally:
            # Disarm and prune even when the launch faults: the kernel
            # may have stored before raising.
            for dpu in dpus:
                log, dpu.dirty_log = dpu.dirty_log, None
                for space, offset, nbytes in log or ():
                    self.prune(dpu.dpu_index, space, offset, nbytes)
                    dirty.append((dpu.dpu_index, space, offset, nbytes))
        return run_time, dirty
