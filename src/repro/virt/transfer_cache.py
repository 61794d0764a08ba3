"""Content-aware transfer suppression (the PIM-CACHE-inspired extension).

The paper's W-rank write path is dominated by T-data (98.3% of the rust
path, Fig. 13), and iterative PrIM workloads rewrite largely-unchanged
buffers every iteration.  This module provides the shared data structure
behind the opt-in ``Optimization(cache=True)`` toggle (see
``docs/transfer_cache.md``):

- the **frontend digest index** remembers, per ``(dpu, space, offset)``
  extent, the 64-bit content digest of the last payload successfully
  written there.  A write whose extent digest matches is *suppressed* —
  either dropped from the batch buffer or turned into a ``SKIP`` extent
  on the wire;
- the **backend resident index** is the same structure on the host side,
  fed from the wire, used to validate ``SKIP`` extents before trusting
  them (a mismatch is a protocol violation, not a silent corruption).

The digest function itself lives in :mod:`repro.virt.digest` — it is
shared with the paging subsystem's deduplicating
:class:`~repro.paging.store.SwapStore`, and the two indexes must agree
byte-for-byte on what "same content" means (a swap-in replays exactly
the bytes this cache considers resident).  Collision safety comes from
*extent keying*: a digest is only ever compared against the digest
previously stored for the exact same ``(dpu, space, offset, size)``
extent, so a colliding payload at a first-touch extent can never be
suppressed.  Within one extent, a 2^-64 collision is the accepted
content-addressing trade; the paper's bit-exactness contract is kept by
leaving the default (cache-off) path untouched.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

# Re-exported for existing importers (frontend/backend/tests pull the
# digest from here); the definition moved to the shared module.
from repro.virt.digest import DIGEST_BYTES, content_digest

__all__ = [
    "DIGEST_BYTES", "content_digest", "ExtentDigestIndex",
    "MAX_RECORDS_PER_REGION",
]

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

    # -- probing ------------------------------------------------------------

    def lookup(self, dpu_index: int, space: str, offset: int, size: int,
               digest: int) -> bool:
        """True iff the exact extent is recorded with the same digest.

        Hits require the full ``(offset, size, digest)`` triple to match:
        a first-touch extent — even one whose payload digest collides
        with a record at another offset — always misses.
        """
        region = self._regions.get((dpu_index, space))
        if region is None:
            return False
        record = region.get(offset)
        return record is not None and record == (size, digest)

    def has_record(self, dpu_index: int, space: str, offset: int) -> bool:
        """True iff any digest is recorded at this exact offset.

        A probe here *could* have hit; a first-touch probe cannot, so
        only these count toward the adaptive-bypass hit-rate window.
        """
        region = self._regions.get((dpu_index, space))
        return region is not None and offset in region

    def insert(self, dpu_index: int, space: str, offset: int, size: int,
               digest: int) -> None:
        """Record an extent digest, invalidating overlapping records.

        A write to ``[offset, offset+size)`` makes any record overlapping
        that span stale (partial overwrites change content without
        matching the old key), so overlaps are dropped before inserting.
        """
        key = (dpu_index, space)
        region = self._regions.setdefault(key, {})
        self._drop_overlaps(region, offset, size, keep=offset)
        # dict preserves insertion order; re-inserting moves to the back,
        # which is all the LRU bound needs.
        region.pop(offset, None)
        region[offset] = (size, digest)
        while len(region) > self.max_records_per_region:
            region.pop(next(iter(region)))

    # -- invalidation -------------------------------------------------------

    def prune(self, dpu_index: int, space: str, offset: int,
              size: int) -> int:
        """Drop records overlapping a dirtied extent; returns the count."""
        region = self._regions.get((dpu_index, space))
        if not region:
            return 0
        return self._drop_overlaps(region, offset, size)

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

    # -- accounting ---------------------------------------------------------

    @property
    def nr_records(self) -> int:
        return sum(len(region) for region in self._regions.values())
