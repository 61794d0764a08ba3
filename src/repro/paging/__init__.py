"""Rank demand paging: transparent PIM oversubscription (§7).

The paper's future work asks for "efficient pause-resume and
checkpoint-restore mechanisms [enabling] dynamic workload consolidation
without hardware changes".  ``repro.paging`` builds exactly that: the
Manager hands out more *virtual* ranks than physically exist, and a
:class:`~repro.paging.pager.RankPager` time-multiplexes the physical
ranks underneath by swapping rank state to a host-memory
:class:`~repro.paging.store.SwapStore` — always at launch/transfer
boundaries, never while a DPU is RUNNING (the §2 hardware constraint).

See ``docs/paging.md`` for the design; off-path by default (no pager is
created unless a :class:`~repro.paging.config.PagingConfig` is passed).
"""

from repro.paging.config import PagingConfig
from repro.paging.eviction import LruPolicy
from repro.paging.pager import PAGED_RANK_BASE, PagedRankMapping, RankPager
from repro.paging.store import SwapStore

__all__ = [
    "PAGED_RANK_BASE",
    "LruPolicy",
    "PagedRankMapping",
    "PagingConfig",
    "RankPager",
    "SwapStore",
]
