"""The rank pager: demand paging of physical ranks (``docs/paging.md``).

The :class:`RankPager` lets one host hand out more ranks than it has:
tenants get *virtual* rank indices (``>= PAGED_RANK_BASE``), and the
pager binds each to a physical *frame* on first touch, swapping rank
state out to a :class:`~repro.paging.store.SwapStore` and back in as
frames run short.  The §2 hardware constraint — a RUNNING DPU cannot
pause — is honoured structurally: state only moves inside rank
operations (write/read/load/launch), which are the exact boundaries
where no DPU is running; :func:`~repro.virt.migration.checkpoint_rank`
additionally refuses a RUNNING rank as a backstop.

Time discipline: the pager advances the machine clock itself by the
modeled swap costs (the precedent is
:func:`~repro.virt.migration.migrate_device`), charged at rank transfer
bandwidth plus a fixed per-fault overhead, so swap time is never folded
into — or double-counted against — the rank operation that triggered
the fault.

Frames come from the Manager's ordinary NAAV pool (claimed under the
``"pager"`` owner, so sysfs/observer bookkeeping sees them as busy) and
go back through a normal release — i.e. through the full isolation
reset — once the pager holds more frames than it has virtual ranks.
*Between* pager tenants a frame skips that 597 ms reset: restoring a
checkpoint zero-fills every DPU before loading (and a first-touch bind
pays a targeted wipe of the evicted tenant's materialized bytes), which
is leak-free and bit-exact at a fraction of the cost — this is where
paging's advantage over the 20x emulation fallback comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.driver.driver import PerfModeMapping, UpmemDriver
from repro.errors import ManagerError
from repro.hardware.dpu import DpuState
from repro.hardware.memory import BlockRecycler
from repro.hardware.rank import Rank
from repro.observability.instruments import PAGING, bind
from repro.paging.config import PagingConfig
from repro.paging.eviction import make_policy
from repro.paging.store import SwapStore
from repro.virt.migration import checkpoint_rank, restore_rank

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.virt.manager import Manager

#: Virtual (paged) rank indices start here — above physical ranks and
#: above the emulated-rank base (1000), so the three tiers never alias.
PAGED_RANK_BASE = 2000

#: Driver-ownership identity under which the pager claims frames.
PAGER_OWNER = "pager"


@dataclass
class _VRankEntry:
    """Pager-side state of one virtual rank."""

    owner: str
    frame: Optional[int] = None      #: bound physical rank, or swapped out
    has_state: bool = False          #: a checkpoint exists in the store
    pinned: bool = False
    weight: float = 1.0


@dataclass
class PagerStats:
    """Cumulative pager counters (mirrors ``repro_paging_*`` metrics)."""

    faults: int = 0
    demand_faults: int = 0
    predictive_faults: int = 0
    first_touch_faults: int = 0
    evictions: int = 0
    swap_out_bytes: int = 0
    swap_in_bytes: int = 0
    swap_seconds: float = 0.0
    frames_acquired: int = 0
    frames_returned: int = 0
    prefault_overlap_s: float = 0.0


class RankPager:
    """Demand-pages virtual ranks onto the host's physical frames."""

    def __init__(self, manager: "Manager", config: PagingConfig) -> None:
        self.manager = manager
        self.machine = manager.machine
        self.clock = manager.clock
        self.cost = manager.cost
        self.config = config
        self.store = SwapStore()
        self.policy = make_policy(config.policy,
                                  half_life_s=config.wss_half_life_s)
        self.stats = PagerStats()
        self.obs = bind(self.machine.metrics, PAGING, policy=config.policy)
        self._vranks: Dict[int, _VRankEntry] = {}
        self._free_frames: List[int] = []
        self._dirty_frames: set = set()
        self._next_index = PAGED_RANK_BASE

    # -- capacity -----------------------------------------------------------

    @property
    def virtual_capacity(self) -> int:
        """Allocatable ranks this host advertises under overcommit."""
        return int(self.machine.nr_ranks * self.config.overcommit_ratio)

    def has_capacity(self) -> bool:
        return len(self._vranks) < self.virtual_capacity

    @staticmethod
    def is_virtual(rank_index: int) -> bool:
        return rank_index >= PAGED_RANK_BASE

    @property
    def nr_resident(self) -> int:
        return sum(1 for e in self._vranks.values() if e.frame is not None)

    @property
    def nr_swapped(self) -> int:
        return sum(1 for e in self._vranks.values() if e.frame is None)

    # -- lifecycle ----------------------------------------------------------

    def create(self, owner: str) -> int:
        """Allot a new virtual rank (no frame bound until first touch)."""
        if not self.has_capacity():
            raise ManagerError(
                f"pager at virtual capacity ({self.virtual_capacity} vranks "
                f"over {self.machine.nr_ranks} frames)")
        vrank = self._next_index
        self._next_index += 1
        self._vranks[vrank] = _VRankEntry(owner=owner)
        self.policy.touch(vrank, self.clock.now)
        self._refresh_gauges()
        return vrank

    def release(self, vrank: int) -> None:
        """Tear down a released vrank.

        The vrank's swap-store state is discarded and its frame (if
        resident) becomes free for reuse.  Freed frames stay *sticky* in
        the pager's pool: the next first-touch bind pays only a targeted
        wipe of the departed tenant's materialized bytes instead of
        waiting out a 597 ms isolation reset — the pager's analogue of
        the paper's NANA fast path, and the reason paged re-allocation
        beats the ladder's reset-wait step.  :meth:`drain` hands sticky
        frames back to the Manager (through the full isolation reset)
        when the host needs them for non-pager consumers.
        """
        entry = self._vranks.pop(vrank, None)
        if entry is None:
            return
        self.policy.forget(vrank)
        self.store.drop(vrank)
        if entry.frame is not None:
            self._free_frames.append(entry.frame)
            self._dirty_frames.add(entry.frame)
        self._refresh_gauges()

    def drain(self) -> int:
        """Return every free (unbound) frame to the Manager's pool.

        Each goes through a normal driver release — i.e. the full
        isolation reset — before any non-pager consumer can see it.
        Resident frames are untouched; returns the number released.
        """
        returned = 0
        while self._free_frames:
            frame = self._free_frames.pop()
            self._dirty_frames.discard(frame)
            self.manager.return_frame(frame)
            self.stats.frames_returned += 1
            returned += 1
        self._refresh_gauges()
        return returned

    @property
    def frames_held(self) -> int:
        """Physical frames currently claimed by the pager."""
        return self.nr_resident + len(self._free_frames)

    # -- residency ----------------------------------------------------------

    def resolve(self, vrank: int) -> Rank:
        """The physical rank behind ``vrank``, faulting it in if needed."""
        entry = self._require(vrank)
        self.policy.touch(vrank, self.clock.now)
        if entry.frame is None:
            self._fault_in(vrank, kind="demand")
        return self.machine.rank(entry.frame)

    def resident_rank(self, vrank: int) -> Optional[Rank]:
        """Non-faulting peek: the bound rank, or None if swapped out."""
        entry = self._vranks.get(vrank)
        if entry is None or entry.frame is None:
            return None
        return self.machine.rank(entry.frame)

    def prefault(self, vrank: int, overlap: float = 0.0) -> None:
        """Predictive swap-in for a queued request targeting ``vrank``.

        ``overlap`` is modeled time the request will spend waiting
        anyway (virtio queue + QoS arbitration); the swap-in runs under
        that wait, so only the excess is charged to the clock.
        """
        if not self.config.predictive:
            return
        entry = self._vranks.get(vrank)
        if entry is None or entry.frame is not None:
            return
        self._fault_in(vrank, kind="predictive", credit=max(overlap, 0.0))

    def pin(self, vrank: int) -> None:
        """Make ``vrank`` ineligible for eviction (faulting it in)."""
        entry = self._require(vrank)
        if entry.frame is None:
            self._fault_in(vrank, kind="demand")
        entry.pinned = True

    def unpin(self, vrank: int) -> None:
        self._require(vrank).pinned = False

    def set_weight(self, vrank: int, weight: float) -> None:
        """QoS weight for victim selection (heavier = evicted later)."""
        self._require(vrank).weight = max(float(weight), 0.0)

    # -- the fault path -----------------------------------------------------

    def _fault_in(self, vrank: int, kind: str, credit: float = 0.0) -> None:
        entry = self._vranks[vrank]
        self.stats.faults += 1
        if not entry.has_state:
            kind = "first_touch"
        self.obs.faults[kind].inc()
        if kind == "demand":
            self.stats.demand_faults += 1
        elif kind == "predictive":
            self.stats.predictive_faults += 1
        else:
            self.stats.first_touch_faults += 1

        frame = self._grab_frame(exclude=vrank)
        rank = self.machine.rank(frame)
        spans = self.machine.spans
        with spans.scope("paging.swap_in", "paging", vrank=vrank,
                         frame=frame, kind=kind):
            if entry.has_state:
                checkpoint = self.store.get(vrank)
                duration = restore_rank(rank, checkpoint)
                nr_bytes = checkpoint.nr_bytes
                self.stats.swap_in_bytes += nr_bytes
            elif frame in self._dirty_frames:
                # First touch onto an evicted tenant's frame: a targeted
                # wipe of just the materialized bytes (the pager knows
                # exactly which segments exist — that is why this is far
                # cheaper than the manager's whole-DIMM reset).
                dirty = sum(dpu.mram.materialized_bytes for dpu in rank.dpus)
                rank.reset()
                duration = self.cost.rank_transfer_time(dirty)
                nr_bytes = 0
            else:
                duration = 0.0
                nr_bytes = 0
            duration += self.config.fault_overhead_s
            charged = max(0.0, duration - credit)
            hidden = duration - charged
            if hidden > 0:
                self.stats.prefault_overlap_s += hidden
                self.obs.prefault_overlap.inc(hidden)
            self.clock.advance(charged)
            self.stats.swap_seconds += charged
            if entry.has_state:
                self.obs.swaps_in.inc()
                self.obs.swap_bytes_in.inc(nr_bytes)
                self.obs.swap_seconds_in.observe(
                    duration, exemplar=spans.exemplar())
        self._dirty_frames.discard(frame)
        entry.frame = frame
        entry.has_state = False
        # The authoritative copy is on the frame now; the store's copy
        # would go stale with the first write, so it is dropped.
        self.store.drop(vrank)
        self._refresh_gauges()

    def _swap_out(self, vrank: int) -> None:
        entry = self._vranks[vrank]
        frame = entry.frame
        rank = self.machine.rank(frame)
        spans = self.machine.spans
        with spans.scope("paging.swap_out", "paging", vrank=vrank,
                         frame=frame):
            checkpoint, duration = checkpoint_rank(rank)
            raw, deduped, hits = self.store.put(vrank, checkpoint)
            self.clock.advance(duration)
            self.stats.swap_seconds += duration
            self.stats.swap_out_bytes += checkpoint.nr_bytes
            self.stats.evictions += 1
            self.obs.swaps_out.inc()
            self.obs.swap_bytes_out.inc(checkpoint.nr_bytes)
            self.obs.swap_seconds_out.observe(
                duration, exemplar=spans.exemplar())
            self.obs.evictions.inc()
            if hits:
                self.obs.dedup_hits.inc(hits)
        entry.frame = None
        entry.has_state = True
        self._free_frames.append(frame)
        self._dirty_frames.add(frame)
        self._refresh_gauges()

    def _grab_frame(self, exclude: int) -> int:
        """A physical frame to bind: free > fresh NAAV > evict > wait."""
        if self._free_frames:
            return self._free_frames.pop()
        frame = self.manager.acquire_frame(wait=False)
        if frame is not None:
            self.stats.frames_acquired += 1
            return frame
        victim = self._pick_victim(exclude)
        if victim is not None:
            self._swap_out(victim)
            return self._free_frames.pop()
        frame = self.manager.acquire_frame(wait=True)
        if frame is not None:
            self.stats.frames_acquired += 1
            return frame
        raise ManagerError(
            f"pager cannot bind vrank {exclude}: no free frame and every "
            "resident rank is pinned or running")

    def _pick_victim(self, exclude: int) -> Optional[int]:
        candidates = []
        for vrank, entry in self._vranks.items():
            if vrank == exclude or entry.pinned or entry.frame is None:
                continue
            rank = self.machine.rank(entry.frame)
            if any(d.state is DpuState.RUNNING for d in rank.dpus):
                continue  # §2: cannot checkpoint a running rank
            candidates.append(vrank)
        return self.policy.victim(candidates, self.clock.now,
                                  lambda v: self._vranks[v].weight)

    # -- helpers ------------------------------------------------------------

    def _require(self, vrank: int) -> _VRankEntry:
        entry = self._vranks.get(vrank)
        if entry is None:
            raise ManagerError(f"unknown virtual rank {vrank}")
        return entry

    def _refresh_gauges(self) -> None:
        self.obs.ranks["resident"].set(self.nr_resident)
        self.obs.ranks["swapped"].set(self.nr_swapped)
        self.obs.store_bytes["raw"].set(self.store.raw_bytes)
        self.obs.store_bytes["stored"].set(self.store.stored_bytes)


class PagedRankMapping(PerfModeMapping):
    """A performance-mode mapping of a *virtual* rank.

    Every operation resolves the backing physical rank through the
    pager (``self.rank`` is a property), so a swapped-out rank faults
    back in exactly at the operation boundary — transparently to the
    backend, which still sees the plain :class:`PerfModeMapping` API.
    ``rank_index``/``peek_rank`` never fault, so metric labels and
    consolidator scans cannot cause paging traffic.
    """

    def __init__(self, driver: UpmemDriver, pager: RankPager, vrank: int,
                 owner: str) -> None:
        # Deliberately not calling super().__init__: the base class pins
        # a static ``self.rank``, which is the one thing this mapping
        # must not have.
        self._driver = driver
        self._pager = pager
        self.vrank = vrank
        self.owner = owner
        self.mapped = True
        self.blocks = BlockRecycler()

    @property
    def rank(self) -> Rank:  # type: ignore[override]
        return self._pager.resolve(self.vrank)

    @property
    def rank_index(self) -> int:
        return self.vrank

    def peek_rank(self) -> Optional[Rank]:
        return self._pager.resident_rank(self.vrank)
