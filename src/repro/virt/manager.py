"""The vPIM Manager: host-wide rank arbitration (Section 3.5, Fig. 5).

One manager runs per host.  It maintains a *rank table* tracking every
rank's index, status-file location, assigned vUPMEM device and state:

- ``ALLO`` — allocated to a VM (or a native application);
- ``NAAV`` — not allocated, available;
- ``NANA`` — not allocated, not available: released and undergoing the
  memory reset that guarantees isolation between tenants;
- ``FAIL`` — quarantined after a detected hardware failure; never
  allocated until explicitly repaired, and blacklisted for good after
  repeated failures (``blacklist_threshold``).

Allocation policy (paper order):

1. a NANA rank previously used by the requester is handed back without
   reset (no leak: it is the requester's own data);
2. otherwise a NAAV rank, chosen round-robin;
3. otherwise, if NANA ranks exist, wait for the earliest reset to finish;
4. otherwise retry after an exponential backoff with jitter, a
   configurable number of times, then abandon the request.

Oversubscription tiering (§7 extensions, both off by default): with a
:class:`~repro.paging.config.PagingConfig`, the manager skips the
ladder entirely and hands out *virtual* ranks the
:class:`~repro.paging.pager.RankPager` demand-pages onto physical
frames at full speed (``docs/paging.md``); only once the pager's
virtual capacity is exhausted does the ladder above run, with
``oversubscription=True``'s 20x-derated emulated ranks as the last
resort before backoff.

Releases are *not* signalled by VMs: a dedicated observer watches the
driver's sysfs status files, so native host applications and VMs coexist
without modification (requirement R3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.config import MANAGER_POOL_THREADS
from repro.errors import DriverError, ManagerError
from repro.driver.driver import UpmemDriver
from repro.hardware.clock import SimClock
from repro.hardware.machine import Machine
from repro.hardware.rank import RankHealth
from repro.hardware.timing import CostModel
from repro.observability.instruments import MANAGER, bind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.paging.config import PagingConfig


class RankState(enum.Enum):
    """Rank lifecycle states of the manager's rank table (§3.5, Fig. 5)."""

    ALLO = "ALLO"   #: in use
    NAAV = "NAAV"   #: not allocated, available
    NANA = "NANA"   #: not allocated, not available (reset in progress)
    FAIL = "FAIL"   #: quarantined after a hardware failure


@dataclass
class RankRecord:
    """One row of the manager's rank table (Fig. 5: index, status file,
    state, assigned device)."""

    rank_index: int
    status_file: str
    state: RankState = RankState.NAAV
    assigned_device: Optional[str] = None
    last_owner: Optional[str] = None
    reset_done_at: float = 0.0
    #: Lifetime failure count; at ``blacklist_threshold`` the rank is
    #: refused repair and stays FAIL for good.
    fault_count: int = 0
    failed_at: float = 0.0


@dataclass
class ManagerStats:
    """Cumulative manager counters backing the §4.2 overhead discussion."""

    allocations: int = 0
    nana_reuses: int = 0
    resets: int = 0
    waits: int = 0
    abandoned: int = 0
    emulated_allocations: int = 0
    paged_allocations: int = 0
    failures: int = 0
    repairs: int = 0
    retries_exhausted: int = 0


class Manager:
    """The userspace manager daemon (§3.5: one per host, arbitrating ranks
    between VMs and native applications)."""

    #: Selectable NAAV-allocation policies.  The paper's prototype uses
    #: round-robin over the rank table; ``first_fit`` always picks the
    #: lowest free index (densest packing, lets high ranks idle), and
    #: ``coldest`` picks the rank that has been free the longest
    #: (wear/thermal levelling across DIMMs).
    POLICIES = ("round_robin", "first_fit", "coldest")

    def __init__(self, machine: Machine, driver: UpmemDriver,
                 pool_threads: int = MANAGER_POOL_THREADS,
                 max_attempts: int = 5,
                 oversubscription: bool = False,
                 emulation_slowdown: float = 20.0,
                 paging: Optional["PagingConfig"] = None,
                 policy: str = "round_robin",
                 blacklist_threshold: int = 3,
                 backoff_factor: float = 2.0,
                 backoff_jitter: float = 0.1,
                 backoff_seed: int = 0) -> None:
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown allocation policy {policy!r}; "
                f"choose from {self.POLICIES}"
            )
        self.machine = machine
        self.driver = driver
        self.clock: SimClock = machine.clock
        self.cost: CostModel = machine.cost
        self.pool_threads = pool_threads
        self.max_attempts = max_attempts
        self.policy = policy
        self.blacklist_threshold = blacklist_threshold
        self.backoff_factor = backoff_factor
        self.backoff_jitter = backoff_jitter
        #: Seeded jitter stream: retries desynchronize without breaking
        #: the simulation's run-to-run determinism.
        self._backoff_rng = np.random.default_rng(backoff_seed)
        self.stats = ManagerStats()
        #: Live telemetry (shares the machine registry): state transitions,
        #: allocation outcomes/waits per policy and the rank-table gauge.
        self.obs = bind(machine.metrics, MANAGER, policy=policy)
        self._rr_cursor = 0
        self._freed_at: Dict[int, float] = {}
        #: Section 7 extension: hand out software-emulated ranks when the
        #: physical ones are exhausted, at reduced performance.
        self.oversubscription = oversubscription
        self.emulated_pool = None
        if oversubscription:
            from repro.virt.emulation import EmulatedRankPool
            self.emulated_pool = EmulatedRankPool(machine,
                                                  slowdown=emulation_slowdown)
            driver.emulated_pool = self.emulated_pool
        #: §7 demand paging (``docs/paging.md``): when configured, VM
        #: allocations become virtual ranks the pager time-multiplexes
        #: over the physical frames at full speed — the tier *above*
        #: emulated ranks.  ``None`` (the default) models no paging.
        self.pager = None
        if paging is not None:
            from repro.paging.pager import RankPager
            self.pager = RankPager(self, paging)
            driver.pager = self.pager
        self.rank_table: Dict[int, RankRecord] = {
            rank.index: RankRecord(
                rank_index=rank.index,
                status_file=driver.sysfs.rank_status_path(rank.index),
            )
            for rank in machine.ranks
        }
        driver.sysfs.subscribe(self._on_sysfs_write)
        self._refresh_rank_gauge()

    def _transition(self, record: RankRecord, to_state: RankState) -> None:
        """Move ``record`` to ``to_state``, accounting the edge."""
        self.obs.transitions[record.state.value.lower(),
                             to_state.value.lower()].inc()
        record.state = to_state
        self._refresh_rank_gauge()

    def _refresh_rank_gauge(self) -> None:
        counts = {state.value.lower(): 0 for state in RankState}
        for record in self.rank_table.values():
            counts[record.state.value.lower()] += 1
        for state, count in counts.items():
            self.obs.ranks[state].set(count)

    # -- observer thread --------------------------------------------------------

    def _on_sysfs_write(self, path: str, content: str) -> None:
        """The observer: react to driver status-file changes."""
        for record in self.rank_table.values():
            if record.status_file != path:
                continue
            if content.startswith("busy"):
                # A native application (or a backend we told to map) took
                # the rank; record it so VMs cannot double-allocate.
                if record.state is not RankState.ALLO:
                    self._transition(record, RankState.ALLO)
                    owner = content.split(":", 1)[1] if ":" in content else ""
                    record.assigned_device = owner or record.assigned_device
            else:
                if record.state is RankState.ALLO:
                    self._begin_release(record)
            return

    def _begin_release(self, record: RankRecord) -> None:
        """Rank released: enter NANA and schedule the isolation reset."""
        if (self.pager is not None
                and self.pager.is_virtual(record.rank_index)):
            # Virtual ranks are destroyed like emulated ones: the pager
            # discards the swap-store state and frees the frame; any
            # frame leaving the pager's pool re-enters NAAV only through
            # the normal isolation reset (see RankPager.release).
            self.pager.release(record.rank_index)
            self.obs.transitions[record.state.value.lower(), "destroyed"].inc()
            del self.rank_table[record.rank_index]
            self._refresh_rank_gauge()
            return
        if (self.emulated_pool is not None
                and self.emulated_pool.is_emulated(record.rank_index)):
            # Emulated ranks are destroyed, not reset: the host memory is
            # simply freed, and nothing remains to leak.
            self.emulated_pool.destroy(record.rank_index)
            self.obs.transitions[record.state.value.lower(), "destroyed"].inc()
            del self.rank_table[record.rank_index]
            self._refresh_rank_gauge()
            return
        record.last_owner = record.assigned_device
        record.assigned_device = None
        self._transition(record, RankState.NANA)
        # Detection latency of the observer plus the memset of the rank.
        record.reset_done_at = (self.clock.now
                                + self.cost.manager_observe_period
                                + self.cost.manager_reset)
        self.stats.resets += 1
        self.obs.resets.inc()

    def _settle(self, record: RankRecord) -> None:
        """Complete a finished reset: NANA -> NAAV with zeroed memory."""
        if (record.state is RankState.NANA
                and self.clock.now >= record.reset_done_at):
            self.machine.rank(record.rank_index).reset()
            self._transition(record, RankState.NAAV)
            self._freed_at[record.rank_index] = record.reset_done_at

    # -- allocation ---------------------------------------------------------------

    def _count_allocation(self, outcome: str, arrived_at: float) -> None:
        """One allocation decided as ``outcome``, and how long it waited."""
        self.obs.allocations[outcome].inc()
        self.obs.alloc_wait.observe(self.clock.now - arrived_at)

    def allocate(self, requester: str) -> int:
        """Allocate a rank to ``requester`` (a vUPMEM device id).

        Advances the simulated clock by the allocation cost (and any wait
        for pending resets).  Returns the physical rank index; raises
        :class:`ManagerError` after ``max_attempts`` fruitless retries.
        """
        arrived_at = self.clock.now

        # 0. Demand paging (§7 extension, docs/paging.md): every VM
        # allocation becomes a virtual rank while the pager has virtual
        # capacity.  The pager binds free physical frames first, so an
        # under-committed host still runs at full speed with zero swaps
        # — and because *all* tenants hold evictable vranks, any of
        # them can be a victim once frames run short.
        if self.pager is not None and self.pager.has_capacity():
            vrank = self.pager.create(requester)
            self.rank_table[vrank] = RankRecord(
                rank_index=vrank,
                status_file=self.driver.sysfs.rank_status_path(vrank),
                state=RankState.ALLO,
                assigned_device=requester,
                last_owner=requester,
            )
            self._count_allocation("paged", arrived_at)
            self._refresh_rank_gauge()
            self.clock.advance(self.cost.manager_alloc)
            self.stats.allocations += 1
            self.stats.paged_allocations += 1
            return vrank

        for _attempt in range(self.max_attempts):
            for record in self.rank_table.values():
                self._settle(record)

            # 1. NANA rank previously used by this requester: no reset.
            for record in self.rank_table.values():
                if (record.state is RankState.NANA
                        and record.last_owner == requester):
                    self._transition(record, RankState.ALLO)
                    record.assigned_device = requester
                    self._count_allocation("nana_reuse", arrived_at)
                    self.clock.advance(self.cost.manager_alloc)
                    self.stats.allocations += 1
                    self.stats.nana_reuses += 1
                    return record.rank_index

            # 2. A NAAV rank, by the configured policy.
            idx = self._pick_naav()
            if idx is not None:
                record = self.rank_table[idx]
                self._transition(record, RankState.ALLO)
                record.assigned_device = requester
                record.last_owner = requester
                self._count_allocation("naav", arrived_at)
                self.clock.advance(self.cost.manager_alloc)
                self.stats.allocations += 1
                return record.rank_index

            # 3. Wait for the earliest NANA reset to complete.
            nana = [r for r in self.rank_table.values()
                    if r.state is RankState.NANA]
            if nana:
                earliest = min(r.reset_done_at for r in nana)
                self.clock.advance_to(earliest)
                self.stats.waits += 1
                continue

            # 4. Oversubscription (Section 7 extension): no physical rank
            # will free up; hand out an emulated one at reduced speed.
            if self.emulated_pool is not None:
                rank = self.emulated_pool.create()
                self.rank_table[rank.index] = RankRecord(
                    rank_index=rank.index,
                    status_file=self.driver.sysfs.rank_status_path(rank.index),
                    state=RankState.ALLO,
                    assigned_device=requester,
                    last_owner=requester,
                )
                # No sysfs write yet: the backend's claim will mark it
                # busy; a "free" write would look like an instant release.
                self._count_allocation("emulated", arrived_at)
                self._refresh_rank_gauge()
                self.clock.advance(self.cost.manager_alloc)
                self.stats.allocations += 1
                self.stats.emulated_allocations += 1
                return rank.index

            # 5. Nothing at all: exponential backoff with jitter — a
            # herd of waiting requesters spreads out instead of
            # re-polling the rank table in lockstep.
            delay = min(self.cost.manager_retry_timeout
                        * self.backoff_factor ** _attempt,
                        self.cost.manager_retry_max)
            delay *= 1.0 + self.backoff_jitter * float(
                self._backoff_rng.random())
            self.clock.advance(delay)
            self.stats.waits += 1

        self.stats.abandoned += 1
        self.stats.retries_exhausted += 1
        self._count_allocation("abandoned", arrived_at)
        self.obs.exhausted.inc()
        raise ManagerError(
            f"no rank available for {requester!r} after "
            f"{self.max_attempts} attempts"
        )

    def _pick_naav(self) -> Optional[int]:
        """Choose an available rank per the allocation policy."""
        free = [idx for idx, rec in sorted(self.rank_table.items())
                if rec.state is RankState.NAAV]
        if not free:
            return None
        if self.policy == "first_fit":
            return free[0]
        if self.policy == "coldest":
            return min(free, key=lambda idx: self._freed_at.get(idx, 0.0))
        # round_robin (the paper's prototype behaviour)
        indices = sorted(self.rank_table)
        for step in range(len(indices)):
            idx = indices[(self._rr_cursor + step) % len(indices)]
            if idx in free:
                self._rr_cursor = (indices.index(idx) + 1) % len(indices)
                return idx
        return None

    # -- frame pool (demand paging, docs/paging.md) --------------------------------

    def rank_capacity(self) -> int:
        """Allocatable ranks this host advertises.

        Physical count normally; the pager's virtual capacity (physical
        x overcommit ratio) when paging is configured.  VM sizing
        (:meth:`~repro.virt.firecracker.VmConfig.validate`) and cluster
        placement both size against this.
        """
        if self.pager is not None:
            return self.pager.virtual_capacity
        return self.machine.nr_ranks

    def acquire_frame(self, wait: bool = False) -> Optional[int]:
        """Claim one NAAV rank as a pager frame; None if none is free.

        The claim goes through the driver, so sysfs shows the frame busy
        under the ``"pager"`` owner and the observer moves the record to
        ALLO — frames stay first-class rows of the rank table.  With
        ``wait`` the call sits out the earliest pending NANA reset
        (advancing the clock) before giving up.
        """
        for record in self.rank_table.values():
            self._settle(record)
        idx = self._pick_naav()
        if idx is None and wait:
            nana = [r for r in self.rank_table.values()
                    if r.state is RankState.NANA]
            if nana:
                self.clock.advance_to(min(r.reset_done_at for r in nana))
                self.stats.waits += 1
                for record in self.rank_table.values():
                    self._settle(record)
                idx = self._pick_naav()
        if idx is None:
            return None
        self.driver.claim_rank(idx, "pager")
        self.rank_table[idx].last_owner = "pager"
        return idx

    def return_frame(self, rank_index: int) -> None:
        """Give a pager frame back to the general pool.

        A plain driver release: the observer walks the rank through NANA
        and the full isolation reset, so nothing a pager tenant wrote
        can leak to the next (non-pager) owner.
        """
        self.driver.release_rank(rank_index, "pager")

    # -- failure handling (health tracking + quarantine) ---------------------------

    def mark_failed(self, rank_index: int) -> None:
        """Quarantine a rank after a detected hardware failure.

        Idempotent; unknown indices (e.g. already-destroyed emulated
        ranks) are ignored so unwind paths can call this untidily.
        """
        record = self.rank_table.get(rank_index)
        if record is None or record.state is RankState.FAIL:
            return
        record.fault_count += 1
        record.failed_at = self.clock.now
        record.assigned_device = None
        # The owner's data on a failed rank is untrustworthy: forget the
        # owner so the NANA fast path can never hand it back unreset.
        record.last_owner = None
        self._transition(record, RankState.FAIL)
        self.stats.failures += 1

    def is_blacklisted(self, rank_index: int) -> bool:
        """True once a rank has failed ``blacklist_threshold`` times."""
        record = self.rank_table.get(rank_index)
        return (record is not None
                and record.fault_count >= self.blacklist_threshold)

    def repair(self, rank_index: int) -> float:
        """Return a FAIL rank to service through the isolation reset.

        Restores the hardware's health, then walks the rank through
        NANA so it re-enters the pool only after a full memory reset —
        failed ranks may hold arbitrary garbage.  Refuses blacklisted
        ranks.  Returns the modeled reset duration.
        """
        record = self.rank_table.get(rank_index)
        if record is None or record.state is not RankState.FAIL:
            state = record.state.value if record else "absent"
            raise ManagerError(
                f"rank {rank_index} is {state}, not FAIL; nothing to repair")
        if self.is_blacklisted(rank_index):
            raise ManagerError(
                f"rank {rank_index} failed {record.fault_count} times "
                f"(threshold {self.blacklist_threshold}); blacklisted")
        try:
            rank = self.driver.resolve_rank(rank_index)
        except DriverError:
            rank = None
        if rank is not None:
            rank.health = RankHealth.OK
            rank.degradation = 1.0
        self._transition(record, RankState.NANA)
        record.reset_done_at = self.clock.now + self.cost.manager_reset
        self.stats.repairs += 1
        self.stats.resets += 1
        self.obs.resets.inc()
        return self.cost.manager_reset

    def failed_ranks(self) -> List[int]:
        """Indices currently quarantined (FAIL), sorted."""
        return [idx for idx, rec in sorted(self.rank_table.items())
                if rec.state is RankState.FAIL]

    # -- modeled resource usage (Section 4.2 "Manager's Overhead") -----------------

    def idle_cpu_utilization(self) -> float:
        """Idle manager CPU share, dominated by the observer thread."""
        return 0.40

    def reset_cpu_utilization(self, concurrent_resets: int = 1) -> float:
        """CPU share while resetting; memset of 8 GB peaks at ~92%."""
        if concurrent_resets <= 0:
            return self.idle_cpu_utilization()
        return min(0.92, 0.40 + 0.065 * concurrent_resets * 8)

    # -- introspection ------------------------------------------------------------

    def states(self) -> Dict[int, RankState]:
        for record in self.rank_table.values():
            self._settle(record)
        return {idx: rec.state for idx, rec in self.rank_table.items()}

    def available_ranks(self) -> List[int]:
        return [idx for idx, state in self.states().items()
                if state is RankState.NAAV]
