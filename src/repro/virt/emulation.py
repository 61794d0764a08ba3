"""Rank oversubscription via software-emulated ranks (Section 7).

The paper's future work: "a VMM module similar to the UPMEM simulator
could support oversubscription by running applications at reduced
performance."  This module implements that: when every physical rank is
allocated and a tenant still asks for one, the Manager can hand out an
*emulated* rank — a functionally identical rank whose DPUs execute on
host CPU time (the UPMEM functional simulator), at a configurable
slowdown.

An emulated rank is a real :class:`~repro.hardware.rank.Rank` driven by
a derated cost model, so the whole stack above (driver mappings, the
backend, transfer matrices, kernels) works on it unchanged; results stay
bit-exact, only the simulated timing degrades.  Emulated ranks get
indices starting at :data:`EMULATED_RANK_BASE` so reports can tell them
apart, and they are destroyed when released (nothing to reset).

The pool is one of the manager's two oversubscription *tiers* (see
:mod:`repro.virt.manager`): it owns the indices it created, and the
manager tries it last, after the physical ladder and before backoff.
With demand paging also on (``repro.paging``, ``docs/paging.md``), the
pager's full-speed virtual ranks go first and a 20x-derated emulated
rank is handed out only once the pager's virtual capacity is exhausted.
"""

from __future__ import annotations

from typing import Dict

from repro.config import RankConfig
from repro.driver.driver import PerfModeMapping, UpmemDriver
from repro.errors import HardwareError
from repro.hardware.machine import Machine
from repro.hardware.rank import Rank
from repro.hardware.timing import CostModel

#: Emulated rank indices start here, far above any physical rank.
EMULATED_RANK_BASE = 1000

#: Default performance derating of the software DPU simulator: kernels
#: interpret the DPU ISA on the host CPU.
DEFAULT_SLOWDOWN = 20.0


def emulated_cost_model(base: CostModel,
                        slowdown: float = DEFAULT_SLOWDOWN) -> CostModel:
    """Derate a cost model to software-simulation speed.

    DPU cycles are interpreted on the host CPU (``slowdown`` x); MRAM
    "transfers" are host memcpys, so they run at guest-copy bandwidth
    with no interleaving work (there are no chips to interleave over).
    """
    if slowdown < 1.0:
        raise ValueError(f"slowdown must be >= 1, got {slowdown}")
    return base.with_overrides(
        dpu_frequency_hz=base.dpu_frequency_hz / slowdown,
        rank_xfer_bandwidth=base.guest_copy_bandwidth,
        interleave_bw_c=base.guest_copy_bandwidth * 16,
        manager_reset=1e-3,   # freeing host memory, not wiping a DIMM
    )


class EmulatedRankPool:
    """Creates and tracks software ranks on one machine (§7's rank
    oversubscription extension, implemented)."""

    #: Tier interface: allocation outcome label; tried after the ladder.
    OUTCOME, LAST_RESORT = "emulated", True

    def __init__(self, machine: Machine,
                 slowdown: float = DEFAULT_SLOWDOWN,
                 max_ranks: int = 8) -> None:
        self.machine = machine
        self.slowdown = slowdown
        self.max_ranks = max_ranks
        self._ranks: Dict[int, Rank] = {}
        self._next_index = EMULATED_RANK_BASE

    @property
    def active(self) -> int:
        return len(self._ranks)

    def has_capacity(self) -> bool:
        return len(self._ranks) < self.max_ranks

    def owns(self, rank_index: int) -> bool:
        return rank_index in self._ranks

    def create(self, requester: str = "", weight: float = 1.0) -> int:
        """Spin up a new emulated rank; raises when the pool is full.

        It mirrors the machine's physical rank geometry, so a spilled
        tenant sees the same DPU population it would have gotten on
        hardware.  Nothing is shared, so ``weight`` steers nothing.
        """
        if not self.has_capacity():
            raise HardwareError(
                f"emulated-rank pool exhausted ({self.max_ranks} active); "
                "raise max_ranks or wait for releases"
            )
        index = self._next_index
        self._next_index += 1
        self._ranks[index] = Rank(
            RankConfig(index, max(r.nr_dpus for r in self.machine.ranks)),
            emulated_cost_model(self.machine.cost, self.slowdown),
            metrics=self.machine.metrics, spans=self.machine.spans)
        return index

    def resolve(self, rank_index: int) -> Rank:
        return self._ranks[rank_index]

    resident_rank = resolve     #: an emulated rank is always resident

    def mmap(self, driver: UpmemDriver, rank_index: int,
             owner: str) -> PerfModeMapping:
        return PerfModeMapping(driver, driver.claim_rank(rank_index, owner),
                               owner)

    def release(self, rank_index: int) -> None:
        """Tear down a released emulated rank (its memory just vanishes)."""
        self._ranks.pop(rank_index, None)
