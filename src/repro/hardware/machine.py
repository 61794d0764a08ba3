"""The host machine: CPUs, DRAM and UPMEM DIMMs (Fig. 1).

A :class:`Machine` is the root object of a simulation: it owns the
simulated clock, the cost model, and the physical ranks that the native
driver or the virtualization stack operate on.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import MachineConfig, paper_testbed
from repro.errors import HardwareError
from repro.hardware.clock import SimClock
from repro.hardware.rank import Rank
from repro.hardware.timing import CostModel, DEFAULT_COST_MODEL
from repro.observability import MetricsRegistry
from repro.observability.spans import SpanRecorder


class Machine:
    """A host machine equipped with UPMEM PIM modules (Fig. 1 testbed).

    Owns the machine-wide singletons every layer shares: the simulated
    clock, the cost model, the metrics registry, and the span recorder
    (``docs/observability.md``).
    """

    def __init__(self, config: Optional[MachineConfig] = None,
                 cost: CostModel = DEFAULT_COST_MODEL) -> None:
        self.config = config or paper_testbed()
        self.cost = cost
        self.clock = SimClock()
        #: Machine-wide metric store; ranks, the manager, vUPMEM devices
        #: and sessions all register their instruments here.
        self.metrics = MetricsRegistry()
        #: Machine-wide trace context.
        self.spans = SpanRecorder(self.clock, registry=self.metrics)
        self.ranks: List[Rank] = [Rank(rc, cost, metrics=self.metrics,
                                       spans=self.spans)
                                  for rc in self.config.ranks]

    @property
    def nr_ranks(self) -> int:
        return len(self.ranks)

    @property
    def total_dpus(self) -> int:
        return sum(rank.nr_dpus for rank in self.ranks)

    def rank(self, index: int) -> Rank:
        if not 0 <= index < len(self.ranks):
            raise HardwareError(
                f"machine has {len(self.ranks)} ranks, asked for {index}"
            )
        return self.ranks[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Machine({self.nr_ranks} ranks, {self.total_dpus} DPUs, "
                f"{self.config.host_cores} cores)")
