"""The shared host bus and the Firecracker event loop across QoS flows.

Co-resident VMs never overlap in *simulated* time — the fleet replays
sessions serially on one clock — so cross-VM contention cannot emerge
from interleaved events.  It is modeled declaratively instead: each VM
registers a flow with a demand profile (declared up front, or measured
as a decaying window of its actual bus seconds), and every operation
asks the arbiter what the *other* flows' demand costs it.  Two modes:

- FIFO (QoS registered but not enforced): the Firecracker event loop
  picks requests in arrival order, so a small request behind a bulk
  neighbor waits out the neighbor's in-flight operation (head-of-line
  blocking), and the bus is a free-for-all while it transfers.
- WFQ (QoS enforced): virtual-finish-time scheduling with a service
  quantum caps the head-of-line wait at one quantum per busy neighbor,
  and bus bandwidth divides by flow weight.

A host has one :class:`BandwidthArbiter` and one
:class:`VirtioEventLoop`, built by :func:`repro.qos.flow.attach` when its
first QoS VM boots; a host that never boots one has neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hardware.timing import CostModel


@dataclass
class BusFlow:
    """One VM's registered demand on the shared host bus."""

    flow_id: str
    weight: float = 1.0
    #: Declared offered load in [0, 1]; ``None`` = derive from the
    #: measured, exponentially-decayed bus-seconds window.
    declared_demand: Optional[float] = None
    #: Declared bus seconds of one typical operation (the head-of-line
    #: blocking scale); ``None`` = measured running mean.
    declared_mean_op_s: Optional[float] = None
    busy_s: float = 0.0
    last_update: float = 0.0
    measured_mean_op_s: float = 0.0
    #: Virtual finish time (WFQ bookkeeping, maintained by the event loop).
    virtual_finish: float = 0.0


class BandwidthArbiter:
    """The shared host bus as a weighted-fair resource across VMs.

    Purely computational (no metrics, no clock writes): callers pass the
    current simulated time in and fold the returned durations into their
    own modeled op times, preserving the single-writer clock rule.
    """

    #: EMA factor for the measured per-op bus-seconds mean.
    MEAN_ALPHA = 0.2
    #: Decay window for a flow's *measured* bus demand: activity older
    #: than a few windows no longer counts as contention.  Sized to a few
    #: noisy-neighbor bulk operations.
    ACTIVITY_WINDOW = 0.25
    #: Weighted-fair-queueing service quantum in the Firecracker event
    #: loop: with QoS enforced, a small request waits at most one quantum
    #: of each busy neighbor instead of that neighbor's whole in-flight
    #: operation (the FIFO head-of-line pathology).
    WFQ_QUANTUM = 0.5e-3
    #: Flows whose demand estimate falls below this are treated as idle.
    MIN_ACTIVE_DEMAND = 0.01

    def __init__(self, cost: CostModel) -> None:
        self.cost = cost
        self._flows: Dict[str, BusFlow] = {}

    # -- registration --------------------------------------------------------

    def register(self, flow_id: str, weight: float = 1.0,
                 demand: Optional[float] = None,
                 mean_op_s: Optional[float] = None) -> BusFlow:
        if flow_id in self._flows:
            raise ValueError(f"bus flow {flow_id!r} is already registered")
        if weight <= 0:
            raise ValueError(f"flow weight must be positive, got {weight}")
        flow = BusFlow(flow_id=flow_id, weight=weight,
                       declared_demand=demand, declared_mean_op_s=mean_op_s)
        self._flows[flow_id] = flow
        return flow

    def unregister(self, flow_id: str) -> None:
        self._flows.pop(flow_id, None)

    def flow(self, flow_id: str) -> BusFlow:
        return self._flows[flow_id]

    @property
    def flows(self) -> List[BusFlow]:
        return list(self._flows.values())

    def set_weight(self, flow_id: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError(f"flow weight must be positive, got {weight}")
        self._flows[flow_id].weight = weight

    # -- demand accounting ---------------------------------------------------

    def _decay(self, flow: BusFlow, now: float) -> None:
        dt = now - flow.last_update
        if dt > 0:
            flow.busy_s *= math.exp(-dt / self.ACTIVITY_WINDOW)
            flow.last_update = now

    def record(self, flow_id: str, bus_seconds: float, now: float) -> None:
        """Account one operation's bus usage against its flow's window."""
        flow = self._flows[flow_id]
        self._decay(flow, now)
        flow.busy_s += max(0.0, bus_seconds)
        if bus_seconds > 0:
            if flow.measured_mean_op_s <= 0:
                flow.measured_mean_op_s = bus_seconds
            else:
                flow.measured_mean_op_s += self.MEAN_ALPHA * (
                    bus_seconds - flow.measured_mean_op_s)

    def demand(self, flow: BusFlow, now: float) -> float:
        """The flow's offered load in [0, 1] (declared beats measured)."""
        if flow.declared_demand is not None:
            return min(1.0, max(0.0, flow.declared_demand))
        self._decay(flow, now)
        return min(1.0, flow.busy_s / self.ACTIVITY_WINDOW)

    def mean_op_s(self, flow: BusFlow) -> float:
        if flow.declared_mean_op_s is not None:
            return max(0.0, flow.declared_mean_op_s)
        return flow.measured_mean_op_s

    def _active_neighbors(self, flow_id: str, now: float,
                          ) -> List[Tuple[BusFlow, float]]:
        out = []
        for other in self._flows.values():
            if other.flow_id == flow_id:
                continue
            load = self.demand(other, now)
            if load >= self.MIN_ACTIVE_DEMAND:
                out.append((other, load))
        return out

    # -- the two cost components ---------------------------------------------

    def _residual(self, flow: BusFlow, now: float) -> float:
        """Remaining bus time of the neighbor's in-flight operation.

        Phase-deterministic: the fraction already served is derived from
        where ``now`` falls inside the op period, so repeated requests
        sample the whole [0, mean_op) range — a latency *distribution*,
        not a constant — while staying exactly reproducible.
        """
        period = self.mean_op_s(flow)
        if period <= 0:
            return 0.0
        phase = (now / period) % 1.0
        return period * (1.0 - phase)

    def queue_delay(self, flow_id: str, now: float, fair: bool) -> float:
        """Expected wait before the event loop serves this flow's request."""
        me = self._flows[flow_id]
        delay = 0.0
        for other, load in self._active_neighbors(me.flow_id, now):
            residual = self._residual(other, now)
            if fair:
                residual = min(residual, self.WFQ_QUANTUM)
            delay += load * residual
        return delay

    def bus_share(self, flow_id: str, bus_seconds: float, now: float,
                  fair: bool) -> float:
        """Service stretch of ``bus_seconds`` from sharing the bus."""
        if bus_seconds <= 0:
            return 0.0
        me = self._flows[flow_id]
        neighbors = self._active_neighbors(me.flow_id, now)
        if not neighbors:
            return 0.0
        return (bus_seconds * self.cost.parallel_contention
                * self._steal(me, neighbors, fair))

    def contention_factor(self, flow_id: str, base: float, now: float,
                          fair: bool) -> float:
        """Intra-VM parallel-rank contention, raised by neighbor demand.

        Replaces the fixed ``parallel_contention`` constant on
        virtualized transfer paths: a VM combining its own parallel rank
        operations contends harder when co-resident flows occupy the bus.
        """
        me = self._flows[flow_id]
        neighbors = self._active_neighbors(me.flow_id, now)
        if not neighbors:
            return base
        return min(1.0, base + (1.0 - base) * self._steal(me, neighbors, fair))

    @staticmethod
    def _steal(me: BusFlow, neighbors: List[Tuple[BusFlow, float]],
               fair: bool) -> float:
        """The share of the bus busy ``neighbors`` take from ``me``:
        weight-proportional under WFQ, their summed load under FIFO."""
        if fair:
            pressure = sum(load * other.weight for other, load in neighbors)
            return pressure / (me.weight + pressure)
        return min(1.0, sum(load for _, load in neighbors))


class VirtioEventLoop:
    """Cross-VM request scheduling in the (shared) Firecracker event loop.

    Originally the event loop serves virtio kicks in FIFO arrival order,
    so one tenant's bulk transfer head-of-line-blocks every co-resident
    small request.  With QoS enforced, the next request is picked by
    **virtual finish time**: each flow's virtual clock advances by
    ``service / weight`` per dispatch, and the wait a request pays is
    capped at one service quantum per busy neighbor (the arbiter's WFQ
    mode).  The loop keeps the per-flow virtual-time bookkeeping and
    dispatch counters; the delay arithmetic lives in the arbiter so both
    views (event loop and bus) share one demand model.
    """

    def __init__(self, arbiter: BandwidthArbiter) -> None:
        self.arbiter = arbiter
        self.virtual_now = 0.0
        self.dispatches = {"fifo": 0, "wfq": 0}

    def dispatch(self, flow_id: str, now: float,
                 fair: bool) -> "tuple[float, str]":
        """Pick-order cost of serving ``flow_id``'s next request at
        ``now``; returns ``(queue_delay_s, mode)``."""
        delay = self.arbiter.queue_delay(flow_id, now, fair)
        flow = self.arbiter.flow(flow_id)
        service = self.arbiter.mean_op_s(flow)
        start = max(flow.virtual_finish, self.virtual_now)
        flow.virtual_finish = start + service / flow.weight
        self.virtual_now = max(self.virtual_now, start)
        mode = "wfq" if fair else "fifo"
        self.dispatches[mode] += 1
        return delay, mode

