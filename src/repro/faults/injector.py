"""The fault injector: executes a :class:`FaultPlan` against a live stack.

Arming installs *hook closures* on the instances at each layer seam
(``Rank.fault_hook``, ``VUpmemFrontend.fault_hook``,
``VUpmemBackend.fault_hook``); hosts are polled via
:meth:`FaultInjector.fire_host_faults` because no per-operation hook
exists at fleet scope.  Unarmed stacks never see the injector — the
seams check ``fault_hook is not None`` and skip, so a run without a
plan is byte-identical to a build without this package.

Firing is *pull-based*: a hook pops every pending event whose ``at`` is
<= ``clock.now`` and whose target matches the calling instance.  Hooks
never advance the clock; transient faults carry their modeled detection
latency as ``penalty_s`` (or a returned stall duration) which the caller
folds into the durations it already returns — this keeps simulated time
single-writer and avoids double-counting.

Every fired event is recorded with its *resolved* target and parameters;
:meth:`FaultInjector.timeline_digest` hashes those lines, which is what
the determinism benchmark compares across runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import (
    BackendHungError,
    DpuFaultError,
    FaultInjectionError,
    TransportCorruptionError,
)
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.hardware.timing import DEFAULT_COST_MODEL, CostModel
from repro.observability.instruments import FAULT, bind


@dataclass(frozen=True)
class FiredFault:
    """One fault that actually fired, with wildcard/params resolved."""

    scheduled_at: float
    fired_at: float
    kind: FaultKind
    target: str
    params: Tuple[Tuple[str, object], ...] = ()

    def describe(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in self.params)
        return (f"{self.scheduled_at:.9f}->{self.fired_at:.9f} "
                f"{self.kind.value} {self.target} [{params}]")


class FaultInjector:
    """Arms a plan onto a stack and fires events as simulated time passes.

    One injector serves one clock domain; arm it on a machine
    (:meth:`arm_machine`), on each VM's devices (:meth:`arm_vm`), or on
    a fleet (:meth:`arm_cluster`) — any combination, as the plan's
    targets require.
    """

    def __init__(self, plan: FaultPlan, clock,
                 registry=None, cost: Optional[CostModel] = None) -> None:
        self.plan = plan
        self.clock = clock
        self.cost = cost or DEFAULT_COST_MODEL
        self.obs = bind(registry, FAULT) if registry is not None else None
        #: Events not yet fired, in schedule order.
        self.pending: List[FaultEvent] = list(plan.events)
        #: Events fired so far, in firing order, fully resolved.
        self.fired: List[FiredFault] = []
        # Parameter draws (which DPU, which byte, which bit) come from a
        # seeded stream separate from the plan's so adding a knob to one
        # never perturbs the other.
        self._rng = np.random.default_rng((plan.seed << 1) ^ 0x5EED)
        self.manager = None
        self.scheduler = None
        self.hosts: Dict[str, object] = {}
        self._armed: List[object] = []

    # -- arming ------------------------------------------------------------

    def arm_machine(self, machine, manager=None) -> None:
        """Install rank-seam hooks on every rank of ``machine``.

        ``manager`` (when given) learns about injected rank failures via
        :meth:`~repro.virt.manager.Manager.mark_failed`; each machine's
        hooks capture *its own* manager, so fleet arming marks the right
        host's rank table even though rank indices repeat across hosts.
        """
        if manager is not None and self.manager is None:
            self.manager = manager
        for rank in machine.ranks:
            rank.fault_hook = self._make_rank_hook(manager)
            self._armed.append(rank)

    def arm_vm(self, vm) -> None:
        """Install transport/backend hooks on every vUPMEM device."""
        for device in vm.devices:
            device.frontend.fault_hook = self._make_transport_hook(
                device.device_id)
            device.backend.fault_hook = self._make_backend_hook(
                device.device_id)
            self._armed.append(device.frontend)
            self._armed.append(device.backend)

    def arm_cluster(self, cluster, scheduler=None) -> None:
        """Register fleet hosts (and their machines) for fault delivery."""
        self.scheduler = scheduler
        for host in sorted(cluster.hosts, key=lambda h: h.host_id):
            self.hosts[host.host_id] = host
            self.arm_machine(host.machine, host.manager)

    def disarm(self) -> None:
        """Remove every installed hook; pending events stay scheduled."""
        for target in self._armed:
            target.fault_hook = None
        self._armed.clear()

    # -- event selection ---------------------------------------------------

    def _pop_due(self, scope: str, instance: str,
                 want=None) -> List[FaultEvent]:
        now = self.clock.now
        due: List[FaultEvent] = []
        keep: List[FaultEvent] = []
        for event in self.pending:
            if (event.at <= now and event.matches(scope, instance)
                    and (want is None or want(event))):
                due.append(event)
            else:
                keep.append(event)
        if due:
            self.pending = keep
        return due

    def _pop_one(self, scope: str, instance: str,
                 want=None) -> List[FaultEvent]:
        """Like :meth:`_pop_due` but removes at most the first match —
        for seams whose firing raises, so later events stay pending for
        the caller's next attempt instead of being dropped mid-raise."""
        now = self.clock.now
        for i, event in enumerate(self.pending):
            if (event.at <= now and event.matches(scope, instance)
                    and (want is None or want(event))):
                del self.pending[i]
                return [event]
        return []

    def _record(self, event: FaultEvent, target: str, **resolved) -> None:
        params = dict(event.params)
        params.update(resolved)
        self.fired.append(FiredFault(
            scheduled_at=event.at, fired_at=self.clock.now,
            kind=event.kind, target=target,
            params=tuple(sorted(params.items()))))
        if self.obs is not None:
            self.obs.injected[event.kind.value].inc()

    def _detected(self, kind: FaultKind, layer: str) -> None:
        if self.obs is not None:
            self.obs.detected[kind.value, layer].inc()

    # -- rank seam ---------------------------------------------------------

    def _make_rank_hook(self, manager):
        def hook(rank, op: str) -> None:
            """Called by ``Rank._guard`` before every guarded rank op."""
            instance = str(rank.index)
            for event in self._pop_due(
                    "rank", instance,
                    lambda e: e.kind is not FaultKind.DPU_KERNEL_FAULT):
                self._fire_rank_event(event, rank, manager or self.manager)
            # A kernel fault only makes sense while booting a kernel, and
            # firing one raises — so consume exactly one per launch;
            # queued repeats crash the *next* launches (or reruns).
            if op == "launch":
                for event in self._pop_one(
                        "rank", instance,
                        lambda e: e.kind is FaultKind.DPU_KERNEL_FAULT):
                    self._fire_rank_event(event, rank,
                                          manager or self.manager)

        return hook

    def _fire_rank_event(self, event: FaultEvent, rank, manager) -> None:
        target = f"rank:{rank.index}"
        if event.kind is FaultKind.DPU_MRAM_BITFLIP:
            dpu_idx = int(event.param(
                "dpu", self._rng.integers(0, len(rank.dpus))))
            dpu = rank.dpus[dpu_idx]
            offset = int(event.param(
                "offset", self._rng.integers(0, dpu.mram.size)))
            bit = int(event.param("bit", self._rng.integers(0, 8)))
            byte = dpu.mram.read(offset, 1)[0]
            dpu.mram.write(offset, bytes([byte ^ (1 << bit)]))
            # Silent data corruption: nothing is raised; only an
            # application-level verify can notice.
            self._record(event, target, dpu=dpu_idx, offset=offset, bit=bit)
        elif event.kind is FaultKind.DPU_KERNEL_FAULT:
            dpu_idx = int(event.param(
                "dpu", self._rng.integers(0, len(rank.dpus))))
            rank.dpus[dpu_idx].fault()
            rank.obs.dpu_faults.inc()
            self._record(event, target, dpu=dpu_idx)
            self._detected(event.kind, "hardware")
            raise DpuFaultError(
                f"injected kernel fault on rank {rank.index} DPU {dpu_idx} "
                f"at t={self.clock.now:.6f}s")
        elif event.kind is FaultKind.RANK_OFFLINE:
            from repro.hardware.rank import RankHealth
            rank.health = RankHealth.OFFLINE
            self._record(event, target)
            self._detected(event.kind, "hardware")
            if manager is not None:
                manager.mark_failed(rank.index)
            # Rank._guard raises RankOfflineError right after this hook.
        elif event.kind is FaultKind.RANK_DEGRADED:
            from repro.hardware.rank import RankHealth
            factor = float(event.param("factor", 4.0))
            rank.health = RankHealth.DEGRADED
            rank.degradation = factor
            self._record(event, target, factor=factor)
        else:  # pragma: no cover - plan validation prevents this
            raise FaultInjectionError(
                f"{event.kind.value} cannot fire at the rank seam")

    # -- transport seam ----------------------------------------------------

    def _make_transport_hook(self, device_id: str):
        def hook(frontend) -> float:
            target = f"transport:{device_id}"
            stall = 0.0
            for event in self._pop_due(
                    "transport", device_id,
                    lambda e: e.kind is FaultKind.TRANSPORT_STALL):
                stall += float(event.param("stall_s", 1e-3))
                self._record(event, target, stall_s=event.param(
                    "stall_s", 1e-3))
            # Consume at most ONE corruption per attempt: a plan with N
            # due corruption events corrupts N successive (re)tries, so
            # persistent corruption defeats a bounded retry budget.
            for event in self._pop_one(
                    "transport", device_id,
                    lambda e: e.kind is FaultKind.TRANSPORT_CORRUPTION):
                self._record(event, target)
                # Any concurrent stall rides the corruption penalty so the
                # retry path accounts for both in one place.
                raise TransportCorruptionError(
                    f"virtio-pim message to {device_id} failed its "
                    f"integrity check at t={self.clock.now:.6f}s",
                    penalty_s=self.cost.transport_corruption_detect + stall)
            return stall

        return hook

    # -- backend seam ------------------------------------------------------

    def _make_backend_hook(self, device_id: str):
        def hook(backend) -> None:
            # One hang per attempt, for the same reason as corruption:
            # popping everything at once would silently drop the events
            # the raise below skips.
            for event in self._pop_one("backend", device_id):
                self._record(event, f"backend:{device_id}")
                raise BackendHungError(
                    f"backend worker for {device_id} hung at "
                    f"t={self.clock.now:.6f}s; watchdog fired after "
                    f"{self.cost.backend_watchdog_timeout * 1e3:.1f}ms",
                    penalty_s=self.cost.backend_watchdog_timeout)

        return hook

    # -- host scope (polled) ----------------------------------------------

    def fire_host_faults(self) -> List[str]:
        """Fire due host-scope events; returns the crashed host names.

        Fleet drivers call this between scenario steps — host crashes
        have no per-operation seam to hook.
        """
        crashed: List[str] = []
        for event in self._pop_due("host", "*") + [
                e for name in sorted(self.hosts)
                for e in self._pop_due("host", name)]:
            host = self._resolve_host(event)
            if host is None:
                continue
            host.crash()
            self._record(event, f"host:{host.host_id}")
            self._detected(event.kind, "cluster")
            crashed.append(host.host_id)
            if self.scheduler is not None:
                requeued = self.scheduler.evict_host(host)
                if self.obs is not None and requeued:
                    self.obs.recovered[event.kind.value, "requeue"].inc()
        return crashed

    def _resolve_host(self, event: FaultEvent):
        if event.instance != "*":
            host = self.hosts.get(event.instance)
            return host if host is not None and host.alive else None
        for name in sorted(self.hosts):
            if self.hosts[name].alive:
                return self.hosts[name]
        return None

    # -- replay contract ---------------------------------------------------

    def timeline(self) -> str:
        """Canonical fired-event transcript (one line per fault)."""
        return "\n".join(fault.describe() for fault in self.fired)

    def timeline_digest(self) -> str:
        """sha256 over the fired timeline — equal digests mean the run
        experienced the exact same faults at the exact same times."""
        return hashlib.sha256(self.timeline().encode()).hexdigest()
