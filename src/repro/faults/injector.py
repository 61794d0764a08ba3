"""The fault injector: executes a :class:`FaultPlan` against a live stack.

Arming installs *hook closures* at each layer seam (``Rank.fault_hook``,
``VUpmemBackend.fault_hook``, and the frontend's through the
:class:`~repro.faults.retry.TransportRetry` it installs).  Unarmed
stacks never see the injector — each seam checks ``fault_hook is not
None``, so a run without a plan is byte-identical to a build without
this package.
A hook that raises marks the active trace itself.

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
import weakref
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import (
    BackendHungError,
    DpuFaultError,
    FaultInjectionError,
    TransportCorruptionError,
)
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.retry import (BACKEND_WATCHDOG_TIMEOUT,
                                TRANSPORT_CORRUPTION_DETECT, TransportRetry)
from repro.hardware.rank import RankHealth
from repro.observability.catalog import FAULT, bind


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

    One injector serves one machine's clock; arm it on the machine
    (:meth:`arm_machine`), on each VM's devices (:meth:`arm_vm`), or
    both, as the plan's targets require.
    """

    def __init__(self, plan: FaultPlan, clock, registry=None) -> None:
        self.plan = plan
        self.clock = clock
        self.obs = bind(registry, FAULT) if registry is not None else None
        #: Events not yet fired, in schedule order.
        self.pending: List[FaultEvent] = list(plan.events)
        #: Events fired so far, in firing order, fully resolved.
        self.fired: List[FiredFault] = []
        # Parameter draws (which DPU, which byte, which bit) come from a
        # seeded stream separate from the plan's so adding a knob to one
        # never perturbs the other.
        self._rng = np.random.default_rng((plan.seed << 1) ^ 0x5EED)

    # -- arming ------------------------------------------------------------

    def arm_machine(self, machine, manager=None) -> None:
        """Install rank-seam hooks on every rank of ``machine``.

        ``manager`` (when given) learns about injected rank failures via
        :meth:`~repro.virt.manager.Manager.mark_failed`.
        """
        for rank in machine.ranks:
            rank.fault_hook = self._make_rank_hook(manager)

    def arm_vm(self, vm) -> None:
        """Install transport/backend hooks on every vUPMEM device."""
        for device in vm.devices:
            device.frontend.fault_hook = TransportRetry(
                vm.machine.metrics,
                self._make_transport_hook(device.device_id))
            device.backend.fault_hook = self._make_backend_hook(
                device.device_id)

    # -- event selection ---------------------------------------------------

    def _pop_due(self, scope: str, instance: str, want=None,
                 one: bool = False) -> List[FaultEvent]:
        """Remove and return the events due at ``instance``; ``one``: at
        most the first — for seams whose firing raises, so later events
        stay pending for the caller's next attempt, not dropped."""
        now = self.clock.now
        due: List[FaultEvent] = []
        keep: List[FaultEvent] = []
        for event in self.pending:
            if ((not one or not due) and event.at <= now
                    and event.matches(scope, instance)
                    and (want is None or want(event))):
                due.append(event)
            else:
                keep.append(event)
        if due:
            self.pending = keep
        return due

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
        # The manager sits above the ranks that hold the hook: weakly.
        mark_failed = (weakref.WeakMethod(manager.mark_failed)
                       if manager is not None else lambda: None)

        def hook(rank, op: str) -> None:
            """Called by ``Rank._guard`` before every guarded rank op."""
            instance = str(rank.index)
            for event in self._pop_due(
                    "rank", instance,
                    lambda e: e.kind is not FaultKind.DPU_KERNEL_FAULT):
                self._fire_rank_event(event, rank, mark_failed)
            # A kernel fault only makes sense while booting a kernel, and
            # firing one raises — so consume exactly one per launch;
            # queued repeats crash the *next* launches (or reruns).
            if op == "launch":
                for event in self._pop_due(
                        "rank", instance,
                        lambda e: e.kind is FaultKind.DPU_KERNEL_FAULT,
                        one=True):
                    self._fire_rank_event(event, rank, mark_failed)

        return hook

    def _fire_rank_event(self, event: FaultEvent, rank, mark_failed) -> None:
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
            # Flag the active trace in-flight (faulted traces bypass
            # sampling); kernel faults fire only at a launch.
            rank.spans.mark_fault("rank_launch_fault")
            raise DpuFaultError(
                f"injected kernel fault on rank {rank.index} DPU {dpu_idx} "
                f"at t={self.clock.now:.6f}s")
        elif event.kind is FaultKind.RANK_OFFLINE:
            rank.health = RankHealth.OFFLINE
            self._record(event, target)
            self._detected(event.kind, "hardware")
            mark = mark_failed()
            if mark is not None:
                mark(rank.index)
            # Rank._guard raises RankOfflineError right after this hook.
        elif event.kind is FaultKind.RANK_DEGRADED:
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
            for event in self._pop_due(
                    "transport", device_id,
                    lambda e: e.kind is FaultKind.TRANSPORT_CORRUPTION,
                    one=True):
                self._record(event, target)
                # Any concurrent stall rides the corruption penalty so the
                # retry path accounts for both in one place.
                raise TransportCorruptionError(
                    f"virtio-pim message to {device_id} failed its "
                    f"integrity check at t={self.clock.now:.6f}s",
                    penalty_s=TRANSPORT_CORRUPTION_DETECT + stall)
            return stall

        return hook

    # -- backend seam ------------------------------------------------------

    def _make_backend_hook(self, device_id: str):
        def hook(backend) -> None:
            # One hang per attempt, for the same reason as corruption:
            # popping everything at once would silently drop the events
            # the raise below skips.
            for event in self._pop_due("backend", device_id, one=True):
                self._record(event, f"backend:{device_id}")
                backend.spans.mark_fault("backend_fault")
                raise BackendHungError(
                    f"backend worker for {device_id} hung at "
                    f"t={self.clock.now:.6f}s; watchdog fired after "
                    f"{BACKEND_WATCHDOG_TIMEOUT * 1e3:.1f}ms",
                    penalty_s=BACKEND_WATCHDOG_TIMEOUT)

        return hook

    # -- replay contract ---------------------------------------------------

    def timeline(self) -> str:
        """Canonical fired-event transcript (one line per fault)."""
        return "\n".join(fault.describe() for fault in self.fired)

    def timeline_digest(self) -> str:
        """sha256 over the fired timeline — equal digests mean the run
        experienced the exact same faults at the exact same times."""
        return hashlib.sha256(self.timeline().encode()).hexdigest()
