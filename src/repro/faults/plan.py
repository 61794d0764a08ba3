"""Fault plans: seeded, typed schedules of failure events.

A :class:`FaultPlan` is pure data — *what* goes wrong, *where* and
*when* on the shared :class:`~repro.hardware.clock.SimClock` timeline.
Executing the plan is the :class:`~repro.faults.injector.FaultInjector`'s
job, so the same plan can be replayed against different stacks (native,
VM) and the same seed always reproduces the identical schedule —
the determinism contract ``benchmarks/bench_chaos_recovery.py`` asserts.

Fault model (one event kind per observed UPMEM failure class; see
Gómez-Luna et al.'s characterization in PAPERS.md for the hardware ones):

========================  =======================================
``dpu_mram_bitflip``      silent single-bit MRAM corruption
``dpu_kernel_fault``      a DPU kernel crashes at launch
``rank_offline``          a whole rank stops answering
``rank_degraded``         a rank slows down (thermal/refresh)
``transport_corruption``  a virtio-pim message fails its checksum
``transport_stall``       a message is delayed in the queue
``backend_hang``          a VMM worker stops until the watchdog fires
========================  =======================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FaultInjectionError


class FaultKind(enum.Enum):
    """Typed fault classes the injector knows how to fire."""

    DPU_MRAM_BITFLIP = "dpu_mram_bitflip"
    DPU_KERNEL_FAULT = "dpu_kernel_fault"
    RANK_OFFLINE = "rank_offline"
    RANK_DEGRADED = "rank_degraded"
    TRANSPORT_CORRUPTION = "transport_corruption"
    TRANSPORT_STALL = "transport_stall"
    BACKEND_HANG = "backend_hang"


#: Which layer seam each fault kind fires at (also the valid target
#: prefix: ``rank:3``, ``transport:vm-0.vupmem0``, ``backend:*``).
FAULT_SCOPES: Dict[FaultKind, str] = {
    FaultKind.DPU_MRAM_BITFLIP: "rank",
    FaultKind.DPU_KERNEL_FAULT: "rank",
    FaultKind.RANK_OFFLINE: "rank",
    FaultKind.RANK_DEGRADED: "rank",
    FaultKind.TRANSPORT_CORRUPTION: "transport",
    FaultKind.TRANSPORT_STALL: "transport",
    FaultKind.BACKEND_HANG: "backend",
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` selects the instance at the event's layer seam:
    ``"<scope>:<instance>"`` or ``"<scope>:*"`` for "the first matching
    instance to pass the hook after ``at``".  ``params`` is a sorted
    key/value tuple (kept hashable) of kind-specific knobs — e.g.
    ``dpu``/``offset``/``bit`` for a bit flip, ``factor`` for
    degradation, ``stall_s`` for a stall.
    """

    at: float
    kind: FaultKind
    target: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.at < 0:
            raise FaultInjectionError(
                f"fault event scheduled at negative time {self.at}")
        scope = FAULT_SCOPES[self.kind]
        prefix, _, instance = self.target.partition(":")
        if prefix != scope or not instance:
            raise FaultInjectionError(
                f"{self.kind.value} fires at the {scope!r} seam; target "
                f"must look like '{scope}:<instance>', got {self.target!r}")

    def param(self, key: str, default=None):
        for name, value in self.params:
            if name == key:
                return value
        return default

    @property
    def instance(self) -> str:
        return self.target.partition(":")[2]

    def matches(self, scope: str, instance: str) -> bool:
        prefix, _, wanted = self.target.partition(":")
        return prefix == scope and wanted in ("*", instance)

    def describe(self) -> str:
        """Canonical one-line form (input of the timeline digest)."""
        params = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.at:.9f} {self.kind.value} {self.target} [{params}]"


def _as_params(params: Optional[dict]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted((params or {}).items()))


class FaultPlan:
    """An ordered, seeded schedule of :class:`FaultEvent`\\ s."""

    def __init__(self, seed: int = 0,
                 events: Iterable[FaultEvent] = ()) -> None:
        self.seed = seed
        self.events: List[FaultEvent] = sorted(
            events, key=lambda e: (e.at, e.kind.value, e.target))

    def add(self, at: float, kind: FaultKind, target: str,
            **params) -> FaultEvent:
        """Schedule one event; keeps the plan sorted."""
        event = FaultEvent(at=at, kind=kind, target=target,
                           params=_as_params(params))
        self.events.append(event)
        self.events.sort(key=lambda e: (e.at, e.kind.value, e.target))
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> str:
        return "\n".join(event.describe() for event in self.events)

    @classmethod
    def generate(cls, seed: int, horizon_s: float, rate_per_s: float,
                 kinds: Sequence[FaultKind] = tuple(FaultKind),
                 limits: Optional[Dict[FaultKind, int]] = None,
                 ) -> "FaultPlan":
        """Draw a random plan from one seeded generator.

        The number of events is Poisson(``rate_per_s * horizon_s``);
        times are uniform over the horizon, kinds uniform over
        ``kinds``, targets are wildcards (first matching instance).
        ``limits`` caps how many events of a kind survive — e.g.
        ``{RANK_OFFLINE: 1}`` so a chaos run cannot take every rank
        down and make the scenario unwinnable.
        """
        if horizon_s <= 0 or rate_per_s < 0:
            raise FaultInjectionError(
                f"bad plan horizon/rate: {horizon_s}/{rate_per_s}")
        rng = np.random.default_rng(seed)
        count = int(rng.poisson(rate_per_s * horizon_s))
        times = np.sort(rng.uniform(0.0, horizon_s, size=count))
        kind_picks = rng.integers(0, len(kinds), size=count)
        remaining = dict(limits or {})
        events: List[FaultEvent] = []
        for at, pick in zip(times, kind_picks):
            kind = kinds[int(pick)]
            if kind in remaining:
                if remaining[kind] <= 0:
                    continue
                remaining[kind] -= 1
            events.append(FaultEvent(
                at=float(at), kind=kind,
                target=f"{FAULT_SCOPES[kind]}:*"))
        return cls(seed=seed, events=events)
