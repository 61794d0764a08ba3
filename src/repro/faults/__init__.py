"""Deterministic fault injection and recovery (``repro.faults``).

The subsystem has four parts:

- :mod:`repro.faults.plan` — *what* fails and *when*: typed, seeded
  :class:`FaultPlan` schedules on the shared simulated clock;
- :mod:`repro.faults.injector` — *how* it fails: the
  :class:`FaultInjector` arms hook closures at the stack's layer seams
  (rank, virtio transport, backend, fleet host) and fires due events;
- :mod:`repro.faults.retry` — the transport's bounded retry and costs;
- :mod:`repro.faults.recovery` — *what happens next*: session reruns,
  checkpoint-based device failover, and the bookkeeping that proves
  recovery happened (``repro_fault_*`` metrics).

Determinism contract: the same plan seed against the same workload
produces a byte-identical fired-fault timeline
(:meth:`FaultInjector.timeline_digest`); with no plan armed, the stack
is bit-for-bit the no-faults baseline.
"""

from repro.faults.injector import FaultInjector, FiredFault
from repro.faults.plan import FAULT_SCOPES, FaultEvent, FaultKind, FaultPlan
from repro.faults.recovery import (
    RECOVERABLE,
    CheckpointStore,
    RecoveryReport,
    failover_device,
    fault_kind_of,
    run_with_recovery,
)

__all__ = [
    "FAULT_SCOPES",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FiredFault",
    "RECOVERABLE",
    "CheckpointStore",
    "RecoveryReport",
    "failover_device",
    "fault_kind_of",
    "run_with_recovery",
]
