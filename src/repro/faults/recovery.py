"""Recovery actions: what the stack does *after* a fault fires.

Three mechanisms, stacked from cheap to expensive (transient transport
retries live in the frontend itself — see
:meth:`repro.virt.frontend.VUpmemFrontend._roundtrip`):

- :func:`run_with_recovery` — re-run a whole session.  Applications in
  this repo are deterministic functions of their parameters, so a rerun
  is idempotent: the failed attempt's devices were released during
  exception unwind, the manager's FAIL state keeps the dead rank out of
  the new allocation, and the replacement rank produces the same answer.
- :class:`CheckpointStore` + :func:`failover_device` — for stateful
  residency, snapshot a device's rank at launch boundaries (§7
  checkpoint/restore) and replay the last snapshot onto a replacement
  rank instead of recomputing.
- Fleet re-placement after a host crash lives in
  :meth:`repro.cluster.scheduler.Scheduler.evict_host`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    DeviceNotLinkedError,
    DpuFaultError,
    HardwareError,
    ManagerError,
    MmapError,
    RankOfflineError,
    TransientFaultError,
)
from repro.observability.instruments import FAULT, bind
from repro.virt.migration import RankCheckpoint, checkpoint_rank, restore_rank

#: Exceptions a session rerun can plausibly clear: hardware failures
#: (the rank is FAIL-listed and the rerun gets a replacement), exhausted
#: transport retries, and devices unlinked by a previous unwind.
RECOVERABLE = (HardwareError, TransientFaultError, DeviceNotLinkedError,
               MmapError)


def fault_kind_of(exc: BaseException) -> str:
    """Map an exception to the fault-kind label used by the metrics."""
    if isinstance(exc, TransientFaultError):
        return exc.kind
    if isinstance(exc, RankOfflineError):
        return "rank_offline"
    if isinstance(exc, DpuFaultError):
        return "dpu_kernel_fault"
    return "unknown"


@dataclass
class RecoveryReport:
    """Outcome of :func:`run_with_recovery`."""

    report: object                     #: the successful ExecutionReport
    attempts: int                      #: total session runs (>= 1)
    faults: List[str] = field(default_factory=list)
    recovered: bool = False            #: True when attempts > 1

    @property
    def verified(self) -> bool:
        return bool(getattr(self.report, "verified", False))


def _pin_retry_trace(spans) -> None:
    """Make the rerun's root span share the failed attempt's trace_id,
    link it back with ``retry_of``, and force retention (faulted traces
    are always kept, whatever the sampling decision)."""
    if spans is None or spans.last_root is None:
        return
    last = spans.last_root
    spans.next_trace(trace_id=last.trace_id, retry_of=last.span_id,
                     faulted=True)


def run_with_recovery(session, app, max_attempts: int = 3,
                      retry_on_corruption: bool = True) -> RecoveryReport:
    """Run ``app`` on ``session``, re-running on recoverable faults.

    Each failed attempt's devices are released by the SDK's context-
    manager unwind (``DpuSet.__exit__``), so the rerun allocates fresh
    ranks through the manager — which skips FAIL-listed ones.  Silent
    MRAM corruption cannot raise; it surfaces as a failed ``verify`` and
    is retried too (``retry_on_corruption``) since the bit flip is the
    only corruption source in this simulator.

    Raises the last error (after accounting the lost session) when the
    attempt budget runs out.
    """
    clock = session.transport.clock
    obs = bind(session.transport.metrics, FAULT)
    spans = getattr(session.transport, "spans", None)
    faults: List[str] = []
    first_failure_at: Optional[float] = None
    for attempt in range(1, max_attempts + 1):
        try:
            report = session.run(app)
        except RECOVERABLE as exc:
            kind = fault_kind_of(exc)
            faults.append(kind)
            obs.detected[kind, "session"].inc()
            if spans is not None:
                spans.mark_last_faulted(kind)
            if first_failure_at is None:
                first_failure_at = clock.now
            if attempt >= max_attempts:
                obs.sessions_lost.inc()
                raise
            obs.retries["session"].inc()
            _pin_retry_trace(spans)
            continue
        if not report.verified and retry_on_corruption:
            kind = "dpu_mram_bitflip"
            faults.append(kind)
            obs.detected[kind, "session"].inc()
            if spans is not None:
                spans.mark_last_faulted(kind)
            if first_failure_at is None:
                first_failure_at = clock.now
            if attempt >= max_attempts:
                obs.sessions_lost.inc()
                return RecoveryReport(report=report, attempts=attempt,
                                      faults=faults, recovered=False)
            obs.retries["session"].inc()
            _pin_retry_trace(spans)
            continue
        if faults:
            obs.recovered[faults[-1], "rerun"].inc()
            obs.recovery_seconds[faults[-1]].observe(
                clock.now - first_failure_at)
        return RecoveryReport(report=report, attempts=attempt,
                              faults=faults, recovered=bool(faults))
    raise AssertionError("unreachable")  # pragma: no cover


class CheckpointStore:
    """Latest per-device rank snapshots (§7: launch boundaries are the
    only consistent checkpoint points)."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self._by_device: Dict[str, RankCheckpoint] = {}

    def save(self, device) -> float:
        """Checkpoint ``device``'s rank; returns the copy duration."""
        mapping = device.backend.mapping
        if mapping is None:
            raise ManagerError(
                f"cannot checkpoint {device.device_id}: not linked")
        checkpoint, duration = checkpoint_rank(mapping.rank)
        self.clock.advance(duration)
        self._by_device[device.device_id] = checkpoint
        return duration

    def get(self, device_id: str) -> Optional[RankCheckpoint]:
        return self._by_device.get(device_id)

    def discard(self, device_id: str) -> None:
        self._by_device.pop(device_id, None)

    def __len__(self) -> int:
        return len(self._by_device)


def failover_device(device, manager,
                    store: Optional[CheckpointStore] = None,
                    ) -> Tuple[int, str]:
    """Re-home a device whose backing rank failed.

    FAIL-lists the dead rank, unlinks (sysfs-only — safe on dead
    hardware), allocates a replacement, and replays the device's last
    checkpoint onto it when ``store`` has one.  Returns the replacement
    rank index and the action taken (``"restore"`` or ``"relink"``).
    The mark-failed-then-unlink order matters: the manager's observer
    ignores the unlink's "free" status write for non-ALLO ranks, so the
    dead rank cannot re-enter the allocatable pool.
    """
    mapping = device.backend.mapping
    if mapping is None:
        raise ManagerError(f"device {device.device_id} is not linked")
    manager.mark_failed(mapping.rank.index)
    device.backend.unlink()
    replacement = manager.allocate(device.device_id)
    device.backend.link_rank(replacement)
    # Every transfer-cache digest describes the *dead* rank's contents;
    # the replacement starts blank (or at the checkpoint), so both sides
    # must forget before the next suppressible write.
    device.frontend.invalidate("failover")
    checkpoint = store.get(device.device_id) if store is not None else None
    if checkpoint is None:
        return replacement, "relink"
    target = manager.driver.resolve_rank(replacement)
    manager.clock.advance(restore_rank(target, checkpoint))
    return replacement, "restore"
