"""Rank checkpoint/restore and device migration (Section 7).

The paper: "efficient pause-resume and checkpoint-restore mechanisms
could enable dynamic workload consolidation without hardware changes."
UPMEM cannot pause a *running* DPU (Section 2), but between launches a
rank's entire state is host-visible: MRAM banks, loaded programs, and
host-visible WRAM symbols.  This module implements exactly that:

- :func:`checkpoint_rank` snapshots a rank's state (sparse: only
  materialized MRAM segments are copied);
- :func:`restore_rank` replays a snapshot onto another rank;
- :func:`migrate_device` moves a linked vUPMEM device to a different
  physical (or emulated) rank — e.g. consolidating a tenant off an
  emulated rank onto a freed physical one, or defragmenting ranks so a
  whole DIMM can power down.

Migration is refused while any DPU is RUNNING — the hardware constraint
the paper states — and its cost is modeled as the two rank-level copies
of the checkpointed bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DpuFaultError, ManagerError
from repro.hardware.dpu import DpuState
from repro.hardware.memory import SEGMENT_SIZE
from repro.hardware.rank import Rank
from repro.virt.manager import Manager
from repro.virt.vm import VUpmemDevice


@dataclass
class DpuSnapshot:
    """State of one DPU between launches (§7 checkpoint/restore: launches
    are the only consistent snapshot boundary)."""

    mram_segments: Dict[int, np.ndarray] = field(default_factory=dict)
    symbols: Dict[str, bytes] = field(default_factory=dict)
    program: Optional[object] = None
    state: DpuState = DpuState.IDLE


@dataclass
class RankCheckpoint:
    """A consistent snapshot of a rank's host-visible state (§7 device
    migration between emulated and physical ranks)."""

    source_rank: int
    dpus: List[DpuSnapshot] = field(default_factory=list)

    @property
    def nr_bytes(self) -> int:
        """Bytes of MRAM actually captured (sparse)."""
        return sum(len(snap.mram_segments) * SEGMENT_SIZE
                   for snap in self.dpus)


def checkpoint_rank(rank: Rank) -> Tuple[RankCheckpoint, float]:
    """Snapshot ``rank``; returns (checkpoint, simulated duration).

    Refuses while any DPU is running: the hardware cannot pause a
    launched task (Section 2), so checkpoints are launch boundaries.
    """
    checkpoint = RankCheckpoint(source_rank=rank.index)
    for dpu in rank.dpus:
        if dpu.state is DpuState.RUNNING:
            raise DpuFaultError(
                f"cannot checkpoint rank {rank.index}: DPU "
                f"{dpu.dpu_index} is running and UPMEM tasks cannot pause"
            )
        snap = DpuSnapshot(
            mram_segments=dpu.mram.snapshot_segments(),
            symbols={name: bytes(buf) for name, buf in dpu.symbols.items()},
            program=dpu.program,
            state=dpu.state,
        )
        checkpoint.dpus.append(snap)
    duration = rank.cost.rank_transfer_time(checkpoint.nr_bytes)
    return checkpoint, duration


def restore_rank(rank: Rank, checkpoint: RankCheckpoint) -> float:
    """Replay ``checkpoint`` onto ``rank``; returns the duration.

    The target must have at least as many functional DPUs as the source
    had (defective-DPU topologies differ between ranks).
    """
    if rank.nr_dpus < len(checkpoint.dpus):
        raise ManagerError(
            f"rank {rank.index} has {rank.nr_dpus} DPUs; checkpoint needs "
            f"{len(checkpoint.dpus)}"
        )
    for dpu, snap in zip(rank.dpus, checkpoint.dpus):
        dpu.reset()
        if snap.program is not None:
            dpu.load_program(snap.program, snap.program.binary_size,
                             snap.program.symbols)
            for name, raw in snap.symbols.items():
                dpu.write_symbol(name, 0, raw)
        dpu.mram.load_segments(snap.mram_segments)
        dpu.state = snap.state if snap.state is not DpuState.RUNNING \
            else DpuState.IDLE
    return rank.cost.rank_transfer_time(checkpoint.nr_bytes)


def migrate_device(device: VUpmemDevice, manager: Manager,
                   target_rank: Optional[int] = None,
                   target_manager: Optional[Manager] = None) -> int:
    """Move a linked device's rank state to another rank.

    Allocates a target through the manager (unless ``target_rank`` is
    given), checkpoints the source, restores onto the target, relinks
    the backend, and releases the source (which the manager then resets
    as usual).  Advances the simulated clock by the copy costs.  Returns
    the new physical rank index.

    ``target_manager`` moves the device to a *different host*: the
    target rank is allocated from that manager's rank table and the
    backend is re-pointed at that host's driver — the cross-host
    consolidation path of ``repro.cluster`` (§7: checkpoint/restore
    enables dynamic workload consolidation).
    """
    mapping = device.backend.mapping
    if mapping is None:
        raise ManagerError(f"device {device.device_id} is not linked")
    source = mapping.rank
    clock = manager.clock
    dest = target_manager or manager

    checkpoint, save_time = checkpoint_rank(source)
    clock.advance(save_time)

    if target_rank is None:
        target_rank = dest.allocate(device.device_id)
        if dest is manager and target_rank == source.index:
            # The manager handed back the same rank (NANA fast path):
            # nothing to move.  Rank indices are per-host, so this
            # shortcut only applies when source and target managers are
            # the same.
            return target_rank
    target = dest.driver.resolve_rank(target_rank)

    restore_time = restore_rank(target, checkpoint)
    clock.advance(restore_time)

    # Swap the backend's mapping: release the source, claim the target
    # (re-pointing the backend at the destination host's driver first
    # when the move crosses hosts).
    device.backend.unlink()
    device.backend.driver = dest.driver
    device.backend.link_rank(target_rank)
    # Compiled transfer plans hold rank-specific pinned state; the
    # relinked backend must not replay them against the new rank.
    device.frontend.invalidate("migration")
    return target_rank


def consolidate(manager: Manager, devices: List[VUpmemDevice]) -> int:
    """Upgrade devices on last-resort (emulated) ranks to free ranks.

    Returns the number of devices migrated.  This is the paper's
    "dynamic workload consolidation" use case: oversubscribed tenants
    move back to hardware as capacity frees up.  The scan reads only
    ``rank_index``, so it does no work on the devices it leaves alone
    (a paged tenant is never faulted in).
    """
    def on_last_resort(rank_index: int) -> bool:
        tier = manager.driver.tier_of(rank_index)
        return tier is not None and tier.LAST_RESORT

    migrated = 0
    for device in devices:
        mapping = device.backend.mapping
        if mapping is None or not on_last_resort(mapping.rank_index):
            continue
        if not manager.available_ranks():
            break
        if not on_last_resort(migrate_device(device, manager)):
            migrated += 1
    return migrated
