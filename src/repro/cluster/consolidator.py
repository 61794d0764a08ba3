"""Migration-driven fleet consolidation.

The paper's §7: "efficient pause-resume and checkpoint-restore
mechanisms could enable dynamic workload consolidation without hardware
changes."  This control loop is that consolidation at fleet scale: it
periodically picks the most drainable host (fewest allocated ranks) and
tries to move every tenant placement off it onto the rest of the fleet
— each vUPMEM device travels through the existing
:func:`~repro.virt.migration.migrate_device` checkpoint/restore path —
so the emptied host could power down or absorb a rank-hungry tenant
whole (Hirofuchi & Takano make the same migration-for-consolidation
argument for hypervisor-attached Optane).

Migration is only legal between launches (a RUNNING DPU cannot pause,
§2); placements whose DPUs are mid-launch are skipped, never aborted.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.host import ClusterHost
from repro.cluster.policies import BestFitPlacement
from repro.cluster.scheduler import Placement, Scheduler
from repro.errors import DpuFaultError, ManagerError
from repro.hardware.dpu import DpuState
from repro.virt.migration import migrate_device


class Consolidator:
    """Defragments the fleet by draining its emptiest busy host."""

    def __init__(self, cluster: Cluster, scheduler: Scheduler) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.obs = scheduler.obs
        #: Receivers are chosen best-fit: pack migrated tenants tightly so
        #: the drained capacity stays whole.
        self._receiver_policy = BestFitPlacement()
        self.migrations = 0
        self.hosts_drained = 0

    # -- eligibility ---------------------------------------------------------

    @staticmethod
    def _migratable(placement: Placement) -> bool:
        """True when every linked DPU of the placement sits at a launch
        boundary (the only consistent checkpoint point, §7)."""
        devices = placement.linked_devices()
        if not devices:
            return False
        for device in devices:
            # peek_rank never faults: a swapped-out paged rank has no
            # resident frame and by the pager's invariant no RUNNING
            # DPU — it is trivially at a launch boundary, hence
            # migratable without dragging its state back in first.
            rank = device.backend.mapping.peek_rank()
            if rank is None:
                continue
            if any(dpu.state is DpuState.RUNNING for dpu in rank.dpus):
                return False
        return True

    def _pick_donor(self) -> Optional[ClusterHost]:
        """The busy host with the fewest allocated ranks — cheapest drain."""
        busy = [host for host in self.cluster.hosts
                if host.allocated_ranks() > 0
                and self.scheduler.active_on(host)]
        if len(busy) <= 1:
            return None          # nothing to consolidate onto
        return min(busy, key=lambda host: host.allocated_ranks())

    # -- the control loop body ----------------------------------------------

    def run_once(self) -> int:
        """One defragmentation pass; returns the number of migrated devices.

        A pass drains at most one host, and only if *every* placement on
        it fits elsewhere — partial drains fragment the fleet further,
        which is the opposite of the goal.
        """
        self.obs.consolidations.inc()
        donor = self._pick_donor()
        if donor is None:
            return 0
        placements = self.scheduler.active_on(donor)
        plan = self._plan_drain(donor, placements)
        if plan is None:
            return 0
        moved = 0
        for placement, receiver in plan:
            moved += self._move(placement, donor, receiver)
        if donor.allocated_ranks() == 0:
            self.hosts_drained += 1
            self.obs.drained.inc()
        self.scheduler.refresh_host_gauges(donor)
        return moved

    def relieve(self, tenants: List[str]) -> int:
        """SLO-driven migration hints (``repro.qos.slo``): move a burning
        tenant's placements away from their noisy neighbors.

        Receivers are ranked by co-residency first (an empty host
        isolates the victim completely), then fullest-first among
        equally quiet hosts; a hint with no quieter home than the
        current host is dropped — the enforcer re-issues it on the next
        hot evaluation if the burn persists.  Returns migrated devices.
        """
        moved = 0
        for tenant in tenants:
            for placement in list(self.scheduler.active):
                if placement.tenant != tenant:
                    continue
                if not self._migratable(placement):
                    continue
                donor = placement.host
                neighbors_now = len(self.scheduler.active_on(donor)) - 1
                candidates = [
                    host for host in self.cluster.hosts
                    if host is not donor and host.alive
                    and host.free_ranks() >= placement.nr_ranks
                    and len(self.scheduler.active_on(host)) < neighbors_now]
                if not candidates:
                    continue
                receiver = min(
                    candidates,
                    key=lambda host: (len(self.scheduler.active_on(host)),
                                      host.free_ranks()))
                moved += self._move(placement, donor, receiver)
                self.scheduler.refresh_host_gauges(donor)
        return moved

    def _plan_drain(self, donor: ClusterHost, placements: List[Placement],
                    ) -> Optional[List[Tuple[Placement, ClusterHost]]]:
        """Match each placement to a receiver, or ``None`` if undrainable.

        Receivers are booked against a shadow of their free-rank count so
        one pass cannot oversubscribe a host it plans twice.
        """
        others = [host for host in self.cluster.hosts if host is not donor]
        shadow_free = {host.host_id: host.free_ranks() for host in others}
        plan: List[Tuple[Placement, ClusterHost]] = []
        for placement in placements:
            if not self._migratable(placement):
                return None
            candidates = [host for host in others
                          if shadow_free[host.host_id] >= placement.nr_ranks]
            if not candidates:
                return None
            receiver = min(candidates,
                           key=lambda host: shadow_free[host.host_id])
            shadow_free[receiver.host_id] -= placement.nr_ranks
            plan.append((placement, receiver))
        return plan

    def _move(self, placement: Placement, donor: ClusterHost,
              receiver: ClusterHost) -> int:
        """Migrate every linked device of ``placement``; returns the count."""
        moved = 0
        spans = self.cluster.spans
        for device in placement.linked_devices():
            source_rank = device.backend.mapping.rank
            nr_bytes = sum(dpu.mram.materialized_bytes
                           for dpu in source_rank.dpus)
            with spans.scope("cluster.migrate", "cluster",
                             from_host=donor.host_id,
                             to_host=receiver.host_id,
                             tenant=placement.tenant,
                             device=device.device_id):
                try:
                    migrate_device(device, donor.manager,
                                   target_manager=receiver.manager)
                except (DpuFaultError, ManagerError):
                    # A launch raced the plan or the receiver filled up:
                    # leave the device where it is, the next pass retries.
                    continue
                spans.log.emit("migration", "cluster",
                               tenant=placement.tenant,
                               from_host=donor.host_id,
                               to_host=receiver.host_id,
                               device=device.device_id, bytes=nr_bytes)
            self.migrations += 1
            moved += 1
            self.obs.migrations[donor.host_id, receiver.host_id].inc()
            self.obs.migrated_bytes.inc(nr_bytes)
        if moved and all(
                device.backend.driver is receiver.driver
                for device in placement.linked_devices()):
            placement.move_to(receiver)
        self.scheduler.refresh_host_gauges(receiver)
        return moved
