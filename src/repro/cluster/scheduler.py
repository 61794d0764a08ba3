"""Fleet admission control and VM placement.

The control-plane front door: tenants submit :class:`TenantRequest`\\ s
(rank count, optional PrIM app, deadline class) and the
:class:`Scheduler` either queues them — bounded queue, explicit
backpressure — or rejects them outright (queue full, per-tenant quota
exceeded, request larger than any host).  Queued requests are placed
FIFO within their deadline class under a pluggable policy
(:mod:`repro.cluster.policies`); placement boots a Firecracker microVM
with one vUPMEM device per requested rank on the chosen host, exactly
the §3.3 "vUPMEM booking" path, now multiplied across hosts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import List, Optional, Union

from repro.cluster.cluster import Cluster
from repro.cluster.host import ClusterHost
from repro.errors import AdmissionError, HostCrashedError
from repro.cluster.policies import PlacementPolicy, make_policy
from repro.observability.instruments import CLUSTER, bind
from repro.qos.config import FleetQosPolicy
from repro.virt.firecracker import VmConfig
from repro.virt.opts import OptimizationConfig
from repro.virt.vm import Vm

#: Deadline classes, in dispatch-priority order.
DEADLINE_CLASSES = ("interactive", "batch")

_request_ids = itertools.count()


@dataclass
class TenantRequest:
    """One tenant's ask: a VM with ``nr_ranks`` vUPMEM devices.

    ``app`` optionally names a PrIM application (Table 1 short name) the
    tenant will run once placed; ``hold_s`` is the residency after the
    run — how long the tenant keeps its devices allocated before
    departing (the underutilization driver of the paper's R2
    motivation).
    """

    tenant: str
    nr_ranks: int = 1
    app: Optional[str] = None
    deadline_class: str = "batch"
    hold_s: float = 1.0
    seed: int = 0
    request_id: int = field(default_factory=lambda: next(_request_ids))
    arrival_time: float = 0.0


@dataclass
class Placement:
    """A placed request: the tenant's microVM living on one host."""

    request: TenantRequest
    host: ClusterHost
    vm: Vm
    placed_at: float = 0.0

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def nr_ranks(self) -> int:
        return self.request.nr_ranks

    def acquire(self) -> None:
        """Link every free device to a rank (tenant residency)."""
        for device in self.vm.free_devices():
            self.vm.acquire_rank(device)

    def linked_devices(self):
        return [device for device in self.vm.devices if device.linked]

    def move_to(self, host: ClusterHost) -> None:
        """Re-home the placement after a cross-host migration."""
        if not host.alive:
            raise HostCrashedError(
                f"cannot migrate tenant {self.tenant} to crashed host "
                f"{host.host_id}; pick a live target")
        self.host = host
        self.vm.manager = host.manager


class Scheduler:
    """Admission control + placement over one :class:`Cluster`.

    Dispatch contract: :meth:`try_place_next` books the VM on the chosen
    host but leaves rank acquisition to the caller (running an app
    acquires through the SDK path; pure residency calls
    ``placement.acquire()``).  The caller must resource each returned
    placement before asking for the next one, so policies see up-to-date
    occupancy.
    """

    def __init__(self, cluster: Cluster,
                 policy: Union[str, PlacementPolicy] = "round_robin",
                 queue_limit: int = 16,
                 tenant_quota_ranks: Optional[int] = None,
                 vm_vcpus: int = 4,
                 vm_mem_bytes: int = 1 << 30,
                 qos: Optional[FleetQosPolicy] = None) -> None:
        self.cluster = cluster
        self.policy = (make_policy(policy) if isinstance(policy, str)
                       else policy)
        self.queue_limit = queue_limit
        self.tenant_quota_ranks = tenant_quota_ranks
        self.vm_vcpus = vm_vcpus
        self.vm_mem_bytes = vm_mem_bytes
        #: Fleet-wide QoS policy (``docs/qos.md``): when set, every placed
        #: VM gets a per-deadline-class :class:`~repro.qos.config.QosConfig`
        #: (tenant-tagged) in its optimization config.  ``None`` boots VMs
        #: with no flow — the exact pre-QoS fleet behaviour.
        self.qos = qos
        #: Pending requests, FIFO within deadline class, interactive first.
        self.queue: List[TenantRequest] = []
        self.active: List[Placement] = []
        #: Ranks committed per tenant (queued + placed), for quotas.
        self._tenant_ranks = {}
        self.obs = bind(cluster.metrics, CLUSTER, policy=self.policy.name)
        self._refresh_all_host_gauges()

    # -- admission ----------------------------------------------------------

    def submit(self, request: TenantRequest) -> str:
        """Admit ``request`` into the queue or reject it.

        Returns the admission outcome: ``queued``,
        ``rejected_queue_full``, ``rejected_quota`` or
        ``rejected_oversize`` (also the metric label).
        """
        request.arrival_time = self.cluster.clock.now
        outcome = self._admission_outcome(request)
        self.obs.requests[outcome].inc()
        if outcome == "queued":
            self._tenant_ranks[request.tenant] = (
                self._tenant_ranks.get(request.tenant, 0) + request.nr_ranks)
            self._enqueue(request)
            self.obs.queue_depth.set(len(self.queue))
        return outcome

    def submit_or_raise(self, request: TenantRequest) -> None:
        """Strict admission: :meth:`submit`, but rejections raise
        :class:`~repro.errors.AdmissionError` instead of returning an
        outcome string (for callers that treat rejection as fatal)."""
        outcome = self.submit(request)
        if outcome != "queued":
            raise AdmissionError(
                f"request {request.request_id} from tenant "
                f"{request.tenant} rejected: {outcome}")

    def _admission_outcome(self, request: TenantRequest) -> str:
        if request.nr_ranks <= 0 \
                or request.nr_ranks > self.cluster.largest_host_ranks():
            return "rejected_oversize"
        if len(self.queue) >= self.queue_limit:
            return "rejected_queue_full"
        quota = self.tenant_quota_ranks
        if quota is not None:
            committed = self._tenant_ranks.get(request.tenant, 0)
            if committed + request.nr_ranks > quota:
                return "rejected_quota"
        return "queued"

    def _enqueue(self, request: TenantRequest) -> None:
        """FIFO within class; interactive requests dispatch before batch."""
        if request.deadline_class == "interactive":
            insert_at = len(self.queue)
            for i, queued in enumerate(self.queue):
                if queued.deadline_class != "interactive":
                    insert_at = i
                    break
            self.queue.insert(insert_at, request)
        else:
            self.queue.append(request)

    # -- placement ----------------------------------------------------------

    def try_place_next(self) -> Optional[Placement]:
        """Place the head-of-queue request if any host fits it.

        Head-of-line blocking is deliberate: a rank-hungry request at
        the head is not starved by smaller requests behind it, and the
        resulting queue wait is exactly the fragmentation signal the
        placement policies are compared on.
        """
        if not self.queue:
            return None
        request = self.queue[0]
        host = self.policy.choose(self.cluster.hosts, request.nr_ranks)
        if host is None:
            return None
        self.queue.pop(0)
        spans = self.cluster.spans
        with spans.scope("cluster.place", "cluster", host=host.host_id,
                         tenant=request.tenant, nr_ranks=request.nr_ranks):
            vm = host.firecracker.launch_vm(VmConfig(
                vcpus=self.vm_vcpus, mem_bytes=self.vm_mem_bytes,
                nr_vupmem=request.nr_ranks,
                opts=self._opts_for(request)))
            spans.log.emit("placement", "cluster", tenant=request.tenant,
                           host=host.host_id, vm=vm.vm_id,
                           nr_ranks=request.nr_ranks)
        placement = Placement(request=request, host=host, vm=vm,
                              placed_at=self.cluster.clock.now)
        self.active.append(placement)
        wait = placement.placed_at - request.arrival_time
        self.obs.placements[host.host_id].inc()
        self.obs.queue_wait.observe(wait)
        self.obs.queue_depth.set(len(self.queue))
        return placement

    def _opts_for(self, request: TenantRequest) -> OptimizationConfig:
        """The optimization config a placed VM boots with.

        With a fleet QoS policy, the deadline class picks the
        :class:`~repro.qos.config.QosConfig` (interactive flows weigh
        more than batch by default) and the flow is tagged with the
        requesting tenant so SLO burn aggregates across the tenant's VMs.
        """
        if self.qos is None:
            return OptimizationConfig()
        cfg = self.qos.for_class(request.deadline_class)
        return OptimizationConfig(qos=replace(cfg, tenant=request.tenant))

    def release(self, placement: Placement) -> None:
        """Tenant departure: tear the VM down and return its ranks."""
        placement.vm.shutdown()
        self.active.remove(placement)
        tenant = placement.tenant
        remaining = self._tenant_ranks.get(tenant, 0) - placement.nr_ranks
        if remaining > 0:
            self._tenant_ranks[tenant] = remaining
        else:
            self._tenant_ranks.pop(tenant, None)
        self.obs.completed[placement.host.host_id].inc()
        self.refresh_host_gauges(placement.host)

    def evict_host(self, host: ClusterHost) -> int:
        """React to a host crash: tear down its placements and requeue
        their tenants at the head of the queue.

        The tenants lost their VMs, not their right to run: their
        requests re-enter ahead of everyone (admission was already paid,
        so the queue limit is deliberately bypassed and quota
        commitments stay), and the next dispatch loop re-places them on
        surviving hosts.  Returns the number of evicted placements.
        """
        evicted = self.active_on(host)
        for placement in evicted:
            self.active.remove(placement)
            # Unlinking a dead host's devices is sysfs-only bookkeeping;
            # the manager ignores the "free" writes for FAIL ranks.
            placement.vm.shutdown()
            self.obs.requests["requeued_crash"].inc()
        for placement in reversed(evicted):
            self.queue.insert(0, placement.request)
        self.obs.queue_depth.set(len(self.queue))
        self.refresh_host_gauges(host)
        return len(evicted)

    # -- views ---------------------------------------------------------------

    def active_on(self, host: ClusterHost) -> List[Placement]:
        return [p for p in self.active if p.host is host]

    def refresh_host_gauges(self, host: ClusterHost) -> None:
        self.obs.ranks_allocated[host.host_id].set(host.allocated_ranks())
        self.obs.active_vms[host.host_id].set(len(self.active_on(host)))

    def _refresh_all_host_gauges(self) -> None:
        for host in self.cluster.hosts:
            self.refresh_host_gauges(host)
