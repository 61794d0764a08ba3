"""The metric catalog: every metric this codebase may emit, declared once.

Components never call the registry with ad-hoc names; they go through
:func:`instrument`, which only accepts names declared here.  That makes
the catalog the single source of truth three consumers share:

- the instrumentation layer (:mod:`repro.observability.instruments`);
- ``docs/observability.md``, whose metric table is validated against this
  module by the docs-check test (``tests/test_docs.py``);
- :func:`register_all`, which pre-registers every family so an exporter
  can render a complete (if zero-valued) snapshot before any traffic.

Each spec names the paper figure/section the metric supports, because the
whole point of this subsystem is making the paper's breakdowns (Figs.
12-16) observable live instead of post-hoc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.observability.metrics import MetricFamily, MetricsRegistry


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric family."""

    name: str
    kind: str                      #: counter | gauge | histogram
    help: str
    labels: Tuple[str, ...] = ()
    paper: str = ""                #: figure/section this metric supports
    buckets: Optional[Tuple[float, ...]] = None

    def create(self, registry: MetricsRegistry) -> MetricFamily:
        if self.kind == "counter":
            return registry.counter(self.name, self.help, self.labels)
        if self.kind == "gauge":
            return registry.gauge(self.name, self.help, self.labels)
        return registry.histogram(self.name, self.help, self.labels,
                                  buckets=self.buckets)


_SPECS: Tuple[MetricSpec, ...] = (
    # -- frontend: the guest driver's two message-count optimizations ------
    MetricSpec(
        "repro_frontend_prefetch_lookups_total", "counter",
        "Prefetch-cache lookups in the guest driver, by outcome",
        ("vm", "device", "result"), paper="Fig. 14 (hits column), §4.1"),
    MetricSpec(
        "repro_frontend_prefetch_refills_total", "counter",
        "Cache-segment fetches triggered by prefetch misses",
        ("vm", "device"), paper="§4.1 (prefetch cache)"),
    MetricSpec(
        "repro_frontend_batched_writes_total", "counter",
        "Small MRAM writes absorbed by the batch buffer instead of sent",
        ("vm", "device"), paper="Fig. 14 (batched column), §4.1"),
    MetricSpec(
        "repro_frontend_batch_flushes_total", "counter",
        "Collective flushes of the write-batch buffer, by trigger",
        ("vm", "device", "reason"), paper="§4.1 (request batching)"),
    MetricSpec(
        "repro_frontend_requests_total", "counter",
        "virtio-pim requests actually sent on the transferq, by op code",
        ("vm", "device", "kind"), paper="Fig. 14 (messages column)"),
    MetricSpec(
        "repro_frontend_request_seconds", "histogram",
        "Simulated guest->VMM->guest round-trip latency per request",
        ("vm", "device", "kind"), paper="Fig. 13 (request time)"),
    MetricSpec(
        "repro_virtio_queue_depth", "gauge",
        "Descriptor chains outstanding on a virtqueue",
        ("vm", "device", "queue"), paper="Appendix A.1 (512-slot transferq)"),
    MetricSpec(
        "repro_virtio_kicks_total", "counter",
        "Guest notifications (trapped MMIO writes) per virtqueue",
        ("vm", "device", "queue"), paper="§3.4 (transition cost)"),

    # -- backend: the device model inside Firecracker ----------------------
    MetricSpec(
        "repro_backend_requests_total", "counter",
        "Requests processed by the VMM backend, by op code and bound rank",
        ("vm", "device", "rank", "kind"), paper="§4.2"),
    MetricSpec(
        "repro_backend_request_seconds", "histogram",
        "Simulated backend worker time per request (deser+translate+data)",
        ("vm", "device", "kind"), paper="Fig. 13 (Deser/T-data steps)"),
    MetricSpec(
        "repro_backend_translation_seconds", "histogram",
        "Simulated threaded GPA->HVA translation time per data request",
        ("vm", "device"), paper="§4.2 (8 translation threads)"),
    MetricSpec(
        "repro_backend_translated_pages_total", "counter",
        "Guest pages translated for zero-copy access",
        ("vm", "device"), paper="§4.2 (zero copy)"),
    MetricSpec(
        "repro_backend_interleave_seconds", "histogram",
        "Simulated data-path time (byte interleave + copy) per transfer",
        ("vm", "device"), paper="Fig. 11 (C vs Rust data path)"),
    MetricSpec(
        "repro_backend_batch_replay_records_total", "counter",
        "Buffered small writes replayed as individual rank operations",
        ("vm", "device"), paper="§4.1 (batching merges messages, not ops)"),
    MetricSpec(
        "repro_xlb_hits_total", "counter",
        "GPA->HVA page runs served by the backend translation cache",
        ("vm", "device"), paper="§4.2 (translation threads; wall-clock XLB)"),
    MetricSpec(
        "repro_xlb_misses_total", "counter",
        "GPA->HVA page runs that required full bounds-checked translation",
        ("vm", "device"), paper="§4.2 (translation threads; wall-clock XLB)"),
    MetricSpec(
        "repro_bufpool_reuse_total", "counter",
        "Data-plane buffer acquisitions served from the reuse pool",
        ("vm", "device"), paper="§5.4.1 (host-side copy plumbing cost)"),
    MetricSpec(
        "repro_xfer_cache_hits_total", "counter",
        "Write extents suppressed by the content-aware transfer cache",
        ("vm", "device"), paper="PIM-CACHE extension (docs/transfer_cache.md)"),
    MetricSpec(
        "repro_xfer_cache_misses_total", "counter",
        "Write extents probed but not matched in the digest index",
        ("vm", "device"), paper="PIM-CACHE extension (docs/transfer_cache.md)"),
    MetricSpec(
        "repro_xfer_cache_suppressed_bytes_total", "counter",
        "Payload bytes elided from the wire by transfer suppression",
        ("vm", "device"), paper="PIM-CACHE extension (docs/transfer_cache.md)"),
    MetricSpec(
        "repro_xfer_cache_invalidations_total", "counter",
        "Digest records dropped, by invalidation reason",
        ("vm", "device", "reason"),
        paper="PIM-CACHE extension (docs/transfer_cache.md)"),
    MetricSpec(
        "repro_plan_cache_hits_total", "counter",
        "Transfers replayed from a compiled shape-specialized plan",
        ("vm", "device"), paper="§4.1/§4.2 (docs/performance.md)"),
    MetricSpec(
        "repro_plan_cache_misses_total", "counter",
        "Data requests that replayed no plan: compiled one, or went naive",
        ("vm", "device"), paper="§4.1/§4.2 (docs/performance.md)"),
    MetricSpec(
        "repro_plan_cache_evictions_total", "counter",
        "Plans dropped by the LRU bound of the plan cache",
        ("vm", "device"), paper="docs/performance.md (plan cache)"),
    MetricSpec(
        "repro_plan_cache_invalidations_total", "counter",
        "Plans dropped because replay became unsafe, by reason",
        ("vm", "device", "reason"),
        paper="docs/performance.md (plan cache)"),

    # -- manager: host-wide rank arbitration --------------------------------
    MetricSpec(
        "repro_manager_state_transitions_total", "counter",
        "Rank-table state transitions (ALLO/NAAV/NANA lifecycle)",
        ("from_state", "to_state"), paper="Fig. 5, §3.5"),
    MetricSpec(
        "repro_manager_allocations_total", "counter",
        "Rank allocation decisions, by active NAAV policy and outcome",
        ("policy", "outcome"), paper="§3.5 (allocation policy order)"),
    MetricSpec(
        "repro_manager_alloc_wait_seconds", "histogram",
        "Simulated time a requester waited for a rank (incl. reset waits)",
        ("policy",), paper="§4.2 (manager overhead)"),
    MetricSpec(
        "repro_manager_resets_total", "counter",
        "Isolation resets scheduled after a rank release",
        (), paper="§3.5 (reset-for-isolation)"),
    MetricSpec(
        "repro_manager_ranks", "gauge",
        "Ranks currently in each lifecycle state",
        ("state",), paper="Fig. 5"),
    MetricSpec(
        "repro_manager_allocation_retries_exhausted_total", "counter",
        "Allocation requests abandoned after the retry budget ran out",
        ("policy",), paper="§3.5 (allocation policy step 4)"),

    # -- hardware: per-rank operation telemetry -----------------------------
    MetricSpec(
        "repro_rank_xfer_ops_total", "counter",
        "Rank transfer operations, by direction",
        ("rank", "direction"), paper="Fig. 12 (W-rank/R-rank counts)"),
    MetricSpec(
        "repro_rank_xfer_bytes_total", "counter",
        "Bytes moved between host and MRAM banks, by direction",
        ("rank", "direction"), paper="Fig. 9c (size sensitivity)"),
    MetricSpec(
        "repro_rank_xfer_seconds", "histogram",
        "Simulated duration of each rank transfer operation",
        ("rank", "direction"), paper="Fig. 13 (T-data step)"),
    MetricSpec(
        "repro_rank_launches_total", "counter",
        "Rank-level program launches",
        ("rank",), paper="§2 (launch runs to completion)"),
    MetricSpec(
        "repro_rank_dpu_boots_total", "counter",
        "Individual DPU boots performed by launches",
        ("rank",), paper="§2"),
    MetricSpec(
        "repro_rank_launch_seconds", "histogram",
        "Simulated duration of each launch (slowest DPU of the rank)",
        ("rank",), paper="Fig. 8 (DPU segment)"),
    MetricSpec(
        "repro_rank_ci_ops_total", "counter",
        "Control-interface operations, by command kind",
        ("rank", "command"), paper="Fig. 12 (CI bar), §5.3.1"),
    MetricSpec(
        "repro_rank_resets_total", "counter",
        "Hardware resets (manager-triggered isolation wipes)",
        ("rank",), paper="§3.5"),
    MetricSpec(
        "repro_dpu_faults_total", "counter",
        "DPU kernels that faulted during a launch",
        ("rank",), paper="§2 (CI-reported FAULT state)"),

    # -- VM lifecycle ------------------------------------------------------
    MetricSpec(
        "repro_vm_boots_total", "counter",
        "microVMs booted by the Firecracker launcher",
        (), paper="§3.2"),
    MetricSpec(
        "repro_vm_boot_seconds", "histogram",
        "Simulated boot time per microVM (base + per-device cost)",
        (), paper="§3.2 (up to 2 ms per vUPMEM device)"),
    MetricSpec(
        "repro_vm_vupmem_devices", "gauge",
        "vUPMEM devices attached to each VM",
        ("vm",), paper="§3.3 (vUPMEM booking)"),

    # -- sessions ----------------------------------------------------------
    MetricSpec(
        "repro_session_runs_total", "counter",
        "Application executions, by transport mode and verification result",
        ("app", "mode", "verified"), paper="§5 (evaluation runs)"),
    MetricSpec(
        "repro_session_run_seconds", "histogram",
        "Simulated end-to-end application time per run",
        ("app", "mode"), paper="Fig. 8 (total time)"),

    # -- cluster control plane (repro.cluster; §7 consolidation) ------------
    MetricSpec(
        "repro_cluster_requests_total", "counter",
        "Tenant VM requests received by the fleet scheduler, by outcome",
        ("policy", "outcome"), paper="§7 (dynamic workload consolidation)"),
    MetricSpec(
        "repro_cluster_queue_depth", "gauge",
        "Requests waiting in the bounded admission queue",
        (), paper="§6 (R2: underutilized reservations)"),
    MetricSpec(
        "repro_cluster_queue_wait_seconds", "histogram",
        "Simulated wait between request arrival and VM placement",
        ("policy",), paper="§7"),
    MetricSpec(
        "repro_cluster_placements_total", "counter",
        "Tenant VMs placed on a host, by placement policy",
        ("policy", "host"), paper="§7"),
    MetricSpec(
        "repro_cluster_sessions_completed_total", "counter",
        "Tenant sessions that ran to completion and departed",
        ("host",), paper="§5 (evaluation sessions)"),
    MetricSpec(
        "repro_cluster_ranks_allocated", "gauge",
        "Ranks currently allocated to tenants on each host",
        ("host",), paper="§1 (R2: underutilization motivation)"),
    MetricSpec(
        "repro_cluster_active_vms", "gauge",
        "Tenant VMs currently placed on each host",
        ("host",), paper="§3.2"),
    MetricSpec(
        "repro_cluster_migrations_total", "counter",
        "Cross-host vUPMEM device migrations driven by the consolidator",
        ("from_host", "to_host"), paper="§7 (checkpoint/restore)"),
    MetricSpec(
        "repro_cluster_migrated_bytes_total", "counter",
        "Checkpointed MRAM bytes moved between hosts by migrations",
        (), paper="§7"),
    MetricSpec(
        "repro_cluster_consolidation_runs_total", "counter",
        "Defragmentation passes executed by the consolidator loop",
        (), paper="§7 (dynamic workload consolidation)"),
    MetricSpec(
        "repro_cluster_hosts_drained_total", "counter",
        "Hosts whose last allocated rank was migrated away",
        (), paper="§7 (consolidation frees whole hosts)"),

    # -- QoS: weighted-fair bus arbitration + SLO layer (repro.qos) ----------
    MetricSpec(
        "repro_qos_arbitrations_total", "counter",
        "Bus/event-loop arbitration decisions per flow, by scheduling mode",
        ("vm", "mode"), paper="§6 R2 (multi-tenant isolation; docs/qos.md)"),
    MetricSpec(
        "repro_qos_arbitration_wait_seconds", "histogram",
        "Modeled per-operation delay from sharing the host bus, by cause",
        ("vm", "cause"), paper="Fig. 16 (bus contention; docs/qos.md)"),
    MetricSpec(
        "repro_qos_throttled_total", "counter",
        "Token-bucket throttle events per flow, by resource",
        ("vm", "resource"), paper="docs/qos.md (token buckets)"),
    MetricSpec(
        "repro_qos_throttle_wait_seconds", "histogram",
        "Modeled wait imposed by token-bucket throttles, by resource",
        ("vm", "resource"), paper="docs/qos.md (token buckets)"),
    MetricSpec(
        "repro_qos_flow_weight", "gauge",
        "Current weighted-fair-queueing weight of each registered flow",
        ("vm",), paper="docs/qos.md (WFQ weights)"),
    MetricSpec(
        "repro_qos_slo_burn_rate", "gauge",
        "Observed/target ratio per tenant objective (>1 = burning hot)",
        ("tenant", "objective"), paper="docs/qos.md (SLO layer)"),
    MetricSpec(
        "repro_qos_slo_violations_total", "counter",
        "Enforcement passes that found a tenant objective burning hot",
        ("tenant", "objective"), paper="docs/qos.md (SLO layer)"),
    MetricSpec(
        "repro_qos_slo_actuations_total", "counter",
        "SLO enforcement actions taken, by action kind",
        ("tenant", "action"), paper="docs/qos.md (actuation ladder)"),

    # -- rank demand paging (repro.paging; §7 oversubscription) --------------
    MetricSpec(
        "repro_paging_swaps_total", "counter",
        "Rank state copies between frames and the swap store, by direction",
        ("direction",), paper="§7 (checkpoint/restore; docs/paging.md)"),
    MetricSpec(
        "repro_paging_swap_bytes_total", "counter",
        "Checkpointed MRAM bytes moved by swap traffic, by direction",
        ("direction",), paper="docs/paging.md (swap traffic)"),
    MetricSpec(
        "repro_paging_swap_seconds", "histogram",
        "Modeled duration of each swap copy (charged at rank bandwidth)",
        ("direction",), paper="docs/paging.md (cost model)"),
    MetricSpec(
        "repro_paging_faults_total", "counter",
        "Rank faults taken by the pager, by kind",
        ("kind",), paper="docs/paging.md (demand vs predictive faults)"),
    MetricSpec(
        "repro_paging_evictions_total", "counter",
        "Victim ranks swapped out to free a frame, by eviction policy",
        ("policy",), paper="docs/paging.md (eviction policies)"),
    MetricSpec(
        "repro_paging_ranks", "gauge",
        "Virtual ranks currently in each residency state",
        ("state",), paper="docs/paging.md (residency lifecycle)"),
    MetricSpec(
        "repro_paging_store_bytes", "gauge",
        "Swap-store footprint: logical (raw) vs deduplicated (stored)",
        ("kind",), paper="docs/paging.md (SwapStore dedup)"),
    MetricSpec(
        "repro_paging_dedup_hits_total", "counter",
        "Swapped segments whose payload was already held by the store",
        (), paper="docs/paging.md (content-addressed segments)"),
    MetricSpec(
        "repro_paging_prefault_overlap_seconds_total", "counter",
        "Swap-in time hidden under virtio queue wait by predictive faults",
        (), paper="docs/paging.md (predictive swap-in)"),

    # -- fault injection & recovery (repro.faults) ---------------------------
    MetricSpec(
        "repro_fault_injected_total", "counter",
        "Fault events fired by the injector, by fault kind",
        ("kind",), paper="§3.5 motivation (ranks are failure-prone)"),
    MetricSpec(
        "repro_fault_detected_total", "counter",
        "Faults noticed by a stack layer (error raised or verify failed)",
        ("kind", "layer"), paper="§3.5 (manager health tracking)"),
    MetricSpec(
        "repro_fault_recovered_total", "counter",
        "Successful recovery actions, by fault kind and action taken",
        ("kind", "action"), paper="§7 (checkpoint/restore enables recovery)"),
    MetricSpec(
        "repro_fault_recovery_seconds", "histogram",
        "Simulated time from fault detection to recovered service (MTTR)",
        ("kind",), paper="§7"),
    MetricSpec(
        "repro_fault_sessions_lost_total", "counter",
        "Sessions abandoned because recovery was impossible or exhausted",
        (), paper="§3.5 (isolation keeps failures per-tenant)"),
    MetricSpec(
        "repro_fault_retries_total", "counter",
        "Bounded-backoff retries of an operation after a transient fault",
        ("layer",), paper="§4.1 (frontend request path)"),

    # -- trace bridge ------------------------------------------------------
    MetricSpec(
        "repro_trace_events_total", "counter",
        "Events mirrored from the Chrome-trace tracer, by category",
        ("category",), paper="Figs. 12-16 (post-hoc breakdowns)"),
    MetricSpec(
        "repro_trace_dropped_events_total", "counter",
        "Trace events dropped after the tracer's event cap",
        (), paper="implementation backstop (no paper counterpart)"),

    # -- distributed tracing (repro.observability.spans) ---------------------
    MetricSpec(
        "repro_span_started_total", "counter",
        "Spans opened by the recorder, by stack layer",
        ("layer",), paper="Figs. 12/13 (per-layer request breakdowns)"),
    MetricSpec(
        "repro_span_dropped_total", "counter",
        "Spans dropped by the per-trace or retained-trace caps, by reason",
        ("reason",), paper="implementation backstop (bounded memory)"),
    MetricSpec(
        "repro_span_traces_total", "counter",
        "Traces finished by the recorder, by retention outcome",
        ("retained",), paper="§5 (sampled evaluation runs)"),
    MetricSpec(
        "repro_span_retention_total", "counter",
        "Traces classified by the tail sampler, by retention tier",
        ("tier",), paper="docs/monitoring.md (tail-based retention)"),

    # -- telemetry pipeline (repro.observability.timeseries / .alerts) -------
    MetricSpec(
        "repro_tsdb_scrapes_total", "counter",
        "Registry scrapes completed by the time-series store",
        (), paper="docs/monitoring.md (scrape cadence)"),
    MetricSpec(
        "repro_tsdb_samples_total", "counter",
        "Data points appended across all series by the store",
        (), paper="docs/monitoring.md (ring buffers)"),
    MetricSpec(
        "repro_tsdb_dropped_points_total", "counter",
        "Oldest points overwritten by a full series ring buffer",
        ("name",), paper="docs/monitoring.md (bounded retention)"),
    MetricSpec(
        "repro_tsdb_series", "gauge",
        "Distinct series (metric name + label set) currently held",
        (), paper="docs/monitoring.md (cardinality)"),
    MetricSpec(
        "repro_alert_state", "gauge",
        "Whether each alert rule currently occupies the given state",
        ("rule", "state"), paper="docs/monitoring.md (rule state machine)"),
    MetricSpec(
        "repro_alert_transitions_total", "counter",
        "Alert rule state transitions, by destination state",
        ("rule", "to_state"), paper="docs/monitoring.md (rule state machine)"),
    MetricSpec(
        "repro_alert_evaluations_total", "counter",
        "Rule evaluation passes executed by the alert engine",
        ("rule",), paper="docs/monitoring.md (evaluation loop)"),
)

#: Name -> spec for quick lookup.
CATALOG: Dict[str, MetricSpec] = {spec.name: spec for spec in _SPECS}


def instrument(registry: MetricsRegistry, name: str) -> MetricFamily:
    """Create/fetch the family for a *cataloged* metric name.

    Raises :class:`~repro.errors.ObservabilityError` for names missing
    from the catalog, so instrumentation cannot drift from the documented
    metric set.
    """
    spec = CATALOG.get(name)
    if spec is None:
        raise ObservabilityError(
            f"metric {name!r} is not in the catalog "
            "(add it to repro/observability/catalog.py and "
            "docs/observability.md)"
        )
    return spec.create(registry)


def register_all(registry: MetricsRegistry) -> None:
    """Pre-register every cataloged family (zero-valued until traffic)."""
    for spec in _SPECS:
        spec.create(registry)
