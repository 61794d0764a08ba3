"""Per-component instrument bindings: one binder, one table per component.

A table maps the attribute a component touches to ``(catalog name,
varying labels, fixed labels)``; :func:`bind` turns it into a plain
namespace of metric children, so a call site reads
``obs.plan_hits.inc()`` or ``obs.requests[kind].inc()`` with nothing in
between.  Every name goes through the catalog, so a binding cannot emit
an undocumented metric, and every row's labels are checked against the
catalog schema when the component is built.

Adding a metric is a catalog row, a table row here, and one touch at
the call site.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.errors import ObservabilityError
from repro.observability.catalog import instrument
from repro.observability.metrics import MetricFamily, MetricsRegistry


class _Bound(dict):
    """Children of one family, bound once per value of its varying label(s).

    ``bound[value]`` (``bound[a, b]`` with several varying labels) is a
    plain dict hit on every call but the first, so a request path
    resolves no labels.  The first call goes through
    :meth:`MetricFamily.labels` — schema check, cardinality cap — which
    is also what creates the series: on first touch, never at
    construction, so untouched label values export nothing.
    """

    def __init__(self, family: MetricFamily, varying: tuple,
                 fixed: dict) -> None:
        super().__init__()
        self._family = family
        self._varying = varying
        self._fixed = fixed

    def __missing__(self, key):
        values = key if len(self._varying) > 1 else (key,)
        child = self[key] = self._family.labels(
            **dict(zip(self._varying, values)), **self._fixed)
        return child


def _no_exemplar():
    return None


def bind(registry: MetricsRegistry, table: dict, spans=None,
         **ids: object) -> SimpleNamespace:
    """Bind one component's ``table`` in ``registry``, in table order.

    ``ids`` are the component's identity labels (``rank=``, ``vm=``,
    ``device=``, ``policy=``); each row takes the ones its family's
    schema names.  A row whose varying, fixed and identity labels do not
    add up to exactly that schema raises
    :class:`~repro.errors.ObservabilityError` here, not on the first
    touch of a rare path.  What a row binds to:

    - no varying label: the child itself, created now — an eager
      zero-valued series;
    - varying labels: a :class:`_Bound` memo — a series per value, on
      first touch;
    - a family without labels: the family, whose ``inc``/``set``/
      ``observe`` create its single series on first touch.

    ``obs.exemplar()`` is ``spans.exemplar()`` when a recorder is bound
    and ``None`` otherwise (bare unit tests), which
    :meth:`HistogramChild.observe` treats as absent.
    """
    obs = SimpleNamespace(
        exemplar=spans.exemplar if spans is not None else _no_exemplar)
    for attribute, (name, varying, fixed) in table.items():
        family = instrument(registry, name)
        schema = set(family.label_names)
        given = {k: v for k, v in ids.items() if k in schema}
        given.update(fixed)
        if (set(varying) & set(given)
                or set(varying) | set(given) != schema):
            raise ObservabilityError(
                f"{attribute}: {name} binds varying {list(varying)} and "
                f"fixed {sorted(given)}, schema is {sorted(schema)}")
        if not schema:
            bound = family
        elif varying:
            bound = _Bound(family, varying, given)
        else:
            bound = family.labels(**given)
        setattr(obs, attribute, bound)
    return obs


def vm_of(device_id: str) -> str:
    """The VM identity embedded in a device id (``vm-0.vupmem1`` -> ``vm-0``)."""
    return device_id.split(".", 1)[0]


def _row(name: str, *varying: str, **fixed: str) -> tuple:
    return name, varying, fixed


#: One physical (or emulated) rank; ``rank=``.
RANK = {
    "xfer_ops": _row("repro_rank_xfer_ops_total", "direction"),
    "xfer_bytes": _row("repro_rank_xfer_bytes_total", "direction"),
    "xfer_seconds": _row("repro_rank_xfer_seconds", "direction"),
    "launches": _row("repro_rank_launches_total"),
    "dpu_boots": _row("repro_rank_dpu_boots_total"),
    "launch_seconds": _row("repro_rank_launch_seconds"),
    "ci_ops": _row("repro_rank_ci_ops_total", "command"),
    "resets": _row("repro_rank_resets_total"),
    "dpu_faults": _row("repro_dpu_faults_total"),
}

#: One vUPMEM frontend (the guest driver side); ``vm=, device=``.
FRONTEND = {
    "prefetch_hits": _row("repro_frontend_prefetch_lookups_total", result="hit"),
    "prefetch_misses": _row("repro_frontend_prefetch_lookups_total", result="miss"),
    "prefetch_refills": _row("repro_frontend_prefetch_refills_total"),
    "batched_writes": _row("repro_frontend_batched_writes_total"),
    "batch_flushes": _row("repro_frontend_batch_flushes_total", "reason"),
    "requests": _row("repro_frontend_requests_total", "kind"),
    "request_seconds": _row("repro_frontend_request_seconds", "kind"),
    "queue_depth": _row("repro_virtio_queue_depth", "queue"),
    "kicks": _row("repro_virtio_kicks_total", "queue"),
    "cache_hits": _row("repro_xfer_cache_hits_total"),
    "cache_misses": _row("repro_xfer_cache_misses_total"),
    "cache_suppressed": _row("repro_xfer_cache_suppressed_bytes_total"),
    "cache_invalidations": _row("repro_xfer_cache_invalidations_total", "reason"),
    "plan_hits": _row("repro_plan_cache_hits_total"),
    "plan_misses": _row("repro_plan_cache_misses_total"),
    "plan_evictions": _row("repro_plan_cache_evictions_total"),
    "plan_invalidations": _row("repro_plan_cache_invalidations_total", "reason"),
}

#: One vUPMEM backend (the VMM device model side); ``vm=, device=``.
BACKEND = {
    "requests": _row("repro_backend_requests_total", "kind", "rank"),
    "request_seconds": _row("repro_backend_request_seconds", "kind"),
    "translation_seconds": _row("repro_backend_translation_seconds"),
    "translated_pages": _row("repro_backend_translated_pages_total"),
    "interleave_seconds": _row("repro_backend_interleave_seconds"),
    "batch_replays": _row("repro_backend_batch_replay_records_total"),
    "xlb_hits": _row("repro_xlb_hits_total"),
    "xlb_misses": _row("repro_xlb_misses_total"),
    "bufpool_reuse": _row("repro_bufpool_reuse_total"),
}

#: The host-wide rank manager; ``policy=`` is the active NAAV policy, so
#: single-host decisions read comparably to the fleet scheduler's series.
MANAGER = {
    "transitions": _row("repro_manager_state_transitions_total",
                        "from_state", "to_state"),
    "allocations": _row("repro_manager_allocations_total", "outcome"),
    "alloc_wait": _row("repro_manager_alloc_wait_seconds"),
    "resets": _row("repro_manager_resets_total"),
    "ranks": _row("repro_manager_ranks", "state"),
    "exhausted": _row("repro_manager_allocation_retries_exhausted_total"),
}

#: The Firecracker launcher.
VM = {
    "boots": _row("repro_vm_boots_total"),
    "boot_seconds": _row("repro_vm_boot_seconds"),
    "devices": _row("repro_vm_vupmem_devices", "vm"),
}

#: Execution sessions (one application run each).
SESSION = {
    "runs": _row("repro_session_runs_total", "app", "mode", "verified"),
    "run_seconds": _row("repro_session_run_seconds", "app", "mode"),
}

#: The fleet control plane; ``policy=``.  Lives in the *cluster*
#: registry, so its series carry host/tenant identity, not VM/device ids.
CLUSTER = {
    "requests": _row("repro_cluster_requests_total", "outcome"),
    "queue_depth": _row("repro_cluster_queue_depth"),
    "queue_wait": _row("repro_cluster_queue_wait_seconds"),
    "placements": _row("repro_cluster_placements_total", "host"),
    "completed": _row("repro_cluster_sessions_completed_total", "host"),
    "ranks_allocated": _row("repro_cluster_ranks_allocated", "host"),
    "active_vms": _row("repro_cluster_active_vms", "host"),
    "migrations": _row("repro_cluster_migrations_total", "from_host", "to_host"),
    "migrated_bytes": _row("repro_cluster_migrated_bytes_total"),
    "consolidations": _row("repro_cluster_consolidation_runs_total"),
    "drained": _row("repro_cluster_hosts_drained_total"),
}

#: One QoS flow (one per VM); ``vm=``.
QOS = {
    "arbitrations": _row("repro_qos_arbitrations_total", "mode"),
    "arbitration_wait": _row("repro_qos_arbitration_wait_seconds", "cause"),
    "throttled": _row("repro_qos_throttled_total", "resource"),
    "throttle_wait": _row("repro_qos_throttle_wait_seconds", "resource"),
    "weight": _row("repro_qos_flow_weight"),
}

#: The SLO tracker/enforcer.
SLO = {
    "burn": _row("repro_qos_slo_burn_rate", "tenant", "objective"),
    "violations": _row("repro_qos_slo_violations_total", "tenant", "objective"),
    "actuations": _row("repro_qos_slo_actuations_total", "tenant", "action"),
}

#: The rank pager (one per host); ``policy=``.  Both swap directions
#: export from boot: ``out`` is frame -> store, ``in`` store -> frame.
PAGING = {
    "swaps_out": _row("repro_paging_swaps_total", direction="out"),
    "swaps_in": _row("repro_paging_swaps_total", direction="in"),
    "swap_bytes_out": _row("repro_paging_swap_bytes_total", direction="out"),
    "swap_bytes_in": _row("repro_paging_swap_bytes_total", direction="in"),
    "swap_seconds_out": _row("repro_paging_swap_seconds", direction="out"),
    "swap_seconds_in": _row("repro_paging_swap_seconds", direction="in"),
    "faults": _row("repro_paging_faults_total", "kind"),
    "evictions": _row("repro_paging_evictions_total"),
    "ranks": _row("repro_paging_ranks", "state"),
    "store_bytes": _row("repro_paging_store_bytes", "kind"),
    "dedup_hits": _row("repro_paging_dedup_hits_total"),
    "prefault_overlap": _row("repro_paging_prefault_overlap_seconds_total"),
}

#: Fault injection and recovery.  Bound in a machine registry
#: (single-host chaos) or the cluster registry (host crashes); injectors,
#: the frontend retry path and the recovery helpers share these families.
FAULT = {
    "injected": _row("repro_fault_injected_total", "kind"),
    "detected": _row("repro_fault_detected_total", "kind", "layer"),
    "recovered": _row("repro_fault_recovered_total", "kind", "action"),
    "recovery_seconds": _row("repro_fault_recovery_seconds", "kind"),
    "sessions_lost": _row("repro_fault_sessions_lost_total"),
    "retries": _row("repro_fault_retries_total", "layer"),
}

#: The tracer->metrics bridge (one run, both artifacts).
TRACE = {
    "events": _row("repro_trace_events_total", "category"),
    "dropped": _row("repro_trace_dropped_events_total"),
}

#: The span recorder itself.  Counters stay exact regardless of
#: sampling: a trace decided away still counts every span it started.
SPAN = {
    "started": _row("repro_span_started_total", "layer"),
    "dropped": _row("repro_span_dropped_total", "reason"),
    "traces": _row("repro_span_traces_total", "retained"),
}

#: Bound by the recorder on first use: the family exists only when tail
#: sampling is on, so default-run snapshots keep their family set.
SPAN_RETENTION = {
    "retention": _row("repro_span_retention_total", "tier"),
}

#: Self-telemetry of the time-series store, in the registry it scrapes:
#: a store that drops points reports it in its own next scrape.
TSDB = {
    "scrapes": _row("repro_tsdb_scrapes_total"),
    "samples": _row("repro_tsdb_samples_total"),
    "dropped": _row("repro_tsdb_dropped_points_total", "name"),
    "series": _row("repro_tsdb_series"),
}

#: The alert-rule engine.
ALERT = {
    "state": _row("repro_alert_state", "rule", "state"),
    "transitions": _row("repro_alert_transitions_total", "rule", "to_state"),
    "evaluations": _row("repro_alert_evaluations_total", "rule"),
}
