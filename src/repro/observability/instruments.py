"""Per-component instrument bindings.

Each class here binds one component's identity labels (rank index, device
id, ...) once at construction and exposes intention-revealing methods the
component calls on its hot path (``obs.prefetch_hit(...)`` instead of
five lines of registry plumbing).  All metric names go through the
catalog, so a binding cannot emit an undocumented metric.
"""

from __future__ import annotations

from repro.observability.catalog import instrument
from repro.observability.metrics import MetricsRegistry


def _vm_of(device_id: str) -> str:
    """The VM identity embedded in a device id (``vm-0.vupmem1`` -> ``vm-0``)."""
    return device_id.split(".", 1)[0]


def _exemplar_of(spans):
    """``(trace_id, sim_ts)`` from a bound recorder, or ``None``.

    Centralizes the double gate every latency histogram shares: no
    recorder bound (bare unit tests) or exemplar capture off (default
    runs, which must export byte-identical snapshots) both yield
    ``None``, which :meth:`HistogramChild.observe` treats as absent.
    """
    return spans.exemplar() if spans is not None else None


class _Bound(dict):
    """Children of one family, bound once per value of its varying label(s).

    ``bound[value]`` (``bound[a, b]`` with several varying labels) is a
    plain dict hit on every call but the first, so a method on a request
    path resolves no labels.  The first call goes through
    :meth:`MetricFamily.labels` — schema check, cardinality cap — which
    is also what creates the series: on first touch, never at
    construction, so untouched label values export nothing.
    """

    def __init__(self, registry: MetricsRegistry, name: str, *varying: str,
                 **fixed: object) -> None:
        super().__init__()
        self._family = instrument(registry, name)
        self._varying = varying
        self._fixed = fixed

    def __missing__(self, key):
        values = key if len(self._varying) > 1 else (key,)
        child = self[key] = self._family.labels(
            **dict(zip(self._varying, values)), **self._fixed)
        return child


class RankInstruments:
    """Telemetry of one physical (or emulated) rank."""

    def __init__(self, registry: MetricsRegistry, rank_index: int) -> None:
        self.registry = registry
        rank = str(rank_index)
        self._xfer_ops = _Bound(registry, "repro_rank_xfer_ops_total",
                                "direction", rank=rank)
        self._xfer_bytes = _Bound(registry, "repro_rank_xfer_bytes_total",
                                  "direction", rank=rank)
        self._xfer_seconds = _Bound(registry, "repro_rank_xfer_seconds",
                                    "direction", rank=rank)
        self._launches = instrument(
            registry, "repro_rank_launches_total").labels(rank=rank)
        self._dpu_boots = instrument(
            registry, "repro_rank_dpu_boots_total").labels(rank=rank)
        self._launch_seconds = instrument(
            registry, "repro_rank_launch_seconds").labels(rank=rank)
        self._ci_ops = _Bound(registry, "repro_rank_ci_ops_total",
                              "command", rank=rank)
        self._resets = instrument(
            registry, "repro_rank_resets_total").labels(rank=rank)
        self._dpu_faults = instrument(
            registry, "repro_dpu_faults_total").labels(rank=rank)

    def xfer(self, direction: str, nbytes: int, duration: float) -> None:
        self._xfer_ops[direction].inc()
        self._xfer_bytes[direction].inc(nbytes)
        self._xfer_seconds[direction].observe(duration)

    def launch(self, nr_dpus: int, duration: float) -> None:
        self._launches.inc()
        self._dpu_boots.inc(nr_dpus)
        self._launch_seconds.observe(duration)

    def dpu_fault(self) -> None:
        self._dpu_faults.inc()

    def ci(self, command: str, count: int = 1) -> None:
        self._ci_ops[command].inc(count)

    def reset(self) -> None:
        self._resets.inc()


class FrontendInstruments:
    """Telemetry of one vUPMEM frontend (the guest driver side)."""

    def __init__(self, registry: MetricsRegistry, device_id: str,
                 spans=None) -> None:
        self.registry = registry
        self._spans = spans
        ids = dict(vm=_vm_of(device_id), device=device_id)
        lookups = instrument(registry,
                             "repro_frontend_prefetch_lookups_total")
        self._hits = lookups.labels(result="hit", **ids)
        self._misses = lookups.labels(result="miss", **ids)
        self._refills = instrument(
            registry, "repro_frontend_prefetch_refills_total").labels(**ids)
        self._batched = instrument(
            registry, "repro_frontend_batched_writes_total").labels(**ids)
        self._flushes = _Bound(registry, "repro_frontend_batch_flushes_total",
                               "reason", **ids)
        self._requests = _Bound(registry, "repro_frontend_requests_total",
                                "kind", **ids)
        self._request_seconds = _Bound(
            registry, "repro_frontend_request_seconds", "kind", **ids)
        self._queue_depth = _Bound(registry, "repro_virtio_queue_depth",
                                   "queue", **ids)
        self._kicks = _Bound(registry, "repro_virtio_kicks_total",
                             "queue", **ids)
        self._cache_hits = instrument(
            registry, "repro_xfer_cache_hits_total").labels(**ids)
        self._cache_misses = instrument(
            registry, "repro_xfer_cache_misses_total").labels(**ids)
        self._cache_suppressed = instrument(
            registry, "repro_xfer_cache_suppressed_bytes_total").labels(**ids)
        self._cache_invalidations = _Bound(
            registry, "repro_xfer_cache_invalidations_total", "reason", **ids)
        self._plan_hits = instrument(
            registry, "repro_plan_cache_hits_total").labels(**ids)
        self._plan_misses = instrument(
            registry, "repro_plan_cache_misses_total").labels(**ids)
        self._plan_evictions = instrument(
            registry, "repro_plan_cache_evictions_total").labels(**ids)
        self._plan_invalidations = _Bound(
            registry, "repro_plan_cache_invalidations_total", "reason", **ids)

    def prefetch_hit(self, count: int = 1) -> None:
        self._hits.inc(count)

    def prefetch_miss(self, count: int = 1) -> None:
        self._misses.inc(count)

    def prefetch_refill(self, count: int = 1) -> None:
        self._refills.inc(count)

    def batched_writes(self, count: int) -> None:
        self._batched.inc(count)

    def batch_flush(self, reason: str) -> None:
        self._flushes[reason].inc()

    def request(self, kind: str, duration: float) -> None:
        self._requests[kind].inc()
        self._request_seconds[kind].observe(
            duration, exemplar=_exemplar_of(self._spans))

    def request_count(self, kind: str, count: int) -> None:
        """Requests accounted arithmetically (no modeled round trip)."""
        self._requests[kind].inc(count)

    def queue_depth(self, queue: str, depth: int) -> None:
        self._queue_depth[queue].set(depth)

    def kick(self, queue: str) -> None:
        self._kicks[queue].inc()

    def cache_hit(self, count: int = 1) -> None:
        if count:
            self._cache_hits.inc(count)

    def cache_miss(self, count: int = 1) -> None:
        if count:
            self._cache_misses.inc(count)

    def cache_suppressed(self, nbytes: int) -> None:
        if nbytes:
            self._cache_suppressed.inc(nbytes)

    def cache_invalidation(self, reason: str, count: int = 1) -> None:
        if count:
            self._cache_invalidations[reason].inc(count)

    def plan_hit(self, count: int = 1) -> None:
        if count:
            self._plan_hits.inc(count)

    def plan_miss(self, count: int = 1) -> None:
        if count:
            self._plan_misses.inc(count)

    def plan_eviction(self, count: int = 1) -> None:
        if count:
            self._plan_evictions.inc(count)

    def plan_invalidation(self, reason: str, count: int = 1) -> None:
        if count:
            self._plan_invalidations[reason].inc(count)


class BackendInstruments:
    """Telemetry of one vUPMEM backend (the VMM device model side)."""

    def __init__(self, registry: MetricsRegistry, device_id: str,
                 spans=None) -> None:
        self.registry = registry
        self._spans = spans
        ids = dict(vm=_vm_of(device_id), device=device_id)
        self._requests = _Bound(registry, "repro_backend_requests_total",
                                "kind", "rank", **ids)
        self._request_seconds = _Bound(
            registry, "repro_backend_request_seconds", "kind", **ids)
        self._translation = instrument(
            registry, "repro_backend_translation_seconds").labels(**ids)
        self._pages = instrument(
            registry, "repro_backend_translated_pages_total").labels(**ids)
        self._interleave = instrument(
            registry, "repro_backend_interleave_seconds").labels(**ids)
        self._replays = instrument(
            registry, "repro_backend_batch_replay_records_total").labels(**ids)
        self._xlb_hits = instrument(
            registry, "repro_xlb_hits_total").labels(**ids)
        self._xlb_misses = instrument(
            registry, "repro_xlb_misses_total").labels(**ids)
        self._bufpool_reuse = instrument(
            registry, "repro_bufpool_reuse_total").labels(**ids)

    def request(self, kind: str, rank: str, duration: float) -> None:
        self._requests[kind, rank].inc()
        self._request_seconds[kind].observe(
            duration, exemplar=_exemplar_of(self._spans))

    def translation(self, pages: int, duration: float) -> None:
        self._pages.inc(pages)
        self._translation.observe(duration)

    def interleave(self, duration: float) -> None:
        self._interleave.observe(duration)

    def batch_replay(self, records: int) -> None:
        self._replays.inc(records)

    def xlb(self, hits: int, misses: int) -> None:
        """Translation-cache outcomes for one request's page runs."""
        if hits:
            self._xlb_hits.inc(hits)
        if misses:
            self._xlb_misses.inc(misses)

    def bufpool_reuse(self, count: int) -> None:
        """Pool-served buffer acquisitions during one request."""
        if count:
            self._bufpool_reuse.inc(count)


class ManagerInstruments:
    """Telemetry of the host-wide rank manager.

    Allocation outcomes and waits carry the active NAAV policy
    (``round_robin``/``first_fit``/``coldest``) so single-host manager
    decisions read comparably to the fleet scheduler's per-policy series.
    """

    def __init__(self, registry: MetricsRegistry,
                 policy: str = "round_robin") -> None:
        self.registry = registry
        self._transitions = instrument(
            registry, "repro_manager_state_transitions_total")
        self._allocations = instrument(registry,
                                       "repro_manager_allocations_total")
        self._wait = instrument(
            registry, "repro_manager_alloc_wait_seconds"
        ).labels(policy=policy)
        self._resets = instrument(registry, "repro_manager_resets_total")
        self._ranks = instrument(registry, "repro_manager_ranks")
        self._exhausted = instrument(
            registry, "repro_manager_allocation_retries_exhausted_total"
        ).labels(policy=policy)
        self._policy = policy

    def transition(self, from_state: str, to_state: str) -> None:
        self._transitions.labels(from_state=from_state,
                                 to_state=to_state).inc()

    def allocation(self, outcome: str, wait_seconds: float) -> None:
        self._allocations.labels(policy=self._policy, outcome=outcome).inc()
        self._wait.observe(wait_seconds)

    def reset_scheduled(self) -> None:
        self._resets.inc()

    def retries_exhausted(self) -> None:
        self._exhausted.inc()

    def set_rank_states(self, counts: dict) -> None:
        """``counts`` maps state name -> number of ranks in that state."""
        for state, count in counts.items():
            self._ranks.labels(state=state).set(count)


class VmInstruments:
    """Telemetry of the Firecracker launcher."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._boots = instrument(registry, "repro_vm_boots_total")
        self._boot_seconds = instrument(registry, "repro_vm_boot_seconds")
        self._devices = instrument(registry, "repro_vm_vupmem_devices")

    def boot(self, vm_id: str, nr_devices: int, duration: float) -> None:
        self._boots.inc()
        self._boot_seconds.observe(duration)
        self._devices.labels(vm=vm_id).set(nr_devices)


class SessionInstruments:
    """Telemetry of execution sessions (one application run each)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._runs = instrument(registry, "repro_session_runs_total")
        self._seconds = instrument(registry, "repro_session_run_seconds")

    def run(self, app: str, mode: str, verified: bool,
            duration: float) -> None:
        self._runs.labels(app=app, mode=mode,
                          verified=str(bool(verified)).lower()).inc()
        self._seconds.labels(app=app, mode=mode).observe(duration)


class ClusterInstruments:
    """Telemetry of the fleet control plane (``repro.cluster``).

    Lives in the *cluster* registry (not any single host's machine
    registry): scheduling, admission and consolidation decisions span
    hosts, so their series are labeled by host/tenant identity rather
    than VM/device ids.
    """

    def __init__(self, registry: MetricsRegistry, policy: str) -> None:
        self.registry = registry
        self._requests = instrument(registry, "repro_cluster_requests_total")
        self._queue_depth = instrument(registry, "repro_cluster_queue_depth")
        self._queue_wait = instrument(
            registry, "repro_cluster_queue_wait_seconds"
        ).labels(policy=policy)
        self._placements = instrument(registry,
                                      "repro_cluster_placements_total")
        self._completed = instrument(
            registry, "repro_cluster_sessions_completed_total")
        self._ranks_allocated = instrument(registry,
                                           "repro_cluster_ranks_allocated")
        self._active_vms = instrument(registry, "repro_cluster_active_vms")
        self._migrations = instrument(registry,
                                      "repro_cluster_migrations_total")
        self._migrated_bytes = instrument(
            registry, "repro_cluster_migrated_bytes_total")
        self._consolidations = instrument(
            registry, "repro_cluster_consolidation_runs_total")
        self._drained = instrument(registry,
                                   "repro_cluster_hosts_drained_total")
        self._policy = policy

    def request(self, outcome: str) -> None:
        self._requests.labels(policy=self._policy, outcome=outcome).inc()

    def queue_depth(self, depth: int) -> None:
        self._queue_depth.set(depth)

    def placement(self, host: str, wait_seconds: float) -> None:
        self._placements.labels(policy=self._policy, host=host).inc()
        self._queue_wait.observe(wait_seconds)

    def session_completed(self, host: str) -> None:
        self._completed.labels(host=host).inc()

    def host_load(self, host: str, ranks_allocated: int,
                  active_vms: int) -> None:
        self._ranks_allocated.labels(host=host).set(ranks_allocated)
        self._active_vms.labels(host=host).set(active_vms)

    def migration(self, from_host: str, to_host: str, nr_bytes: int) -> None:
        self._migrations.labels(from_host=from_host, to_host=to_host).inc()
        self._migrated_bytes.inc(nr_bytes)

    def consolidation_run(self) -> None:
        self._consolidations.inc()

    def host_drained(self) -> None:
        self._drained.inc()


class QosInstruments:
    """Telemetry of one QoS flow (``repro.qos``; one binding per VM)."""

    def __init__(self, registry: MetricsRegistry, flow_id: str,
                 spans=None) -> None:
        self.registry = registry
        self._spans = spans
        ids = dict(vm=flow_id)
        self._arbitrations = _Bound(registry, "repro_qos_arbitrations_total",
                                    "mode", **ids)
        self._arbitration_wait = _Bound(
            registry, "repro_qos_arbitration_wait_seconds", "cause", **ids)
        self._throttled = _Bound(registry, "repro_qos_throttled_total",
                                 "resource", **ids)
        self._throttle_wait = _Bound(
            registry, "repro_qos_throttle_wait_seconds", "resource", **ids)
        self._weight = instrument(
            registry, "repro_qos_flow_weight").labels(**ids)

    def arbitration(self, mode: str, wait_seconds: float,
                    cause: str) -> None:
        self._arbitrations[mode].inc()
        self._arbitration_wait[cause].observe(
            wait_seconds, exemplar=_exemplar_of(self._spans))

    def throttled(self, resource: str, wait_seconds: float) -> None:
        self._throttled[resource].inc()
        self._throttle_wait[resource].observe(wait_seconds)

    def weight(self, value: float) -> None:
        self._weight.set(value)


class SloInstruments:
    """Telemetry of the SLO tracker/enforcer (``repro.qos.slo``)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._burn = instrument(registry, "repro_qos_slo_burn_rate")
        self._violations = instrument(registry,
                                      "repro_qos_slo_violations_total")
        self._actuations = instrument(registry,
                                      "repro_qos_slo_actuations_total")

    def burn(self, tenant: str, objective: str, value: float) -> None:
        self._burn.labels(tenant=tenant, objective=objective).set(value)

    def violation(self, tenant: str, objective: str) -> None:
        self._violations.labels(tenant=tenant, objective=objective).inc()

    def actuation(self, tenant: str, action: str) -> None:
        self._actuations.labels(tenant=tenant, action=action).inc()


class PagingInstruments:
    """Telemetry of the rank pager (``repro.paging``; one per host).

    Swap directions are ``out`` (frame -> store) and ``in`` (store ->
    frame); fault kinds are ``first_touch`` (fresh vrank binding a
    frame), ``demand`` (an operation hit a swapped-out rank) and
    ``predictive`` (swap-in started while the request queued).
    """

    def __init__(self, registry: MetricsRegistry, policy: str,
                 spans=None) -> None:
        self.registry = registry
        self._spans = spans
        swaps = instrument(registry, "repro_paging_swaps_total")
        swap_bytes = instrument(registry, "repro_paging_swap_bytes_total")
        swap_seconds = instrument(registry, "repro_paging_swap_seconds")
        self._swap_bound = {
            direction: (swaps.labels(direction=direction),
                        swap_bytes.labels(direction=direction),
                        swap_seconds.labels(direction=direction))
            for direction in ("out", "in")
        }
        self._faults = instrument(registry, "repro_paging_faults_total")
        self._evictions = instrument(
            registry, "repro_paging_evictions_total").labels(policy=policy)
        self._ranks = instrument(registry, "repro_paging_ranks")
        self._store_bytes = instrument(registry, "repro_paging_store_bytes")
        self._dedup_hits = instrument(registry,
                                      "repro_paging_dedup_hits_total")
        self._overlap = instrument(
            registry, "repro_paging_prefault_overlap_seconds_total")

    def swap(self, direction: str, nbytes: int, duration: float) -> None:
        swaps, swap_bytes, swap_seconds = self._swap_bound[direction]
        swaps.inc()
        swap_bytes.inc(nbytes)
        swap_seconds.observe(duration, exemplar=_exemplar_of(self._spans))

    def fault(self, kind: str) -> None:
        self._faults.labels(kind=kind).inc()

    def eviction(self) -> None:
        self._evictions.inc()

    def residency(self, resident: int, swapped: int) -> None:
        self._ranks.labels(state="resident").set(resident)
        self._ranks.labels(state="swapped").set(swapped)

    def store_footprint(self, raw: int, stored: int) -> None:
        self._store_bytes.labels(kind="raw").set(raw)
        self._store_bytes.labels(kind="stored").set(stored)

    def dedup_hit(self, count: int = 1) -> None:
        if count:
            self._dedup_hits.inc(count)

    def prefault_overlap(self, seconds: float) -> None:
        if seconds > 0:
            self._overlap.inc(seconds)


class FaultInstruments:
    """Telemetry of the fault-injection and recovery subsystem.

    One binding may live in a machine registry (single-host chaos) or the
    cluster registry (host-crash scenarios); injectors, the frontend
    retry path and the recovery helpers all share the ``repro_fault_*``
    families.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._injected = instrument(registry, "repro_fault_injected_total")
        self._detected = instrument(registry, "repro_fault_detected_total")
        self._recovered = instrument(registry, "repro_fault_recovered_total")
        self._recovery_seconds = instrument(
            registry, "repro_fault_recovery_seconds")
        self._sessions_lost = instrument(
            registry, "repro_fault_sessions_lost_total")
        self._retries = instrument(registry, "repro_fault_retries_total")

    def injected(self, kind: str) -> None:
        self._injected.labels(kind=kind).inc()

    def detected(self, kind: str, layer: str) -> None:
        self._detected.labels(kind=kind, layer=layer).inc()

    def recovered(self, kind: str, action: str) -> None:
        self._recovered.labels(kind=kind, action=action).inc()

    def recovery_time(self, kind: str, seconds: float) -> None:
        self._recovery_seconds.labels(kind=kind).observe(seconds)

    def session_lost(self) -> None:
        self._sessions_lost.inc()

    def retry(self, layer: str) -> None:
        self._retries.labels(layer=layer).inc()


class TraceInstruments:
    """The tracer->metrics bridge (one run, both artifacts)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._events = instrument(registry, "repro_trace_events_total")
        self._dropped = instrument(registry,
                                   "repro_trace_dropped_events_total")

    def event(self, category: str) -> None:
        self._events.labels(category=category).inc()

    def dropped(self) -> None:
        self._dropped.inc()


class SpanInstruments:
    """Telemetry of the span recorder itself.

    Counters stay exact regardless of sampling: a trace decided away by
    ``sample_rate`` still counts every span it started, so the metric
    view never under-reports traffic the trace view chose not to keep.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        #: Per-layer started counters.  The recorder bumps these itself
        #: (``started[layer].inc()``): it runs once per span started.
        self.started = _Bound(registry, "repro_span_started_total", "layer")
        self._dropped = _Bound(registry, "repro_span_dropped_total", "reason")
        self._traces = _Bound(registry, "repro_span_traces_total", "retained")
        # Registered on first use, not at construction: the retention
        # family only exists when tail sampling is on, so default-run
        # snapshots keep their pre-telemetry family set byte-for-byte.
        self._retention = None

    def dropped(self, reason: str, count: int = 1) -> None:
        self._dropped[reason].inc(count)

    def trace(self, retained: bool) -> None:
        self._traces["true" if retained else "false"].inc()

    def retention(self, tier: str) -> None:
        """One finished trace classified into ``tier`` by the tail sampler."""
        if self._retention is None:
            self._retention = _Bound(
                self.registry, "repro_span_retention_total", "tier")
        self._retention[tier].inc()


class TsdbInstruments:
    """Self-telemetry of the time-series store.

    These live in the *same* registry the store scrapes, so a store that
    drops points reports that fact in its own next scrape — the CI smoke
    job fails the build on any nonzero drop counter.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._scrapes = instrument(registry, "repro_tsdb_scrapes_total")
        self._samples = instrument(registry, "repro_tsdb_samples_total")
        self._dropped = instrument(registry,
                                   "repro_tsdb_dropped_points_total")
        self._series = instrument(registry, "repro_tsdb_series")

    def scrape(self, samples: int) -> None:
        self._scrapes.inc()
        if samples:
            self._samples.inc(samples)

    def dropped(self, name: str, count: int = 1) -> None:
        self._dropped.labels(name=name).inc(count)

    def series_count(self, count: int) -> None:
        self._series.set(count)


class AlertInstruments:
    """Telemetry of the alert-rule engine (``repro.observability.alerts``)."""

    _STATES = ("inactive", "pending", "firing", "resolved")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._state = instrument(registry, "repro_alert_state")
        self._transitions = instrument(registry,
                                       "repro_alert_transitions_total")
        self._evaluations = instrument(registry,
                                       "repro_alert_evaluations_total")

    def state(self, rule: str, state: str) -> None:
        for candidate in self._STATES:
            self._state.labels(rule=rule, state=candidate).set(
                1.0 if candidate == state else 0.0)

    def transition(self, rule: str, to_state: str) -> None:
        self._transitions.labels(rule=rule, to_state=to_state).inc()

    def evaluation(self, rule: str) -> None:
        self._evaluations.labels(rule=rule).inc()
