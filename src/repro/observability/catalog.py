"""The metric catalog: one table per component, one row per metric.

A component's table maps the attribute it touches to the family's only
declaration — name, kind, help, schema labels, paper reference — and
the row's fixed labels.  :func:`bind` turns a table into a plain
namespace of metric children, so a call site reads
``obs.batch_flushes[reason].inc()`` or ``obs.requests[rank, kind].inc()``
with nothing in between.  :data:`CATALOG` is derived from the tables and is
what ``docs/observability.md`` (``tests/test_docs.py``) and the alert
rules are checked against.

Each row names the paper figure/section the metric supports, because
the point of this subsystem is making the paper's breakdowns (Figs.
12-16) observable live instead of post-hoc.

Adding a metric is one row here and one touch at the call site.  A
counter that mirrors a count its owner keeps anyway (plan-cache and XLB
hits, kicks, rank transfers, pager swaps, spans) has no touch: the
owner's :class:`~repro.observability.metrics.Counts` gets the row's
children, and the series follows the count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Dict, Tuple

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

    def create(self, registry: MetricsRegistry) -> MetricFamily:
        if self.kind == "counter":
            return registry.counter(self.name, self.help, self.labels)
        if self.kind == "gauge":
            return registry.gauge(self.name, self.help, self.labels)
        return registry.histogram(self.name, self.help, self.labels)


def _row(kind: str, name: str, help: str, labels: Tuple[str, ...],
         paper: str, **fixed: str) -> tuple:
    return MetricSpec(name, kind, help, labels, paper), fixed


_counter = partial(_row, "counter")
_gauge = partial(_row, "gauge")
_histogram = partial(_row, "histogram")


class Table(dict):
    """One component's rows, ``attribute -> (spec, fixed labels)``.

    ``identity`` names the labels the component passes to :func:`bind`
    (``rank=``; ``vm=, device=``); each row takes those its schema names
    and may fix only labels of its schema outside them.
    """

    def __init__(self, identity: Tuple[str, ...], **rows: tuple) -> None:
        super().__init__(rows)
        self.identity = identity
        for attribute, (spec, fixed) in rows.items():
            if not set(fixed) <= set(spec.labels) - set(identity):
                raise ObservabilityError(
                    f"{attribute}: {spec.name} fixes {sorted(fixed)}, "
                    f"schema is {list(spec.labels)}, identity "
                    f"{list(identity)}")


class _Bound(dict):
    """Children of one family, bound once per value of its varying label(s).

    ``bound[value]`` (``bound[a, b]`` with several varying labels, in
    schema order) is a plain dict hit on every call but the first, so a
    request path resolves no labels.  The first call goes through
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


def bind(registry: MetricsRegistry, table: Table, spans=None,
         **ids: object) -> SimpleNamespace:
    """Bind one component's ``table`` in ``registry``, in table order.

    ``ids`` must be exactly the table's identity labels and every row a
    cataloged family, else :class:`~repro.errors.ObservabilityError`.
    A row's varying labels are its schema less the identity and fixed
    labels, in schema order.  What a row binds to:

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
    if set(ids) != set(table.identity):
        raise ObservabilityError(
            f"bound with {sorted(ids)}, the table's identity is "
            f"{list(table.identity)}")
    obs = SimpleNamespace(
        exemplar=spans.exemplar if spans is not None else _no_exemplar)
    for attribute, (spec, fixed) in table.items():
        if CATALOG.get(spec.name) is not spec:
            raise ObservabilityError(
                f"{attribute}: {spec.name} is not in the catalog")
        family = spec.create(registry)
        given = {k: v for k, v in ids.items() if k in spec.labels}
        given.update(fixed)
        varying = tuple(label for label in spec.labels if label not in given)
        if not spec.labels:
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


#: One physical (or emulated) rank.
RANK = Table(
    ("rank",),
    xfer_ops=_counter(
        "repro_rank_xfer_ops_total",
        "Rank transfer operations, by direction",
        ("rank", "direction"), "Fig. 12 (W-rank/R-rank counts)"),
    xfer_bytes=_counter(
        "repro_rank_xfer_bytes_total",
        "Bytes moved between host and MRAM banks, by direction",
        ("rank", "direction"), "Fig. 9c (size sensitivity)"),
    xfer_seconds=_histogram(
        "repro_rank_xfer_seconds",
        "Simulated duration of each rank transfer operation",
        ("rank", "direction"), "Fig. 13 (T-data step)"),
    launches=_counter(
        "repro_rank_launches_total", "Rank-level program launches",
        ("rank",), "§2 (launch runs to completion)"),
    dpu_boots=_counter(
        "repro_rank_dpu_boots_total",
        "Individual DPU boots performed by launches", ("rank",), "§2"),
    launch_seconds=_histogram(
        "repro_rank_launch_seconds",
        "Simulated duration of each launch (slowest DPU of the rank)",
        ("rank",), "Fig. 8 (DPU segment)"),
    ci_ops=_counter(
        "repro_rank_ci_ops_total",
        "Control-interface operations, by command kind",
        ("rank", "command"), "Fig. 12 (CI bar), §5.3.1"),
    resets=_counter(
        "repro_rank_resets_total",
        "Hardware resets (manager-triggered isolation wipes)",
        ("rank",), "§3.5"),
    dpu_faults=_counter(
        "repro_dpu_faults_total", "DPU kernels that faulted during a launch",
        ("rank",), "§2 (CI-reported FAULT state)"),
)

_PREFETCH_LOOKUPS = MetricSpec(
    "repro_frontend_prefetch_lookups_total", "counter",
    "Prefetch-cache lookups in the guest driver, by outcome",
    ("vm", "device", "result"), "Fig. 14 (hits column), §4.1")

#: One vUPMEM frontend (the guest driver side).
FRONTEND = Table(
    ("vm", "device"),
    prefetch_hits=(_PREFETCH_LOOKUPS, {"result": "hit"}),
    prefetch_misses=(_PREFETCH_LOOKUPS, {"result": "miss"}),
    prefetch_refills=_counter(
        "repro_frontend_prefetch_refills_total",
        "Cache-segment fetches triggered by prefetch misses",
        ("vm", "device"), "§4.1 (prefetch cache)"),
    batched_writes=_counter(
        "repro_frontend_batched_writes_total",
        "Small MRAM writes absorbed by the batch buffer instead of sent",
        ("vm", "device"), "Fig. 14 (batched column), §4.1"),
    batch_flushes=_counter(
        "repro_frontend_batch_flushes_total",
        "Collective flushes of the write-batch buffer, by trigger",
        ("vm", "device", "reason"), "§4.1 (request batching)"),
    requests=_counter(
        "repro_frontend_requests_total",
        "virtio-pim requests actually sent on the transferq, by op code",
        ("vm", "device", "kind"), "Fig. 14 (messages column)"),
    request_seconds=_histogram(
        "repro_frontend_request_seconds",
        "Simulated guest->VMM->guest round-trip latency per request",
        ("vm", "device", "kind"), "Fig. 13 (request time)"),
    queue_depth=_gauge(
        "repro_virtio_queue_depth",
        "Descriptor chains outstanding on a virtqueue",
        ("vm", "device", "queue"), "Appendix A.1 (512-slot transferq)"),
    kicks=_counter(
        "repro_virtio_kicks_total",
        "Guest notifications (trapped MMIO writes) per virtqueue",
        ("vm", "device", "queue"), "§3.4 (transition cost)"),
    cache_hits=_counter(
        "repro_xfer_cache_hits_total",
        "Write extents suppressed by the content-aware transfer cache",
        ("vm", "device"), "PIM-CACHE extension (docs/transfer_cache.md)"),
    cache_misses=_counter(
        "repro_xfer_cache_misses_total",
        "Write extents probed but not matched in the digest index",
        ("vm", "device"), "PIM-CACHE extension (docs/transfer_cache.md)"),
    cache_suppressed=_counter(
        "repro_xfer_cache_suppressed_bytes_total",
        "Payload bytes elided from the wire by transfer suppression",
        ("vm", "device"), "PIM-CACHE extension (docs/transfer_cache.md)"),
    cache_invalidations=_counter(
        "repro_xfer_cache_invalidations_total",
        "Digest records dropped, by invalidation reason",
        ("vm", "device", "reason"),
        "PIM-CACHE extension (docs/transfer_cache.md)"),
    plan_hits=_counter(
        "repro_plan_cache_hits_total",
        "Transfers replayed from a compiled shape-specialized plan",
        ("vm", "device"), "§4.1/§4.2 (docs/performance.md)"),
    plan_misses=_counter(
        "repro_plan_cache_misses_total",
        "Data requests that replayed no plan: compiled one, or went naive",
        ("vm", "device"), "§4.1/§4.2 (docs/performance.md)"),
    plan_evictions=_counter(
        "repro_plan_cache_evictions_total",
        "Plans dropped by the LRU bound of the plan cache",
        ("vm", "device"), "docs/performance.md (plan cache)"),
    plan_invalidations=_counter(
        "repro_plan_cache_invalidations_total",
        "Plans dropped because replay became unsafe, by reason",
        ("vm", "device", "reason"), "docs/performance.md (plan cache)"),
)

#: One vUPMEM backend (the VMM device model side).
BACKEND = Table(
    ("vm", "device"),
    requests=_counter(
        "repro_backend_requests_total",
        "Requests processed by the VMM backend, by op code and bound rank",
        ("vm", "device", "rank", "kind"), "§4.2"),
    request_seconds=_histogram(
        "repro_backend_request_seconds",
        "Simulated backend worker time per request (deser+translate+data)",
        ("vm", "device", "kind"), "Fig. 13 (Deser/T-data steps)"),
    translation_seconds=_histogram(
        "repro_backend_translation_seconds",
        "Simulated threaded GPA->HVA translation time per data request",
        ("vm", "device"), "§4.2 (8 translation threads)"),
    translated_pages=_counter(
        "repro_backend_translated_pages_total",
        "Guest pages translated for zero-copy access",
        ("vm", "device"), "§4.2 (zero copy)"),
    interleave_seconds=_histogram(
        "repro_backend_interleave_seconds",
        "Simulated data-path time (byte interleave + copy) per transfer",
        ("vm", "device"), "Fig. 11 (C vs Rust data path)"),
    batch_replays=_counter(
        "repro_backend_batch_replay_records_total",
        "Buffered small writes replayed as individual rank operations",
        ("vm", "device"), "§4.1 (batching merges messages, not ops)"),
    xlb_hits=_counter(
        "repro_xlb_hits_total",
        "GPA->HVA page runs served by the backend translation cache",
        ("vm", "device"), "§4.2 (translation threads; wall-clock XLB)"),
    xlb_misses=_counter(
        "repro_xlb_misses_total",
        "GPA->HVA page runs that required full bounds-checked translation",
        ("vm", "device"), "§4.2 (translation threads; wall-clock XLB)"),
    bufpool_reuse=_counter(
        "repro_bufpool_reuse_total",
        "Data-plane buffer acquisitions served from the reuse pool",
        ("vm", "device"), "§5.4.1 (host-side copy plumbing cost)"),
)

#: The host-wide rank manager; ``policy`` labels its one NAAV order,
#: ``round_robin`` (§3.5).
MANAGER = Table(
    ("policy",),
    transitions=_counter(
        "repro_manager_state_transitions_total",
        "Rank-table state transitions (ALLO/NAAV/NANA lifecycle)",
        ("from_state", "to_state"), "Fig. 5, §3.5"),
    allocations=_counter(
        "repro_manager_allocations_total",
        "Rank allocation decisions, by active NAAV policy and outcome",
        ("policy", "outcome"), "§3.5 (allocation policy order)"),
    alloc_wait=_histogram(
        "repro_manager_alloc_wait_seconds",
        "Simulated time a requester waited for a rank (incl. reset waits)",
        ("policy",), "§4.2 (manager overhead)"),
    resets=_counter(
        "repro_manager_resets_total",
        "Isolation resets scheduled after a rank release",
        (), "§3.5 (reset-for-isolation)"),
    ranks=_gauge(
        "repro_manager_ranks", "Ranks currently in each lifecycle state",
        ("state",), "Fig. 5"),
    exhausted=_counter(
        "repro_manager_allocation_retries_exhausted_total",
        "Allocation requests abandoned after the retry budget ran out",
        ("policy",), "§3.5 (allocation policy step 4)"),
)

#: The Firecracker launcher.
VM = Table(
    (),
    boots=_counter(
        "repro_vm_boots_total", "microVMs booted by the Firecracker launcher",
        (), "§3.2"),
    boot_seconds=_histogram(
        "repro_vm_boot_seconds",
        "Simulated boot time per microVM (base + per-device cost)",
        (), "§3.2 (up to 2 ms per vUPMEM device)"),
    devices=_gauge(
        "repro_vm_vupmem_devices", "vUPMEM devices attached to each VM",
        ("vm",), "§3.3 (vUPMEM booking)"),
)

#: Execution sessions (one application run each).
SESSION = Table(
    (),
    runs=_counter(
        "repro_session_runs_total",
        "Application executions, by transport mode and verification result",
        ("app", "mode", "verified"), "§5 (evaluation runs)"),
    run_seconds=_histogram(
        "repro_session_run_seconds",
        "Simulated end-to-end application time per run",
        ("app", "mode"), "Fig. 8 (total time)"),
)

#: One QoS flow (one per VM): weighted-fair bus arbitration (repro.qos).
QOS = Table(
    ("vm",),
    arbitrations=_counter(
        "repro_qos_arbitrations_total",
        "Bus/event-loop arbitration decisions per flow, by scheduling mode",
        ("vm", "mode"), "§6 R2 (multi-tenant isolation; docs/qos.md)"),
    arbitration_wait=_histogram(
        "repro_qos_arbitration_wait_seconds",
        "Modeled per-operation delay from sharing the host bus, by cause",
        ("vm", "cause"), "Fig. 16 (bus contention; docs/qos.md)"),
    throttled=_counter(
        "repro_qos_throttled_total",
        "Token-bucket throttle events per flow, by resource",
        ("vm", "resource"), "docs/qos.md (token buckets)"),
    throttle_wait=_histogram(
        "repro_qos_throttle_wait_seconds",
        "Modeled wait imposed by token-bucket throttles, by resource",
        ("vm", "resource"), "docs/qos.md (token buckets)"),
    weight=_gauge(
        "repro_qos_flow_weight",
        "Current weighted-fair-queueing weight of each registered flow",
        ("vm",), "docs/qos.md (WFQ weights)"),
)

#: The SLO tracker/enforcer.
SLO = Table(
    (),
    burn=_gauge(
        "repro_qos_slo_burn_rate",
        "Observed/target ratio per tenant objective (>1 = burning hot)",
        ("tenant", "objective"), "docs/qos.md (SLO layer)"),
    violations=_counter(
        "repro_qos_slo_violations_total",
        "Enforcement passes that found a tenant objective burning hot",
        ("tenant", "objective"), "docs/qos.md (SLO layer)"),
    actuations=_counter(
        "repro_qos_slo_actuations_total",
        "SLO enforcement actions taken, by action kind",
        ("tenant", "action"), "docs/qos.md (actuation ladder)"),
)

_SWAPS = MetricSpec(
    "repro_paging_swaps_total", "counter",
    "Rank state copies between frames and the swap store, by direction",
    ("direction",), "§7 (checkpoint/restore; docs/paging.md)")
_SWAP_BYTES = MetricSpec(
    "repro_paging_swap_bytes_total", "counter",
    "Checkpointed MRAM bytes moved by swap traffic, by direction",
    ("direction",), "docs/paging.md (swap traffic)")
_SWAP_SECONDS = MetricSpec(
    "repro_paging_swap_seconds", "histogram",
    "Modeled duration of each swap copy (charged at rank bandwidth)",
    ("direction",), "docs/paging.md (cost model)")

#: The rank pager (one per host; repro.paging, §7 oversubscription).
#: Both swap directions export from boot: ``out`` is frame -> store,
#: ``in`` store -> frame.
PAGING = Table(
    ("policy",),
    swaps_out=(_SWAPS, {"direction": "out"}),
    swaps_in=(_SWAPS, {"direction": "in"}),
    swap_bytes_out=(_SWAP_BYTES, {"direction": "out"}),
    swap_bytes_in=(_SWAP_BYTES, {"direction": "in"}),
    swap_seconds_out=(_SWAP_SECONDS, {"direction": "out"}),
    swap_seconds_in=(_SWAP_SECONDS, {"direction": "in"}),
    faults=_counter(
        "repro_paging_faults_total", "Rank faults taken by the pager, by kind",
        ("kind",), "docs/paging.md (demand vs predictive faults)"),
    evictions=_counter(
        "repro_paging_evictions_total",
        "Victim ranks swapped out to free a frame, by eviction policy",
        ("policy",), "docs/paging.md (eviction)"),
    ranks=_gauge(
        "repro_paging_ranks",
        "Virtual ranks currently in each residency state",
        ("state",), "docs/paging.md (residency lifecycle)"),
    store_bytes=_gauge(
        "repro_paging_store_bytes",
        "Swap-store footprint: logical (raw) vs deduplicated (stored)",
        ("kind",), "docs/paging.md (SwapStore dedup)"),
    dedup_hits=_counter(
        "repro_paging_dedup_hits_total",
        "Swapped segments whose payload was already held by the store",
        (), "docs/paging.md (content-addressed segments)"),
    prefault_overlap=_counter(
        "repro_paging_prefault_overlap_seconds_total",
        "Swap-in time hidden under virtio queue wait by predictive faults",
        (), "docs/paging.md (predictive swap-in)"),
)

#: Fault injection and recovery (repro.faults), bound in the machine
#: registry; injectors, the retry policy and the recovery helpers share
#: these families.
FAULT = Table(
    (),
    injected=_counter(
        "repro_fault_injected_total",
        "Fault events fired by the injector, by fault kind",
        ("kind",), "§3.5 motivation (ranks are failure-prone)"),
    detected=_counter(
        "repro_fault_detected_total",
        "Faults noticed by a stack layer (error raised or verify failed)",
        ("kind", "layer"), "§3.5 (manager health tracking)"),
    recovered=_counter(
        "repro_fault_recovered_total",
        "Successful recovery actions, by fault kind and action taken",
        ("kind", "action"), "§7 (checkpoint/restore enables recovery)"),
    recovery_seconds=_histogram(
        "repro_fault_recovery_seconds",
        "Simulated time from fault detection to recovered service (MTTR)",
        ("kind",), "§7"),
    sessions_lost=_counter(
        "repro_fault_sessions_lost_total",
        "Sessions abandoned because recovery was impossible or exhausted",
        (), "§3.5 (isolation keeps failures per-tenant)"),
    retries=_counter(
        "repro_fault_retries_total",
        "Bounded-backoff retries of an operation after a transient fault",
        ("layer",), "§4.1 (frontend request path)"),
)

#: The span recorder itself.  Counters stay exact regardless of
#: sampling: a trace decided away still counts every span it started.
SPAN = Table(
    (),
    started=_counter(
        "repro_span_started_total",
        "Spans opened by the recorder, by stack layer",
        ("layer",), "Figs. 12/13 (per-layer request breakdowns)"),
    dropped=_counter(
        "repro_span_dropped_total",
        "Spans dropped by the per-trace or retained-trace caps, by reason",
        ("reason",), "implementation backstop (bounded memory)"),
    traces=_counter(
        "repro_span_traces_total",
        "Traces finished by the recorder, by retention outcome",
        ("retained",), "§5 (sampled evaluation runs)"),
)

#: Bound by the recorder on first use: the family exists only when tail
#: sampling is on, so default-run snapshots keep their family set.
SPAN_RETENTION = Table(
    (),
    retention=_counter(
        "repro_span_retention_total",
        "Traces classified by the tail sampler, by retention tier",
        ("tier",), "docs/monitoring.md (tail-based retention)"),
)

#: Self-telemetry of the time-series store, in the registry it scrapes:
#: a store that drops points reports it in its own next scrape.
TSDB = Table(
    (),
    scrapes=_counter(
        "repro_tsdb_scrapes_total",
        "Registry scrapes completed by the time-series store",
        (), "docs/monitoring.md (scrape cadence)"),
    samples=_counter(
        "repro_tsdb_samples_total",
        "Data points appended across all series by the store",
        (), "docs/monitoring.md (ring buffers)"),
    dropped=_counter(
        "repro_tsdb_dropped_points_total",
        "Oldest points overwritten by a full series ring buffer",
        ("name",), "docs/monitoring.md (bounded retention)"),
    series=_gauge(
        "repro_tsdb_series",
        "Distinct series (metric name + label set) currently held",
        (), "docs/monitoring.md (cardinality)"),
)

#: The alert-rule engine.
ALERT = Table(
    (),
    state=_gauge(
        "repro_alert_state",
        "Whether each alert rule currently occupies the given state",
        ("rule", "state"), "docs/monitoring.md (rule state machine)"),
    transitions=_counter(
        "repro_alert_transitions_total",
        "Alert rule state transitions, by destination state",
        ("rule", "to_state"), "docs/monitoring.md (rule state machine)"),
    evaluations=_counter(
        "repro_alert_evaluations_total",
        "Rule evaluation passes executed by the alert engine",
        ("rule",), "docs/monitoring.md (evaluation loop)"),
)

#: Every component table; the catalog is the families their rows declare.
TABLES: Tuple[Table, ...] = (
    RANK, FRONTEND, BACKEND, MANAGER, VM, SESSION, QOS, SLO, PAGING,
    FAULT, SPAN, SPAN_RETENTION, TSDB, ALERT)

#: Name -> spec of every family the tables declare.
CATALOG: Dict[str, MetricSpec] = {
    spec.name: spec for table in TABLES for spec, _ in table.values()}
