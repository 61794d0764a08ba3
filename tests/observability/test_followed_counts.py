"""One count, one place: a counter that mirrors a domain count reads it.

Random op sequences — alloc, copy, push, read, launch, ``ci_ops`` and
release — run on two VM sessions of a paged host (two virtual ranks on
one physical one, so switching sessions faults and evicts).  A clock
listener scrapes the registry at every advance, inside SDK ops too
(``DpuSet.push`` advances the clock before its root span closes).  At
every scrape each followed series equals the count its owner keeps —
frontend, plan cache, XLB, virtqueues, ranks, manager, pager, swap
store, span recorder —
and a labeled series exists only once its count was touched
(``docs/observability.md``, "Counts are integers the series read").
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.figures import machine_config
from repro.core import VPim
from repro.paging.config import PagingConfig
from repro.sdk.dpu_set import DpuSet
from tests.tasklet_reference import TaskletProgram

NR_DPUS = 8
SIZES = (64, 4096, 8192, 20000)

#: ``key -> family`` of the plan-cache and XLB counts; their series
#: have no varying label, so they export from construction.
PLAN_FAMILIES = {"hits": "repro_plan_cache_hits_total",
                 "misses": "repro_plan_cache_misses_total",
                 "evictions": "repro_plan_cache_evictions_total"}
XLB_FAMILIES = {"hits": "repro_xlb_hits_total",
                "misses": "repro_xlb_misses_total"}
#: ``key -> (family, fixed labels)`` of a frontend's ``counts``; eager
#: series too.
FRONTEND_FAMILIES = {
    "batched_writes": ("repro_frontend_batched_writes_total", {}),
    "prefetch_hits": ("repro_frontend_prefetch_lookups_total",
                      {"result": "hit"}),
    "prefetch_misses": ("repro_frontend_prefetch_lookups_total",
                        {"result": "miss"}),
    "prefetch_refills": ("repro_frontend_prefetch_refills_total", {}),
}
FOLLOWED = {
    *PLAN_FAMILIES.values(), *XLB_FAMILIES.values(),
    *(family for family, _ in FRONTEND_FAMILIES.values()),
    "repro_frontend_requests_total",
    "repro_virtio_kicks_total",
    "repro_rank_xfer_ops_total", "repro_rank_xfer_bytes_total",
    "repro_manager_allocations_total", "repro_manager_resets_total",
    "repro_manager_allocation_retries_exhausted_total",
    "repro_paging_faults_total", "repro_paging_evictions_total",
    "repro_paging_swaps_total", "repro_paging_swap_bytes_total",
    "repro_paging_prefault_overlap_seconds_total",
    "repro_paging_dedup_hits_total",
    "repro_span_started_total", "repro_span_dropped_total",
    "repro_span_traces_total",
}


class Touch(TaskletProgram):
    name = "touch"
    symbols = {"out": 4}
    nr_tasklets = 2

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.set_host_u32("out", 7)
            ctx.charge(1)
        yield ctx.barrier()


def _labels(**labels: object) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


#: Followed families whose series appear on a count's first touch and
#: that no session touches before its first allocation.
FIRST_TOUCH = {
    "repro_frontend_requests_total",
    "repro_virtio_kicks_total", "repro_rank_xfer_ops_total",
    "repro_rank_xfer_bytes_total", "repro_manager_allocations_total",
    "repro_manager_resets_total", "repro_paging_faults_total",
    "repro_paging_prefault_overlap_seconds_total",
    "repro_paging_dedup_hits_total",
}

#: The one series of a followed family that no count feeds: a swap-in
#: has no pager count of its own, so it still calls ``inc``.
SWAPS_IN = ("repro_paging_swaps_total", (("direction", "in"),))


def _scraped(registry) -> dict:
    """``{(family, labels): value}`` of every followed series."""
    got = {(family.name, _labels(**labels)): child.value
           for family in registry.collect() if family.name in FOLLOWED
           for labels, child in family.samples()}
    del got[SWAPS_IN]
    return got


def _expected(vpim, sessions) -> dict:
    """The same keys and values, from the owners' own counts: eager
    series always, a labeled one only for a key its count holds."""
    want: Counter = Counter()
    for session in sessions:
        for device in session.vm.devices:
            ids = {"vm": session.vm.vm_id, "device": device.device_id}
            for source, families in (
                    (device.frontend.plans.counts, PLAN_FAMILIES),
                    (device.backend.xlb.counts, XLB_FAMILIES)):
                for key, family in families.items():
                    want[family, _labels(**ids)] += source.get(key, 0)
            counts = device.frontend.counts
            for key, (family, fixed) in FRONTEND_FAMILIES.items():
                want[family, _labels(**fixed, **ids)] += counts.get(key, 0)
            for kind, n in device.frontend.requests.items():
                want["repro_frontend_requests_total",
                     _labels(kind=kind, **ids)] += n
            queues = device.frontend.queues
            for queue in (queues.transferq, queues.controlq):
                for name, n in queue.kicks.items():
                    want["repro_virtio_kicks_total",
                         _labels(queue=name, **ids)] += n
    for rank in vpim.machine.ranks:
        for family, counts in (("repro_rank_xfer_ops_total", rank.xfer_ops),
                               ("repro_rank_xfer_bytes_total",
                                rank.xfer_bytes)):
            for direction, n in counts.items():
                want[family, _labels(rank=rank.index,
                                     direction=direction)] += n
    manager = vpim.manager
    for outcome, n in manager.allocations.items():
        want["repro_manager_allocations_total",
             _labels(policy="round_robin", outcome=outcome)] = n
    want["repro_manager_allocation_retries_exhausted_total",
         _labels(policy="round_robin")] = manager.allocations.get(
             "abandoned", 0)
    if "resets" in manager.counts:  # label-less: exports on first touch
        want["repro_manager_resets_total", ()] = manager.counts["resets"]
    pager = manager.pager
    counts = pager.counts
    for kind, n in pager.faults.items():
        want["repro_paging_faults_total", _labels(kind=kind)] += n
    want["repro_paging_evictions_total",
         _labels(policy="lru")] = counts.get("evictions", 0)
    want["repro_paging_swaps_total",
         _labels(direction="out")] = counts.get("evictions", 0)
    want["repro_paging_swap_bytes_total",
         _labels(direction="out")] = counts.get("swap_out_bytes", 0)
    want["repro_paging_swap_bytes_total",
         _labels(direction="in")] = counts.get("swap_in_bytes", 0)
    for family, source, key in (
            ("repro_paging_prefault_overlap_seconds_total", counts,
             "prefault_overlap_s"),
            ("repro_paging_dedup_hits_total", pager.store.counts,
             "dedup_hits")):
        if key in source:           # label-less: exports on first touch
            want[family, ()] = source[key]
    spans = vpim.spans
    for family, label, source in (
            ("repro_span_started_total", "layer", spans._started),
            ("repro_span_dropped_total", "reason", spans.spans_dropped),
            ("repro_span_traces_total", "retained", spans._finished)):
        for value, n in source.items():
            want[family, _labels(**{label: value})] += n
    return dict(want)


ops = st.lists(st.tuples(
    st.sampled_from(("alloc", "copy", "push", "read", "launch", "ci_ops",
                     "release")),
    st.integers(min_value=0, max_value=1),              # session
    st.integers(min_value=0, max_value=NR_DPUS - 1),    # DPU
    st.sampled_from(SIZES),
), min_size=1, max_size=14)


def _run(dpus: DpuSet, op: str, dpu: int, size: int) -> None:
    payload = np.full(size, dpu + 1, dtype=np.uint8)
    if op == "copy":
        dpus.copy_to_mram(dpu, 0, payload)
        assert np.array_equal(dpus.copy_from_mram(dpu, 0, size), payload)
    elif op == "push":
        dpus.push_to_mram(0, [payload] * NR_DPUS)
    elif op == "read":
        dpus.push_from_mram(0, size)
    elif op == "launch":
        dpus.load(Touch())
        dpus.launch()
    elif op == "ci_ops":
        dpus.ci_ops(3 + dpu * 2)    # past 8: the arithmetic remainder


@settings(max_examples=12, deadline=None)
@given(ops=ops, max_traces=st.sampled_from((0, 4, 256)))
def test_every_followed_series_is_its_count_at_every_scrape(ops, max_traces):
    vpim = VPim(machine_config(1, dpus_per_rank=NR_DPUS),
                paging=PagingConfig(overcommit_ratio=2.0))
    vpim.spans.max_traces = max_traces
    sessions = [vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
                for _ in range(2)]
    registry = vpim.machine.metrics
    seen = [(_scraped(registry), _expected(vpim, sessions))]
    # Booted, nothing allocated: no count touched, so no lazy series.
    assert not {key for key in seen[0][0] if key[0] in FIRST_TOUCH}
    vpim.clock.add_listener(lambda now: seen.append(
        (_scraped(registry), _expected(vpim, sessions))))
    sets = [None, None]
    for op, which, dpu, size in ops:
        if op == "release":
            if sets[which] is not None:
                sets[which].free()
                sets[which] = None
            continue
        if sets[which] is None:
            sets[which] = DpuSet(sessions[which].transport, NR_DPUS)
        if op != "alloc":
            _run(sets[which], op, dpu, size)
    for dpus in sets:
        if dpus is not None:
            dpus.free()
    seen.append((_scraped(registry), _expected(vpim, sessions)))
    for got, want in seen:
        assert got == want
