"""The vUPMEM frontend: the virtio driver in the guest kernel (Section 4.1).

The frontend exposes a device file to the guest userspace (the SDK's safe
mode) and forwards requests to the backend over the transferq.  It hosts
the two message-count optimizations:

- **Prefetch cache** — 16 pages per DPU.  A read smaller than the cache
  is served locally when the cached segment covers it; a miss fetches a
  cache-sized segment per DPU in one request.  The cache is invalidated
  by writes, launches, CI operations, and rank release.
- **Request batching** — 64 pages per DPU.  Small MRAM writes accumulate
  in a batch buffer and flush collectively (one message) when the buffer
  fills or any non-write request arrives.

Every request the frontend actually sends costs one guest->VMM->guest
transition; the whole point of both optimizations is to send fewer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import MRAM_HEAP_SYMBOL, MRAM_SIZE, PAGE_SIZE
from repro.driver.driver import DeviceConfig
from repro.errors import (
    DeviceNotLinkedError,
    HardwareError,
    TransferError,
    TransientFaultError,
)
from repro.hardware.memory import BlockRecycler, result_block
from repro.hardware.timing import CostModel
from repro.observability import MetricsRegistry
from repro.observability.catalog import FRONTEND, bind, vm_of
from repro.observability.metrics import Counts
from repro.observability.spans import SpanRecorder
from repro.sdk.kernel import DpuProgram
from repro.sdk.profile import OP_CI, OP_READ, OP_WRITE, Profiler
from repro.sdk.transfer import Target, TransferMatrix, XferKind, DpuEntry
from repro.virt.backend import BackendResult, BatchRecord, VUpmemBackend
from repro.virt.guest_memory import GuestMemory
from repro.virt.kvm import Kvm
from repro.virt.opts import OptimizationConfig
from repro.virt.mmio import MmioWindow, Reg, driver_init_sequence
from repro.virt.plans import (
    PlanCache,
    PlanUnsupported,
    compile_plan,
    plan_key,
)
from repro.virt.serialization import (
    KIND_LABEL,
    CacheMeta,
    RequestHeader,
    RequestKind,
    SerializedRequest,
    serialize_matrix,
)
from repro.virt.virtio import VirtioPimQueues, write_buffer

# Bound once: an Enum member read off its class costs about ten global
# reads on CPython 3.11, and the request path tests these per copy.
_TO_DPU, _FROM_DPU = XferKind.TO_DPU, XferKind.FROM_DPU
_WRITE_RANK, _READ_RANK = RequestKind.WRITE_RANK, RequestKind.READ_RANK
_MRAM = Target.MRAM
_QUEUE_NOTIFY = Reg.QUEUE_NOTIFY

#: Writes at or below this per-DPU size are candidates for batching.
SMALL_WRITE_BYTES = PAGE_SIZE

#: Modeled size of a Linux ``struct page`` (frontend memory accounting).
PAGE_STRUCT_BYTES = 64


class PrefetchCache:
    """Per-DPU read cache of one contiguous MRAM segment each (§4.1's
    prefetching optimization; Fig. 14's hits column)."""

    def __init__(self, pages_per_dpu: int) -> None:
        self.capacity = pages_per_dpu * PAGE_SIZE
        self._lines: Dict[int, Tuple[int, np.ndarray]] = {}

    def lookup(self, dpu_index: int, offset: int, size: int,
               ) -> Optional[np.ndarray]:
        line = self._lines.get(dpu_index)
        if line is None:
            return None
        start, data = line
        if start <= offset and offset + size <= start + data.size:
            rel = offset - start
            return data[rel:rel + size].copy()
        return None

    def fill(self, dpu_index: int, start: int, data: np.ndarray) -> None:
        if data.size > self.capacity:
            raise TransferError(
                f"prefetch fill of {data.size} bytes exceeds the "
                f"{self.capacity}-byte cache line"
            )
        self._lines[dpu_index] = (start, data)

    def invalidate(self) -> None:
        self._lines.clear()

    @property
    def nr_lines(self) -> int:
        return len(self._lines)


class BatchBuffer:
    """Per-DPU accumulation buffer for small MRAM writes (§4.1's request
    batching; Fig. 14's batched column)."""

    def __init__(self, pages_per_dpu: int) -> None:
        self.capacity = pages_per_dpu * PAGE_SIZE
        self.records: List[BatchRecord] = []
        self._used: Dict[int, int] = {}

    def fits(self, matrix: TransferMatrix) -> bool:
        for entry in matrix.entries:
            if self._used.get(entry.dpu_index, 0) + entry.size > self.capacity:
                return False
        return True

    def add(self, matrix: TransferMatrix,
            cache_meta: Optional[CacheMeta] = None) -> int:
        """Buffer the matrix's entries (with the digests the transfer
        cache took of them, if any); returns the bytes copied."""
        by_dpu = cache_meta.digests if cache_meta is not None else None
        total = 0
        for entry in matrix.entries:
            self.records.append(BatchRecord(
                dpu_index=entry.dpu_index, offset=matrix.offset,
                data=entry.data.copy(),
                digest=0 if by_dpu is None else by_dpu[entry.dpu_index],
            ))
            self._used[entry.dpu_index] = (
                self._used.get(entry.dpu_index, 0) + entry.size)
            total += entry.size
        return total

    def drain(self) -> List[BatchRecord]:
        records = self.records
        self.records = []
        self._used = {}
        return records

    @property
    def empty(self) -> bool:
        return not self.records


def _count_drops(invalidations, reason: str, count: int) -> None:
    """Count ``count`` dropped records under ``reason``; nothing dropped
    counts nothing, because a zero ``inc`` would create the series."""
    if count:
        invalidations[reason].inc(count)


class VUpmemFrontend:
    """The guest-side driver of one vUPMEM device (the §4.1 frontend
    kernel module)."""

    def __init__(self, device_id: str,
                 memory: GuestMemory, backend: VUpmemBackend, kvm: Kvm,
                 opts: OptimizationConfig, cost: CostModel,
                 profiler: Profiler, mmio: MmioWindow,
                 metrics: Optional[MetricsRegistry] = None,
                 spans: Optional[SpanRecorder] = None,
                 qos=None, transfer_cache=None) -> None:
        self.device_id = device_id
        self.memory = memory
        self.backend = backend
        self.kvm = kvm
        self.opts = opts
        self.cost = cost
        self.profiler = profiler
        self.cache = PrefetchCache(opts.prefetch_pages_per_dpu)
        self.batch = BatchBuffer(opts.batch_pages_per_dpu)
        #: Where reads land — the guest application's destination
        #: buffers, faulted once and reused; emptied by :meth:`release`.
        self.blocks = BlockRecycler()
        #: The guest half of the transfer cache when ``Optimization(cache=
        #: True)`` (:class:`~repro.virt.transfer_cache.GuestCache`); ``None``
        #: is the paper's path, bit-identical to the wall-clock digest.
        self.transfer_cache = transfer_cache
        #: The owning VM's :class:`~repro.qos.flow.QosFlow` (``docs/qos.md``):
        #: each kick adds the wait its ``on_kick`` returns.  ``None`` = the
        #: exact default path.
        self.qos = qos
        #: What GET_CONFIG returned (the Appendix A.1 attributes).
        self.device_config: Optional[DeviceConfig] = None
        #: The device's MMIO register window (§3.2), built by the VMM.
        self.mmio = mmio
        #: Live telemetry (cache hits/misses, flush reasons, request
        #: latencies); shares the machine registry when built by
        #: :class:`~repro.virt.firecracker.Firecracker`.
        registry = metrics or MetricsRegistry()
        #: Trace context; shares the machine recorder when built by
        #: :class:`~repro.virt.firecracker.Firecracker`, so frontend
        #: request spans parent the backend spans they trigger.
        self.spans = spans or SpanRecorder(profiler.clock)
        self.obs = obs = bind(registry, FRONTEND, vm=vm_of(device_id),
                              device=device_id)
        #: The device's virtqueues, set up by this driver; their kick
        #: counts are what ``repro_virtio_kicks_total`` reads.
        self.queues = VirtioPimQueues(obs.kicks)
        #: The serializer of data requests (``docs/performance.md``):
        #: wire layouts compiled once per transfer shape and replayed on
        #: each repetition.  Wall-clock only — modeled time is
        #: bit-identical to the wire path's, which serves a request only
        #: when :func:`compile_plan` refuses it.
        self.plans = PlanCache(memory, series={
            "hits": obs.plan_hits, "misses": obs.plan_misses,
            "evictions": obs.plan_evictions})
        #: Requests sent, by kind label, and the §4.1 optimizations'
        #: events: the ``repro_frontend_*`` series follow them, and
        #: ``ExecutionReport.messages`` is a run's delta of their sums.
        self.requests = Counts(obs.requests)
        self.counts = Counts({
            "batched_writes": obs.batched_writes,
            "prefetch_hits": obs.prefetch_hits,
            "prefetch_misses": obs.prefetch_misses,
            "prefetch_refills": obs.prefetch_refills})
        #: Span ids of batched-write copies awaiting a flush; the flush
        #: span links them so the absorbed writes stay attributable.
        self._batch_span_ids: List[int] = []
        #: Transport fault seam, ``None`` on the paper's path.  Armed by
        #: :mod:`repro.faults` (a ``TransportRetry``), it sends each
        #: request as ``hook(frontend, span, send)``: retries ``send()``,
        #: closes the span, returns the result and duration.
        self.fault_hook = None

    # -- core message path --------------------------------------------------

    def _roundtrip(self, header: RequestHeader, op: Optional[str] = None,
                   **request) -> Tuple[BackendResult, float]:
        """Send one request (``request``: :meth:`_roundtrip_once`'s
        keywords) in a ``frontend.request`` span; ``op`` (``W-rank``/
        ``R-rank``) tags it so that span-derived breakdowns match
        :meth:`Profiler.op_stats` exactly."""
        kind = KIND_LABEL[header.kind]
        if op is None:
            span = self.spans.begin("frontend.request", "frontend",
                                    kind=kind, device=self.device_id)
        else:
            span = self.spans.begin("frontend.request", "frontend",
                                    kind=kind, device=self.device_id, op=op)
        if self.fault_hook is not None:
            return self.fault_hook(
                self, span, lambda: self._roundtrip_once(header, **request))
        try:
            result, duration = self._roundtrip_once(header, **request)
        except BaseException:
            # Close the request span on the error path too, so one failed
            # exchange cannot leave a dangling parent for later requests.
            self.spans.end(span, duration=0.0, error=True)
            raise
        self.spans.end(span, duration=duration, retries=0)
        return result, duration

    def _roundtrip_once(self, header: RequestHeader,
                        matrix: Optional[TransferMatrix] = None,
                        program: Optional[DpuProgram] = None,
                        batch_records: Optional[List[BatchRecord]] = None,
                        extra_pages: int = 0,
                        cache_meta: Optional[CacheMeta] = None,
                        ) -> Tuple[BackendResult, float]:
        """Send one request through the transferq; returns the backend
        result and the total frontend+VMM duration."""
        plan = None
        pages = extra_pages
        bound: List[int] = []
        if matrix is not None:
            sreq, plan = self._plan_or_serialize(
                header, matrix, cache_meta, batch_records is not None)
            pages += sreq.total_pages
            chain = sreq.chain
            # Everything but a naive write, which the serializer staged
            # in guest RAM: while the device holds the chain its payload
            # GPAs are the caller's own buffers.
            if plan is not None:
                bound = plan.payload_gpas
            elif matrix.kind is _FROM_DPU:
                bound = [gpa for _dpu, _size, gpa in sreq.data_descriptors]
        else:
            chain = [write_buffer(self.memory, header.pack())]
        kind = KIND_LABEL[header.kind]
        if plan is None:
            steps = self.cost.roundtrip_steps(pages, self.opts.vhost_vsock)
        else:                       # the plan's, filled in per request
            steps = dict(plan.roundtrip_steps)
        spans, obs, transferq = self.spans, self.obs, self.queues.transferq

        spans.event("frontend.page_mgmt", "frontend", steps["Page"],
                    pages=pages)
        spans.event("frontend.serialize", "frontend", steps["Ser"],
                    pages=pages)
        # The transferq is synchronous: the device takes the chain as it
        # is kicked and completes it, failed or not, before the kick
        # returns; one request is in flight meanwhile.
        transferq.submit(chain)
        obs.queue_depth["transferq"].set(1)
        try:
            self.mmio.write(_QUEUE_NOTIFY, 0)   # trapped MMIO write
            self.kvm.trap()
            spans.event("virtio.kick", "virtio", steps["Int"],
                        queue="transferq")
            if self.qos is not None:
                # Cross-VM scheduling: token-bucket throttles plus the
                # event loop's modeled queueing delay before the kick.
                payload = matrix.total_bytes if matrix is not None else 0
                steps["QoS"] = self.qos.on_kick(kind, payload,
                                                self.profiler.clock.now)
            prefault = getattr(self.backend.mapping, "prefault", None)
            if prefault is not None:
                # Predictive swap-in (docs/paging.md): the request is
                # already queued, so a paged mapping overlaps the swap
                # with the dispatch window (interrupt + QoS queueing
                # delay) instead of a demand fault in the backend.
                prefault(steps["Int"] + steps["QoS"])
            if bound:
                self.memory.bind(bound, [e.data for e in matrix.entries])
            result = self.backend.process(chain, program=program,
                                          batch_records=batch_records,
                                          plan=plan, matrix=matrix)
        except Exception:
            self.kvm.inject_irq()          # the error completion's IRQ
            raise
        finally:
            # Completion and every abort alike: a binding left behind
            # would keep the caller's buffers alive and shadow the window.
            self.memory.unbind(bound)
            obs.queue_depth["transferq"].set(0)
        steps["Backend"] = result.duration

        self.kvm.inject_irq()
        spans.event("virtio.irq", "virtio", steps["Irq"], queue="transferq")

        duration = self.cost.total(steps)
        self.requests[kind] += 1
        obs.request_seconds[kind].observe(
            duration,
            exemplar=spans.exemplar() if spans.capture_exemplars else None)

        if header.kind is _WRITE_RANK:
            wrank = {"Page": steps["Page"], "Ser": steps["Ser"],
                     "Int": steps["Int"] + steps["Irq"]}
            if steps["QoS"] > 0.0:
                wrank["QoS"] = steps["QoS"]
            wrank.update(result.steps)
            self.profiler.record_wrank_steps(wrank)
        return result, duration

    # -- shape-specialized plans (``docs/performance.md``) -------------------

    def _plan_or_serialize(self, header: RequestHeader,
                           matrix: TransferMatrix,
                           cache_meta: Optional[CacheMeta],
                           batched: bool,
                           ) -> Tuple[SerializedRequest, Optional[object]]:
        """Look the shape up, then replay, compile, or fall back to the
        wire.

        Returns ``(sreq, plan)`` — ``plan`` is ``None`` when the compiler
        refused the shape and the wire serializer ran, in which case the
        backend deserializes from the wire.  Everything but a replay
        counts as a miss; a refusal is not remembered.
        """
        plans = self.plans
        key = plan_key(header, matrix, cache_meta, batched)
        plan = plans.get(key)
        if plan is not None and not plan.valid(self.memory):
            plans.drop(key)
            self.obs.plan_invalidations["stale"].inc()
            plan = None
        if plan is not None:
            plans.counts["hits"] += 1
            return plan.replay(matrix, cache_meta), plan
        plans.counts["misses"] += 1
        try:
            plan = compile_plan(key, header, matrix, self.memory, cache_meta)
        except PlanUnsupported:
            return serialize_matrix(header, matrix, self.memory,
                                    cache_meta), None
        # What the shape fixes of the request's own steps; the QoS wait
        # and the backend's share are filled in per request.
        plan.roundtrip_steps = self.cost.roundtrip_steps(
            plan.sreq.total_pages, self.opts.vhost_vsock)
        plans.insert(key, plan)
        self.spans.event("plan.compile", "frontend", 0.0,
                         kind=KIND_LABEL[header.kind],
                         entries=len(matrix.entries),
                         pages=plan.sreq.total_pages)
        return plan.sreq, plan

    # -- invalidation (docs/architecture.md "What invalidates what") ----------

    #: ``event -> (prefetch, digests, plans)``: which caches each event
    #: drops.  Prefetched lines go stale on anything that can change
    #: device memory.  Digests (both halves of the transfer cache, in one
    #: ``GuestCache.invalidate`` call) go when device contents are
    #: rebuilt or in doubt.  Plans
    #: survive ``load``/``release`` — neither disturbs the reserved guest
    #: memory a plan's wire layout lives in, and what does go stale
    #: revalidates itself on replay (translations through the XLB
    #: generation, pinned MRAM writes through the rank identity check),
    #: which is what lets a repeated workload replay plans across
    #: sessions — but not events that lose or re-home device state.
    INVALIDATION: Dict[str, Tuple[bool, bool, bool]] = {
        "write":           (True,  False, False),
        "load":            (True,  True,  False),
        "launch":          (True,  False, False),
        "ci":              (True,  False, False),
        "release":         (True,  True,  False),
        "retry_exhausted": (True,  True,  True),
        "flush_error":     (True,  True,  True),
        "adaptive_bypass": (False, True,  True),
        "failover":        (False, True,  True),
        "migration":       (False, False, True),
    }

    def invalidate(self, event: str) -> None:
        """Drop the caches ``event`` makes stale, counting digest and plan
        drops under ``reason=event``."""
        prefetch, digests, plans = self.INVALIDATION[event]
        if prefetch:
            self.cache.invalidate()
        if digests and self.transfer_cache is not None:
            _count_drops(self.obs.cache_invalidations, event,
                         self.transfer_cache.invalidate(event))
        if plans:
            _count_drops(self.obs.plan_invalidations, event,
                         self.plans.invalidate_all())

    # -- device initialization (Section 3.2) ------------------------------------

    def initialize(self) -> float:
        """Configure virtio, fetch device attributes, expose /dev node.

        Follows the Appendix's initialization order: the MMIO status
        handshake (ACKNOWLEDGE -> DRIVER -> FEATURES_OK -> queue setup ->
        DRIVER_OK) must complete before the first request is sent.
        """
        driver_init_sequence(self.mmio)
        result, duration = self._roundtrip(
            RequestHeader(kind=RequestKind.GET_CONFIG))
        self._notify_manager(linked=True)
        self.device_config = result.payload
        return duration

    # -- batching ---------------------------------------------------------------

    def _flush_batch(self, reason: str = "barrier") -> float:
        """Send all buffered writes as one collective message.

        ``reason`` labels the flush trigger in the metrics: ``capacity``
        (buffer full), ``large_write``, ``read``, ``load``, ``launch``,
        ``ci`` or ``release`` — every non-write request is a batching
        barrier (§4.1).
        """
        if not self.batch.records:
            return 0.0
        self.obs.batch_flushes[reason].inc()
        # Peek, send, then clear: if the flush fails mid-flight the
        # records stay buffered for an idempotent replay after recovery,
        # and any prefetched lines (possibly stale vs the partially
        # applied batch) are dropped.
        records = list(self.batch.records)
        # One wire entry per DPU carrying that DPU's buffered bytes.
        per_dpu: Dict[int, List[BatchRecord]] = {}
        for record in records:
            per_dpu.setdefault(record.dpu_index, []).append(record)
        entries = []
        for dpu_index, recs in sorted(per_dpu.items()):
            blob = np.concatenate([r.data for r in recs])
            entries.append(DpuEntry(dpu_index=dpu_index, size=blob.size,
                                    data=blob))
        matrix = TransferMatrix(_TO_DPU, MRAM_HEAP_SYMBOL, 0, entries)
        header = RequestHeader(kind=_WRITE_RANK, offset=0,
                               symbol=MRAM_HEAP_SYMBOL)
        span = self.spans.begin("frontend.batch_flush", "frontend",
                                reason=reason, records=len(records))
        span.link_all("absorbed", self._batch_span_ids)
        try:
            _, duration = self._roundtrip(header, matrix=matrix,
                                          batch_records=records,
                                          op=OP_WRITE)
        except Exception:
            # Batched digests were indexed at add time; a failed flush
            # means that content never landed on the device.
            self.invalidate("flush_error")
            self.spans.end(span, error=True)
            raise
        self.batch.drain()
        self._batch_span_ids = []
        self.spans.end(span, duration=duration)
        self.profiler.record_op(OP_WRITE, duration)
        return duration

    # -- SDK-visible operations ----------------------------------------------------

    def write(self, matrix: TransferMatrix) -> float:
        """write-to-rank: absorbed by the batch buffer or sent as one
        request, once the transfer cache (if on) has suppressed what the
        device already holds."""
        self.invalidate("write")
        batched = (self.opts.request_batching
                   and matrix.target is _MRAM
                   and matrix.max_entry_bytes <= SMALL_WRITE_BYTES)
        flushed = 0.0 if batched else self._flush_batch(reason="large_write")
        cache_time, cache_meta = 0.0, None
        if self.transfer_cache is not None:
            matrix, cache_meta, cache_time = self.transfer_cache.suppress(
                self, matrix, batched)
            if matrix is None:      # every entry suppressed: no message
                return flushed + cache_time

        if batched:
            if not self.batch.fits(matrix):
                flushed = self._flush_batch(reason="capacity")
            copied = self.batch.add(matrix, cache_meta)
            nr_entries = len(matrix.entries)
            copy_time = self.cost.guest_copy_time(copied, nr_entries)
            self.counts["batched_writes"] += nr_entries
            # The event starts at the open span's cursor and takes the
            # next span id, whether or not the recorder builds it.
            start = self.spans.cursor
            self.spans.event("frontend.batch_copy", "frontend",
                             copy_time, op=OP_WRITE,
                             entries=nr_entries, bytes=copied)
            if start is not None:
                self._batch_span_ids.append(self.spans.spans_started)
            self.profiler.record_op(OP_WRITE, copy_time + cache_time)
            return flushed + copy_time + cache_time

        header = RequestHeader(kind=_WRITE_RANK,
                               offset=matrix.offset, symbol=matrix.symbol)
        _, rt = self._roundtrip(header, matrix=matrix, op=OP_WRITE,
                                cache_meta=cache_meta)
        if self.transfer_cache is not None:
            self.transfer_cache.landed(matrix, cache_meta)
        self.profiler.record_op(OP_WRITE, rt + cache_time)
        return flushed + (rt + cache_time)

    def read(self, matrix: TransferMatrix) -> Tuple[List[np.ndarray], float]:
        """read-from-rank, possibly served by the prefetch cache."""
        duration = self._flush_batch(reason="read")

        entries = matrix.entries
        nr_entries = len(entries)
        cacheable = (self.opts.prefetch_cache
                     and matrix.target is _MRAM
                     and matrix.max_entry_bytes <= self.cache.capacity)
        if cacheable:
            hits = []
            for entry in entries:
                hit = self.cache.lookup(entry.dpu_index, matrix.offset,
                                        entry.size)
                if hit is None:
                    break
                hits.append(hit)
            else:
                serve = self.cost.guest_copy_time(matrix.total_bytes,
                                                  nr_entries)
                self.counts["prefetch_hits"] += nr_entries
                self.spans.event("frontend.cache_serve", "frontend", serve,
                                 op=OP_READ, entries=nr_entries)
                self.profiler.record_op(OP_READ, serve)
                return hits, duration + serve
            self.counts["prefetch_misses"] += nr_entries

            # Miss: fetch a cache-sized segment per DPU in one request.
            seg_len = min(self.cache.capacity, MRAM_SIZE - matrix.offset)
            sizes = [seg_len] * nr_entries
        else:
            sizes = [e.size for e in entries]

        # The request carries its own destinations: rows of one block,
        # as ``Rank.read_mram`` returns them, bound at its payload GPAs
        # for the roundtrip (and filled again by a retried one).  Nothing
        # else writes them while any is alive, so they are the caller's
        # — or the prefetch cache's — to keep.
        buffers = result_block(sizes, self.blocks)
        wire = TransferMatrix(
            _FROM_DPU, matrix.symbol, matrix.offset,
            [DpuEntry(e.dpu_index, row.size, row)
             for e, row in zip(entries, buffers)])
        header = RequestHeader(kind=_READ_RANK,
                               offset=matrix.offset, symbol=matrix.symbol)
        _, rt = self._roundtrip(header, matrix=wire, op=OP_READ)
        if cacheable:
            # Each row becomes its DPU's line, which starts at this
            # offset: the caller gets a copy of the line's head, as a
            # lookup of it would return.
            for entry, segment in zip(entries, buffers):
                self.cache.fill(entry.dpu_index, matrix.offset, segment)
            self.counts["prefetch_refills"] += nr_entries
            buffers = [segment[:entry.size].copy()
                       for entry, segment in zip(entries, buffers)]
        self.profiler.record_op(OP_READ, rt)
        return buffers, duration + rt

    def load(self, program: DpuProgram) -> float:
        duration = self._flush_batch(reason="load")
        # Loading rebuilds every symbol buffer on the device; digests of
        # the previous program's extents are meaningless afterwards.
        self.invalidate("load")
        binary_pages = (program.binary_size + PAGE_SIZE - 1) // PAGE_SIZE
        header = RequestHeader(kind=RequestKind.LOAD,
                               program_name=program.name)
        _, rt = self._roundtrip(header, program=program,
                                extra_pages=binary_pages)
        return duration + rt

    def launch(self) -> float:
        duration = self._flush_batch(reason="launch")
        self.invalidate("launch")
        header = RequestHeader(kind=RequestKind.LAUNCH)
        result, rt = self._roundtrip(header)
        if self.transfer_cache is not None:
            # The backend collected the kernel's dirty stores; drop the
            # digests they overlap instead of the whole index, so digests
            # of extents the run never touched keep suppressing.
            _count_drops(self.obs.cache_invalidations, "launch_dirty",
                         self.transfer_cache.prune(result.payload))
        return duration + rt

    def ci_ops(self, count: int) -> float:
        """Synchronous control-interface traffic: one message per op.

        CI operations are latency-bound control exchanges; neither
        batching nor prefetching applies, so each op pays the full
        transition round trip — the paper's dominant overhead source for
        CI-heavy workloads like the checksum microbenchmark.
        """
        duration = self._flush_batch(reason="ci")
        self.invalidate("ci")
        ci_time = self.cost.guest_ci_time(count, self.opts.vhost_vsock)
        span = self.spans.begin("frontend.ci_ops", "frontend",
                                op=OP_CI, count=count)
        # Run a small number of real round trips through the queue
        # machinery, then account the rest arithmetically (the wire format
        # is identical for every op).
        real = min(count, 8)
        try:
            for _ in range(real):
                header = RequestHeader(kind=RequestKind.CI_OP, count=1)
                self._roundtrip(header)
            if count > real:
                self.backend.require_mapping().ci_ops(count - real)
                self.kvm.trap(count - real)
                self.kvm.inject_irq(count - real)
                self.requests["ci_op"] += count - real
        except BaseException:
            self.spans.end(span, error=True)
            raise
        self.spans.end(span, duration=ci_time)
        self.profiler.record_op(OP_CI, ci_time, count=count)
        return duration + ci_time

    def _notify_manager(self, linked: bool) -> None:
        """Post a manager-sync boolean on the controlq (Appendix A.1)."""
        flag = np.array([1 if linked else 0], dtype=np.uint8)
        self.queues.controlq.submit([write_buffer(self.memory, flag)])
        self.obs.queue_depth["controlq"].set(0)

    def release(self) -> float:
        """Tear the device's rank binding down.

        Hardened against dying hardware: releasing runs inside
        exception unwinds (``DpuSet.__exit__``), so a dead rank must
        not raise here and mask the error that killed the run.  The
        buffered writes can never land on a dead rank; they are dropped
        with the cache, and the backend is force-unlinked if even the
        RELEASE exchange fails.
        """
        try:
            duration = self._flush_batch(reason="release")
        except (HardwareError, DeviceNotLinkedError, TransientFaultError):
            self.batch.drain()
            duration = 0.0
        self.invalidate("release")
        self.blocks.release()
        header = RequestHeader(kind=RequestKind.RELEASE)
        try:
            _, rt = self._roundtrip(header)
        except (HardwareError, DeviceNotLinkedError, TransientFaultError):
            self.backend.unlink()
            rt = 0.0
        self._notify_manager(linked=False)
        return duration + rt

    # -- memory accounting (Section 4.1 "Memory Overhead") ----------------------------

    def max_memory_overhead_per_dpu(self) -> int:
        """Worst-case extra frontend memory per DPU, in bytes.

        16384 page structs (a full 64 MB MRAM transfer) + the prefetch
        cache + the batch buffer = 1.37 MB, matching the paper's figure.
        """
        max_pages = MRAM_SIZE // PAGE_SIZE
        return (max_pages * PAGE_STRUCT_BYTES
                + self.opts.prefetch_pages_per_dpu * PAGE_SIZE
                + self.opts.batch_pages_per_dpu * PAGE_SIZE)
