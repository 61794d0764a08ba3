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
from repro.errors import (
    DeviceNotLinkedError,
    HardwareError,
    TransferError,
    TransientFaultError,
)
from repro.hardware.memory import BlockRecycler, result_block
from repro.hardware.timing import CostModel
from repro.observability import MetricsRegistry
from repro.observability.instruments import FAULT, FRONTEND, bind, vm_of
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
    RequestHeader,
    RequestKind,
    SerializedRequest,
    SkipExtent,
    serialize_matrix,
)
from repro.virt.transfer_cache import ExtentDigestIndex, content_digest
from repro.virt.virtio import UsedElement, VirtioPimQueues, write_buffer

#: Writes at or below this per-DPU size are candidates for batching.
SMALL_WRITE_BYTES = PAGE_SIZE

#: Modeled size of a Linux ``struct page`` (frontend memory accounting).
PAGE_STRUCT_BYTES = 64

#: Adaptive digest bypass threshold (``docs/transfer_cache.md``): below
#: this suppression rate over revisit probes, digesting costs more than
#: it saves (the BFS 0.96x of the committed ablation).
CACHE_BYPASS_HIT_RATE = 0.02


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

    def add(self, matrix: TransferMatrix) -> int:
        """Buffer the matrix's entries; returns the bytes copied."""
        total = 0
        for entry in matrix.entries:
            self.records.append(BatchRecord(
                dpu_index=entry.dpu_index, offset=matrix.offset,
                data=entry.data.copy(),
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

    @property
    def buffered_bytes(self) -> int:
        return sum(self._used.values())


def _count_drops(invalidations, reason: str, count: int) -> None:
    """Count ``count`` dropped records under ``reason``; nothing dropped
    counts nothing, because a zero ``inc`` would create the series."""
    if count:
        invalidations[reason].inc(count)


class VUpmemFrontend:
    """The guest-side driver of one vUPMEM device (the §4.1 frontend
    kernel module)."""

    def __init__(self, device_id: str, queues: VirtioPimQueues,
                 memory: GuestMemory, backend: VUpmemBackend, kvm: Kvm,
                 opts: OptimizationConfig, cost: CostModel,
                 profiler: Profiler,
                 mmio: Optional[MmioWindow] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 spans: Optional[SpanRecorder] = None,
                 qos=None) -> None:
        self.device_id = device_id
        self.queues = queues
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
        #: Content-aware transfer cache (``Optimization(cache=True)``):
        #: per-extent digests of what the device already holds, used to
        #: suppress unchanged writes.  ``None`` keeps the default path
        #: bit-identical to the committed wall-clock digest.
        self.digests: Optional[ExtentDigestIndex] = (
            ExtentDigestIndex() if opts.cache else None)
        #: The serializer of data requests (``docs/performance.md``):
        #: wire layouts compiled once per transfer shape and replayed on
        #: each repetition.  Wall-clock only — modeled time is
        #: bit-identical to the wire path's, which serves a request only
        #: when :func:`compile_plan` refuses it.
        self.plans = PlanCache(memory)
        #: Adaptive digest bypass (``docs/transfer_cache.md``): once the
        #: observed suppression rate over at least
        #: ``opts.cache_bypass_min_probes`` probes stays below
        #: :data:`CACHE_BYPASS_HIT_RATE`, digesting stops — workloads
        #: that never rewrite identical content stop paying digest cost.
        self._digest_probes = 0
        self._digest_hits = 0
        self._digest_bypassed = False
        #: The owning VM's :class:`~repro.qos.flow.QosFlow` (``docs/qos.md``):
        #: kicks pay token-bucket throttle waits and the event loop's
        #: cross-VM queueing delay.  ``None`` = the exact default path.
        self.qos = qos
        self.device_config: Optional[dict] = None
        self.mmio = mmio or MmioWindow(base_address=0xD000_0000, irq=5)
        #: Live telemetry (cache hits/misses, flush reasons, request
        #: latencies); shares the machine registry when built by
        #: :class:`~repro.virt.firecracker.Firecracker`.
        registry = metrics or MetricsRegistry()
        #: Trace context; shares the machine recorder when built by
        #: :class:`~repro.virt.firecracker.Firecracker`, so frontend
        #: request spans parent the backend spans they trigger.
        self.spans = spans or SpanRecorder(profiler.clock)
        self.obs = bind(registry, FRONTEND, vm=vm_of(device_id),
                        device=device_id)
        self.fault_obs = bind(registry, FAULT)
        #: Span ids of batched-write copies awaiting a flush; the flush
        #: span links them so the absorbed writes stay attributable.
        self._batch_span_ids: List[int] = []
        #: Simulated start of the most recent request span (feeds the
        #: profiler's tracer with true event starts).
        self._last_request_start: Optional[float] = None
        #: Fault-injection seam (armed by :mod:`repro.faults`): when set,
        #: called as ``hook(frontend)`` before each transferq roundtrip —
        #: returns a stall duration to add and may raise a
        #: :class:`TransientFaultError`.  ``None`` keeps the path exact.
        self.fault_hook = None
        #: Bounded retry budget for transient transport faults.
        self.max_transport_retries = 3

    # -- core message path --------------------------------------------------

    def _roundtrip(self, header: RequestHeader, op: Optional[str] = None,
                   **request) -> Tuple[BackendResult, float]:
        """Send one request (``request``: :meth:`_roundtrip_once`'s
        keywords), retrying on transient transport faults.

        Bounded retry with exponential backoff: each retry re-sends the
        identical request, which is safe because a transient fault fires
        before the backend performs any work.  Detection latency, stall
        time and backoff all ride the returned duration — hooks never
        advance the clock, so time stays single-writer.  With the retry
        budget exhausted the prefetch cache is dropped (its lines may
        reflect state the failed exchange was about to change) and the
        fault propagates.

        ``op`` tags the request span with the driver-centric operation
        kind it accounts for (``W-rank``/``R-rank``), so span-derived
        breakdowns match :meth:`Profiler.op_stats` exactly.
        """
        attrs = {"kind": KIND_LABEL[header.kind], "device": self.device_id}
        if op is not None:
            attrs["op"] = op
        span = self.spans.begin("frontend.request", "frontend", **attrs)
        self._last_request_start = span.start
        penalty = 0.0
        attempts = 0
        try:
            while True:
                try:
                    if self.fault_hook is not None:
                        penalty += self.fault_hook(self)
                    result, duration = self._roundtrip_once(
                        header, **request)
                except TransientFaultError as exc:
                    attempts += 1
                    penalty += exc.penalty_s
                    self.fault_obs.detected[exc.kind, "frontend"].inc()
                    self.spans.mark_fault(exc.kind)
                    self.spans.log.emit(
                        "transient_fault", "frontend", kind=exc.kind,
                        attempt=attempts, device=self.device_id)
                    if attempts > self.max_transport_retries:
                        self.invalidate("retry_exhausted")
                        raise
                    self.fault_obs.retries["frontend"].inc()
                    penalty += self.cost.retry_backoff_time(attempts)
                    continue
                if attempts:
                    self.fault_obs.recovered["transient", "retry"].inc()
                total = duration + penalty
                self.spans.end(span, duration=total, retries=attempts)
                return result, total
        except BaseException:
            # Close the request span on the error path too, so one failed
            # exchange cannot leave a dangling parent for later requests.
            self.spans.end(span, duration=penalty, error=True)
            raise

    def _roundtrip_once(self, header: RequestHeader,
                        matrix: Optional[TransferMatrix] = None,
                        program: Optional[DpuProgram] = None,
                        batch_records: Optional[List[BatchRecord]] = None,
                        extra_pages: int = 0,
                        digests: Optional[Dict[int, int]] = None,
                        skips: Optional[List[SkipExtent]] = None,
                        ) -> Tuple[BackendResult, float]:
        """Send one request through the transferq; returns the backend
        result and the total frontend+VMM duration."""
        plan = None
        pages = extra_pages
        bound: List[int] = []
        if matrix is not None:
            sreq, plan = self._plan_or_serialize(
                header, matrix, digests, skips, batch_records is not None)
            pages += sreq.total_pages
            chain = sreq.chain
            # Everything but a naive write, which the serializer staged
            # in guest RAM: while the device holds the chain its payload
            # GPAs are the caller's own buffers.
            if plan is not None:
                bound = plan.payload_gpas
            elif matrix.kind is XferKind.FROM_DPU:
                bound = [gpa for _dpu, _size, gpa in sreq.data_descriptors]
        else:
            chain = [write_buffer(self.memory, header.pack())]
        kind = KIND_LABEL[header.kind]
        steps = self.cost.roundtrip_steps(pages, self.opts.vhost_vsock)
        spans, obs, transferq = self.spans, self.obs, self.queues.transferq

        spans.event("frontend.page_mgmt", "frontend", steps["Page"],
                    pages=pages)
        spans.event("frontend.serialize", "frontend", steps["Ser"],
                    pages=pages)
        request_id = transferq.add_chain(
            chain, flow=self.qos.flow_id if self.qos is not None else None)
        obs.queue_depth["transferq"].set(transferq.pending)
        transferq.kick()
        obs.kicks["transferq"].inc()
        self.mmio.write(Reg.QUEUE_NOTIFY, 0)   # trapped MMIO write
        self.kvm.trap()
        spans.event("virtio.kick", "virtio", steps["Int"], queue="transferq")
        if self.qos is not None:
            # Cross-VM scheduling: token-bucket throttles plus the event
            # loop's modeled queueing delay before this kick is served.
            payload = matrix.total_bytes if matrix is not None else 0
            steps["QoS"] = self.qos.on_kick(kind, payload,
                                            self.profiler.clock.now)

        pager = getattr(self.backend.driver, "pager", None)
        if pager is not None and self.backend.mapping is not None:
            vrank = self.backend.mapping.rank_index
            if pager.is_virtual(vrank):
                # Predictive swap-in (docs/paging.md): the request is
                # already queued, so the pager can overlap the swap with
                # the dispatch window (interrupt + QoS queueing delay)
                # instead of stalling the backend on a demand fault.
                pager.prefault(vrank, overlap=steps["Int"] + steps["QoS"])

        # The device takes the chain before processing; on failure it still
        # completes the request (with an error status) so the queue never
        # wedges.
        popped = transferq.pop_avail()
        assert popped is not None and popped[0] == request_id
        if bound:
            self.memory.bind(bound, [e.data for e in matrix.entries])
        try:
            result = self.backend.process(chain, program=program,
                                          batch_records=batch_records,
                                          plan=plan, matrix=matrix)
        except Exception:
            transferq.push_used(UsedElement(request_id=request_id, status=1))
            transferq.pop_used()
            self.kvm.inject_irq()
            raise
        finally:
            # Completion and every abort alike: a binding left behind
            # would keep the caller's buffers alive and shadow the window.
            self.memory.unbind(bound)
        steps["Backend"] = result.duration

        self.kvm.inject_irq()
        self.mmio.raise_interrupt()
        transferq.push_used(UsedElement(request_id=request_id))
        transferq.pop_used()
        self.mmio.write(Reg.INTERRUPT_ACK, 1)
        spans.event("virtio.irq", "virtio", steps["Irq"], queue="transferq")

        obs.queue_depth["transferq"].set(transferq.pending)
        self.profiler.messages.count_request()
        duration = self.cost.total(steps)
        obs.requests[kind].inc()
        obs.request_seconds[kind].observe(
            duration,
            exemplar=spans.exemplar() if spans.capture_exemplars else None)

        if header.kind is RequestKind.WRITE_RANK:
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
                           digests: Optional[Dict[int, int]],
                           skips: Optional[List[SkipExtent]],
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
        key = plan_key(header, matrix, digests, skips, batched)
        plan = plans.get(key)
        if plan is not None and not plan.valid(self.memory):
            plans.drop(key)
            self.obs.plan_invalidations["stale"].inc()
            plan = None
        if plan is not None:
            plans.hits += 1
            self.obs.plan_hits.inc()
            return plan.replay(matrix, digests, skips), plan
        plans.misses += 1
        self.obs.plan_misses.inc()
        try:
            plan = compile_plan(key, header, matrix, self.memory,
                                digests, skips)
        except PlanUnsupported:
            return serialize_matrix(header, matrix, self.memory,
                                    digests=digests, skips=skips), None
        evicted = plans.insert(key, plan)
        self.obs.plan_evictions.inc(evicted)
        self.spans.event("plan.compile", "frontend", 0.0,
                         kind=KIND_LABEL[header.kind],
                         entries=len(matrix.entries),
                         pages=plan.sreq.total_pages)
        return plan.sreq, plan

    # -- invalidation (docs/architecture.md "What invalidates what") ----------

    #: ``event -> (prefetch, digests, plans)``: which caches each event
    #: drops.  Prefetched lines go stale on anything that can change
    #: device memory.  Digests (this index and the backend's resident
    #: mirror) go when device contents are rebuilt or in doubt.  Plans
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
        if digests:
            self.backend.resident.invalidate_all()
            if self.digests is not None:
                _count_drops(self.obs.cache_invalidations, event,
                             self.digests.invalidate_all())
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
        config = result.payload
        self._notify_manager(linked=True)
        self.device_config = {
            "frequency_hz": config.frequency_hz,
            "clock_division": config.clock_division,
            "mram_bytes": config.mram_bytes,
            "nr_dpus": config.nr_dpus,
            "nr_control_interfaces": config.nr_control_interfaces,
            "power_management": config.power_management,
        }
        return duration

    # -- batching ---------------------------------------------------------------

    def _flush_batch(self, reason: str = "barrier") -> float:
        """Send all buffered writes as one collective message.

        ``reason`` labels the flush trigger in the metrics: ``capacity``
        (buffer full), ``large_write``, ``read``, ``load``, ``launch``,
        ``ci`` or ``release`` — every non-write request is a batching
        barrier (§4.1).
        """
        if self.batch.empty:
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
        matrix = TransferMatrix(XferKind.TO_DPU, MRAM_HEAP_SYMBOL, 0, entries)
        header = RequestHeader(kind=RequestKind.WRITE_RANK, offset=0,
                               symbol=MRAM_HEAP_SYMBOL)
        span = self.spans.begin("frontend.batch_flush", "frontend",
                                reason=reason, records=len(records))
        for span_id in self._batch_span_ids:
            span.link("absorbed", span_id)
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
        self.profiler.record_op(OP_WRITE, duration, start=span.start)
        return duration

    # -- content-aware transfer cache (``Optimization(cache=True)``) ---------

    @property
    def _digesting(self) -> bool:
        """Whether writes should digest-probe (cache on, not bypassed)."""
        return self.digests is not None and not self._digest_bypassed

    def _maybe_bypass(self) -> None:
        """Engage the adaptive bypass when suppression is not paying.

        A workload that never rewrites identical content pays digest cost
        on every write and saves nothing (the BFS 0.96x of the committed
        ablation); once enough probes show a hit rate below the threshold,
        stop digesting.  Only *revisit* probes count — extents that
        already held a digest, where a hit was possible — so a large
        cold first write (e.g. one full-rank push is 64 first-touch
        entries at once) can never trip the bypass before the workload
        has had a chance to repeat itself.
        ``cache_bypass_min_probes=0`` disables the bypass.
        """
        min_probes = self.opts.cache_bypass_min_probes
        if (self._digest_bypassed or min_probes <= 0
                or self._digest_probes < min_probes):
            return
        rate = self._digest_hits / self._digest_probes
        if rate < CACHE_BYPASS_HIT_RATE:
            self._digest_bypassed = True
            self.invalidate("adaptive_bypass")

    def _probe_digests(self, matrix: TransferMatrix,
                       ) -> Tuple[List[DpuEntry], List[SkipExtent],
                                  Dict[int, int], float]:
        """Digest a write matrix and split it into kept vs suppressed.

        Returns ``(kept, skips, digests, cache_time)``: entries whose
        extent digest matches the index become ``SKIP`` extents; the
        rest are kept with their fresh digests.
        """
        index = self.digests
        assert index is not None
        kept: List[DpuEntry] = []
        skips: List[SkipExtent] = []
        digests: Dict[int, int] = {}
        suppressed = 0
        revisits = 0
        for entry in matrix.entries:
            digest = content_digest(entry.data)
            if index.has_record(entry.dpu_index, matrix.symbol,
                                matrix.offset):
                revisits += 1
            if index.lookup(entry.dpu_index, matrix.symbol, matrix.offset,
                            entry.size, digest):
                skips.append(SkipExtent(dpu_index=entry.dpu_index,
                                        size=entry.size, digest=digest))
                suppressed += entry.size
            else:
                kept.append(entry)
                digests[entry.dpu_index] = digest
        cache_time = self.cost.digest_probe_time(
            [e.size for e in matrix.entries])
        self._digest_probes += revisits
        self._digest_hits += len(skips)
        self._maybe_bypass()
        self.obs.cache_hits.inc(len(skips))
        self.obs.cache_misses.inc(len(kept))
        self.obs.cache_suppressed.inc(suppressed)
        self.spans.event("cache.lookup", "frontend", cache_time,
                         op=OP_WRITE, entries=len(matrix.entries),
                         hits=len(skips))
        if skips:
            self.spans.event("cache.suppress", "frontend", 0.0, op=OP_WRITE,
                             extents=len(skips), bytes=suppressed)
        self.profiler.record_wrank_step("Cache", cache_time)
        return kept, skips, digests, cache_time

    def _index_digests(self, matrix: TransferMatrix,
                       digests: Dict[int, int]) -> None:
        """Record the probed digests of ``matrix``'s (kept) entries."""
        for entry in matrix.entries:
            self.digests.insert(entry.dpu_index, matrix.symbol,
                                matrix.offset, entry.size,
                                digests[entry.dpu_index])

    # -- SDK-visible operations ----------------------------------------------------

    def write(self, matrix: TransferMatrix) -> float:
        """write-to-rank: suppressed by the transfer cache, absorbed by
        the batch buffer, or sent as one request."""
        self.invalidate("write")
        batched = (self.opts.request_batching
                   and matrix.target is Target.MRAM
                   and matrix.max_entry_bytes <= SMALL_WRITE_BYTES)
        flushed = 0.0 if batched else self._flush_batch(reason="large_write")
        cache_time = 0.0
        digests = skips = None
        if self._digesting:
            kept, skips, digests, cache_time = self._probe_digests(matrix)
            if not kept:
                # Every entry suppressed: no message, nothing batched.
                self.profiler.record_op(OP_WRITE, cache_time)
                return flushed + cache_time
            if skips:
                matrix = TransferMatrix(matrix.kind, matrix.symbol,
                                        matrix.offset, kept)

        if batched:
            # Indexed at add time, before the flush lands: safe because
            # a failed flush (and retry exhaustion) drops the whole index.
            if digests:
                self._index_digests(matrix, digests)
            if not self.batch.fits(matrix):
                flushed = self._flush_batch(reason="capacity")
            copied = self.batch.add(matrix)
            nr_entries = len(matrix.entries)
            copy_time = self.cost.guest_copy_time(copied, nr_entries)
            self.profiler.messages.count_batched_writes(nr_entries)
            self.obs.batched_writes.inc(nr_entries)
            # The event starts at the open span's cursor and takes the
            # next span id, whether or not the recorder builds it.
            start = self.spans.cursor
            self.spans.event("frontend.batch_copy", "frontend",
                             copy_time, op=OP_WRITE,
                             entries=nr_entries, bytes=copied)
            if start is not None:
                self._batch_span_ids.append(self.spans.spans_started)
            self.profiler.record_op(OP_WRITE, copy_time + cache_time,
                                    start=start)
            return flushed + copy_time + cache_time

        header = RequestHeader(kind=RequestKind.WRITE_RANK,
                               offset=matrix.offset, symbol=matrix.symbol)
        _, rt = self._roundtrip(header, matrix=matrix, op=OP_WRITE,
                                digests=digests, skips=skips)
        # Indexed only after the exchange succeeded.
        if digests:
            self._index_digests(matrix, digests)
        self.profiler.record_op(OP_WRITE, rt + cache_time,
                                start=self._last_request_start)
        return flushed + (rt + cache_time)

    def read(self, matrix: TransferMatrix) -> Tuple[List[np.ndarray], float]:
        """read-from-rank, possibly served by the prefetch cache."""
        duration = self._flush_batch(reason="read")

        sizes = [e.size for e in matrix.entries]
        nr_entries = len(sizes)
        cacheable = (self.opts.prefetch_cache
                     and matrix.target is Target.MRAM
                     and max(sizes, default=0) <= self.cache.capacity)
        if cacheable:
            hits = [self.cache.lookup(e.dpu_index, matrix.offset, e.size)
                    for e in matrix.entries]
            if all(h is not None for h in hits):
                serve = self.cost.guest_copy_time(sum(sizes), nr_entries)
                self.profiler.messages.count_cache_hits(nr_entries)
                self.obs.prefetch_hits.inc(nr_entries)
                start = self.spans.cursor
                self.spans.event("frontend.cache_serve", "frontend", serve,
                                 op=OP_READ, entries=nr_entries)
                self.profiler.record_op(OP_READ, serve, start=start)
                return hits, duration + serve
            self.obs.prefetch_misses.inc(nr_entries)

            # Miss: fetch a cache-sized segment per DPU in one request.
            seg_len = min(self.cache.capacity, MRAM_SIZE - matrix.offset)
            sizes = [seg_len] * nr_entries

        # The request carries its own destinations: rows of one block,
        # as ``Rank.read_mram`` returns them, bound at its payload GPAs
        # for the roundtrip (and filled again by a retried one).  Nothing
        # else writes them while any is alive, so they are the caller's
        # — or the prefetch cache's — to keep.
        buffers = result_block(sizes, self.blocks)
        wire = TransferMatrix(
            XferKind.FROM_DPU, matrix.symbol, matrix.offset,
            [DpuEntry(dpu_index=e.dpu_index, size=row.size, data=row)
             for e, row in zip(matrix.entries, buffers)])
        header = RequestHeader(kind=RequestKind.READ_RANK,
                               offset=matrix.offset, symbol=matrix.symbol)
        _, rt = self._roundtrip(header, matrix=wire, op=OP_READ)
        if cacheable:
            for entry, segment in zip(wire.entries, buffers):
                self.cache.fill(entry.dpu_index, matrix.offset, segment)
            self.profiler.messages.count_cache_refills(nr_entries)
            self.obs.prefetch_refills.inc(nr_entries)
            buffers = [self.cache.lookup(e.dpu_index, matrix.offset, e.size)
                       for e in matrix.entries]
            assert all(buf is not None for buf in buffers)
        self.profiler.record_op(OP_READ, rt, start=self._last_request_start)
        return buffers, duration + rt

    def load(self, program: DpuProgram) -> float:
        duration = self._flush_batch(reason="load")
        # Loading rebuilds every symbol buffer on the device; digests of
        # the previous program's extents are meaningless afterwards.
        self.invalidate("load")
        # A new program is a new workload: forget the old suppression
        # statistics and probe again from scratch.
        self._digest_probes = 0
        self._digest_hits = 0
        self._digest_bypassed = False
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
        if self.digests is not None and result.payload:
            # The backend collected the kernel's dirty stores; drop the
            # digests they overlap instead of the whole index, so digests
            # of extents the run never touched keep suppressing.
            _count_drops(self.obs.cache_invalidations, "launch_dirty", sum(
                self.digests.prune(*store) for store in result.payload))
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
                self.kvm.stats.vmexits += count - real
                self.kvm.stats.irq_injections += count - real
                self.profiler.messages.count_request(count - real)
                self.obs.requests["ci_op"].inc(count - real)
        except BaseException:
            self.spans.end(span, error=True)
            raise
        self.spans.end(span, duration=ci_time)
        self.profiler.record_op(OP_CI, ci_time, count=count,
                                start=span.start)
        return duration + ci_time

    def _notify_manager(self, linked: bool) -> None:
        """Post a manager-sync boolean on the controlq (Appendix A.1)."""
        flag = np.array([1 if linked else 0], dtype=np.uint8)
        self.queues.controlq.add_chain([write_buffer(self.memory, flag)])
        self.queues.controlq.kick()
        self.obs.kicks["controlq"].inc()
        self.queues.controlq.pop_avail()
        self.obs.queue_depth["controlq"].set(self.queues.controlq.pending)

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
