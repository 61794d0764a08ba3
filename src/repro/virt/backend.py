"""The vUPMEM backend: the device model inside Firecracker (Section 4.2).

For each request popped from the transferq the backend:

1. deserializes the transfer matrix from the descriptor chain;
2. translates the page GPAs to HVAs (8 translation threads);
3. accesses the guest pages directly — zero copy — and performs the
   operation on the physical rank through a performance-mode mapping;
4. for reads, deposits results straight into the guest's destination
   pages; finally the VMM injects the completion IRQ.

The data path (byte interleaving + memcpy) runs either the C/AVX-512
flavour or the Rust/AVX2 flavour ~3.43x slower, per the optimization
config — the Fig. 11 ablation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import TRANSLATION_THREADS
from repro.errors import DeviceNotLinkedError, SerializationError
from repro.driver.driver import PerfModeMapping, UpmemDriver
from repro.hardware.bufpool import BufferPool
from repro.hardware.rank import WriteSpec
from repro.hardware.clock import SimClock
from repro.hardware.timing import CostModel
from repro.observability.metrics import Counts, MetricsRegistry
from repro.observability.catalog import BACKEND, bind, vm_of
from repro.observability.spans import SpanRecorder
from repro.sdk.kernel import DpuProgram
from repro.sdk.transfer import DpuEntry, Target, TransferMatrix, XferKind
from repro.virt.guest_memory import GuestMemory
from repro.virt.serialization import (
    KIND_LABEL,
    RequestHeader,
    RequestKind,
    SerializedEntry,
    deserialize_request,
    gather_entry_data,
    scatter_entry_data,
)
from repro.virt.virtio import Descriptor


# Bound once: an Enum member read off its class costs about ten global
# reads on CPython 3.11, and the request path tests these per copy.
_GET_CONFIG, _RELEASE, _LOAD, _LAUNCH, _CI_OP, _WRITE_RANK, _READ_RANK = (
    RequestKind.GET_CONFIG, RequestKind.RELEASE, RequestKind.LOAD,
    RequestKind.LAUNCH, RequestKind.CI_OP, RequestKind.WRITE_RANK,
    RequestKind.READ_RANK)
_MRAM = Target.MRAM


@dataclass
class BatchRecord:
    """One buffered small write replayed by the backend at flush time
    (§4.1: batching merges messages, not hardware operations)."""

    dpu_index: int
    offset: int
    data: np.ndarray
    #: Content digest the transfer cache recorded for the write as it
    #: was buffered (0: none), mirrored on the host once the flush lands.
    digest: int = 0


@dataclass
class BackendResult:
    """Outcome of processing one request (duration feeds the Fig. 13 steps)."""

    duration: float
    steps: Dict[str, float] = field(default_factory=dict)
    payload: Optional[object] = None


class TranslationCache:
    """TLB-style cache over GPA→HVA page-run translation (the XLB).

    The guest driver recycles its DMA arena, so the *same* page runs come
    back request after request (§4.2's translation threads re-resolve
    them every time).  A run is keyed by ``(first GPA, last GPA, page
    count)`` — the identity of an arithmetic page sequence produced by
    the frontend serializer — and ``counts["hits"]``/``counts["misses"]``
    model the TLB's behaviour over those runs (``series`` maps those keys
    to the children that read them).  Every page is bounds-checked on hits
    too: the key says nothing about the middle of a run the guest built.
    LRU-bounded; the GPA+offset arithmetic is unchanged.
    """

    #: Page runs kept before the least recently used one goes.
    CAPACITY = 512

    def __init__(self, memory: GuestMemory, series=None) -> None:
        self.memory = memory
        self._runs: "OrderedDict[Tuple[int, int, int], bool]" = OrderedDict()
        self.counts = Counts(series)
        #: Bumped on every :meth:`invalidate` (unlink/relink).  Compiled
        #: transfer plans snapshot this after resolving their page runs;
        #: a matching generation lets a replay skip per-entry translation
        #: (the runs were bounds-validated when first resolved and a
        #: plan's GPAs never change).
        self.generation = 0

    def translate(self, page_gpas: np.ndarray) -> np.ndarray:
        """Bounds-checked GPA→HVA for one entry's page buffer."""
        arr = np.asarray(page_gpas, dtype=np.uint64)
        hvas = self.memory.translate_pages(arr)
        if arr.size == 0:
            return hvas
        key = (int(arr[0]), int(arr[-1]), arr.size)
        runs = self._runs
        if key in runs:
            runs.move_to_end(key)
            self.counts["hits"] += 1
        else:
            self.counts["misses"] += 1
            runs[key] = True
            if len(runs) > self.CAPACITY:
                runs.popitem(last=False)
        return hvas

    def invalidate(self) -> None:
        self._runs.clear()
        self.generation += 1


class VUpmemBackend:
    """One vUPMEM device's backend, bound to at most one physical rank
    (the §4.2 device model inside Firecracker)."""

    def __init__(self, device_id: str, driver: UpmemDriver,
                 guest_memory: GuestMemory, cost: CostModel,
                 rust_data_path: bool = False,
                 translation_threads: int = TRANSLATION_THREADS,
                 metrics: Optional[MetricsRegistry] = None,
                 spans: Optional[SpanRecorder] = None,
                 transfer_cache=None,
                 qos=None) -> None:
        self.device_id = device_id
        self.driver = driver
        self.memory = guest_memory
        self.cost = cost
        self.rust_data_path = rust_data_path
        self.translation_threads = translation_threads
        #: The transfer cache's host half when ``Optimization(cache=True)``
        #: (:class:`~repro.virt.transfer_cache.HostCache`), else ``None``.
        self.transfer_cache = transfer_cache
        #: The owning VM's :class:`~repro.qos.flow.QosFlow` (``docs/qos.md``):
        #: each data transfer adds the stretch its ``on_bus`` returns.
        #: ``None`` keeps the exact single-tenant timing path.
        self.qos = qos
        self.mapping: Optional[PerfModeMapping] = None
        #: ``rank=`` label of requests: the bound rank's index, fixed
        #: when the mapping is linked.
        self._rank_label = "none"
        #: Fault-injection seam (armed by :mod:`repro.faults`): when set,
        #: called as ``hook(backend)`` before any request work — a hung
        #: worker raises :class:`~repro.errors.BackendHungError` here,
        #: after the kick, before side effects: a retry is idempotent.
        self.fault_hook = None
        #: Trace context; shares the machine recorder when built by
        #: :class:`~repro.virt.firecracker.Firecracker`, making each
        #: backend span a child of the frontend request that caused it
        #: and pointing request-latency exemplars at the live trace.
        self.spans = spans or SpanRecorder(SimClock())
        #: Live telemetry (translation/interleave timings, request counts
        #: labeled by the currently bound rank).
        self.obs = bind(metrics or MetricsRegistry(), BACKEND,
                        vm=vm_of(device_id), device=device_id)
        #: TLB-style GPA→HVA run cache (every page bounds-checked, hits too).
        self.xlb = TranslationCache(guest_memory, series={
            "hits": self.obs.xlb_hits, "misses": self.obs.xlb_misses})
        #: Scratch-buffer pool backing gathers and pooled rank reads;
        #: per-backend so chaos drills can assert loan stability.
        self.pool = BufferPool()

    # -- rank linking -------------------------------------------------------

    @property
    def linked(self) -> bool:
        return self.mapping is not None

    def link_rank(self, rank_index: int) -> None:
        if self.mapping is not None:
            raise DeviceNotLinkedError(
                f"device {self.device_id} is already linked to rank "
                f"{self.mapping.rank_index}"
            )
        self.mapping = self.driver.mmap_rank(rank_index, self.device_id)
        self._rank_label = str(self.mapping.rank_index)

    def unlink(self) -> None:
        if self.mapping is not None:
            self.mapping.unmap()
            self.mapping = None
            self._rank_label = "none"
            # The rank binding changed (release/migration/failover):
            # cached translation state must be re-resolved, and plans
            # holding this generation stop short-circuiting the XLB.
            self.xlb.invalidate()

    def require_mapping(self) -> PerfModeMapping:
        if self.mapping is None:
            raise DeviceNotLinkedError(
                f"device {self.device_id} has no backing rank; requests "
                "would be lost (Appendix A.1 'Device operations')"
            )
        return self.mapping

    # -- request processing -----------------------------------------------------

    def process(self, chain: List[Descriptor],
                program: Optional[DpuProgram] = None,
                batch_records: Optional[List[BatchRecord]] = None,
                plan=None,
                matrix: Optional[TransferMatrix] = None) -> BackendResult:
        """Handle one transferq request; returns timing and any payload.

        ``plan`` (a :class:`~repro.virt.plans.TransferPlan`, frontend
        side-channel for the shape it just replayed) skips the chain
        deserialization: the plan's entries/skips are the wire content
        by construction, and ``matrix`` — the request's own, of the
        plan's shape — carries the buffers the frontend bound at the
        payload GPAs the chain references, which is where GPA→HVA
        translation of those pages leads.  Purely wall-clock — the
        modeled deserialize time is still charged in full.
        """
        if self.fault_hook is not None:
            self.fault_hook(self)
        if plan is not None:
            header, entries, skips = plan.header, plan.entries, plan.skips
        else:
            header, entries, skips = deserialize_request(chain, self.memory)
        # Rank bound at arrival time (RELEASE unlinks while handling).
        rank = self._rank_label
        kind = KIND_LABEL[header.kind]
        span = self.spans.begin("backend.request", "backend", kind=kind,
                                rank=rank, device=self.device_id)
        try:
            result = self._handle(header, entries, skips, program,
                                  batch_records, plan, matrix)
        except BaseException:
            self.spans.end(span, error=True)
            raise
        self.spans.end(span, duration=result.duration)
        self.obs.requests[rank, kind].inc()
        self.obs.request_seconds[kind].observe(
            result.duration, exemplar=(self.spans.exemplar()
                                       if self.spans.capture_exemplars
                                       else None))
        return result

    def _handle(self, header: RequestHeader,
                entries: List[SerializedEntry],
                skips: list,
                program: Optional[DpuProgram],
                batch_records: Optional[List[BatchRecord]],
                plan=None,
                matrix: Optional[TransferMatrix] = None) -> BackendResult:
        kind = header.kind
        name = KIND_LABEL[kind]

        if kind is _GET_CONFIG:
            return self._control(name, payload=self.driver.config)
        cache = self.transfer_cache
        if kind is _RELEASE:
            self.unlink()
            if cache is not None:
                cache.invalidate_all()
            return self._control(name)

        mapping = self.mapping
        if mapping is None:
            self.require_mapping()          # raises

        if kind is _LOAD:
            if program is None:
                raise SerializationError("LOAD request without a program image")
            # load_program rebuilds every symbol buffer; nothing resident
            # from the previous program can be trusted afterwards.
            if cache is not None:
                cache.invalidate_all()
            return self._control(name, mapping.load(program))
        if kind is _LAUNCH:
            if cache is not None:
                run_time, dirty = cache.launch(mapping)
                return self._control(name, run_time, payload=dirty)
            return self._control(name, mapping.launch())
        if kind is _CI_OP:
            return self._control(name, mapping.ci_ops(header.count))
        if kind is _WRITE_RANK or kind is _READ_RANK:
            return self._transfer(header, entries, skips, batch_records,
                                  plan, matrix, mapping)
        raise SerializationError(f"backend cannot handle request kind {kind}")

    def _transfer(self, header: RequestHeader,
                  entries: List[SerializedEntry],
                  skips: list,
                  batch_records: Optional[List[BatchRecord]],
                  plan, matrix: Optional[TransferMatrix],
                  mapping: PerfModeMapping) -> BackendResult:
        """WRITE_RANK / READ_RANK: deserialization + translation +
        zero-copy access, one tail per direction."""
        cache = self.transfer_cache
        if skips:
            if cache is None:
                raise SerializationError("request carries SKIP extents but "
                                         "the transfer cache is off")
            cache.validate(header, skips)

        pool = self.pool
        reuse0 = pool.reuse_count
        writing = header.kind is _WRITE_RANK

        # Resolve the matrix and the buffers the rank operation touches —
        # the only place a planned and a wire request differ.  A planned
        # request brings its matrix, whose entry buffers are the caller's
        # own (write sources, read result rows) bound at the payload
        # GPAs; the wire path gathers write payloads into, and reads
        # through, pooled scratch buffers.  A batch flush has no matrix:
        # its records are replayed instead.
        scratch: List[np.ndarray] = []
        try:
            if batch_records is not None:
                matrix = None
            elif plan is None:
                scratch.extend(pool.acquire(e.size) for e in entries)
                matrix = self._wire_matrix(header, entries, writing, scratch)
            broadcast = (cache is not None and writing
                         and cache.broadcast(matrix))
            threads = self.translation_threads
            if plan is None:
                entry_pages = [e.page_gpas.size for e in entries]
                pages = sum(entry_pages)
                steps = self.cost.backend_steps(
                    KIND_LABEL[header.kind], entry_pages, len(skips),
                    threads, broadcast)
            else:
                # The shape fixes the steps but T-data: worked out once
                # per plan (and translation setting), copied per replay.
                pages = plan.sreq.total_pages
                fixed = plan.backend_steps.get((threads, broadcast))
                if fixed is None:
                    fixed = plan.backend_steps[threads, broadcast] = \
                        self.cost.backend_steps(
                            KIND_LABEL[header.kind], plan.entry_pages,
                            len(skips), threads, broadcast)
                steps = dict(fixed)
            self._translate(entries, plan, steps, pages, broadcast)

            payload = None
            if not writing:
                # MRAM reads land straight in ``into``; WRAM symbol reads
                # ignore it and return fresh buffers.
                into = ([e.data for e in matrix.entries]
                        if plan is not None else scratch)
                buffers, tdata = mapping.read(
                    matrix, rust_interleave=self.rust_data_path, into=into)
                for entry, dst, buf in zip(entries, into, buffers):
                    if plan is None:
                        scatter_entry_data(entry, buf, self.memory)
                    elif buf is not dst:
                        dst[...] = buf
                payload = len(buffers)
            elif batch_records is not None:
                tdata = self._replay_batch(mapping, header, batch_records)
            else:
                pinned = (self._pinned_write_for(plan, matrix, mapping)
                          if plan is not None else None)
                if pinned is not None:
                    tdata = mapping.write_pinned(
                        pinned, [e.data for e in matrix.entries],
                        rust_interleave=self.rust_data_path)
                else:
                    tdata = mapping.write(
                        matrix, rust_interleave=self.rust_data_path)
                if cache is not None:
                    cache.wrote(header.symbol, [
                        (e.dpu_index, header.offset, e.size, e.digest)
                        for e in entries])
        finally:
            # Runs on injected transport faults too: pooled buffers must
            # never leak out of an aborted request.
            for buf in scratch:
                pool.release(buf)

        if pool.reuse_count != reuse0:      # only the wire path borrows
            self.obs.bufpool_reuse.inc(pool.reuse_count - reuse0)
        self.obs.interleave_seconds.observe(tdata)
        if self.qos is not None:
            # Co-resident demand stretches the bus occupancy; folded into
            # T-data so per-step breakdowns show contention as data-path
            # elongation (the shape of Fig. 16), not a synthetic phase.
            # Also reports this device's own usage to the arbiter.
            tdata += self.qos.on_bus(tdata, self.driver.machine.clock.now)
        steps["T-data"] = tdata
        return BackendResult(
            duration=self.cost.total(steps),
            steps={"Deser": steps["deserialize"] + steps["translate"],
                   "T-data": tdata},
            payload=payload)

    # -- helpers ---------------------------------------------------------------------

    def _control(self, kind: str, op: float = 0.0,
                 payload: Optional[object] = None) -> BackendResult:
        """Result of a non-transfer request whose rank work took ``op``."""
        return BackendResult(
            duration=self.cost.total(self.cost.backend_steps(kind, op=op)),
            payload=payload)

    def _translate(self, entries: List[SerializedEntry], plan,
                   steps: Dict[str, float], pages: int,
                   broadcast: bool) -> None:
        """Walk the XLB for every entry's page run and emit the request's
        pre-transfer steps (spans, translation histogram)."""
        xlb = self.xlb
        if plan is not None and plan.xlb_generation == xlb.generation:
            # Replay: the plan's page runs were resolved (and bounds-
            # validated) at this XLB generation, and its GPAs never
            # change — count the hits without walking.
            xlb.counts["hits"] += len(entries)
        else:
            for entry in entries:
                xlb.translate(entry.page_gpas)  # bounds-checked
            if plan is not None:
                plan.xlb_generation = xlb.generation
        self.obs.translated_pages.inc(pages)
        self.obs.translation_seconds.observe(steps["translate"])
        self.spans.event("backend.deserialize", "backend",
                         steps["deserialize"], pages=pages,
                         broadcast=broadcast)
        self.spans.event(
            "backend.translate", "backend", steps["translate"], pages=pages,
            threads=self.cost.translation_lanes(self.translation_threads))
        self.spans.event("backend.dispatch", "backend", steps["dispatch"])

    def _pinned_write_for(self, plan, matrix: TransferMatrix,
                          mapping: PerfModeMapping):
        """The plan's resolved MRAM destinations, or ``None``.

        Pinning needs a stable rank binding, so only a plain
        :class:`~repro.driver.driver.PerfModeMapping` qualifies (paged
        mappings re-resolve their frame per operation).  The cached
        destinations are revalidated against the mapping's rank and
        every touched MRAM's backing-store generation (a reset or
        restore recycles extents); anything stale is re-resolved in
        place from ``matrix``, the shape every request of the plan has.
        """
        if (matrix.target is not _MRAM
                or type(mapping) is not PerfModeMapping):
            return None
        pinned = plan.pinned_write
        if (pinned is not None and pinned.rank is mapping.rank
                and pinned.valid()):
            return pinned
        plan.pinned_write = None
        try:
            specs = [WriteSpec(e.dpu_index, matrix.offset, e.data)
                     for e in matrix.entries]
            plan.pinned_write = mapping.rank.pin_mram_write(specs)
        except Exception:
            # Anything unpinnable (offline rank mid-drill, bounds) falls
            # back to the ordinary write, which surfaces the real error.
            return None
        return plan.pinned_write

    def _wire_matrix(self, header: RequestHeader,
                     entries: List[SerializedEntry], writing: bool,
                     scratch: List[np.ndarray]) -> TransferMatrix:
        """Rebuild the transfer matrix of a wire request, gathering each
        write payload into its ``scratch`` buffer."""
        matrix = TransferMatrix(
            XferKind.TO_DPU if writing else XferKind.FROM_DPU,
            header.symbol, header.offset,
            [DpuEntry(dpu_index=entry.dpu_index, size=entry.size,
                      data=(gather_entry_data(entry, self.memory, out=buf)
                            if writing else None))
             for entry, buf in zip(entries, scratch)])
        matrix.validate()
        return matrix

    def _replay_batch(self, mapping: PerfModeMapping, header: RequestHeader,
                      records: List[BatchRecord]) -> float:
        """Apply buffered small writes one hardware operation each.

        Batching merges *messages*, not hardware operations: "this batching
        mechanism does not reduce the total data writing time" (Section
        4.1) — each record still pays the rank's per-operation cost.  The
        transfer cache, when on, may replay several records as one
        operation, and mirrors the landed records' digests.
        """
        cache = self.transfer_cache
        total = 0.0
        i = 0
        while i < len(records):
            run = [records[i]] if cache is None else cache.run_at(records, i)
            matrix = TransferMatrix(
                XferKind.TO_DPU, header.symbol, run[0].offset,
                [DpuEntry(dpu_index=r.dpu_index,
                          size=r.data.size, data=r.data) for r in run],
            )
            total += mapping.write(matrix, rust_interleave=self.rust_data_path)
            i += len(run)
        if cache is not None:
            cache.wrote(header.symbol, [
                (r.dpu_index, r.offset, r.data.size, r.digest)
                for r in records])
        self.obs.batch_replays.inc(len(records))
        return total
