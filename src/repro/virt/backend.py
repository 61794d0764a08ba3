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
from repro.observability import MetricsRegistry
from repro.observability.instruments import BACKEND, bind, vm_of
from repro.observability.spans import SpanRecorder
from repro.sdk.kernel import DpuProgram
from repro.sdk.transfer import DpuEntry, Target, TransferMatrix, XferKind
from repro.virt.guest_memory import GuestMemory
from repro.virt.serialization import (
    KIND_LABEL,
    RequestHeader,
    RequestKind,
    SerializedEntry,
    SkipExtent,
    deserialize_request,
    gather_entry_data,
    scatter_entry_data,
)
from repro.virt.transfer_cache import ExtentDigestIndex
from repro.virt.virtio import Descriptor


def _is_broadcast(matrix: TransferMatrix) -> bool:
    """True iff every entry carries the same payload (all-DPUs pattern)."""
    entries = matrix.entries
    if len(entries) < 2:
        return False
    first = entries[0]
    return all(e.size == first.size and np.array_equal(e.data, first.data)
               for e in entries[1:])


@dataclass
class BatchRecord:
    """One buffered small write replayed by the backend at flush time
    (§4.1: batching merges messages, not hardware operations)."""

    dpu_index: int
    offset: int
    data: np.ndarray


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
    the frontend serializer — and the hit/miss counters model the TLB's
    behaviour over those runs.  Every page is bounds-checked on hits
    too: the key says nothing about the middle of a run the guest built.
    LRU-bounded; the GPA+offset arithmetic is unchanged.
    """

    def __init__(self, memory: GuestMemory, capacity: int = 512) -> None:
        self.memory = memory
        self.capacity = capacity
        self._runs: "OrderedDict[Tuple[int, int, int], bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
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
            self.hits += 1
        else:
            self.misses += 1
            runs[key] = True
            if len(runs) > self.capacity:
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
                 cache_enabled: bool = False,
                 qos=None) -> None:
        self.device_id = device_id
        self.driver = driver
        self.memory = guest_memory
        self.cost = cost
        self.rust_data_path = rust_data_path
        self.translation_threads = translation_threads
        #: Content-aware transfer cache (``Optimization(cache=True)``):
        #: resident-extent digests validating SKIPs, broadcast dedup,
        #: launch-time dirty collection.
        self.cache_enabled = cache_enabled
        #: The owning VM's :class:`~repro.qos.flow.QosFlow` (``docs/qos.md``):
        #: when set, data transfers pay a modeled bus share for co-resident
        #: demand and report their own usage to the arbiter.  ``None`` keeps
        #: the exact single-tenant timing path.
        self.qos = qos
        self.resident = ExtentDigestIndex()
        self.mapping: Optional[PerfModeMapping] = None
        #: ``rank=`` label of requests: the bound rank's index, fixed
        #: when the mapping is linked.
        self._rank_label = "none"
        #: Fault-injection seam (armed by :mod:`repro.faults`): when set,
        #: called as ``hook(backend)`` before any request work — a hung
        #: worker raises :class:`~repro.errors.BackendHungError` here,
        #: before side effects, so the frontend's retry is idempotent.
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
        self.xlb = TranslationCache(guest_memory)
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
            try:
                self.fault_hook(self)
            except Exception:
                self.spans.mark_fault("backend_fault")
                raise
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
        self.obs.requests[kind, rank].inc()
        self.obs.request_seconds[kind].observe(
            result.duration, exemplar=(self.spans.exemplar()
                                       if self.spans.capture_exemplars
                                       else None))
        return result

    def _handle(self, header: RequestHeader,
                entries: List[SerializedEntry],
                skips: List[SkipExtent],
                program: Optional[DpuProgram],
                batch_records: Optional[List[BatchRecord]],
                plan=None,
                matrix: Optional[TransferMatrix] = None) -> BackendResult:
        kind = header.kind
        name = KIND_LABEL[kind]

        if kind is RequestKind.GET_CONFIG:
            return self._control(name, payload=self.driver.config)
        if kind is RequestKind.RELEASE:
            self.unlink()
            self.resident.invalidate_all()
            return self._control(name)

        mapping = self.require_mapping()

        if kind is RequestKind.LOAD:
            if program is None:
                raise SerializationError("LOAD request without a program image")
            # load_program rebuilds every symbol buffer; nothing resident
            # from the previous program can be trusted afterwards.
            self.resident.invalidate_all()
            return self._control(name, mapping.load(program))
        if kind is RequestKind.LAUNCH:
            if self.cache_enabled:
                return self._launch_collecting_dirty(mapping)
            return self._control(name, mapping.launch())
        if kind is RequestKind.CI_OP:
            return self._control(name, mapping.ci_ops(header.count))
        if kind in (RequestKind.WRITE_RANK, RequestKind.READ_RANK):
            return self._transfer(header, entries, skips, batch_records,
                                  plan, matrix, mapping)
        raise SerializationError(f"backend cannot handle request kind {kind}")

    def _transfer(self, header: RequestHeader,
                  entries: List[SerializedEntry],
                  skips: List[SkipExtent],
                  batch_records: Optional[List[BatchRecord]],
                  plan, matrix: Optional[TransferMatrix],
                  mapping: PerfModeMapping) -> BackendResult:
        """WRITE_RANK / READ_RANK: deserialization + translation +
        zero-copy access, one tail per direction."""
        if skips and not self.cache_enabled:
            raise SerializationError(
                "request carries SKIP extents but the transfer cache is off")
        for skip in skips:
            # A SKIP the resident index cannot vouch for is a protocol
            # violation — suppressing it silently would corrupt the DPU.
            if not self.resident.lookup(skip.dpu_index, header.symbol,
                                        header.offset, skip.size,
                                        skip.digest):
                raise SerializationError(
                    f"SKIP extent (dpu {skip.dpu_index}, symbol "
                    f"{header.symbol!r}, offset {header.offset}, size "
                    f"{skip.size}) is not resident on the backend")

        pool = self.pool
        reuse0 = pool.reuse_count
        writing = header.kind is RequestKind.WRITE_RANK

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
            # Broadcast-identical payloads (the all-DPUs-same-buffer PrIM
            # pattern) are deserialized and translated once, then fanned
            # out — only the modeled time changes, every page is still
            # validated and written.
            broadcast = (writing and matrix is not None
                         and self.cache_enabled and _is_broadcast(matrix))
            if plan is not None:
                entry_pages, pages = plan.entry_pages, plan.sreq.total_pages
            else:
                entry_pages = [e.page_gpas.size for e in entries]
                pages = sum(entry_pages)
            steps = self.cost.backend_steps(
                KIND_LABEL[header.kind], entry_pages, len(skips),
                self.translation_threads, broadcast)
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
                if self.cache_enabled:
                    for entry in entries:
                        if entry.digest:
                            self.resident.insert(
                                entry.dpu_index, header.symbol,
                                header.offset, entry.size, entry.digest)
        finally:
            # Runs on injected transport faults too: pooled buffers must
            # never leak out of an aborted request.
            for buf in scratch:
                pool.release(buf)

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
            nr_entries = len(entries)
            xlb.hits += nr_entries
            self.obs.xlb_hits.inc(nr_entries)
        else:
            hits0, misses0 = xlb.hits, xlb.misses
            for entry in entries:
                xlb.translate(entry.page_gpas)  # bounds-checked
            self.obs.xlb_hits.inc(xlb.hits - hits0)
            self.obs.xlb_misses.inc(xlb.misses - misses0)
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
        if (matrix.target is not Target.MRAM
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

    def _launch_collecting_dirty(self, mapping: PerfModeMapping,
                                 ) -> BackendResult:
        """LAUNCH with kernel dirty-store collection (cache on only).

        Every DPU's dirty log is armed around the run; stores collected
        there invalidate overlapping resident digests and travel back to
        the frontend (in the payload) so its index stays honest too.
        """
        dpus = mapping.rank.dpus
        for dpu in dpus:
            dpu.dirty_log = []
        dirty: List[Tuple[int, str, int, int]] = []
        try:
            run_time = mapping.launch()
        finally:
            # Disarm and prune even when the launch faults: the kernel
            # may have stored before raising.
            for dpu in dpus:
                log, dpu.dirty_log = dpu.dirty_log, None
                for space, offset, nbytes in log or ():
                    self.resident.prune(dpu.dpu_index, space, offset, nbytes)
                    dirty.append((dpu.dpu_index, space, offset, nbytes))
        return self._control("launch", run_time, payload=dirty)

    def _replay_batch(self, mapping: PerfModeMapping, header: RequestHeader,
                      records: List[BatchRecord]) -> float:
        """Apply buffered small writes one hardware operation each.

        Batching merges *messages*, not hardware operations: "this batching
        mechanism does not reduce the total data writing time" (Section
        4.1) — each record still pays the rank's per-operation cost.

        With the transfer cache on, adjacent records carrying the *same*
        payload to the same offset on distinct DPUs (the broadcast
        argument-push pattern) are deduplicated into one multi-DPU rank
        operation: the content-aware exception to the rule above.
        """
        total = 0.0
        i = 0
        while i < len(records):
            run = [records[i]]
            if self.cache_enabled:
                j = i + 1
                while j < len(records):
                    nxt = records[j]
                    if (nxt.offset == run[0].offset
                            and nxt.data.size == run[0].data.size
                            and all(nxt.dpu_index != r.dpu_index
                                    for r in run)
                            and np.array_equal(nxt.data, run[0].data)):
                        run.append(nxt)
                        j += 1
                    else:
                        break
            matrix = TransferMatrix(
                XferKind.TO_DPU, header.symbol, run[0].offset,
                [DpuEntry(dpu_index=r.dpu_index,
                          size=r.data.size, data=r.data) for r in run],
            )
            total += mapping.write(matrix, rust_interleave=self.rust_data_path)
            i += len(run)
        self.obs.batch_replays.inc(len(records))
        return total
