"""The calibrated cost model.

Every simulated duration on the paper's path (hardware, driver, SDK,
virtualization stack, applications) is derived from the constants below.
Calibration anchors come straight from the paper:

- DPU frequency 350 MHz; two consecutive instructions of one tasklet must
  be >= 11 cycles apart, so pipeline time is
  ``max(total_instructions, 11 * max_per_tasklet_instructions)`` cycles
  (Section 2, also the standard PrIM model).
- A guest->VMM transition (virtio kick: trap into KVM, forward to
  Firecracker, handle, inject IRQ, resume guest) carries a fixed cost that
  dominates small transfers — the paper's headline observation that *call
  count*, not bytes, drives overhead (Sections 1 and 5.3.1).
- The Rust data path is ~3.43x slower than the C/AVX-512 one (the "343%
  improvement" of Section 4.2 / Fig. 11).
- Manager: rank allocation from NAAV costs ~36 ms; a rank reset costs
  ~597 ms (Section 4.2 "Manager's Overhead").
- Fig. 9c fixes the ratio between per-byte and per-call virtualization
  costs: checksum overhead falls from 2.33x at 8 MB/DPU to 1.29x at
  60 MB/DPU.

Absolute values will not match the authors' Xeon 4215 testbed — the
assertions in ``tests/analysis/test_paper_shapes.py`` check *shapes*
(who wins, rough factors, crossovers), as the reproduction contract says.

This is the paper's model only; the opt-in extensions keep their costs
with their policy.  Cross-VM bus sharing lives in ``repro.qos.arbiter``
(``WFQ_QUANTUM``) and reads ``parallel_contention`` from here; the costs
of detecting and retrying an injected fault live in
``repro.faults.retry``; a demand-paging fault's fixed cost is
``repro.paging.pager``'s ``FAULT_OVERHEAD_S``; the emulated ranks of
Section 7 derate this model with :meth:`CostModel.with_overrides`
(``repro.virt.emulation``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.config import (
    DPU_FREQUENCY_HZ,
    DPUS_PER_CHIP,
    PAGE_SIZE,
    PIPELINE_DEPTH,
    TRANSLATION_THREADS,
)


@dataclass(frozen=True)
class CostModel:
    """All timing constants, in seconds (or cycles where noted), calibrated
    against the §5.1 testbed measurements."""

    # -- DPU core ----------------------------------------------------------
    dpu_frequency_hz: float = DPU_FREQUENCY_HZ
    pipeline_depth: int = PIPELINE_DEPTH
    #: MRAM<->WRAM DMA: fixed setup cycles + cycles per byte.  ~77-cycle
    #: setup and ~0.5 cycles/byte match published UPMEM microbenchmarks.
    dma_setup_cycles: float = 77.0
    dma_cycles_per_byte: float = 0.5

    # -- Host <-> rank transfers (native, performance mode) ----------------
    #: Fixed cost of one rank-level transfer operation (driver call, CI
    #: programming, DMA kick).
    rank_op_fixed: float = 1.5e-6
    #: Sustained host<->rank copy bandwidth, bytes/second.  UPMEM rank
    #: transfer peaks around a few GB/s; 2.8 GB/s reproduces the scale of
    #: Fig. 9's checksum times.
    rank_xfer_bandwidth: float = 2.8e9
    #: Host-side interleaving shuffle throughput for the C/AVX-512 flavour
    #: (bytes/second).  The native SDK always uses this flavour.
    interleave_bw_c: float = 9.0e9
    #: Rust/AVX2 data-path slowdown vs C/AVX-512.  Section 4.2 quotes a
    #: per-function improvement of "up to 343%", but Fig. 13's end-to-end
    #: breakdown (T-data = 98.3% of a ~1.5 s write in Rust vs ~30 ms in C
    #: for the same 480 MB) implies a far larger data-path gap; we
    #: calibrate to the Fig. 11/13 behaviour, which the ablation tests
    #: assert (rust >= 3.43x slower on the write path).
    rust_slowdown: float = 30.0
    #: Fixed cost of a serial per-DPU copy (dpu_copy_to/from one DPU).
    dpu_copy_fixed: float = 1.2e-6

    # -- Control interface --------------------------------------------------
    #: One native CI operation (status poll, command byte) through mmap.
    ci_op_native: float = 2e-6
    #: Status-poll period of a launch: the synchronous wait loop's first
    #: period, and the fixed cadence of an application polling an
    #: asynchronous launch from userspace (the UPMEM Index Search demo).
    status_poll_period: float = 50e-6
    #: The synchronous wait loop doubles its period up to this cap.
    status_poll_max_period: float = 10e-3
    #: Extra kernel-entry cost of one safe-mode ioctl.
    ioctl_overhead: float = 1.2e-6

    # -- Virtualization: guest <-> VMM transitions ---------------------------
    #: Guest write to the virtio kick register -> KVM trap -> Firecracker
    #: event handler dispatch.
    vmexit_cost: float = 8e-6
    #: IRQ injection + guest driver wakeup on completion.
    irq_inject_cost: float = 12e-6
    #: Firecracker event-loop handling of one queue notification (epoll
    #: wakeup, descriptor fetch) before any payload work.  Together with
    #: the trap/IRQ and backend fixed costs, one data request carries
    #: ~90 us of fixed overhead vs ~3 us for a native small operation —
    #: the ~26x-per-IO-op regime the paper cites for Firecracker.
    event_dispatch_cost: float = 25e-6
    #: Extra per-roundtrip latency a *synchronous* CI operation pays inside
    #: a VM on top of the native CI cost.  Drives the launch-poll overhead
    #: and the small-request pathologies.
    ci_virt_roundtrip: float = 50e-6

    # -- Virtualization: per-page costs --------------------------------------
    #: Frontend page management: pinning user pages and collecting their
    #: GPAs (Section 5.4.1's "Page" step).
    page_mgmt_per_page: float = 100e-9
    #: Frontend serialization of the transfer matrix, per page pointer.
    serialize_per_page: float = 60e-9
    #: Backend deserialization, per page pointer.
    deserialize_per_page: float = 50e-9
    #: GPA->HVA translation, per page, before dividing by the translation
    #: thread count (Section 4.2 uses several threads to accelerate it).
    translate_per_page: float = 160e-9
    #: Fixed start-up cost of the threaded translation (thread handoff).
    translate_fixed: float = 5e-6
    #: Plain in-guest memcpy bandwidth (prefetch-cache hits, batch-buffer
    #: accumulation) — ordinary DRAM copies, no interleaving.
    guest_copy_bandwidth: float = 8.0e9
    #: Per-buffer bookkeeping of one such in-guest copy.
    guest_copy_per_buffer: float = 0.3e-6

    #: Content-aware transfer cache (``Optimization(cache=True)`` only —
    #: the cache-off model never charges these).  Digesting one 4 KiB page
    #: with an xxhash-class hash runs at roughly memcpy speed on one core.
    digest_per_page: float = 120e-9
    #: Frontend per-entry digest-index probe (dict lookup + bookkeeping).
    cache_lookup_cost: float = 50e-9
    #: Backend per-SKIP-extent resident-index validation.
    cache_skip_lookup_cost: float = 60e-9

    #: Contention between concurrently-handled rank requests in the VMM.
    #: Fig. 16 shows parallel per-rank write requests each taking ~6 s
    #: where a solo request takes ~1.1 s: the backend threads share the
    #: host memory bus, so parallel handling wins ~1.4x on writes and
    #: ~1.13x end-to-end (Fig. 15), not a full rank-count factor.
    #: 0 = perfectly parallel, 1 = fully serialized.
    parallel_contention: float = 0.55
    #: Contention between concurrent *native* rank transfers (the SDK's
    #: per-rank threads share the memory bus too, but without the VMM's
    #: thread handoffs): aggregate bandwidth over 8 ranks scales ~3x.
    native_parallel_contention: float = 0.25

    # -- Backend execution ----------------------------------------------------
    #: Worker-thread handoff for one DPU-operation batch.
    backend_dispatch: float = 10e-6
    #: Per-request bookkeeping in the backend module.
    backend_request_fixed: float = 35e-6

    # -- Manager ---------------------------------------------------------------
    #: dpu_alloc-triggered allocation of a NAAV rank (Section 4.2: 36 ms).
    manager_alloc: float = 36e-3
    #: Full rank reset: memset of 64 x 64 MB MRAM (Section 4.2: 597 ms).
    manager_reset: float = 597e-3
    #: Observer-thread sysfs polling period.
    manager_observe_period: float = 50e-3
    #: Manager retry backoff *base* when no rank is available: attempt N
    #: waits ``manager_retry_timeout * BACKOFF_FACTOR**N`` (plus jitter),
    #: capped at ``manager_retry_max``.
    manager_retry_timeout: float = 100e-3
    #: Upper bound on one manager retry backoff interval.
    manager_retry_max: float = 1.6

    # -- VM lifecycle -------------------------------------------------------------
    #: Firecracker's own boot time before devices are added (microVM scale).
    vm_boot_base: float = 125e-3
    #: Extra boot time contributed by one vUPMEM device (Section 3.2: <=2 ms).
    vupmem_boot_cost: float = 2e-3
    #: Device configuration request during driver init.
    config_request_cost: float = 30e-6

    # -- derived helpers ------------------------------------------------------

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.dpu_frequency_hz

    def pipeline_time(self, per_tasklet_instructions) -> float:
        """Wall time of a DPU run given each tasklet's issued instructions.

        Implements the 11-cycle hazard rule: with T >= 11 busy tasklets the
        pipeline retires one instruction per cycle; below that each tasklet
        can issue at most once per 11 cycles.
        """
        counts = list(per_tasklet_instructions)
        if not counts:
            return 0.0
        total = float(sum(counts))
        bound = self.pipeline_depth * float(max(counts))
        return self.cycles_to_seconds(max(total, bound))

    def dma_time(self, nr_ops: int, total_bytes: int) -> float:
        """MRAM<->WRAM DMA time for ``nr_ops`` transfers of ``total_bytes``."""
        cycles = nr_ops * self.dma_setup_cycles + total_bytes * self.dma_cycles_per_byte
        return self.cycles_to_seconds(cycles)

    def rank_transfer_time(self, total_bytes: int) -> float:
        """Bulk host<->rank copy time (excluding interleave CPU work)."""
        return self.rank_op_fixed + total_bytes / self.rank_xfer_bandwidth

    def interleave_time(self, total_bytes: int, rust: bool = False) -> float:
        """CPU time spent byte-interleaving ``total_bytes``."""
        bw = self.interleave_bw_c / (self.rust_slowdown if rust else 1.0)
        return total_bytes / bw

    def pages_of(self, nr_bytes: int) -> int:
        return (nr_bytes + PAGE_SIZE - 1) // PAGE_SIZE

    # -- the data path (docs/architecture.md "Cost model") ---------------------
    #
    # Every modeled duration of a request is computed here, from the
    # request's *shape* alone (pages, bytes, targets, flags); the byte
    # movers call a helper and move bytes.  Composite operations return
    # their steps as an ordered dict — the order is the order the stack
    # has always summed in, and :meth:`total` folds it left to right, so
    # the sha256 digest over modeled times cannot move.  A ``0.0``
    # placeholder is a step only the running operation can measure (the
    # mapping's duration, the QoS wait); the caller fills it in place.

    @staticmethod
    def total(steps: Dict[str, float]) -> float:
        """Left-to-right sum of ``steps`` (never ``sum()``: Python 3.12+
        compensates float sums, which would change the last bit)."""
        acc = 0.0
        for seconds in steps.values():
            acc += seconds
        return acc

    def roundtrip_steps(self, pages: int, vhost_vsock: bool = False,
                        qos: float = 0.0, backend: float = 0.0,
                        ) -> Dict[str, float]:
        """One transferq request as the guest sees it (Fig. 13's Page,
        Ser and Int around the backend's share).

        ``Int`` is the kick: the trap into KVM plus Firecracker's event
        dispatch, which the vhost-style path (Section 7) skips.
        """
        kick = self.vmexit_cost
        if not vhost_vsock:
            kick += self.event_dispatch_cost
        return {
            "Page": pages * self.page_mgmt_per_page,
            "Ser": pages * self.serialize_per_page,
            "Int": kick,
            "QoS": qos,
            "Backend": backend,
            "Irq": self.irq_inject_cost,
        }

    def translation_lanes(self, threads: int) -> int:
        """Translation threads that actually help: the paper "empirically
        validate[d] that using more than 8 threads does not provide
        additional benefits" (Section 4.2), matching the 8-DPUs-per-chip
        memory parallelism."""
        return max(1, min(threads, DPUS_PER_CHIP))

    def backend_steps(self, kind: str, entry_pages: Sequence[int] = (),
                      skips: int = 0, threads: int = TRANSLATION_THREADS,
                      broadcast: bool = False, op: float = 0.0,
                      ) -> Dict[str, float]:
        """The backend's share of one request of ``kind`` (a lower-case
        :class:`~repro.virt.serialization.RequestKind` name).

        ``op`` is what the rank mapping reports for the operation itself:
        the ``op`` step of load/launch/ci_op, the ``T-data`` step of a
        transfer.  Transfers deserialize and translate ``entry_pages``
        (one count per wire entry) — once, not per entry, when the
        entries ``broadcast`` one payload — and validate ``skips`` SKIP
        extents against the resident index.
        """
        if kind == "get_config":
            return {"config": self.config_request_cost}
        if kind == "release":
            return {"fixed": self.backend_request_fixed}
        if kind in ("load", "launch", "ci_op"):
            return {"fixed": self.backend_request_fixed, "op": op}
        if kind not in ("write_rank", "read_rank"):
            raise ValueError(f"no backend cost for request kind {kind!r}")
        pages = entry_pages[0] if broadcast else sum(entry_pages)
        return {
            "deserialize": (self.backend_request_fixed
                            + pages * self.deserialize_per_page
                            + skips * self.cache_skip_lookup_cost),
            "translate": (self.translate_fixed
                          + pages * self.translate_per_page
                          / self.translation_lanes(threads)),
            "dispatch": self.backend_dispatch,
            "T-data": op,
        }

    def rank_op_time(self, total_bytes: int, nr_targets: int,
                     rust: bool = False) -> float:
        """One rank operation moving ``total_bytes`` to/from ``nr_targets``
        DPUs: fixed op cost + copy bandwidth + interleaving CPU work.

        A transfer covering a single DPU only drives one of the rank's
        8 chip lanes (byte interleaving spreads each word over the
        chips, but one DPU's MRAM sits behind one chip), so serial
        per-DPU copies — the SEL/UNI/SpMV/BFS retrieval pattern — run at
        roughly 1/8 of the rank bandwidth plus an extra per-copy setup.
        """
        bw = self.rank_xfer_bandwidth
        extra = 0.0
        if nr_targets == 1:
            bw /= DPUS_PER_CHIP
            extra = self.dpu_copy_fixed
        return (self.rank_op_fixed + extra + total_bytes / bw
                + self.interleave_time(total_bytes, rust=rust))

    def symbol_copy_time(self, entry_sizes: Iterable[int]) -> float:
        """WRAM host-variable transfer: one small CI-side copy per DPU."""
        duration = 0.0
        for size in entry_sizes:
            duration += self.dpu_copy_fixed + size / self.rank_xfer_bandwidth
        return duration

    def program_load_time(self, binary_size: int, nr_dpus: int) -> float:
        """Copying one program image to each of ``nr_dpus`` DPUs (the
        LOAD commands themselves are CI operations, see :meth:`ci_time`)."""
        return self.rank_transfer_time(binary_size * nr_dpus)

    def ci_time(self, count: int) -> float:
        """``count`` native control-interface operations."""
        return count * self.ci_op_native

    def dpu_run_time(self, tasklet_instructions, dma_ops: int,
                     dma_bytes: int) -> float:
        """One DPU's launch: pipeline time plus its MRAM<->WRAM DMA."""
        return (self.pipeline_time(tasklet_instructions)
                + self.dma_time(dma_ops, dma_bytes))

    def sync_launch_polls(self, run_time: float) -> int:
        """Status polls of a synchronous launch running ``run_time``.

        The SDK's wait loop backs off exponentially: it polls after
        ``status_poll_period``, doubling up to ``status_poll_max_period``.
        Long runs therefore see only ``O(log) + run_time/max_period``
        polls, which keeps the DPU segment's virtualization overhead near
        1x, as Fig. 8 shows.
        """
        polls = 0
        waited = 0.0
        period = self.status_poll_period
        while waited < run_time:
            polls += 1
            waited += period
            if period < self.status_poll_max_period:
                period = min(period * 2, self.status_poll_max_period)
        return max(polls, 1)

    def guest_ci_time(self, count: int, vhost_vsock: bool = False,
                          ) -> float:
        """``count`` synchronous CI operations issued from inside a VM:
        each pays the native op plus a guest->VMM->guest round trip,
        which the in-kernel vhost path halves."""
        per_op = self.ci_virt_roundtrip + self.ci_op_native
        if vhost_vsock:
            per_op = self.ci_virt_roundtrip / 2 + self.ci_op_native
        return count * per_op

    def launch_poll_time(self, polls: int) -> float:
        """Userspace status polls during a launch inside a VM: each is
        one extra guest->VMM->guest transition (Fig. 10)."""
        return polls * self.ci_virt_roundtrip

    def guest_copy_time(self, nr_bytes: int, entries: int) -> float:
        """In-guest memcpy of ``entries`` buffers (batch-buffer
        accumulation, prefetch-cache serve): DRAM bandwidth plus
        per-buffer bookkeeping."""
        return (nr_bytes / self.guest_copy_bandwidth
                + self.guest_copy_per_buffer * entries)

    def digest_probe_time(self, entry_sizes: Sequence[int]) -> float:
        """Transfer-cache probe of one write matrix: digest every page,
        look every entry up in the extent index."""
        pages = sum(self.pages_of(size) for size in entry_sizes)
        return (pages * self.digest_per_page
                + len(entry_sizes) * self.cache_lookup_cost)

    def contended_makespan(self, jobs: Sequence[Tuple[float, float]],
                           contention: Optional[float] = None) -> float:
        """Modeled makespan of jobs sharing the bus concurrently (R2).

        ``jobs`` is ``(bus_seconds, total_seconds)`` per tenant.  Only the
        transfer-bound fraction of each job contends: compute overlaps
        freely, while every bus second beyond the longest job's own adds
        ``contention`` (default ``native_parallel_contention``) of
        serialization — one number between perfect parallelism and full
        fixed-factor contention.
        """
        jobs = list(jobs)
        if not jobs:
            return 0.0
        for bus_s, total_s in jobs:
            if bus_s < 0 or total_s < 0 or bus_s > total_s + 1e-12:
                raise ValueError(
                    f"job ({bus_s}, {total_s}) needs 0 <= bus <= total")
        if contention is None:
            contention = self.native_parallel_contention
        peak_bus, peak_total = max(jobs, key=lambda job: job[1])
        extra_bus = sum(bus for bus, _ in jobs) - peak_bus
        return peak_total + contention * extra_bus

    def with_overrides(self, **kwargs) -> "CostModel":
        """Return a copy with selected constants replaced (for ablations)."""
        return replace(self, **kwargs)


#: The default, calibrated model used throughout the library.
DEFAULT_COST_MODEL = CostModel()

