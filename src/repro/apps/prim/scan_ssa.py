"""SCAN-SSA — Prefix sum, scan-scan-add variant (parallel primitives).

Phase 1 (DPU): every DPU computes an inclusive scan of its slice and its
slice total.  Inter-DPU (host): read the per-DPU totals (a small read —
prefetch-cache territory in vPIM), exclusive-scan them, and write each
DPU its base offset (small writes — batching territory).  Phase 2 (DPU):
add the base offset to every element.  DPU-CPU: read the scanned slices.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_array

#: Instructions per element in the scan phase.
INSTR_PER_SCAN = 4
#: Instructions per element in the add phase.
INSTR_PER_ADD = 3


class ScanSsaProgram(DpuProgram):
    """DPU side: phase 0 = local scan, phase 1 = add base offset."""

    name = "scan_ssa_dpu"
    symbols = {"n_elems": 4, "out_offset": 4, "sum_offset": 4,
               "phase": 4, "base": 8}
    nr_tasklets = 16
    binary_size = 8 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n = rank.host_u32("n_elems")
        out_off = rank.host_u32("out_offset")
        sum_off = rank.host_u32("sum_offset")
        base = rank.host_i64("base")
        scan = rank.host_u32("phase") == 0      # else: add the base
        _starts, lens = rank.split(n)
        working = lens > 0              # tasklets that have elements
        rank.mem_alloc(2 * 1024, tasklets=rank.nr_tasklets)
        # Scan: each tasklet reads and scans its piece; after the barrier
        # it adds the totals of the tasklets before it and writes the
        # piece out, and tasklet 0 stores the slice total.  Add: each
        # tasklet reads its piece of the scan and writes it back.
        rank.dma(lens * 4, where=working & scan[:, None])
        rank.dma(lens * 8, where=working)
        rank.dma(lens * 8, where=working & ~scan[:, None])
        rank.dma(np.full(rank.nr_dpus, 8), where=scan, block_bytes=None)
        rank.charge(lens * np.where(scan, INSTR_PER_SCAN + 1,
                                    INSTR_PER_ADD)[:, None])
        # A slice is a quarter megabyte at bench size: one DPU at a time.
        for i, (count, out_at, sum_at, add, scanning) in enumerate(zip(
                n.tolist(), out_off.tolist(), sum_off.tolist(),
                base.tolist(), scan.tolist())):
            dpu = rank.dpu(i)
            if scanning:
                scanned = np.cumsum(dpu.mram_read(0, count * 4).view(np.int32),
                                    dtype=np.int64)
                dpu.mram_write(out_at, scanned)
                dpu.mram_write(sum_at, scanned[-1:] if count
                               else np.zeros(1, np.int64))
            else:
                scanned = dpu.mram_read(out_at, count * 8).view(np.int64)
                dpu.mram_write(out_at, scanned + add)


class ScanSsa(HostApplication):
    """Host side of SCAN-SSA."""

    name = "Prefix sum (scan-scan-add)"
    short_name = "SCAN-SSA"
    domain = "Parallel primitives"

    def __init__(self, nr_dpus: int, n_elements: int = 1 << 19,
                 seed: int = 0) -> None:
        super().__init__(nr_dpus, n_elements=n_elements, seed=seed)
        self.data = random_array(n_elements, np.int32, lo=0, hi=64, seed=seed)

    def expected(self) -> np.ndarray:
        return np.cumsum(self.data, dtype=np.int64)

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        counts = self.split_even(self.data.size, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        out_off = max(counts) * 4
        sum_off = out_off + max(counts) * 8
        out = np.empty(self.data.size, dtype=np.int64)
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(ScanSsaProgram())
            with profiler.segment("CPU-DPU"):
                dpus.push_to("n_elems", 0,
                             [np.array([c], np.uint32) for c in counts])
                dpus.broadcast_to("out_offset", 0,
                                  np.array([out_off], np.uint32))
                dpus.broadcast_to("sum_offset", 0,
                                  np.array([sum_off], np.uint32))
                dpus.broadcast_to("phase", 0, np.array([0], np.uint32))
                dpus.push_to_mram(0, [self.data[bounds[i]:bounds[i + 1]]
                                      for i in range(self.nr_dpus)])
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("Inter-DPU"):
                # Small per-DPU sum read + small base writes: the message
                # traffic the prefetch cache and batching act on.
                sums = dpus.push_from_mram(sum_off, 8)
                totals = np.array([int(s.view(np.int64)[0]) for s in sums],
                                  dtype=np.int64)
                bases = np.concatenate([[0], np.cumsum(totals)[:-1]])
                dpus.push_to("base", 0,
                             [np.array([b], np.int64) for b in bases])
                dpus.broadcast_to("phase", 0, np.array([1], np.uint32))
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("DPU-CPU"):
                for i, buf in enumerate(
                        dpus.push_from_mram(out_off, max(counts) * 8)):
                    out[bounds[i]:bounds[i + 1]] = (
                        buf[:counts[i] * 8].view(np.int64))
        return out
