"""SCAN-RSS — Prefix sum, reduce-scan-scan variant (parallel primitives).

Phase 1 (DPU): each DPU only *reduces* its slice (cheaper than scanning).
Inter-DPU (host): read per-DPU sums, exclusive-scan, write base offsets.
Phase 2 (DPU): full local scan plus the base offset in one pass.
DPU-CPU: read the scanned slices.

Compared to SCAN-SSA this trades a second elementwise pass for a
cheaper first one; both share the small-transfer Inter-DPU step.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_array

#: Instructions per element in the reduce phase.
INSTR_PER_REDUCE = 3
#: Instructions per element in the scan+add phase.
INSTR_PER_SCAN_ADD = 5


class ScanRssProgram(DpuProgram):
    """DPU side: phase 0 = reduce, phase 1 = scan + base offset."""

    name = "scan_rss_dpu"
    symbols = {"n_elems": 4, "out_offset": 4, "sum_offset": 4,
               "phase": 4, "base": 8}
    nr_tasklets = 16
    binary_size = 8 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n = rank.host_u32("n_elems")
        out_off = rank.host_u32("out_offset")
        sum_off = rank.host_u32("sum_offset")
        base = rank.host_i64("base")
        reduce = rank.host_u32("phase") == 0    # else: scan
        _starts, lens = rank.split(n)
        working = lens > 0              # tasklets that have elements
        rank.mem_alloc(2 * 1024, tasklets=rank.nr_tasklets)
        # Reduce: each tasklet reads its piece, and tasklet 0 adds up the
        # partials and stores the sum.  Scan: each tasklet scans its
        # piece; after the barrier it adds the totals of the tasklets
        # before it and the DPU's base offset, and writes the piece out.
        rank.dma(lens * 4, where=working)
        rank.dma(lens * 8, where=working & ~reduce[:, None])
        rank.dma(np.full(rank.nr_dpus, 8), where=reduce, block_bytes=None)
        rank.charge(lens * np.where(reduce, INSTR_PER_REDUCE,
                                    INSTR_PER_SCAN_ADD + 1)[:, None])
        for i, (count, out_at, sum_at, add, reducing) in enumerate(zip(
                n.tolist(), out_off.tolist(), sum_off.tolist(),
                base.tolist(), reduce.tolist())):
            dpu = rank.dpu(i)
            data = dpu.mram_read(0, count * 4).view(np.int32)
            if reducing:
                dpu.mram_write(sum_at, np.array([data.sum(dtype=np.int64)]))
            else:
                dpu.mram_write(out_at, np.cumsum(data, dtype=np.int64) + add)


class ScanRss(HostApplication):
    """Host side of SCAN-RSS."""

    name = "Prefix sum (reduce-scan-scan)"
    short_name = "SCAN-RSS"
    domain = "Parallel primitives"

    def __init__(self, nr_dpus: int, n_elements: int = 1 << 19,
                 seed: int = 0) -> None:
        super().__init__(nr_dpus, n_elements=n_elements, seed=seed)
        self.data = random_array(n_elements, np.int32, lo=0, hi=64, seed=seed)

    def expected(self) -> np.ndarray:
        return np.cumsum(self.data.astype(np.int64))

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        counts = self.split_even(self.data.size, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        out_off = max(counts) * 4
        sum_off = out_off + max(counts) * 8
        out = np.empty(self.data.size, dtype=np.int64)
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(ScanRssProgram())
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
