"""RED — Reduction (parallel primitives).

Each DPU reduces its slice; per-tasklet partials are combined at a
barrier and the per-DPU sum is written to MRAM.  The Inter-DPU step is a
single tiny read-from-rank (8 bytes per DPU — the paper's "256 bytes")
that the host sums.  Under vPIM that small read triggers the prefetch
cache, which fetches a full cache segment per DPU and produces the
33x-145x Inter-DPU overhead called out in Section 5.2.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_array

#: Instructions per reduced element (load, add, loop).
INSTR_PER_ELEM = 3


class RedProgram(DpuProgram):
    """DPU side: sum this DPU's slice into MRAM[result_offset]."""

    name = "red_dpu"
    symbols = {"n_elems": 4, "result_offset": 4}
    nr_tasklets = 16
    binary_size = 5 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n = rank.host_u32("n_elems")
        _starts, lens = rank.split(n)
        working = lens > 0              # tasklets that have elements
        rank.mem_alloc(2048, tasklets=working.sum(axis=1))
        rank.dma(lens * 4, where=working)
        # Tasklet 0 adds up the per-tasklet partials and stores the sum.
        instructions = lens * INSTR_PER_ELEM
        instructions[:, 0] += rank.nr_tasklets * 2
        rank.charge(instructions)
        rank.dma(np.full(rank.nr_dpus, 8), block_bytes=None)
        # A slice is a megabyte at bench size: summed one DPU at a time.
        sums = np.array([[rank.dpu(i).mram_read(0, count * 4).view(np.int32)
                          .sum(dtype=np.int64)]
                         for i, count in enumerate(n.tolist())])
        rank.write_rows(rank.host_u32("result_offset"), sums)


class Reduction(HostApplication):
    """Host side of RED."""

    name = "Reduction"
    short_name = "RED"
    domain = "Parallel primitives"

    def __init__(self, nr_dpus: int, n_elements: int = 1 << 20,
                 seed: int = 0) -> None:
        super().__init__(nr_dpus, n_elements=n_elements, seed=seed)
        self.data = random_array(n_elements, np.int32, seed=seed)

    def expected(self) -> int:
        return int(self.data.sum(dtype=np.int64))

    def run(self, transport: Transport) -> int:
        profiler = transport.profiler
        counts = self.split_even(self.data.size, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        result_off = max(counts) * 4
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(RedProgram())
            with profiler.segment("CPU-DPU"):
                dpus.push_to("n_elems", 0,
                             [np.array([c], np.uint32) for c in counts])
                dpus.broadcast_to("result_offset", 0,
                                  np.array([result_off], np.uint32))
                dpus.push_to_mram(0, [self.data[bounds[i]:bounds[i + 1]]
                                      for i in range(self.nr_dpus)])
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("Inter-DPU"):
                # The paper's pathological step: one small read per run.
                partials = dpus.push_from_mram(result_off, 8)
        return int(sum(int(p.view(np.int64)[0]) for p in partials))
