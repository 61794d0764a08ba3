"""VA — Vector Addition (dense linear algebra).

The PrIM pattern: A and B are partitioned across DPUs, each DPU adds its
slice element-wise, and C is read back.  All transfers are parallel
``push_xfer`` operations, so VA virtualizes cheaply.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_array

#: Pipeline instructions per added element (load, add, store, loop).
INSTR_PER_ELEM = 4


class VaProgram(DpuProgram):
    """DPU side: C[i] = A[i] + B[i] over this DPU's slice."""

    name = "va_dpu"
    symbols = {"n_elems": 4, "b_offset": 4, "c_offset": 4}
    nr_tasklets = 16
    binary_size = 6 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n = rank.host_u32("n_elems")
        b_off = rank.host_u32("b_offset")
        c_off = rank.host_u32("c_offset")
        _starts, lens = rank.split(n)
        working = lens > 0              # tasklets that have elements
        rank.mem_alloc(3 * 1024, tasklets=working.sum(axis=1))  # A/B/C blocks
        # Each of them reads its piece of A and B and writes it to C.
        rank.dma(np.tile(lens * 4, 3), where=np.tile(working, 3))
        rank.charge(lens * INSTR_PER_ELEM)
        for i in np.flatnonzero(n).tolist():
            dpu = rank.dpu(i)
            c = dpu.mram_read(0, int(n[i]) * 4).view(np.int32)
            c += dpu.mram_read(int(b_off[i]), int(n[i]) * 4).view(np.int32)
            dpu.mram_write(int(c_off[i]), c)


class VectorAdd(HostApplication):
    """Host side of VA."""

    name = "Vector Addition"
    short_name = "VA"
    domain = "Dense linear algebra"

    def __init__(self, nr_dpus: int, n_elements: int = 1 << 20,
                 seed: int = 0) -> None:
        super().__init__(nr_dpus, n_elements=n_elements, seed=seed)
        self.a = random_array(n_elements, np.int32, seed=seed)
        self.b = random_array(n_elements, np.int32, seed=seed + 1)

    def expected(self) -> np.ndarray:
        return self.a + self.b

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        counts = self.split_even(self.a.size, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        max_bytes = max(counts) * 4
        b_off, c_off = max_bytes, 2 * max_bytes
        out_parts = []
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(VaProgram())
            with profiler.segment("CPU-DPU"):
                dpus.push_to("n_elems", 0,
                             [np.array([c], np.uint32) for c in counts])
                dpus.broadcast_to("b_offset", 0, np.array([b_off], np.uint32))
                dpus.broadcast_to("c_offset", 0, np.array([c_off], np.uint32))
                dpus.push_to_mram(0, [self.a[bounds[i]:bounds[i + 1]]
                                      for i in range(self.nr_dpus)])
                dpus.push_to_mram(b_off, [self.b[bounds[i]:bounds[i + 1]]
                                          for i in range(self.nr_dpus)])
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("DPU-CPU"):
                for i, buf in enumerate(dpus.push_from_mram(c_off, max_bytes)):
                    out_parts.append(buf[:counts[i] * 4].view(np.int32))
        return np.concatenate(out_parts)
