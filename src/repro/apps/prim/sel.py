"""SEL — Select (databases).

Each DPU compacts the elements of its slice that satisfy the predicate
(keep ``x % 2 == 0``, as in PrIM's default).  The DPU-CPU step retrieves
each DPU's compacted output *serially* (one ``dpu_copy_from`` per DPU) —
the transfer-pattern pathology the paper highlights: with more DPUs the
retrieval time grows, so SEL scales badly from 60 to 480 DPUs in both
native and vPIM runs (Section 5.2, Fig. 8 bottom row).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_array

#: Instructions per scanned element (load, test, conditional store).
INSTR_PER_ELEM = 5


def predicate(values: np.ndarray) -> np.ndarray:
    """The PrIM SEL predicate: keep even values."""
    return values % 2 == 0


class SelProgram(DpuProgram):
    """DPU side: stable-compact the slice's matching elements."""

    name = "sel_dpu"
    symbols = {"n_elems": 4, "out_offset": 4, "n_selected": 4}
    nr_tasklets = 16
    binary_size = 7 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n = rank.host_u32("n_elems")
        out_off = rank.host_u32("out_offset")
        _starts, lens = rank.split(n)
        rank.mem_alloc(2 * 1024, tasklets=rank.nr_tasklets)
        rank.dma(lens * 4, where=lens > 0)
        # Tasklet 0 concatenates the per-tasklet results (the PrIM kernel
        # does this with a prefix sum of per-tasklet counts).
        instructions = lens * INSTR_PER_ELEM
        instructions[:, 0] += rank.nr_tasklets * 4
        rank.charge(instructions)

        def select(d, data):
            data = data.view(np.int32)
            return data[predicate(data)]

        outs = rank.map(select, (0, n * 4))
        sizes = np.array([out.nbytes for out in outs], dtype=np.int64)
        rank.set_host_u32("n_selected", sizes // 4)
        rank.dma(sizes, where=sizes > 0)
        rank.map(lambda d: outs[d], into=(out_off, sizes))


class Select(HostApplication):
    """Host side of SEL."""

    name = "Select"
    short_name = "SEL"
    domain = "Databases"

    def __init__(self, nr_dpus: int, n_elements: int = 1 << 20,
                 seed: int = 0) -> None:
        super().__init__(nr_dpus)
        self.data = random_array(n_elements, np.int32, seed=seed)

    def expected(self) -> np.ndarray:
        return self.data[predicate(self.data)]

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        counts = self.split_even(self.data.size, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        out_off = max(counts) * 4
        pieces = []
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(SelProgram())
            with profiler.segment("CPU-DPU"):
                dpus.push_to("n_elems", 0,
                             [np.array([c], np.uint32) for c in counts])
                dpus.broadcast_to("out_offset", 0,
                                  np.array([out_off], np.uint32))
                dpus.push_to_mram(0, [self.data[bounds[i]:bounds[i + 1]]
                                      for i in range(self.nr_dpus)])
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("DPU-CPU"):
                # Serial retrieval, exactly like the PrIM implementation:
                # read the count, then copy that DPU's output, one DPU at
                # a time.
                for i in range(self.nr_dpus):
                    n_sel = int(dpus.copy_from(i, "n_selected", 0, 4)
                                .view(np.uint32)[0])
                    if n_sel:
                        buf = dpus.copy_from_mram(i, out_off, n_sel * 4)
                        pieces.append(buf.view(np.int32))
        return (np.concatenate(pieces) if pieces
                else np.empty(0, dtype=np.int32))
