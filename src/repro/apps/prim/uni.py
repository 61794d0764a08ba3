"""UNI — Unique (databases).

Removes *consecutive* duplicates (stream compaction), PrIM-style: each
DPU deduplicates its slice locally; the host stitches slice boundaries
(dropping a slice's head if it equals the previous slice's tail).  Like
SEL, the DPU-CPU retrieval is serial per DPU, so UNI scales poorly with
DPU count in both native and virtualized runs.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_array

#: Instructions per scanned element (load, compare-to-previous, store).
INSTR_PER_ELEM = 5


def unique_consecutive(values: np.ndarray) -> np.ndarray:
    """CPU reference for consecutive-duplicate removal."""
    if values.size == 0:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class UniProgram(DpuProgram):
    """DPU side: local consecutive-duplicate removal."""

    name = "uni_dpu"
    symbols = {"n_elems": 4, "out_offset": 4, "n_unique": 4}
    nr_tasklets = 16
    binary_size = 7 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n = rank.host_u32("n_elems")
        out_off = rank.host_u32("out_offset")
        _starts, lens = rank.split(n)
        rank.mem_alloc(2 * 1024, tasklets=rank.nr_tasklets)
        rank.dma(lens * 4, where=lens > 0)
        # Tasklet 0 merges: dedup within and across tasklet boundaries
        # (the real kernel uses handshakes between adjacent tasklets).
        instructions = lens * INSTR_PER_ELEM
        instructions[:, 0] += rank.nr_tasklets * 4
        rank.charge(instructions)
        outs = rank.map(lambda d, data: unique_consecutive(
            data.view(np.int32)), (0, n * 4))
        sizes = np.array([out.nbytes for out in outs], dtype=np.int64)
        rank.set_host_u32("n_unique", sizes // 4)
        rank.dma(sizes, where=sizes > 0)
        rank.map(lambda d: outs[d], into=(out_off, sizes))


class Unique(HostApplication):
    """Host side of UNI."""

    name = "Unique"
    short_name = "UNI"
    domain = "Databases"

    def __init__(self, nr_dpus: int, n_elements: int = 1 << 20,
                 value_range: int = 8, seed: int = 0) -> None:
        super().__init__(nr_dpus)
        # A small value range produces plenty of consecutive duplicates.
        self.data = random_array(n_elements, np.int32, lo=0,
                                 hi=value_range, seed=seed)

    def expected(self) -> np.ndarray:
        return unique_consecutive(self.data)

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        counts = self.split_even(self.data.size, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        out_off = max(counts) * 4
        pieces = []
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(UniProgram())
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
                for i in range(self.nr_dpus):
                    n_uni = int(dpus.copy_from(i, "n_unique", 0, 4)
                                .view(np.uint32)[0])
                    if n_uni:
                        buf = dpus.copy_from_mram(i, out_off, n_uni * 4)
                        pieces.append(buf.view(np.int32))
        if not pieces:
            return np.empty(0, dtype=np.int32)
        # Host-side boundary stitch between consecutive DPUs.
        return unique_consecutive(np.concatenate(pieces))
