"""BS — Binary Search (databases).

Each DPU holds a sorted slice of the array; the full query set is
broadcast to every DPU, which searches its slice.  BS is DPU-compute
dominated, which is why its virtualization overhead is the paper's best
case (1.01x).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import sorted_array

#: Instructions per binary-search probe (compare, branch, halve).
INSTR_PER_PROBE = 6


class BsProgram(DpuProgram):
    """DPU side: search every query in this DPU's sorted slice."""

    name = "bs_dpu"
    symbols = {"n_elems": 4, "n_queries": 4, "q_offset": 4,
               "r_offset": 4, "base_index": 4}
    nr_tasklets = 16
    binary_size = 7 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n = rank.host_u32("n_elems")
        nq = rank.host_u32("n_queries")
        q_off = rank.host_u32("q_offset")
        r_off = rank.host_u32("r_offset")
        base = rank.host_u32("base_index")
        _starts, lens = rank.split(nq)
        # Tasklets with queries, on DPUs that hold a slice to search.
        working = (lens > 0) & (n > 0)[:, None]
        searching = working.any(axis=1)
        rank.mem_alloc(2 * 1024, tasklets=working.sum(axis=1))
        # Each of them streams the whole slice and its share of the
        # queries, and writes as many results.
        rank.dma((n * 8)[:, None], where=working)
        rank.dma(lens * 8, where=working)
        rank.dma(lens * 8, where=working)
        # The DPU probes for every query all the same.
        probes = np.ceil(np.log2(np.maximum(2, n))).astype(np.int64)
        rank.charge(np.where(working, lens * (INSTR_PER_PROBE * probes)[:, None],
                             0))
        bases = base.tolist()

        def search(d, data, queries):
            data, queries = data.view(np.int64), queries.view(np.int64)
            if not queries.size:
                return queries
            # Vectorized equivalent of the per-query binary-search loop.
            # A query outside [data[0], data[-1]] cannot hit, and the
            # query set is the whole array's: most of it is outside any
            # one slice.
            inside = np.flatnonzero((data[0] <= queries) & (queries <= data[-1]))
            probed = queries[inside]
            pos = np.searchsorted(data, probed)     # < n: probed <= data[-1]
            results = np.full(queries.size, -1, dtype=np.int64)
            results[inside] = np.where(data[pos] == probed, pos + bases[d], -1)
            return results

        q_bytes = np.where(searching, nq * 8, 0)
        rank.map(search, (0, np.where(searching, n * 8, 0)), (q_off, q_bytes),
                 into=(r_off, q_bytes))


class BinarySearch(HostApplication):
    """Host side of BS."""

    name = "Binary Search"
    short_name = "BS"
    domain = "Databases"

    def __init__(self, nr_dpus: int, n_elements: int = 1 << 20,
                 n_queries: int = 1 << 14, seed: int = 0) -> None:
        super().__init__(nr_dpus)
        self.data = sorted_array(n_elements, seed=seed)
        rng = np.random.default_rng(seed + 1)
        picks = rng.integers(0, n_elements, size=n_queries)
        self.queries = self.data[picks].copy()
        # A fraction of queries miss on purpose.
        miss = rng.random(n_queries) < 0.25
        self.queries[miss] += 1  # values are spaced by >= 1; +1 may still hit

    def expected(self) -> np.ndarray:
        # Probed in sorted order, consecutive searches walk nearby paths
        # of the array and hit cache; in query order each one misses.
        order = np.argsort(self.queries)
        pos = np.empty_like(order)
        pos[order] = np.searchsorted(self.data, self.queries[order])
        n = self.data.size
        found = (pos < n) & (self.data[np.minimum(pos, n - 1)] == self.queries)
        return np.where(found, pos, -1).astype(np.int64)

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        counts = self.split_even(self.data.size, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        nq = self.queries.size
        q_off = max(counts) * 8
        r_off = q_off + nq * 8
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(BsProgram())
            with profiler.segment("CPU-DPU"):
                dpus.push_to("n_elems", 0,
                             [np.array([c], np.uint32) for c in counts])
                dpus.broadcast_to("n_queries", 0, np.array([nq], np.uint32))
                dpus.broadcast_to("q_offset", 0, np.array([q_off], np.uint32))
                dpus.broadcast_to("r_offset", 0, np.array([r_off], np.uint32))
                dpus.push_to("base_index", 0,
                             [np.array([bounds[i]], np.uint32)
                              for i in range(self.nr_dpus)])
                dpus.push_to_mram(0, [self.data[bounds[i]:bounds[i + 1]]
                                      for i in range(self.nr_dpus)])
                dpus.push_to_mram(q_off, [self.queries] * self.nr_dpus)
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("DPU-CPU"):
                per_dpu = dpus.push_from_mram(r_off, nq * 8)
        # Each query hits in exactly one DPU's slice: combine by max, row
        # by row (stacking the rows would copy the whole read once more).
        best = per_dpu[0].view(np.int64).copy()
        for buf in per_dpu[1:]:
            np.maximum(best, buf.view(np.int64), out=best)
        return best
