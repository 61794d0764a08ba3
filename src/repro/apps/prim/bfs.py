"""BFS — Breadth-First Search (graph processing).

Vertices are partitioned across DPUs (CSR pieces transferred serially,
per the PrIM implementation).  Each level is a synchronization handshake
through the host: broadcast the current frontier bitmap, launch, read
every DPU's next-frontier bitmap and OR them.  These per-level
read/write exchanges are why BFS's Inter-DPU step carries a ~3x
virtualization overhead in the paper (Section 5.2).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuContext, DpuProgram, TaskletContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_graph_csr

#: Instructions per scanned edge (bit test, neighbor load, bit set).
INSTR_PER_EDGE = 6


def gather_runs(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
                ) -> np.ndarray:
    """``values[s:s + n]`` for each ``(s, n)`` run, concatenated in order.

    One fancy-index gather: ``flat[k]`` walks each run in turn, so no
    per-run slice is ever taken.
    """
    ends = np.cumsum(sizes)
    flat = (np.arange(int(sizes.sum()))
            + np.repeat(starts - (ends - sizes), sizes))
    return values[flat]


def cpu_bfs(row_ptr: np.ndarray, col_idx: np.ndarray, source: int,
            ) -> np.ndarray:
    """CPU reference: level of each vertex, -1 if unreachable."""
    nv = row_ptr.size - 1
    levels = np.full(nv, -1, dtype=np.int32)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts = row_ptr[frontier].astype(np.int64)
        sizes = (row_ptr[frontier + 1] - row_ptr[frontier]).astype(np.int64)
        if not sizes.any():
            break
        neighbours = gather_runs(col_idx, starts, sizes)
        # Level-synchronous expansion: every unvisited neighbour of the
        # frontier gets this level, duplicates included (same level).
        # Dense-bitmap dedup: same sorted-unique result as np.unique but
        # without the hash pass (vertex ids are bounded by nv).
        seen = np.zeros(nv, dtype=bool)
        seen[neighbours[levels[neighbours] < 0]] = True
        fresh = np.nonzero(seen)[0]
        if fresh.size == 0:
            break
        levels[fresh] = level
        frontier = fresh
    return levels


def active_runs(packed: np.ndarray, row_ptr: np.ndarray, first: int,
                n_owned: int, nr_tasklets: int):
    """The DPU's share of one frontier: ``(starts, sizes, edges)``.

    ``starts``/``sizes`` are the neighbour runs of the owned vertices
    whose frontier bit is set, tested directly on the packed bitmap
    (MSB-first, as np.unpackbits lays bits out); ``edges[t]`` is the
    number of edges in tasklet ``t``'s block of the owned vertices (the
    ``DpuContext.split`` partition), which is what it scans and charges.
    """
    idx = first + np.arange(n_owned)
    active = np.flatnonzero((packed[idx >> 3] >> (7 - (idx & 7))) & 1)
    starts = row_ptr[active]
    sizes = row_ptr[active + 1] - starts
    chunk = -(-n_owned // nr_tasklets)
    edges = np.bincount(active // chunk, weights=sizes,
                        minlength=nr_tasklets).astype(np.int64)
    return starts, sizes, edges


class BfsProgram(DpuProgram):
    """DPU side: expand the frontier vertices this DPU owns."""

    name = "bfs_dpu"
    #: args = [n_vertices, first_vertex, n_owned, col_off, front_off,
    #: next_off]: one DPU_INPUT_ARGUMENTS transfer per DPU.
    symbols = {"args": 24}
    nr_tasklets = 16
    binary_size = 8 * 1024

    def run(self, dpu: DpuContext) -> None:
        nv, first, n_owned, col_off, f_off, n_off = (
            dpu.host_u32("args", i) for i in range(6))
        _starts, lens = dpu.split(n_owned)
        working = lens > 0
        k = np.count_nonzero(working)
        instructions = np.zeros(dpu.nr_tasklets, dtype=np.int64)
        nxt = np.zeros(nv, dtype=np.uint8)
        if k:
            dpu.mem_alloc(3 * 1024, tasklets=k)
            # Every working tasklet streams the frontier bitmap and the
            # row pointers, and the column indices if a frontier vertex
            # in its block has edges; it charges the edges of its block.
            front_bytes = (nv + 7) // 8
            dpu.dma(np.full(k, front_bytes))
            dpu.dma(np.full(k, (n_owned + 1) * 4))
            packed = dpu.mram_read(f_off, front_bytes)
            row_ptr = dpu.mram_read(0, (n_owned + 1) * 4).view(np.int32)
            starts, sizes, edges = active_runs(packed, row_ptr, first,
                                               n_owned, dpu.nr_tasklets)
            scanning = np.count_nonzero(edges)
            if scanning:
                col_bytes = int(row_ptr[n_owned]) * 4
                dpu.dma(np.full(scanning, col_bytes))
                cols = dpu.mram_read(col_off, col_bytes).view(np.int32)
                nxt[gather_runs(cols, starts, sizes)] = 1
            instructions[working] = (np.maximum(1, edges[working])
                                     * INSTR_PER_EDGE)
        dpu.charge(instructions)
        # Tasklet 0 writes the next frontier out.
        tasklet0 = TaskletContext(dpu, 0)
        tasklet0.mram_write_blocks(n_off, np.packbits(nxt))
        tasklet0.charge(nv // 8)


class BreadthFirstSearch(HostApplication):
    """Host side of BFS."""

    name = "Breadth-First Search"
    short_name = "BFS"
    domain = "Graph processing"

    def __init__(self, nr_dpus: int, n_vertices: int = 1 << 14,
                 avg_degree: int = 4, source: int = 0, seed: int = 0) -> None:
        super().__init__(nr_dpus, n_vertices=n_vertices,
                         avg_degree=avg_degree, source=source, seed=seed)
        self.row_ptr, self.col_idx = random_graph_csr(n_vertices, avg_degree,
                                                      seed)
        self.source = source

    def expected(self) -> np.ndarray:
        return cpu_bfs(self.row_ptr, self.col_idx, self.source)

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        nv = self.row_ptr.size - 1
        nbytes = (nv + 7) // 8
        counts = self.split_even(nv, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        max_owned = max(counts)
        max_edges = max(
            int(self.row_ptr[bounds[i + 1]] - self.row_ptr[bounds[i]])
            for i in range(self.nr_dpus)
        )
        col_off = (max_owned + 1) * 4
        f_off = col_off + max_edges * 4
        n_off = f_off + ((nbytes + 7) // 8) * 8

        levels = np.full(nv, -1, dtype=np.int32)
        levels[self.source] = 0
        frontier = np.zeros(nv, dtype=np.uint8)
        frontier[self.source] = 1

        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(BfsProgram())
            with profiler.segment("CPU-DPU"):
                # Serial CSR distribution (the PrIM pattern for BFS).
                for i in range(self.nr_dpus):
                    lo, hi = bounds[i], bounds[i + 1]
                    s = int(self.row_ptr[lo])
                    e = int(self.row_ptr[hi])
                    args = np.array([nv, lo, hi - lo, col_off, f_off, n_off],
                                    np.uint32)
                    dpus.copy_to(i, "args", 0, args)
                    dpus.copy_to_mram(i, 0,
                                      (self.row_ptr[lo:hi + 1] - s).astype(np.int32))
                    if e > s:
                        dpus.copy_to_mram(i, col_off, self.col_idx[s:e])

            level = 0
            while frontier.any():
                with profiler.segment("Inter-DPU"):
                    packed = np.packbits(frontier)
                    dpus.push_to_mram(f_off, [packed] * self.nr_dpus)
                with profiler.segment("DPU"):
                    dpus.launch()
                with profiler.segment("Inter-DPU"):
                    # OR the packed bitmaps, then unpack the one result.
                    nxt = np.unpackbits(np.bitwise_or.reduce(
                        dpus.push_from_mram(n_off, nbytes)))[:nv]
                level += 1
                newly = (nxt == 1) & (levels < 0)
                levels[newly] = level
                frontier = np.zeros(nv, dtype=np.uint8)
                frontier[newly] = 1
        return levels
