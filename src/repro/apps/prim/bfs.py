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
from repro.sdk.kernel import DpuProgram, RankContext
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


def active_runs(packed: np.ndarray, packed_at: np.ndarray,
                row_ptr: np.ndarray, ptr_at: np.ndarray, first: np.ndarray,
                n_owned: np.ndarray, nr_tasklets: int):
    """Every DPU's share of one frontier: ``(dpu_of, starts, sizes,
    edges)``.

    DPU ``d`` owns the ``n_owned[d]`` vertices from ``first[d]``; its
    frontier bitmap starts at ``packed[packed_at[d]]`` and its row
    pointers at ``row_ptr[ptr_at[d]]``.  ``starts``/``sizes`` are the
    neighbour runs of the owned vertices whose frontier bit is set, and
    ``dpu_of`` their DPUs; ``edges[d, t]`` is the number of edges in
    tasklet ``t``'s block of DPU ``d``'s vertices (the
    ``RankContext.split`` partition), which is what it scans and charges.

    Only the bytes holding owned bits are unpacked (MSB-first, as
    np.packbits lays bits out), and only set bits are worked on after
    that: a level costs its frontier, not every owned vertex.
    """
    lo = first >> 3
    nbytes = np.where(n_owned > 0, ((first + n_owned + 7) >> 3) - lo, 0)
    row = (np.cumsum(nbytes) - nbytes) * 8      # each DPU's first bit
    set_bits = np.flatnonzero(np.unpackbits(
        gather_runs(packed, packed_at + lo, nbytes)))
    dpu_of = np.searchsorted(row, set_bits, side="right") - 1
    vertex = set_bits - row[dpu_of] - (first[dpu_of] & 7)
    owned = (vertex >= 0) & (vertex < n_owned[dpu_of])
    dpu_of, vertex = dpu_of[owned], vertex[owned]
    at = ptr_at[dpu_of] + vertex
    starts = row_ptr[at]
    sizes = row_ptr[at + 1] - starts
    chunk = -(-n_owned // nr_tasklets)
    edges = np.bincount(dpu_of * nr_tasklets + vertex // chunk[dpu_of],
                        weights=sizes, minlength=n_owned.size * nr_tasklets)
    return (dpu_of, starts, sizes,
            edges.astype(np.int64).reshape(n_owned.size, nr_tasklets))


class BfsProgram(DpuProgram):
    """DPU side: expand the frontier vertices this DPU owns."""

    name = "bfs_dpu"
    #: args = [n_vertices, first_vertex, n_owned, col_off, front_off,
    #: next_off]: one DPU_INPUT_ARGUMENTS transfer per DPU.
    symbols = {"args": 24}
    nr_tasklets = 16
    binary_size = 8 * 1024

    def run_rank(self, rank: RankContext) -> None:
        nv, first, n_owned, col_off, f_off, n_off = (
            rank.host_u32("args", i) for i in range(6))
        _starts, lens = rank.split(n_owned)
        working = lens > 0              # tasklets that own vertices
        owning = working.any(axis=1)    # DPUs that own vertices
        rank.mem_alloc(3 * 1024, tasklets=working.sum(axis=1))
        # Every working tasklet streams the frontier bitmap and the row
        # pointers, and the column indices if a frontier vertex in its
        # block has edges; it charges the edges of its block.
        front_bytes = (nv + 7) // 8
        ptr_bytes = (n_owned + 1) * 4
        rank.dma(front_bytes[:, None], where=working)
        rank.dma(ptr_bytes[:, None], where=working)
        packed, packed_at = rank.read_ragged(f_off, front_bytes * owning)
        raw, ptr_at = rank.read_ragged(np.zeros_like(n_off),
                                       ptr_bytes * owning)
        row_ptr = raw.view(np.int32)
        ptr_at //= 4
        dpu_of, starts, sizes, edges = active_runs(
            packed, packed_at, row_ptr, ptr_at, first, n_owned,
            rank.nr_tasklets)
        scanning = edges > 0
        col_bytes = np.zeros_like(n_owned)
        has_edges = scanning.any(axis=1)
        col_bytes[has_edges] = row_ptr[(ptr_at + n_owned)[has_edges]] * 4
        rank.dma(col_bytes[:, None], where=scanning)
        raw, col_at = rank.read_ragged(col_off, col_bytes)
        # Every DPU's next frontier, packed as it is stored: one row per
        # DPU, a bit set per neighbour reached (np.packbits' layout).
        nxt = np.zeros((rank.nr_dpus, int(front_bytes.max())), dtype=np.uint8)
        if has_edges.any():
            reached = gather_runs(raw.view(np.int32),
                                  col_at[dpu_of] // 4 + starts, sizes)
            np.bitwise_or.at(nxt, (np.repeat(dpu_of, sizes), reached >> 3),
                             (0x80 >> (reached & 7)).astype(np.uint8))
        instructions = np.where(working, np.maximum(1, edges) * INSTR_PER_EDGE,
                                0)
        # Tasklet 0 writes the next frontier out.
        instructions[:, 0] += nv // 8
        rank.charge(instructions)
        rank.dma(front_bytes)
        rank.write_rows(n_off, [row[:nbytes] for row, nbytes
                                in zip(nxt, front_bytes.tolist())])


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
