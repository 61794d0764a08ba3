"""TS — Time Series Analysis (subsequence similarity search).

Each DPU receives a chunk of the series (with a query-length-minus-one
overlap so no window is lost at chunk boundaries) plus the query, and
finds the window of its chunk with the minimum sum-of-squared-differences
distance to the query.  The host reduces the per-DPU minima.  Like BS,
TS is heavily DPU-compute bound.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_array

#: Instructions per (window element) comparison: load, sub, mul, add.
INSTR_PER_POINT = 4


def _ssd_profile(chunk: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Sum of squared differences of every window of ``chunk`` vs ``query``.

    Uses the expansion ``sum((x-q)^2) = sum(x^2) - 2*sum(x*q) + sum(q^2)``
    with rolling window sums, so no ``(n_windows, m)`` matrix is ever
    materialized.  The profile is bit-identical to the direct windowed
    computation: the square sums are int64, and the cross term is
    correlated in float64 (which has a BLAS path; int64 has none) only
    while ``m * max|x| * max|q| < 2**53``, where every partial sum is an
    integer float64 holds exactly.  The 0..127 generator range never
    leaves that bound; inputs past it are correlated in int64.
    """
    m = query.size
    n_windows = chunk.size - m + 1
    if n_windows <= 0:
        return np.empty(0, dtype=np.int64)
    if m == 0:
        # Degenerate empty query (a booted DPU outside the host's working
        # set sees all-zero symbols): every "window" trivially matches,
        # as the windowed formula reports.
        return np.zeros(n_windows, dtype=np.int64)
    x = chunk.astype(np.int64)
    q = query.astype(np.int64)
    sq_sum = np.cumsum(x * x)
    win_sq = sq_sum[m - 1:].copy()
    win_sq[1:] -= sq_sum[:n_windows - 1]
    if m * int(np.abs(x).max()) * int(np.abs(q).max()) < 2**53:
        cross = np.correlate(x.astype(np.float64), q.astype(np.float64),
                             mode="valid").astype(np.int64)
    else:
        cross = np.correlate(x, q, mode="valid")
    return win_sq - 2 * cross + int(q @ q)


class TsProgram(DpuProgram):
    """DPU side: minimum-SSD window of this DPU's chunk."""

    name = "ts_dpu"
    symbols = {"n_points": 4, "m": 4, "q_offset": 4,
               "best_dist": 8, "best_index": 8}
    nr_tasklets = 16
    binary_size = 9 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n = rank.host_u32("n_points")
        m = rank.host_u32("m")
        q_off = rank.host_u32("q_offset")
        n_windows = np.maximum(0, n - m + 1)
        _starts, lens = rank.split(n_windows)
        working = lens > 0              # tasklets that have windows
        rank.mem_alloc(3 * 1024, tasklets=working.sum(axis=1))
        # Each of them streams the query and the points its windows
        # cover; the first minimum of the whole profile is the least
        # (distance, index) pair of the per-tasklet first minima, which
        # tasklet 0 reduces.
        rank.dma((m * 4)[:, None], where=working)
        rank.dma((lens + m[:, None] - 1) * 4, where=working)
        instructions = lens * (m * INSTR_PER_POINT)[:, None]
        instructions[:, 0] += rank.nr_tasklets * 3
        rank.charge(instructions)
        windows = n_windows.tolist()

        def best(d, query, points):
            if not windows[d]:
                return np.iinfo(np.int64).max, -1
            dists = _ssd_profile(points.view(np.int32), query.view(np.int32))
            index = int(dists.argmin())
            return int(dists[index]), index

        scanned = n_windows > 0
        found = rank.map(best, (q_off, np.where(scanned, m * 4, 0)),
                         (0, np.where(scanned, (n_windows + m - 1) * 4, 0)))
        dist, index = np.array(found, dtype=np.int64).reshape(-1, 2).T
        rank.set_host_i64("best_dist", dist)
        rank.set_host_i64("best_index", index)


class TimeSeries(HostApplication):
    """Host side of TS."""

    name = "Time Series Analysis"
    short_name = "TS"
    domain = "Data analytics"

    def __init__(self, nr_dpus: int, n_points: int = 1 << 17,
                 query_len: int = 64, seed: int = 0) -> None:
        super().__init__(nr_dpus)
        self.series = random_array(n_points, np.int32, lo=0, hi=128,
                                   seed=seed)
        self.query = random_array(query_len, np.int32, lo=0, hi=128,
                                  seed=seed + 1)

    def expected(self) -> int:
        dists = _ssd_profile(self.series, self.query)
        return int(dists.argmin())

    def verify(self, output) -> bool:
        # A window must start where a whole query fits; several windows
        # can tie on distance, so compare distances, not indices.
        if not 0 <= output <= self.series.size - self.query.size:
            return False
        return self._distance(output) == self._distance(self.reference())

    def _distance(self, index: int) -> int:
        window = self.series[index:index + self.query.size]
        return int(_ssd_profile(window, self.query)[0])

    def run(self, transport: Transport) -> int:
        profiler = transport.profiler
        m = self.query.size
        n_windows = self.series.size - m + 1
        counts = self.split_even(n_windows, self.nr_dpus)
        starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
        chunk_points = [c + m - 1 for c in counts]
        q_off = (max(chunk_points) * 4 + 7) // 8 * 8
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(TsProgram())
            with profiler.segment("CPU-DPU"):
                dpus.push_to("n_points", 0,
                             [np.array([c], np.uint32) for c in chunk_points])
                dpus.broadcast_to("m", 0, np.array([m], np.uint32))
                dpus.broadcast_to("q_offset", 0, np.array([q_off], np.uint32))
                dpus.push_to_mram(0, [
                    self.series[starts[i]:starts[i] + chunk_points[i]]
                    for i in range(self.nr_dpus)
                ])
                dpus.push_to_mram(q_off, [self.query] * self.nr_dpus)
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("DPU-CPU"):
                dists = dpus.push_from("best_dist", 0, 8)
                indices = dpus.push_from("best_index", 0, 8)
        best = None
        for i in range(self.nr_dpus):
            d = int(dists[i].view(np.int64)[0])
            local = int(indices[i].view(np.int64)[0])
            if local < 0:
                continue
            candidate = (d, int(starts[i]) + local)
            if best is None or candidate < best:
                best = candidate
        assert best is not None
        return best[1]
