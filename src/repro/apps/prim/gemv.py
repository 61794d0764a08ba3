"""GEMV — Matrix-Vector Multiply (dense linear algebra).

Rows of the matrix are partitioned across DPUs; the input vector is
broadcast to every DPU; each DPU computes its slice of the output.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_array, random_matrix

#: Instructions per multiply-accumulate (load, mul, add, loop bookkeeping).
INSTR_PER_MADD = 3


class GemvProgram(DpuProgram):
    """DPU side: y[r] = sum_c M[r, c] * x[c] over this DPU's rows."""

    name = "gemv_dpu"
    symbols = {"n_rows": 4, "n_cols": 4, "x_offset": 4, "y_offset": 4}
    nr_tasklets = 16
    binary_size = 8 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n_rows = rank.host_u32("n_rows")
        n_cols = rank.host_u32("n_cols")
        x_off = rank.host_u32("x_offset")
        y_off = rank.host_u32("y_offset")
        _starts, lens = rank.split(n_rows)
        working = lens > 0              # tasklets that have rows
        rank.mem_alloc(2 * 1024, tasklets=working.sum(axis=1))
        # Each of them streams the whole of x and its rows of M, and
        # writes its share of y.
        row_bytes = (n_cols * 4)[:, None]
        rank.dma(row_bytes, where=working)
        rank.dma(lens * row_bytes, where=working)
        rank.dma(lens * 4, where=working)
        rank.charge(lens * (n_cols * INSTR_PER_MADD)[:, None])
        rows, cols = n_rows.tolist(), n_cols.tolist()

        def multiply(d, x, m):
            if not rows[d]:
                return x
            m = m.view(np.int32).reshape(rows[d], cols[d])
            return (m.astype(np.int64)
                    @ x.view(np.int32).astype(np.int64)).astype(np.int32)

        rank.map(multiply, (x_off, np.where(n_rows > 0, n_cols * 4, 0)),
                 (0, n_rows * n_cols * 4), into=(y_off, n_rows * 4))


class Gemv(HostApplication):
    """Host side of GEMV."""

    name = "Matrix-Vector Multiply"
    short_name = "GEMV"
    domain = "Dense linear algebra"

    def __init__(self, nr_dpus: int, n_rows: int = 2048, n_cols: int = 512,
                 seed: int = 0) -> None:
        super().__init__(nr_dpus)
        self.matrix = random_matrix(n_rows, n_cols, seed=seed)
        self.x = random_array(n_cols, np.int32, lo=0, hi=32, seed=seed + 1)

    def expected(self) -> np.ndarray:
        return (self.matrix.astype(np.int64)
                @ self.x.astype(np.int64)).astype(np.int32)

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        n_rows, n_cols = self.matrix.shape
        counts = self.split_even(n_rows, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        max_rows = max(counts)
        x_off = max_rows * n_cols * 4
        y_off = x_off + n_cols * 4
        out = np.empty(n_rows, dtype=np.int32)
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(GemvProgram())
            with profiler.segment("CPU-DPU"):
                dpus.push_to("n_rows", 0,
                             [np.array([c], np.uint32) for c in counts])
                dpus.broadcast_to("n_cols", 0, np.array([n_cols], np.uint32))
                dpus.broadcast_to("x_offset", 0, np.array([x_off], np.uint32))
                dpus.broadcast_to("y_offset", 0, np.array([y_off], np.uint32))
                dpus.push_to_mram(0, [self.matrix[bounds[i]:bounds[i + 1]]
                                      for i in range(self.nr_dpus)])
                dpus.push_to_mram(x_off, [self.x] * self.nr_dpus)
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("DPU-CPU"):
                for i, buf in enumerate(
                        dpus.push_from_mram(y_off, max_rows * 4)):
                    out[bounds[i]:bounds[i + 1]] = (
                        buf[:counts[i] * 4].view(np.int32))
        return out
