"""SpMV — Sparse Matrix-Vector Multiply (sparse linear algebra).

Rows are partitioned across DPUs.  The PrIM implementation transfers the
CSR pieces *serially*, one DPU at a time (row pointers, column indices,
values, and the dense vector each via ``dpu_copy_to``) — the CPU-DPU
pattern that makes SpMV's input step grow with the DPU count, in native
and virtualized runs alike (Section 5.2).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import CsrMatrix, random_csr, random_array

#: Instructions per non-zero (load idx, load val, load x, mul, add).
INSTR_PER_NNZ = 5


def csr_times(row_ptr: np.ndarray, cols: np.ndarray, vals: np.ndarray,
              x: np.ndarray) -> np.ndarray:
    """``A @ x`` in int64 for the CSR rows ``row_ptr``, whose non-zeros
    ``cols``/``vals`` start at ``row_ptr[0]``: one gather, one multiply
    and one segmented sum."""
    # reduceat reads a segment as "up to the next start", so it is given
    # the non-empty rows only; the empty ones keep their 0.
    filled = row_ptr[1:] > row_ptr[:-1]
    y = np.zeros(row_ptr.size - 1, dtype=np.int64)
    y[filled] = np.add.reduceat(
        vals.astype(np.int64) * x[cols].astype(np.int64),
        row_ptr[:-1][filled] - row_ptr[0])
    return y


class SpmvProgram(DpuProgram):
    """DPU side: y = A_slice @ x over this DPU's rows."""

    name = "spmv_dpu"
    #: args = [n_rows, nnz, n_cols, col_off, val_off, x_off, y_off], one
    #: transfer per DPU — the DPU_INPUT_ARGUMENTS struct of the PrIM code.
    symbols = {"args": 28}
    nr_tasklets = 16
    binary_size = 9 * 1024

    def run_rank(self, rank: RankContext) -> None:
        # args[1] (nnz) is kept for layout parity with the PrIM kernel.
        n_rows, _nnz, n_cols, col_off, val_off, x_off, y_off = (
            rank.host_u32("args", i) for i in range(7))
        starts, lens = rank.split(n_rows)
        working = lens > 0              # tasklets that have rows
        k = working.sum(axis=1)
        rank.mem_alloc(4 * 768, tasklets=k)
        active = np.flatnonzero(k)      # DPUs that have rows
        if not active.size:
            return
        # Every working tasklet streams the row pointers and the dense
        # vector, the column indices and values of its own non-zeros (if
        # it has any), and writes its rows of y.
        ptr_bytes = np.where(k > 0, (n_rows + 1) * 4, 0)
        raw, ptr_at = rank.read_ragged(np.zeros_like(n_rows), ptr_bytes)
        row_ptr = raw.view(np.int32)
        ptr_at //= 4
        first = np.where(working, ptr_at[:, None] + starts, 0)
        nnz = np.maximum(0, row_ptr[first + lens].astype(np.int64)
                         - row_ptr[first])
        rank.dma(ptr_bytes[:, None], where=working)
        rank.dma((n_cols * 4)[:, None], where=working)
        rank.dma(nnz * 4, where=nnz > 0)
        rank.dma(nnz * 4, where=nnz > 0)
        rank.dma(lens * 8, where=working)
        rank.charge(nnz * INSTR_PER_NNZ)
        # One segmented sum over each DPU's non-zeros.
        ptr0 = np.where(k > 0, ptr_at, 0)   # (n_rows is 0 where k is)
        nz0 = row_ptr[ptr0].astype(np.int64)
        nnz_bytes = np.maximum(row_ptr[ptr0 + n_rows] - nz0, 0) * 4
        ptrs, rows = ptr0.tolist(), n_rows.tolist()

        def multiply(d, x, cols, vals):
            if not rows[d]:
                return x
            return csr_times(row_ptr[ptrs[d]:ptrs[d] + rows[d] + 1],
                             cols.view(np.int32), vals.view(np.int32),
                             x.view(np.int32))

        rank.map(multiply, (x_off, np.where(k > 0, n_cols * 4, 0)),
                 (col_off + nz0 * 4, nnz_bytes),
                 (val_off + nz0 * 4, nnz_bytes),
                 into=(y_off, n_rows * 8))


class SpMV(HostApplication):
    """Host side of SpMV."""

    name = "Sparse Matrix-Vector Multiply"
    short_name = "SpMV"
    domain = "Sparse linear algebra"

    def __init__(self, nr_dpus: int, n_rows: int = 4096, n_cols: int = 2048,
                 nnz_per_row: int = 8, seed: int = 0) -> None:
        super().__init__(nr_dpus)
        self.csr: CsrMatrix = random_csr(n_rows, n_cols, nnz_per_row, seed)
        self.x = random_array(n_cols, np.int32, lo=0, hi=16, seed=seed + 1)

    def expected(self) -> np.ndarray:
        return csr_times(self.csr.row_ptr, self.csr.col_idx, self.csr.values,
                         self.x)

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        counts = self.split_even(self.csr.nr_rows, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        out = np.empty(self.csr.nr_rows, dtype=np.int64)

        # Per-DPU MRAM layout computed from the largest slice.
        max_rows = max(counts)
        max_nnz = max(
            int(self.csr.row_ptr[bounds[i + 1]] - self.csr.row_ptr[bounds[i]])
            for i in range(self.nr_dpus)
        )
        col_off = (max_rows + 1) * 4
        val_off = col_off + max_nnz * 4
        x_off = val_off + max_nnz * 4
        y_off = x_off + self.csr.nr_cols * 4

        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(SpmvProgram())
            with profiler.segment("CPU-DPU"):
                # Serial per-DPU transfers, as in the PrIM implementation.
                for i in range(self.nr_dpus):
                    lo, hi = bounds[i], bounds[i + 1]
                    s = int(self.csr.row_ptr[lo])
                    e = int(self.csr.row_ptr[hi])
                    local_ptr = (self.csr.row_ptr[lo:hi + 1] - s).astype(np.int32)
                    args = np.array([hi - lo, e - s, self.csr.nr_cols,
                                     col_off, val_off, x_off, y_off],
                                    np.uint32)
                    dpus.copy_to(i, "args", 0, args)
                    dpus.copy_to_mram(i, 0, local_ptr)
                    if e > s:
                        dpus.copy_to_mram(i, col_off, self.csr.col_idx[s:e])
                        dpus.copy_to_mram(i, val_off, self.csr.values[s:e])
                    dpus.copy_to_mram(i, x_off, self.x)
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("DPU-CPU"):
                for i, buf in enumerate(
                        dpus.push_from_mram(y_off, max_rows * 8)):
                    out[bounds[i]:bounds[i + 1]] = (
                        buf[:counts[i] * 8].view(np.int64))
        return out
