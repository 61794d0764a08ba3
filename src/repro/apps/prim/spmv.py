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
from repro.sdk.kernel import DpuContext, DpuProgram, RankContext
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


def spmv_rows(dpu: DpuContext, row_ptr: np.ndarray, n_cols: int,
              col_off: int, val_off: int, x_off: int, y_off: int) -> None:
    """``y = A_slice @ x`` on one DPU, ``row_ptr`` its slice's row
    pointers, stored at ``y_off``."""
    x = dpu.mram_read(x_off, n_cols * 4).view(np.int32)
    s, e = int(row_ptr[0]), int(row_ptr[-1])
    if e > s:
        cols = dpu.mram_read(col_off + s * 4, (e - s) * 4).view(np.int32)
        vals = dpu.mram_read(val_off + s * 4, (e - s) * 4).view(np.int32)
    else:
        cols = np.empty(0, dtype=np.int32)
        vals = np.empty(0, dtype=np.int32)
    dpu.mram_write(y_off, csr_times(row_ptr, cols, vals, x))


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
        for i in active.tolist():
            at = int(ptr_at[i])
            spmv_rows(rank.dpu(i), row_ptr[at:at + int(n_rows[i]) + 1],
                      int(n_cols[i]), int(col_off[i]), int(val_off[i]),
                      int(x_off[i]), int(y_off[i]))


class SpMV(HostApplication):
    """Host side of SpMV."""

    name = "Sparse Matrix-Vector Multiply"
    short_name = "SpMV"
    domain = "Sparse linear algebra"

    def __init__(self, nr_dpus: int, n_rows: int = 4096, n_cols: int = 2048,
                 nnz_per_row: int = 8, seed: int = 0) -> None:
        super().__init__(nr_dpus, n_rows=n_rows, n_cols=n_cols,
                         nnz_per_row=nnz_per_row, seed=seed)
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
