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
from repro.sdk.kernel import DpuContext, DpuProgram
from repro.sdk.transport import Transport
from repro.workloads.generators import CsrMatrix, random_csr, random_array

#: Instructions per non-zero (load idx, load val, load x, mul, add).
INSTR_PER_NNZ = 5


class SpmvProgram(DpuProgram):
    """DPU side: y = A_slice @ x over this DPU's rows."""

    name = "spmv_dpu"
    #: args = [n_rows, nnz, n_cols, col_off, val_off, x_off, y_off], one
    #: transfer per DPU — the DPU_INPUT_ARGUMENTS struct of the PrIM code.
    symbols = {"args": 28}
    nr_tasklets = 16
    binary_size = 9 * 1024

    def run(self, dpu: DpuContext) -> None:
        # args[1] (nnz) is kept for layout parity with the PrIM kernel.
        n_rows, _nnz, n_cols, col_off, val_off, x_off, y_off = (
            dpu.host_u32("args", i) for i in range(7))
        starts, lens = dpu.split(n_rows)
        working = lens > 0
        k = np.count_nonzero(working)
        if k == 0:
            return
        dpu.mem_alloc(4 * 768, tasklets=k)
        # Every working tasklet streams the row pointers and the dense
        # vector, the column indices and values of its own non-zeros (if
        # it has any), and writes its rows of y.
        row_ptr = dpu.mram_read(0, (n_rows + 1) * 4).view(np.int32)
        x = dpu.mram_read(x_off, n_cols * 4).view(np.int32)
        nnz = np.maximum(0, row_ptr[(starts + lens)[working]].astype(np.int64)
                         - row_ptr[starts[working]])
        dpu.dma(np.full(k, (n_rows + 1) * 4))
        dpu.dma(np.full(k, n_cols * 4))
        dpu.dma(np.repeat(nnz[nnz > 0] * 4, 2))
        dpu.dma(lens[working] * 8)
        s, e = int(row_ptr[0]), int(row_ptr[n_rows])
        if e > s:
            cols = dpu.mram_read(col_off + s * 4, (e - s) * 4).view(np.int32)
            vals = dpu.mram_read(val_off + s * 4, (e - s) * 4).view(np.int32)
        else:
            cols = np.empty(0, dtype=np.int32)
            vals = np.empty(0, dtype=np.int32)
        # One segmented sum over the DPU's non-zeros.  reduceat reads a
        # segment as "up to the next start", so it is given the non-empty
        # rows only; the empty ones keep their 0.
        filled = row_ptr[1:] > row_ptr[:-1]
        y = np.zeros(n_rows, dtype=np.int64)
        y[filled] = np.add.reduceat(
            vals.astype(np.int64) * x[cols].astype(np.int64),
            row_ptr[:-1][filled] - s)
        dpu.mram_write(y_off, y)
        instructions = np.zeros(dpu.nr_tasklets, dtype=np.int64)
        instructions[working] = nnz * INSTR_PER_NNZ
        dpu.charge(instructions)


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
        out = np.zeros(self.csr.nr_rows, dtype=np.int64)
        for r in range(self.csr.nr_rows):
            s, e = int(self.csr.row_ptr[r]), int(self.csr.row_ptr[r + 1])
            out[r] = (self.csr.values[s:e].astype(np.int64)
                      * self.x[self.csr.col_idx[s:e]].astype(np.int64)).sum()
        return out

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
