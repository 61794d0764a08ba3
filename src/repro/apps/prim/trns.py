"""TRNS — Matrix Transposition (parallel primitives).

The PrIM TRNS implementation streams the matrix through the DPUs tile by
tile: each tile is written with its own small ``dpu_copy_to``, locally
transposed on the DPU, and read back with its own small ``dpu_copy_from``
— close to a million ~512 B operations at full scale (Section 5.2).
This is, with NW, the workload that stresses request handling hardest.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuContext, DpuProgram
from repro.sdk.transport import Transport
from repro.workloads.generators import random_matrix

#: Instructions per transposed element (load, index swap, store).
INSTR_PER_ELEM = 4


class TrnsProgram(DpuProgram):
    """DPU side: transpose the ``n_tiles`` tiles staged in MRAM."""

    name = "trns_dpu"
    symbols = {"tile_dim": 4, "n_tiles": 4, "out_offset": 4}
    nr_tasklets = 16
    binary_size = 6 * 1024

    def run(self, dpu: DpuContext) -> None:
        t = dpu.host_u32("tile_dim")
        n_tiles = dpu.host_u32("n_tiles")
        out_off = dpu.host_u32("out_offset")
        tile_bytes = t * t * 4
        _starts, lens = dpu.split(n_tiles)
        k = np.count_nonzero(lens)
        if k == 0:
            return
        dpu.mem_alloc(2 * tile_bytes, tasklets=k)
        # A tile is one plain transfer in and one out.
        dpu.dma(np.full(2 * n_tiles, tile_bytes), block_bytes=None)
        tiles = dpu.mram_read(0, n_tiles * tile_bytes).view(np.int32)
        dpu.mram_write(out_off, tiles.reshape(n_tiles, t, t).transpose(0, 2, 1))
        dpu.charge(lens * (t * t * INSTR_PER_ELEM))


class Transpose(HostApplication):
    """Host side of TRNS."""

    name = "Matrix Transposition"
    short_name = "TRNS"
    domain = "Parallel primitives"

    def __init__(self, nr_dpus: int, n_rows: int = 512, n_cols: int = 512,
                 tile_dim: int = 16, seed: int = 0) -> None:
        if n_rows % tile_dim or n_cols % tile_dim:
            raise ValueError("matrix dimensions must be multiples of tile_dim")
        super().__init__(nr_dpus, n_rows=n_rows, n_cols=n_cols,
                         tile_dim=tile_dim, seed=seed)
        self.matrix = random_matrix(n_rows, n_cols, seed=seed)
        self.tile_dim = tile_dim

    def expected(self) -> np.ndarray:
        return np.ascontiguousarray(self.matrix.T)

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        t = self.tile_dim
        rows_t = self.matrix.shape[0] // t
        cols_t = self.matrix.shape[1] // t
        tiles = [(i, j) for i in range(rows_t) for j in range(cols_t)]
        tile_bytes = t * t * 4
        # Round-robin tiles over DPUs; per-DPU staging area in MRAM.
        per_dpu = [[] for _ in range(self.nr_dpus)]
        for k, tile in enumerate(tiles):
            per_dpu[k % self.nr_dpus].append(tile)
        max_tiles = max(len(lst) for lst in per_dpu)
        out_off = max_tiles * tile_bytes

        out = np.empty_like(self.matrix.T)
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(TrnsProgram())
            with profiler.segment("CPU-DPU"):
                dpus.broadcast_to("tile_dim", 0, np.array([t], np.uint32))
                dpus.broadcast_to("out_offset", 0,
                                  np.array([out_off], np.uint32))
                dpus.push_to("n_tiles", 0,
                             [np.array([len(lst)], np.uint32)
                              for lst in per_dpu])
                # One small copy per tile: the TRNS transfer storm.
                for d, lst in enumerate(per_dpu):
                    for k, (i, j) in enumerate(lst):
                        tile = np.ascontiguousarray(
                            self.matrix[i * t:(i + 1) * t, j * t:(j + 1) * t])
                        dpus.copy_to_mram(d, k * tile_bytes, tile)
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("DPU-CPU"):
                for d, lst in enumerate(per_dpu):
                    for k, (i, j) in enumerate(lst):
                        buf = dpus.copy_from_mram(
                            d, out_off + k * tile_bytes, tile_bytes)
                        out[j * t:(j + 1) * t, i * t:(i + 1) * t] = (
                            buf.view(np.int32).reshape(t, t))
        return out
