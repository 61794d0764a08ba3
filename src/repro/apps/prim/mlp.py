"""MLP — Multilayer Perceptron inference (neural networks).

Three fully-connected layers with ReLU.  Weights are distributed across
DPUs once (rows of each layer partitioned, like GEMV); each layer is one
launch: the host broadcasts the layer's input vector (Inter-DPU),
gathers the partial outputs, and feeds them to the next layer.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_array, random_matrix

#: Instructions per multiply-accumulate.
INSTR_PER_MADD = 3


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


class MlpProgram(DpuProgram):
    """DPU side: one ReLU(W_chunk @ x) layer slice per launch."""

    name = "mlp_dpu"
    symbols = {"n_rows": 4, "n_cols": 4, "w_offset": 4,
               "x_offset": 4, "y_offset": 4}
    nr_tasklets = 16
    binary_size = 9 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n_rows = rank.host_u32("n_rows")
        n_cols = rank.host_u32("n_cols")
        w_off = rank.host_u32("w_offset")
        x_off = rank.host_u32("x_offset")
        y_off = rank.host_u32("y_offset")
        _starts, lens = rank.split(n_rows)
        working = lens > 0              # tasklets that have rows
        rank.mem_alloc(3 * 1024, tasklets=working.sum(axis=1))
        # Each of them streams the whole input vector and its rows of W,
        # and writes its share of y.
        row_bytes = (n_cols * 4)[:, None]
        rank.dma(row_bytes, where=working)
        rank.dma(lens * row_bytes, where=working)
        rank.dma(lens * 4, where=working)
        rank.charge(lens * (n_cols * INSTR_PER_MADD)[:, None])
        rows, cols = n_rows.tolist(), n_cols.tolist()

        def layer(d, x, w):
            if not rows[d]:
                return x
            w = w.view(np.int32).reshape(rows[d], cols[d])
            # float64 keeps the arithmetic exact (|w| <= 4, |x| < 2^31, row
            # sums stay far below 2^53) while the matmul runs on BLAS.
            y = relu(w.astype(np.float64) @ x.view(np.int32).astype(np.float64))
            # Saturate into int32 range as the fixed-point kernel would.
            return np.minimum(y, np.iinfo(np.int32).max).astype(np.int32)

        rank.map(layer, (x_off, np.where(n_rows > 0, n_cols * 4, 0)),
                 (w_off, n_rows * n_cols * 4), into=(y_off, n_rows * 4))


class MultilayerPerceptron(HostApplication):
    """Host side of MLP (3-layer inference)."""

    name = "Multilayer Perceptron"
    short_name = "MLP"
    domain = "Neural networks"

    def __init__(self, nr_dpus: int, layer_sizes: tuple = (512, 512, 512, 256),
                 seed: int = 0, nr_reps: int = 1) -> None:
        super().__init__(nr_dpus)
        self.layer_sizes = layer_sizes
        #: PrIM-style repetition count: the original benchmarks re-run
        #: each kernel several times and re-copy *all* inputs — weights
        #: included — every rep.  ``nr_reps=1`` (the default) keeps the
        #: historical single-pass operation stream; higher values
        #: reproduce PrIM's measurement loop, whose re-pushed weights
        #: are the redundancy the content-aware transfer cache targets.
        self.nr_reps = nr_reps
        self.weights: List[np.ndarray] = [
            random_matrix(layer_sizes[i + 1], layer_sizes[i], lo=-4, hi=5,
                          seed=seed + i)
            for i in range(len(layer_sizes) - 1)
        ]
        self.x = random_array(layer_sizes[0], np.int32, lo=0, hi=8,
                              seed=seed + 100)

    def expected(self) -> np.ndarray:
        # Exact in float64: weights are in [-4, 4], activations are
        # clipped below 2^31, so every partial sum is an integer < 2^53.
        v = self.x.astype(np.float64)
        for w in self.weights:
            v = relu(w.astype(np.float64) @ v)
            v = np.minimum(v, np.iinfo(np.int32).max)
        return v.astype(np.int32)

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        max_cols = max(self.layer_sizes[:-1])

        # Per-layer row partitions and MRAM layout.
        partitions = [self.split_even(w.shape[0], self.nr_dpus)
                      for w in self.weights]
        w_offsets = []
        cursor = 0
        for li, w in enumerate(self.weights):
            w_offsets.append(cursor)
            cursor += max(partitions[li]) * w.shape[1] * 4
        x_off = cursor
        y_off = x_off + max_cols * 4

        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(MlpProgram())
            for _rep in range(self.nr_reps):
                with profiler.segment("CPU-DPU"):
                    for li, w in enumerate(self.weights):
                        bounds = np.concatenate([[0],
                                                 np.cumsum(partitions[li])])
                        dpus.push_to_mram(w_offsets[li], [
                            w[bounds[i]:bounds[i + 1]]
                            for i in range(self.nr_dpus)
                        ])
                v = self.x
                for li, w in enumerate(self.weights):
                    counts = partitions[li]
                    bounds = np.concatenate([[0], np.cumsum(counts)])
                    with profiler.segment("Inter-DPU"):
                        dpus.push_to("n_rows", 0,
                                     [np.array([c], np.uint32)
                                      for c in counts])
                        dpus.broadcast_to("n_cols", 0,
                                          np.array([w.shape[1]], np.uint32))
                        dpus.broadcast_to("w_offset", 0,
                                          np.array([w_offsets[li]], np.uint32))
                        dpus.broadcast_to("x_offset", 0,
                                          np.array([x_off], np.uint32))
                        dpus.broadcast_to("y_offset", 0,
                                          np.array([y_off], np.uint32))
                        dpus.push_to_mram(x_off,
                                          [v.astype(np.int32)] * self.nr_dpus)
                    with profiler.segment("DPU"):
                        dpus.launch()
                    with profiler.segment(
                            "Inter-DPU" if li < len(self.weights) - 1
                            else "DPU-CPU"):
                        nxt = np.empty(w.shape[0], dtype=np.int32)
                        bufs = dpus.push_from_mram(y_off, max(counts) * 4)
                        for i, buf in enumerate(bufs):
                            nxt[bounds[i]:bounds[i + 1]] = (
                                buf[:counts[i] * 4].view(np.int32))
                        v = nxt
        return v
