"""NW — Needleman-Wunsch sequence alignment (bioinformatics).

The DP matrix is computed block by block along anti-diagonals; blocks of
one diagonal run in parallel on different DPUs.  Every block needs its
top row, left column and corner from neighbouring blocks, and the PrIM
implementation moves these boundaries in *tiny element-wise transfers*
("a data transfer is produced for each element", Section 5.2): >650k
operations of ~160 B at full scale, 53x overhead under naive
virtualization, and the flagship beneficiary of the prefetch-cache +
request-batching optimizations (Fig. 14).  We chunk boundary traffic at
``chunk_bytes`` (128 B by default, matching the paper's per-op sizes);
the op-per-byte ratio of the original is preserved at reduced scale.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_array

MATCH = 1
MISMATCH = -1
GAP = 2

#: Instructions per DP cell (three candidates, two maxes, store).
INSTR_PER_CELL = 12


def _dp_rows(a: np.ndarray, b: np.ndarray, top: np.ndarray,
             left: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Compute a DP block; returns (bottom row incl corner, right column).

    ``top`` has len(b)+1 entries (corner first), ``left`` has len(a).
    Rows are vectorized with the prefix-max trick for the in-row gap
    dependency: H[r][j] = max_k<=j (V[k] - (j-k)*GAP).
    """
    nb = b.size
    prev = top.astype(np.int64)
    right = np.empty(a.size, dtype=np.int64)
    jg = np.arange(nb + 1, dtype=np.int64) * GAP
    sub = np.where(b[np.newaxis, :] == a[:, np.newaxis],
                   MATCH, MISMATCH).astype(np.int64)
    v = np.empty(nb + 1, dtype=np.int64)
    for r in range(a.size):
        v[0] = left[r]
        np.maximum(prev[:-1] + sub[r], prev[1:] - GAP, out=v[1:])
        h = v + jg
        np.maximum.accumulate(h, out=h)
        h -= jg
        right[r] = h[-1]
        prev = h
    return prev, right


def nw_score(a: np.ndarray, b: np.ndarray) -> int:
    """CPU reference: global alignment score of ``a`` vs ``b``."""
    top = -GAP * np.arange(b.size + 1, dtype=np.int64)
    left = -GAP * np.arange(1, a.size + 1, dtype=np.int64)
    bottom, _ = _dp_rows(a, b, top, left)
    return int(bottom[-1])


class NwProgram(DpuProgram):
    """DPU side: compute the DP block described by the MRAM header."""

    name = "nw_dpu"
    symbols = {"block_size": 4, "a_offset": 4, "b_offset": 4,
               "hdr_offset": 4, "top_offset": 4, "left_offset": 4,
               "out_offset": 4}
    nr_tasklets = 8
    binary_size = 10 * 1024

    def run_rank(self, rank: RankContext) -> None:
        # One block per DPU and launch: tasklet 0 computes it, the others
        # idle.  Each DPU has its own header: one DPU at a time.
        for i in range(rank.nr_dpus):
            dpu = rank.dpu(i)
            dpu.dma(12, block_bytes=None)
            header = dpu.mram_read(dpu.host_u32("hdr_offset"), 12)
            active, bi, bj = header.view(np.int32).tolist()
            if not active:
                continue
            bs = dpu.host_u32("block_size")
            dpu.mem_alloc(6 * bs * 8)
            # The sequences stream in blocks; the scores, (bs+1) + bs
            # values each way, are plain transfers.
            dpu.dma([bs, bs])
            dpu.dma([(bs + 1) * 8, bs * 8, (2 * bs + 1) * 8], block_bytes=None)
            a = dpu.mram_read(dpu.host_u32("a_offset") + bi * bs,
                              bs).view(np.int8)
            b = dpu.mram_read(dpu.host_u32("b_offset") + bj * bs,
                              bs).view(np.int8)
            top = dpu.mram_read(dpu.host_u32("top_offset"),
                                (bs + 1) * 8).view(np.int64)
            left = dpu.mram_read(dpu.host_u32("left_offset"),
                                 bs * 8).view(np.int64)
            bottom, right = _dp_rows(a, b, top, left)
            dpu.mram_write(dpu.host_u32("out_offset"),
                           np.concatenate([bottom, right]))
            instructions = np.zeros(dpu.nr_tasklets, dtype=np.int64)
            instructions[0] = bs * bs * INSTR_PER_CELL
            dpu.charge(instructions)


class NeedlemanWunsch(HostApplication):
    """Host side of NW."""

    name = "Needleman-Wunsch"
    short_name = "NW"
    domain = "Bioinformatics"

    def __init__(self, nr_dpus: int, seq_len: int = 512,
                 block_size: int = 64, chunk_bytes: int = 128,
                 seed: int = 0) -> None:
        if seq_len % block_size:
            raise ValueError("seq_len must be a multiple of block_size")
        if chunk_bytes % 8:
            raise ValueError("chunk_bytes must be a multiple of 8")
        super().__init__(nr_dpus, seq_len=seq_len, block_size=block_size,
                         chunk_bytes=chunk_bytes, seed=seed)
        self.a = random_array(seq_len, np.int8, lo=0, hi=4, seed=seed)
        self.b = random_array(seq_len, np.int8, lo=0, hi=4, seed=seed + 1)
        self.block_size = block_size
        self.chunk_bytes = chunk_bytes

    def expected(self) -> int:
        return nw_score(self.a, self.b)

    def _chunked_write(self, dpus: DpuSet, d: int, offset: int,
                       values: np.ndarray) -> None:
        """Write an int64 boundary array in chunk_bytes pieces."""
        step = self.chunk_bytes // 8
        for c in range(0, values.size, step):
            piece = values[c:c + step]
            dpus.copy_to_mram(d, offset + c * 8, piece)

    def _chunked_read(self, dpus: DpuSet, d: int, offset: int,
                      count: int) -> np.ndarray:
        """Read ``count`` int64 values in chunk_bytes pieces."""
        step = self.chunk_bytes // 8
        parts = []
        for c in range(0, count, step):
            n = min(step, count - c)
            parts.append(dpus.copy_from_mram(d, offset + c * 8, n * 8))
        return np.concatenate(parts).view(np.int64)

    def run(self, transport: Transport) -> int:
        profiler = transport.profiler
        bs = self.block_size
        nblocks = self.a.size // bs
        a_off, b_off = 0, self.a.size
        hdr_off = ((b_off + self.b.size + 7) // 8) * 8
        top_off = hdr_off + 16
        left_off = top_off + (bs + 1) * 8
        out_off = left_off + bs * 8

        # Host-side boundary store: block -> (bottom incl corner, right).
        bottom: Dict[Tuple[int, int], np.ndarray] = {}
        right: Dict[Tuple[int, int], np.ndarray] = {}

        def top_of(i: int, j: int) -> np.ndarray:
            """Corner + top row of block (i, j)."""
            if i == 0:
                return -GAP * (np.arange(bs + 1, dtype=np.int64) + j * bs)
            return bottom[(i - 1, j)]

        def left_of(i: int, j: int) -> np.ndarray:
            if j == 0:
                return -GAP * (np.arange(1, bs + 1, dtype=np.int64) + i * bs)
            return right[(i, j - 1)]

        final_score = 0
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(NwProgram())
            with profiler.segment("CPU-DPU"):
                dpus.broadcast_to("block_size", 0, np.array([bs], np.uint32))
                dpus.broadcast_to("a_offset", 0, np.array([a_off], np.uint32))
                dpus.broadcast_to("b_offset", 0, np.array([b_off], np.uint32))
                dpus.broadcast_to("hdr_offset", 0, np.array([hdr_off], np.uint32))
                dpus.broadcast_to("top_offset", 0, np.array([top_off], np.uint32))
                dpus.broadcast_to("left_offset", 0, np.array([left_off], np.uint32))
                dpus.broadcast_to("out_offset", 0, np.array([out_off], np.uint32))
                dpus.push_to_mram(a_off, [self.a] * self.nr_dpus)
                dpus.push_to_mram(b_off, [self.b] * self.nr_dpus)

            for diag in range(2 * nblocks - 1):
                blocks = [(i, diag - i) for i in range(nblocks)
                          if 0 <= diag - i < nblocks]
                for group_start in range(0, len(blocks), self.nr_dpus):
                    group = blocks[group_start:group_start + self.nr_dpus]
                    with profiler.segment("CPU-DPU"):
                        # Element-wise boundary distribution (the paper's
                        # tiny-transfer storm; absorbed by batching).
                        for d, (i, j) in enumerate(group):
                            dpus.copy_to_mram(
                                d, hdr_off, np.array([1, i, j], np.int32))
                            self._chunked_write(dpus, d, top_off, top_of(i, j))
                            self._chunked_write(dpus, d, left_off, left_of(i, j))
                        for d in range(len(group), self.nr_dpus):
                            dpus.copy_to_mram(
                                d, hdr_off, np.array([0, 0, 0], np.int32))
                    with profiler.segment("DPU"):
                        dpus.launch()
                    with profiler.segment("Inter-DPU"):
                        # Element-wise boundary retrieval (served by the
                        # prefetch cache after the first chunk).
                        for d, (i, j) in enumerate(group):
                            out = self._chunked_read(dpus, d, out_off,
                                                     2 * bs + 1)
                            bottom[(i, j)] = out[:bs + 1]
                            right[(i, j)] = out[bs + 1:]
            final_score = int(bottom[(nblocks - 1, nblocks - 1)][-1])
        return final_score
