"""The PrIM kernels in their reference forms.

Each PrIM program has one body under ``src/``: a rank-form body for the
whole launch (``DpuProgram.run_rank`` overridden, DPUs and tasklets
vector axes) for BS, BFS, TS, HST-S, HST-L, SpMV, SCAN-SSA and RED, a
DPU-form body (``DpuProgram.run`` overridden, tasklets a vector axis)
for the other eight.  The classes below are the bodies those replaced:

- ``PerDpu*``, for the eight rank-form programs: one DPU-form body per
  DPU, on the default launch (``run_rank = DpuProgram.run_rank``);
- ``PerTasklet*`` (``PerRowSpmv``), for all 16: one generator per
  tasklet, ``tasklet_range`` slices, barriers, results merged by tasklet
  0, on the default scheduler (``run = DpuProgram.run``).

Same symbols and MRAM in, so same MRAM and symbols out, the same
instruction count for every tasklet of every DPU, the same DMA charges
and therefore bit-for-bit the same modeled launch time:
``test_kernel_equivalence.py`` compares all of it.
"""

from __future__ import annotations

import numpy as np

from repro.apps.prim.bfs import INSTR_PER_EDGE, BfsProgram, gather_runs
from repro.apps.prim.bs import INSTR_PER_PROBE, BsProgram
from repro.apps.prim.gemv import INSTR_PER_MADD, GemvProgram
from repro.apps.prim.hst_l import (INSTR_PER_MERGE_BIN,
                                   INSTR_PER_PIXEL as INSTR_PER_PIXEL_L,
                                   HstLProgram)
from repro.apps.prim.hst_s import INSTR_PER_PIXEL, HstSProgram
from repro.apps.prim.mlp import INSTR_PER_MADD as INSTR_PER_MLP_MADD
from repro.apps.prim.mlp import MlpProgram, relu
from repro.apps.prim.nw import INSTR_PER_CELL, NwProgram, _dp_rows
from repro.apps.prim.red import INSTR_PER_ELEM as INSTR_PER_RED
from repro.apps.prim.red import RedProgram
from repro.apps.prim.scan_rss import (INSTR_PER_REDUCE, INSTR_PER_SCAN_ADD,
                                      ScanRssProgram)
from repro.apps.prim.scan_ssa import (INSTR_PER_ADD, INSTR_PER_SCAN,
                                      ScanSsaProgram)
from repro.apps.prim.sel import INSTR_PER_ELEM as INSTR_PER_SEL
from repro.apps.prim.sel import SelProgram, predicate
from repro.apps.prim.spmv import INSTR_PER_NNZ, SpmvProgram
from repro.apps.prim.trns import INSTR_PER_ELEM as INSTR_PER_TRNS
from repro.apps.prim.trns import TrnsProgram
from repro.apps.prim.ts import INSTR_PER_POINT, TsProgram, _ssd_profile
from repro.apps.prim.uni import INSTR_PER_ELEM as INSTR_PER_UNI
from repro.apps.prim.uni import UniProgram, unique_consecutive
from repro.apps.prim.va import INSTR_PER_ELEM as INSTR_PER_VA
from repro.apps.prim.va import VaProgram
from repro.config import WRAM_SIZE
from repro.sdk.kernel import DpuContext, DpuProgram, TaskletContext, tasklet_range


# -- DPU forms -------------------------------------------------------------------

class PerDpuBs(BsProgram):
    run_rank = DpuProgram.run_rank

    def run(self, dpu: DpuContext) -> None:
        n = dpu.host_u32("n_elems")
        nq = dpu.host_u32("n_queries")
        q_off = dpu.host_u32("q_offset")
        r_off = dpu.host_u32("r_offset")
        base = dpu.host_u32("base_index")
        _starts, lens = dpu.split(nq)
        shares = lens[lens > 0] * 8     # query bytes of each tasklet with any
        if shares.size == 0 or n == 0:
            return
        dpu.mem_alloc(2 * 1024, tasklets=shares.size)
        dpu.dma(np.full(shares.size, n * 8))
        dpu.dma(np.tile(shares, 2))
        data = dpu.mram_read(0, n * 8).view(np.int64)
        queries = dpu.mram_read(q_off, nq * 8).view(np.int64)
        inside = np.flatnonzero((data[0] <= queries) & (queries <= data[-1]))
        probed = queries[inside]
        pos = np.searchsorted(data, probed)
        results = np.full(nq, -1, dtype=np.int64)
        results[inside] = np.where(data[pos] == probed, pos + base, -1)
        dpu.mram_write(r_off, results)
        probes = int(np.ceil(np.log2(max(2, n))))
        dpu.charge(lens * (INSTR_PER_PROBE * probes))


class PerDpuBfs(BfsProgram):
    run_rank = DpuProgram.run_rank

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
            front_bytes = (nv + 7) // 8
            dpu.dma(np.full(k, front_bytes))
            dpu.dma(np.full(k, (n_owned + 1) * 4))
            packed = dpu.mram_read(f_off, front_bytes)
            row_ptr = dpu.mram_read(0, (n_owned + 1) * 4).view(np.int32)
            idx = first + np.arange(n_owned)
            active = np.flatnonzero((packed[idx >> 3] >> (7 - (idx & 7))) & 1)
            starts = row_ptr[active]
            sizes = row_ptr[active + 1] - starts
            chunk = -(-n_owned // dpu.nr_tasklets)
            edges = np.bincount(active // chunk, weights=sizes,
                                minlength=dpu.nr_tasklets).astype(np.int64)
            scanning = np.count_nonzero(edges)
            if scanning:
                col_bytes = int(row_ptr[n_owned]) * 4
                dpu.dma(np.full(scanning, col_bytes))
                cols = dpu.mram_read(col_off, col_bytes).view(np.int32)
                nxt[gather_runs(cols, starts, sizes)] = 1
            instructions[working] = (np.maximum(1, edges[working])
                                     * INSTR_PER_EDGE)
        dpu.charge(instructions)
        tasklet0 = TaskletContext(dpu, 0)
        tasklet0.mram_write_blocks(n_off, np.packbits(nxt))
        tasklet0.charge(nv // 8)


class PerDpuTs(TsProgram):
    run_rank = DpuProgram.run_rank

    def run(self, dpu: DpuContext) -> None:
        n = dpu.host_u32("n_points")
        m = dpu.host_u32("m")
        q_off = dpu.host_u32("q_offset")
        n_windows = max(0, n - m + 1)
        _starts, lens = dpu.split(n_windows)
        shares = lens[lens > 0]
        best = (np.iinfo(np.int64).max, -1)
        if shares.size:
            dpu.mem_alloc(3 * 1024, tasklets=shares.size)
            dpu.dma(np.full(shares.size, m * 4))
            dpu.dma((shares + m - 1) * 4)
            query = dpu.mram_read(q_off, m * 4).view(np.int32)
            points = dpu.mram_read(0, (n_windows + m - 1) * 4).view(np.int32)
            dists = _ssd_profile(points, query)
            index = int(dists.argmin())
            best = (int(dists[index]), index)
        dpu.charge(lens * (m * INSTR_PER_POINT))
        dpu.set_host_i64("best_dist", best[0])
        dpu.set_host_i64("best_index", best[1])
        TaskletContext(dpu, 0).charge(dpu.nr_tasklets * 3)


class PerDpuHstS(HstSProgram):
    """Clamps every pixel, whether or not one is past the last bin."""

    run_rank = DpuProgram.run_rank

    def run(self, dpu: DpuContext) -> None:
        n = dpu.host_u32("n_pixels")
        n_bins = dpu.host_u32("n_bins")
        _starts, lens = dpu.split(n)
        pieces = lens[lens > 0] * 2
        dpu.mem_alloc(2048, tasklets=pieces.size)
        dpu.dma(pieces)
        hist = np.zeros(n_bins, dtype=np.uint32)
        if n:
            pixels = dpu.mram_read(0, n * 2).view(np.uint16)
            hist = np.bincount(np.minimum(pixels, n_bins - 1),
                               minlength=n_bins).astype(np.uint32)
        dpu.charge(lens * INSTR_PER_PIXEL)
        tasklet0 = TaskletContext(dpu, 0)
        tasklet0.mram_write_blocks(dpu.host_u32("hist_offset"), hist)
        tasklet0.charge(hist.size * 2)


class PerDpuHstL(HstLProgram):
    """Clamps every pixel, whether or not one is past the last bin."""

    run_rank = DpuProgram.run_rank

    def run(self, dpu: DpuContext) -> None:
        n = dpu.host_u32("n_pixels")
        n_bins = dpu.host_u32("n_bins")
        _starts, lens = dpu.split(n)
        pieces = lens[lens > 0] * 2
        budget = max(1024, WRAM_SIZE // dpu.nr_tasklets - 2048)
        bins_per_pass = max(256, budget // 4)
        passes = -(-n_bins // bins_per_pass)
        dpu.mem_alloc(1024 + min(n_bins, bins_per_pass) * 4,
                      tasklets=pieces.size)
        dpu.dma(pieces)
        total = np.zeros(n_bins, dtype=np.uint32)
        if n:
            pixels = dpu.mram_read(0, n * 2).view(np.uint16)
            total = np.bincount(np.minimum(pixels, n_bins - 1),
                                minlength=n_bins).astype(np.uint32)
        dpu.charge(lens * (passes * INSTR_PER_PIXEL_L))
        tasklet0 = TaskletContext(dpu, 0)
        tasklet0.charge(n_bins * max(1, pieces.size) * INSTR_PER_MERGE_BIN)
        tasklet0.mram_write_blocks(dpu.host_u32("hist_offset"), total)


class PerDpuSpmv(SpmvProgram):
    run_rank = DpuProgram.run_rank

    def run(self, dpu: DpuContext) -> None:
        n_rows, _nnz, n_cols, col_off, val_off, x_off, y_off = (
            dpu.host_u32("args", i) for i in range(7))
        starts, lens = dpu.split(n_rows)
        working = lens > 0
        k = np.count_nonzero(working)
        if k == 0:
            return
        dpu.mem_alloc(4 * 768, tasklets=k)
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
        filled = row_ptr[1:] > row_ptr[:-1]
        y = np.zeros(n_rows, dtype=np.int64)
        y[filled] = np.add.reduceat(
            vals.astype(np.int64) * x[cols].astype(np.int64),
            row_ptr[:-1][filled] - s)
        dpu.mram_write(y_off, y)
        instructions = np.zeros(dpu.nr_tasklets, dtype=np.int64)
        instructions[working] = nnz * INSTR_PER_NNZ
        dpu.charge(instructions)


class PerDpuScanSsa(ScanSsaProgram):
    run_rank = DpuProgram.run_rank

    def run(self, dpu: DpuContext) -> None:
        n = dpu.host_u32("n_elems")
        out_off = dpu.host_u32("out_offset")
        phase = dpu.host_u32("phase")
        _starts, lens = dpu.split(n)
        pieces = lens[lens > 0]
        dpu.mem_alloc(2 * 1024, tasklets=dpu.nr_tasklets)
        if phase == 0:
            data = dpu.mram_read(0, n * 4).view(np.int32)
            dpu.dma(pieces * 4)
            scanned = np.cumsum(data, dtype=np.int64)
            dpu.mram_write(out_off, scanned)
            dpu.dma(pieces * 8)
            dpu.charge(lens * (INSTR_PER_SCAN + 1))
            TaskletContext(dpu, 0).mram_write(
                dpu.host_u32("sum_offset"),
                scanned[-1:] if n else np.zeros(1, np.int64))
        else:
            scanned = dpu.mram_read(out_off, n * 8).view(np.int64)
            dpu.mram_write(out_off, scanned + dpu.host_i64("base"))
            dpu.dma(np.tile(pieces * 8, 2))
            dpu.charge(lens * INSTR_PER_ADD)


class PerDpuRed(RedProgram):
    run_rank = DpuProgram.run_rank

    def run(self, dpu: DpuContext) -> None:
        n = dpu.host_u32("n_elems")
        _starts, lens = dpu.split(n)
        pieces = lens[lens > 0] * 4
        dpu.mem_alloc(2048, tasklets=pieces.size)
        dpu.dma(pieces)
        data = dpu.mram_read(0, n * 4).view(np.int32)
        dpu.charge(lens * INSTR_PER_RED)
        tasklet0 = TaskletContext(dpu, 0)
        tasklet0.mram_write(dpu.host_u32("result_offset"),
                            np.array([data.sum(dtype=np.int64)]))
        tasklet0.charge(dpu.nr_tasklets * 2)


# -- tasklet forms ----------------------------------------------------------------

class PerTaskletVa(VaProgram):
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
        yield ctx.barrier()
        n = ctx.host_u32("n_elems")
        b_off = ctx.host_u32("b_offset")
        c_off = ctx.host_u32("c_offset")
        rng = tasklet_range(ctx, n)
        if len(rng) == 0:
            return
        ctx.mem_alloc(3 * 1024)  # A/B/C block buffers
        a = ctx.mram_read_blocks(rng.start * 4, len(rng) * 4).view(np.int32)
        b = ctx.mram_read_blocks(b_off + rng.start * 4,
                                 len(rng) * 4).view(np.int32)
        ctx.mram_write_blocks(c_off + rng.start * 4, a + b)
        ctx.charge_loop(len(rng), INSTR_PER_VA)


class PerTaskletGemv(GemvProgram):
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
        yield ctx.barrier()
        n_rows = ctx.host_u32("n_rows")
        n_cols = ctx.host_u32("n_cols")
        x_off = ctx.host_u32("x_offset")
        y_off = ctx.host_u32("y_offset")
        rows = tasklet_range(ctx, n_rows)
        if len(rows) == 0:
            return
        ctx.mem_alloc(2 * 1024)
        x = ctx.mram_read_blocks(x_off, n_cols * 4).view(np.int32)
        m = ctx.mram_read_blocks(rows.start * n_cols * 4,
                                 len(rows) * n_cols * 4).view(np.int32)
        y = (m.reshape(len(rows), n_cols).astype(np.int64)
             @ x.astype(np.int64)).astype(np.int32)
        ctx.mram_write_blocks(y_off + rows.start * 4, y)
        ctx.charge_loop(len(rows) * n_cols, INSTR_PER_MADD)


class PerTaskletBs(BsProgram):
    run_rank = DpuProgram.run_rank
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
        yield ctx.barrier()
        n = ctx.host_u32("n_elems")
        nq = ctx.host_u32("n_queries")
        q_off = ctx.host_u32("q_offset")
        r_off = ctx.host_u32("r_offset")
        base = ctx.host_u32("base_index")
        qrange = tasklet_range(ctx, nq)
        if len(qrange) == 0 or n == 0:
            return
        ctx.mem_alloc(2 * 1024)
        data = ctx.mram_read_blocks(0, n * 8).view(np.int64)
        queries = ctx.mram_read_blocks(q_off + qrange.start * 8,
                                       len(qrange) * 8).view(np.int64)
        # Every query is probed, in range of the slice or not.
        pos = np.searchsorted(data, queries)
        found = (pos < n) & (data[np.minimum(pos, n - 1)] == queries)
        results = np.where(found, pos + base, -1).astype(np.int64)
        ctx.mram_write_blocks(r_off + qrange.start * 8, results)
        probes = int(np.ceil(np.log2(max(2, n))))
        ctx.charge_loop(len(qrange), INSTR_PER_PROBE * probes)


class PerTaskletRed(RedProgram):
    run_rank = DpuProgram.run_rank
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
            ctx.shared["partials"] = [0] * ctx.nr_tasklets
        yield ctx.barrier()
        n = ctx.host_u32("n_elems")
        rng = tasklet_range(ctx, n)
        if len(rng):
            ctx.mem_alloc(2048)
            data = ctx.mram_read_blocks(rng.start * 4,
                                        len(rng) * 4).view(np.int32)
            ctx.shared["partials"][ctx.me()] = int(data.astype(np.int64).sum())
            ctx.charge_loop(len(rng), INSTR_PER_RED)
        yield ctx.barrier()
        if ctx.me() == 0:
            total = sum(ctx.shared["partials"])
            ctx.mram_write(ctx.host_u32("result_offset"),
                           np.array([total], dtype=np.int64))
            ctx.charge(ctx.nr_tasklets * 2)


class PerTaskletSel(SelProgram):
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
            ctx.shared["kept"] = [None] * ctx.nr_tasklets
        yield ctx.barrier()
        n = ctx.host_u32("n_elems")
        rng = tasklet_range(ctx, n)
        ctx.mem_alloc(2 * 1024)
        if len(rng):
            data = ctx.mram_read_blocks(rng.start * 4,
                                        len(rng) * 4).view(np.int32)
            ctx.shared["kept"][ctx.me()] = data[predicate(data)]
            ctx.charge_loop(len(rng), INSTR_PER_SEL)
        yield ctx.barrier()
        # Tasklet 0 concatenates the per-tasklet results (the PrIM kernel
        # does this with a prefix sum of per-tasklet counts).
        if ctx.me() == 0:
            parts = [p for p in ctx.shared["kept"] if p is not None and p.size]
            out = (np.concatenate(parts) if parts
                   else np.empty(0, dtype=np.int32))
            ctx.set_host_u32("n_selected", out.size)
            if out.size:
                ctx.mram_write_blocks(ctx.host_u32("out_offset"), out)
            ctx.charge(ctx.nr_tasklets * 4)


class PerTaskletUni(UniProgram):
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
            ctx.shared["parts"] = [None] * ctx.nr_tasklets
        yield ctx.barrier()
        n = ctx.host_u32("n_elems")
        rng = tasklet_range(ctx, n)
        ctx.mem_alloc(2 * 1024)
        if len(rng):
            data = ctx.mram_read_blocks(rng.start * 4,
                                        len(rng) * 4).view(np.int32)
            ctx.shared["parts"][ctx.me()] = data
            ctx.charge_loop(len(rng), INSTR_PER_UNI)
        yield ctx.barrier()
        if ctx.me() == 0:
            # Tasklet 0 merges: dedup within and across tasklet boundaries
            # (the real kernel uses handshakes between adjacent tasklets).
            chunks = [p for p in ctx.shared["parts"] if p is not None]
            if chunks:
                out = unique_consecutive(np.concatenate(chunks))
            else:
                out = np.empty(0, dtype=np.int32)
            ctx.set_host_u32("n_unique", out.size)
            if out.size:
                ctx.mram_write_blocks(ctx.host_u32("out_offset"), out)
            ctx.charge(ctx.nr_tasklets * 4)


class PerTaskletHstS(HstSProgram):
    run_rank = DpuProgram.run_rank
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
            ctx.shared["hist"] = np.zeros(ctx.host_u32("n_bins"),
                                          dtype=np.int64)
        yield ctx.barrier()
        n = ctx.host_u32("n_pixels")
        n_bins = ctx.host_u32("n_bins")
        rng = tasklet_range(ctx, n)
        if len(rng):
            ctx.mem_alloc(2048)
            pixels = ctx.mram_read_blocks(rng.start * 2,
                                          len(rng) * 2).view(np.uint16)
            ctx.shared["hist"] += np.bincount(
                np.minimum(pixels, n_bins - 1), minlength=n_bins)
            ctx.charge_loop(len(rng), INSTR_PER_PIXEL)
        yield ctx.barrier()
        if ctx.me() == 0:
            hist = ctx.shared["hist"].astype(np.uint32)
            ctx.mram_write_blocks(ctx.host_u32("hist_offset"), hist)
            ctx.charge(hist.size * 2)


class PerTaskletHstL(HstLProgram):
    run_rank = DpuProgram.run_rank
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
            ctx.shared["private"] = [None] * ctx.nr_tasklets
        yield ctx.barrier()
        n = ctx.host_u32("n_pixels")
        n_bins = ctx.host_u32("n_bins")
        rng = tasklet_range(ctx, n)
        if len(rng):
            # Private bins must fit this tasklet's WRAM share; larger
            # histograms are built in several passes over the pixels, as
            # the PrIM HST-L kernel does.
            budget = max(1024, WRAM_SIZE // ctx.nr_tasklets - 2048)
            bins_per_pass = max(256, budget // 4)
            passes = -(-n_bins // bins_per_pass)
            ctx.mem_alloc(1024 + min(n_bins, bins_per_pass) * 4)
            pixels = ctx.mram_read_blocks(rng.start * 2,
                                          len(rng) * 2).view(np.uint16)
            ctx.shared["private"][ctx.me()] = np.bincount(
                np.minimum(pixels, n_bins - 1), minlength=n_bins)
            ctx.charge_loop(len(rng) * passes, INSTR_PER_PIXEL_L)
        yield ctx.barrier()
        if ctx.me() == 0:
            total = np.zeros(n_bins, dtype=np.int64)
            merged = 0
            for private in ctx.shared["private"]:
                if private is not None:
                    total += private
                    merged += 1
            ctx.charge_loop(n_bins * max(1, merged), INSTR_PER_MERGE_BIN)
            ctx.mram_write_blocks(ctx.host_u32("hist_offset"),
                                  total.astype(np.uint32))


class PerTaskletScanSsa(ScanSsaProgram):
    run_rank = DpuProgram.run_rank
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
            ctx.shared["tsums"] = [0] * ctx.nr_tasklets
        yield ctx.barrier()
        n = ctx.host_u32("n_elems")
        out_off = ctx.host_u32("out_offset")
        phase = ctx.host_u32("phase")
        rng = tasklet_range(ctx, n)
        ctx.mem_alloc(2 * 1024)

        if phase == 0:
            if len(rng):
                data = ctx.mram_read_blocks(rng.start * 4,
                                            len(rng) * 4).view(np.int32)
                local = np.cumsum(data.astype(np.int64))
                ctx.shared["tsums"][ctx.me()] = int(local[-1])
                ctx.shared[f"scan{ctx.me()}"] = local
                ctx.charge_loop(len(rng), INSTR_PER_SCAN)
            yield ctx.barrier()
            # Tasklet-level offsets, then write the scanned slice.
            if len(rng):
                prior = sum(ctx.shared["tsums"][:ctx.me()])
                scanned = (ctx.shared[f"scan{ctx.me()}"] + prior)
                ctx.mram_write_blocks(out_off + rng.start * 8,
                                      scanned.astype(np.int64))
                ctx.charge_loop(len(rng), 1)
            if ctx.me() == 0:
                total = sum(ctx.shared["tsums"])
                ctx.mram_write(ctx.host_u32("sum_offset"),
                               np.array([total], dtype=np.int64))
        else:
            if len(rng):
                base = ctx.host_i64("base")
                scanned = ctx.mram_read_blocks(
                    out_off + rng.start * 8, len(rng) * 8).view(np.int64)
                ctx.mram_write_blocks(out_off + rng.start * 8, scanned + base)
                ctx.charge_loop(len(rng), INSTR_PER_ADD)


class PerTaskletScanRss(ScanRssProgram):
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
            ctx.shared["tsums"] = [0] * ctx.nr_tasklets
        yield ctx.barrier()
        n = ctx.host_u32("n_elems")
        out_off = ctx.host_u32("out_offset")
        phase = ctx.host_u32("phase")
        rng = tasklet_range(ctx, n)
        ctx.mem_alloc(2 * 1024)

        if phase == 0:
            if len(rng):
                data = ctx.mram_read_blocks(rng.start * 4,
                                            len(rng) * 4).view(np.int32)
                ctx.shared["tsums"][ctx.me()] = int(
                    data.astype(np.int64).sum())
                ctx.charge_loop(len(rng), INSTR_PER_REDUCE)
            yield ctx.barrier()
            if ctx.me() == 0:
                total = sum(ctx.shared["tsums"])
                ctx.mram_write(ctx.host_u32("sum_offset"),
                               np.array([total], dtype=np.int64))
        else:
            if len(rng):
                data = ctx.mram_read_blocks(rng.start * 4,
                                            len(rng) * 4).view(np.int32)
                local = np.cumsum(data.astype(np.int64))
                ctx.shared["tsums"][ctx.me()] = int(local[-1])
                ctx.shared[f"scan{ctx.me()}"] = local
                ctx.charge_loop(len(rng), INSTR_PER_SCAN_ADD)
            yield ctx.barrier()
            if len(rng):
                base = ctx.host_i64("base")
                prior = sum(ctx.shared["tsums"][:ctx.me()])
                scanned = ctx.shared[f"scan{ctx.me()}"] + prior + base
                ctx.mram_write_blocks(out_off + rng.start * 8,
                                      scanned.astype(np.int64))
                ctx.charge_loop(len(rng), 1)


class PerRowSpmv(SpmvProgram):
    """One Python loop over the tasklet's rows: the segmented sum the
    DPU and rank forms do with one ``np.add.reduceat`` per DPU."""

    run_rank = DpuProgram.run_rank
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
        yield ctx.barrier()
        n_rows = ctx.host_u32("args", 0)
        n_cols = ctx.host_u32("args", 2)
        col_off = ctx.host_u32("args", 3)
        val_off = ctx.host_u32("args", 4)
        x_off = ctx.host_u32("args", 5)
        y_off = ctx.host_u32("args", 6)
        rows = tasklet_range(ctx, n_rows)
        if len(rows) == 0:
            return
        ctx.mem_alloc(4 * 768)
        row_ptr = ctx.mram_read_blocks(0, (n_rows + 1) * 4).view(np.int32)
        s, e = int(row_ptr[rows.start]), int(row_ptr[rows.stop])
        if e > s:
            cols = ctx.mram_read_blocks(col_off + s * 4,
                                        (e - s) * 4).view(np.int32)
            vals = ctx.mram_read_blocks(val_off + s * 4,
                                        (e - s) * 4).view(np.int32)
        else:
            cols = np.empty(0, dtype=np.int32)
            vals = np.empty(0, dtype=np.int32)
        x = ctx.mram_read_blocks(x_off, n_cols * 4).view(np.int32)
        y = np.zeros(len(rows), dtype=np.int64)
        for j, r in enumerate(rows):
            rs, re = int(row_ptr[r]) - s, int(row_ptr[r + 1]) - s
            if re > rs:
                y[j] = (vals[rs:re].astype(np.int64)
                        * x[cols[rs:re]].astype(np.int64)).sum()
        ctx.mram_write_blocks(y_off + rows.start * 8, y)
        ctx.charge_loop(max(0, e - s), INSTR_PER_NNZ)


class PerTaskletTs(TsProgram):
    run_rank = DpuProgram.run_rank
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
            ctx.shared["best"] = [(np.iinfo(np.int64).max, -1)] * ctx.nr_tasklets
        yield ctx.barrier()
        n = ctx.host_u32("n_points")
        m = ctx.host_u32("m")
        q_off = ctx.host_u32("q_offset")
        n_windows = max(0, n - m + 1)
        rng = tasklet_range(ctx, n_windows)
        if len(rng):
            ctx.mem_alloc(3 * 1024)
            query = ctx.mram_read_blocks(q_off, m * 4).view(np.int32)
            span = ctx.mram_read_blocks(rng.start * 4,
                                        (len(rng) + m - 1) * 4).view(np.int32)
            dists = _ssd_profile(span, query)
            best_local = int(dists.argmin())
            ctx.shared["best"][ctx.me()] = (int(dists[best_local]),
                                            rng.start + best_local)
            ctx.charge_loop(len(rng) * m, INSTR_PER_POINT)
        yield ctx.barrier()
        if ctx.me() == 0:
            dist, index = min(ctx.shared["best"])
            ctx.set_host_i64("best_dist", dist)
            ctx.set_host_i64("best_index", index)
            ctx.charge(ctx.nr_tasklets * 3)


class PerTaskletBfs(BfsProgram):
    """One small frontier expansion per tasklet, merged by tasklet 0."""

    run_rank = DpuProgram.run_rank
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
        yield ctx.barrier()
        nv = ctx.host_u32("args", 0)
        first = ctx.host_u32("args", 1)
        n_owned = ctx.host_u32("args", 2)
        col_off = ctx.host_u32("args", 3)
        f_off = ctx.host_u32("args", 4)
        owned = tasklet_range(ctx, n_owned)
        if len(owned):
            ctx.mem_alloc(3 * 1024)
            nbytes = (nv + 7) // 8
            packed = ctx.mram_read_blocks(f_off, nbytes)
            row_ptr = ctx.mram_read_blocks(
                0, (n_owned + 1) * 4).view(np.int32)
            share = np.arange(owned.start, owned.stop)
            idx = first + share
            bits = (packed[idx >> 3] >> (7 - (idx & 7))) & 1
            active = share[bits == 1]
            edges = 0
            if active.size:
                starts = row_ptr[active]
                ends = row_ptr[active + 1]
                sizes = ends - starts
                total = int(sizes.sum())
                if total:
                    cols = ctx.mram_read_blocks(
                        col_off, int(row_ptr[n_owned]) * 4).view(np.int32)
                    csum = np.cumsum(sizes)
                    flat = (np.arange(total)
                            + np.repeat(starts - (csum - sizes), sizes))
                    ctx.shared.setdefault("merge", []).append(cols[flat])
                    edges = total
            ctx.charge_loop(max(1, edges), INSTR_PER_EDGE)
        yield ctx.barrier()
        if ctx.me() == 0:
            nxt = np.zeros(nv, dtype=np.uint8)
            for gathered in ctx.shared.get("merge", []):
                nxt[gathered] = 1
            ctx.mram_write_blocks(ctx.host_u32("args", 5), np.packbits(nxt))
            ctx.charge(nv // 8)


class PerTaskletMlp(MlpProgram):
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
        yield ctx.barrier()
        n_rows = ctx.host_u32("n_rows")
        n_cols = ctx.host_u32("n_cols")
        w_off = ctx.host_u32("w_offset")
        x_off = ctx.host_u32("x_offset")
        y_off = ctx.host_u32("y_offset")
        rows = tasklet_range(ctx, n_rows)
        if len(rows) == 0:
            return
        ctx.mem_alloc(3 * 1024)
        x = ctx.mram_read_blocks(x_off, n_cols * 4).view(np.int32)
        w = ctx.mram_read_blocks(w_off + rows.start * n_cols * 4,
                                 len(rows) * n_cols * 4).view(np.int32)
        # float64 keeps the arithmetic exact (|w| <= 4, |x| < 2^31, row
        # sums stay far below 2^53).
        y = relu(w.reshape(len(rows), n_cols).astype(np.float64)
                 @ x.astype(np.float64))
        # Saturate into int32 range as the fixed-point kernel would.
        y = np.minimum(y, np.iinfo(np.int32).max).astype(np.int32)
        ctx.mram_write_blocks(y_off + rows.start * 4, y)
        ctx.charge_loop(len(rows) * n_cols, INSTR_PER_MLP_MADD)


class PerTaskletNw(NwProgram):
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
        yield ctx.barrier()
        if ctx.me() != 0:
            return
        header = ctx.mram_read(ctx.host_u32("hdr_offset"), 12).view(np.int32)
        active, bi, bj = int(header[0]), int(header[1]), int(header[2])
        if not active:
            return
        bs = ctx.host_u32("block_size")
        ctx.mem_alloc(6 * bs * 8)
        a = ctx.mram_read_blocks(ctx.host_u32("a_offset") + bi * bs,
                                 bs).view(np.int8)
        b = ctx.mram_read_blocks(ctx.host_u32("b_offset") + bj * bs,
                                 bs).view(np.int8)
        top = ctx.mram_read(ctx.host_u32("top_offset"),
                            (bs + 1) * 8).view(np.int64)
        left = ctx.mram_read(ctx.host_u32("left_offset"),
                             bs * 8).view(np.int64)
        bottom, right = _dp_rows(a, b, top, left)
        out = np.concatenate([bottom, right])  # (bs+1) + bs values
        ctx.mram_write(ctx.host_u32("out_offset"), out)
        ctx.charge_loop(bs * bs, INSTR_PER_CELL)


class PerTaskletTrns(TrnsProgram):
    run = DpuProgram.run

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
        yield ctx.barrier()
        t = ctx.host_u32("tile_dim")
        n_tiles = ctx.host_u32("n_tiles")
        out_off = ctx.host_u32("out_offset")
        tile_bytes = t * t * 4
        my_tiles = tasklet_range(ctx, n_tiles)
        if len(my_tiles) == 0:
            return
        ctx.mem_alloc(2 * tile_bytes)
        for k in my_tiles:
            tile = ctx.mram_read(k * tile_bytes, tile_bytes).view(np.int32)
            out = np.ascontiguousarray(tile.reshape(t, t).T)
            ctx.mram_write(out_off + k * tile_bytes, out)
            ctx.charge_loop(t * t, INSTR_PER_TRNS)


#: App short name -> the DPU-form reference of its rank-form program.
DPU_FORMS = {
    "BS": PerDpuBs, "BFS": PerDpuBfs, "TS": PerDpuTs, "HST-S": PerDpuHstS,
    "HST-L": PerDpuHstL, "SpMV": PerDpuSpmv, "SCAN-SSA": PerDpuScanSsa,
    "RED": PerDpuRed,
}

#: App short name -> its tasklet-form reference program.
REFERENCE_PROGRAMS = {
    "VA": PerTaskletVa, "GEMV": PerTaskletGemv, "SpMV": PerRowSpmv,
    "SEL": PerTaskletSel, "UNI": PerTaskletUni, "BS": PerTaskletBs,
    "TS": PerTaskletTs, "BFS": PerTaskletBfs, "MLP": PerTaskletMlp,
    "NW": PerTaskletNw, "HST-S": PerTaskletHstS, "HST-L": PerTaskletHstL,
    "RED": PerTaskletRed, "SCAN-SSA": PerTaskletScanSsa,
    "SCAN-RSS": PerTaskletScanRss, "TRNS": PerTaskletTrns,
}
