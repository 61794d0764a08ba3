"""HST-L — Image histogram, long (image processing).

The "long" variant gives each tasklet a private histogram copy and
merges them after a barrier — the right shape when the bin count is too
large for cheap atomics.  Transfer pattern matches HST-S, including the
small result read that triggers the prefetch cache in vPIM.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.apps.prim.hst_s import histogram, image_histogram
from repro.config import WRAM_SIZE
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_image

#: Instructions per pixel (load, shift, private increment — no atomics).
INSTR_PER_PIXEL = 4
#: Instructions per bin during the merge phase.
INSTR_PER_MERGE_BIN = 3


class HstLProgram(DpuProgram):
    """DPU side: per-tasklet private histograms, merged by tasklet 0."""

    name = "hst_l_dpu"
    symbols = {"n_pixels": 4, "hist_offset": 4, "n_bins": 4}
    nr_tasklets = 16
    binary_size = 7 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n = rank.host_u32("n_pixels")
        n_bins = rank.host_u32("n_bins")
        _starts, lens = rank.split(n)
        working = lens > 0              # tasklets that have pixels
        k = working.sum(axis=1)
        # Private bins must fit a tasklet's WRAM share; larger histograms
        # are built in several passes over the pixels, as the PrIM HST-L
        # kernel does.
        budget = max(1024, WRAM_SIZE // rank.nr_tasklets - 2048)
        bins_per_pass = max(256, budget // 4)
        passes = -(-n_bins // bins_per_pass)
        rank.mem_alloc(1024 + np.minimum(n_bins, bins_per_pass) * 4,
                       tasklets=k)
        rank.dma(lens * 2, where=working)
        # Tasklet 0 merges the private histograms and writes the result.
        instructions = lens * (passes * INSTR_PER_PIXEL)[:, None]
        instructions[:, 0] += n_bins * np.maximum(1, k) * INSTR_PER_MERGE_BIN
        rank.charge(instructions)
        rank.dma(n_bins * 4)
        bins = n_bins.tolist()
        rank.map(lambda d, pixels: histogram(pixels.view(np.uint16), bins[d]),
                 (0, n * 2), into=(rank.host_u32("hist_offset"), n_bins * 4))


class HistogramLong(HostApplication):
    """Host side of HST-L."""

    name = "Image histogram (long)"
    short_name = "HST-L"
    domain = "Image processing"

    def __init__(self, nr_dpus: int, n_pixels: int = 1 << 20,
                 n_bins: int = 1024, seed: int = 0) -> None:
        super().__init__(nr_dpus)
        self.n_bins = n_bins
        self.pixels = random_image(n_pixels, depth=n_bins, seed=seed)

    def expected(self) -> np.ndarray:
        return image_histogram(self.pixels, self.n_bins)

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        counts = self.split_even(self.pixels.size, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        hist_off = ((max(counts) * 2 + 7) // 8) * 8
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(HstLProgram())
            with profiler.segment("CPU-DPU"):
                dpus.push_to("n_pixels", 0,
                             [np.array([c], np.uint32) for c in counts])
                dpus.broadcast_to("n_bins", 0,
                                  np.array([self.n_bins], np.uint32))
                dpus.broadcast_to("hist_offset", 0,
                                  np.array([hist_off], np.uint32))
                dpus.push_to_mram(0, [self.pixels[bounds[i]:bounds[i + 1]]
                                      for i in range(self.nr_dpus)])
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("DPU-CPU"):
                partials = dpus.push_from_mram(hist_off, self.n_bins * 4)
        total = np.zeros(self.n_bins, dtype=np.uint64)
        for buf in partials:
            total += buf.view(np.uint32).astype(np.uint64)
        return total.astype(np.uint32)
