"""HST-S — Image histogram, short (image processing).

The "short" variant keeps one shared histogram per DPU with atomic
updates.  Each DPU histograms its pixel slice; the host merges per-DPU
histograms in the DPU-CPU step — a small read (256 bins x 4 B) that, in
vPIM, trips the prefetch cache into fetching a full segment per DPU
(the Fig. 8 DPU-CPU overhead the paper discusses for HST-S/HST-L).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_image

#: Instructions per pixel (load, shift, atomic increment).
INSTR_PER_PIXEL = 6


def histogram(pixels: np.ndarray, n_bins: int) -> np.ndarray:
    """The ``n_bins``-bin histogram of the uint16 ``pixels``, a pixel
    past the last bin counted in it.

    The clamp is paid only when some pixel needs it: on a 256K-pixel
    slice the check costs a twentieth of the clamp, and an image of the
    host's depth never needs one.
    """
    if not pixels.size:
        return np.zeros(n_bins, dtype=np.uint32)
    if pixels.max() >= n_bins:
        pixels = np.minimum(pixels, n_bins - 1)
    return np.bincount(pixels, minlength=n_bins).astype(np.uint32)


#: Pixels per ``np.bincount`` call of the CPU reference: ``bincount``
#: casts its input to ``intp`` first, a 128 MB temporary for a 16M-pixel
#: image in one call.
REFERENCE_CHUNK = 1 << 20


def image_histogram(pixels: np.ndarray, n_bins: int) -> np.ndarray:
    """``np.bincount(pixels, minlength=n_bins)`` as uint32, counted
    :data:`REFERENCE_CHUNK` pixels at a time."""
    size = max(n_bins, int(pixels.max()) + 1) if pixels.size else n_bins
    hist = np.zeros(size, dtype=np.int64)
    for start in range(0, pixels.size, REFERENCE_CHUNK):
        hist += np.bincount(pixels[start:start + REFERENCE_CHUNK],
                            minlength=size)
    return hist.astype(np.uint32)


class HstSProgram(DpuProgram):
    """DPU side: shared 256-bin histogram with atomic adds."""

    name = "hst_s_dpu"
    symbols = {"n_pixels": 4, "hist_offset": 4, "n_bins": 4}
    nr_tasklets = 16
    binary_size = 6 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n = rank.host_u32("n_pixels")
        n_bins = rank.host_u32("n_bins")
        _starts, lens = rank.split(n)
        working = lens > 0              # tasklets that have pixels
        rank.mem_alloc(2048, tasklets=working.sum(axis=1))
        rank.dma(lens * 2, where=working)
        # Tasklet 0 writes the shared histogram out.
        instructions = lens * INSTR_PER_PIXEL
        instructions[:, 0] += n_bins * 2
        rank.charge(instructions)
        rank.dma(n_bins * 4)
        bins = n_bins.tolist()
        rank.map(lambda d, pixels: histogram(pixels.view(np.uint16), bins[d]),
                 (0, n * 2), into=(rank.host_u32("hist_offset"), n_bins * 4))


class HistogramShort(HostApplication):
    """Host side of HST-S."""

    name = "Image histogram (short)"
    short_name = "HST-S"
    domain = "Image processing"

    N_BINS = 256

    def __init__(self, nr_dpus: int, n_pixels: int = 1 << 20,
                 seed: int = 0) -> None:
        super().__init__(nr_dpus)
        self.pixels = random_image(n_pixels, depth=self.N_BINS, seed=seed)

    def expected(self) -> np.ndarray:
        return image_histogram(self.pixels, self.N_BINS)

    def run(self, transport: Transport) -> np.ndarray:
        profiler = transport.profiler
        counts = self.split_even(self.pixels.size, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        hist_off = ((max(counts) * 2 + 7) // 8) * 8
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(HstSProgram())
            with profiler.segment("CPU-DPU"):
                dpus.push_to("n_pixels", 0,
                             [np.array([c], np.uint32) for c in counts])
                dpus.broadcast_to("n_bins", 0,
                                  np.array([self.N_BINS], np.uint32))
                dpus.broadcast_to("hist_offset", 0,
                                  np.array([hist_off], np.uint32))
                dpus.push_to_mram(0, [self.pixels[bounds[i]:bounds[i + 1]]
                                      for i in range(self.nr_dpus)])
            with profiler.segment("DPU"):
                dpus.launch()
            with profiler.segment("DPU-CPU"):
                partials = dpus.push_from_mram(hist_off, self.N_BINS * 4)
        total = np.zeros(self.N_BINS, dtype=np.uint64)
        for buf in partials:
            total += buf.view(np.uint32).astype(np.uint64)
        return total.astype(np.uint32)
