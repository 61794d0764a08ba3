"""Checksum — the UPMEM SDK demo used for sensitivity analysis (§5.3.1).

The host generates a random file of a given size and sends the *same*
file to every allocated DPU, which computes its checksum; unlike the
PrIM apps, all DPUs do identical work on identical data.

One execution performs one write-to-rank, one read-from-rank per DPU
(60 at the paper's configuration), and a stream of control-interface
operations whose count grows with the run length — the paper reports
8,000 to 28,000 CI ops depending on file size.  Those synchronous CI
exchanges are precisely what makes checksum's virtualization overhead
*shrink* as the file grows (2.33x at 8 MB down to 1.29x at 60 MB,
Fig. 9c): their cost is fixed while the transfer and compute scale.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import HostApplication
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.transport import Transport
from repro.workloads.generators import random_array

#: Instructions per checksummed byte (load, add, loop shared 4-wide).
INSTR_PER_BYTE = 8

#: Bytes re-read per DPU by the optional staging spot-check.
VERIFY_SPOT_BYTES = 256


def ci_ops_for_size(file_mb: float) -> int:
    """CI-operation count of one checksum run (§5.3.1 calibration).

    Anchored on the paper's observation: roughly 8,000-12,000 ops for an
    8 MB file, growing with the running time toward ~20,000-28,000 at
    60 MB.  The affine fit below lands inside that band at both ends and
    reproduces Fig. 9c's decreasing-overhead shape.
    """
    return int(10760 + 145 * file_mb)


class ChecksumProgram(DpuProgram):
    """DPU side: 32-bit additive checksum of the staged file."""

    name = "checksum_dpu"
    symbols = {"n_bytes": 4, "checksum": 4}
    nr_tasklets = 16
    binary_size = 4 * 1024

    def run_rank(self, rank: RankContext) -> None:
        n = rank.host_u32("n_bytes")
        _starts, lens = rank.split(n)
        working = lens > 0              # tasklets that have bytes
        rank.mem_alloc(2048, tasklets=working.sum(axis=1))
        rank.dma(lens, where=working)
        # Tasklet 0 adds up the per-tasklet partials.
        instructions = lens * INSTR_PER_BYTE
        instructions[:, 0] += rank.nr_tasklets * 2
        rank.charge(instructions)
        rank.set_host_u32("checksum", rank.map(
            lambda d, data: int(data.sum(dtype=np.uint64)) & 0xFFFFFFFF,
            (0, n)))


class Checksum(HostApplication):
    """Host side of the checksum demo."""

    name = "Checksum"
    short_name = "CHK"
    domain = "Microbenchmark"

    def __init__(self, nr_dpus: int, file_mb: float = 1.0, scale: int = 1,
                 seed: int = 0, verify_staging: bool = False) -> None:
        """``file_mb`` is the *nominal* (paper-scale) file size; ``scale``
        divides both the materialized bytes and the CI-operation count so
        scaled-down runs preserve the paper's overhead ratios exactly.

        ``verify_staging`` adds an opt-in integrity pass after staging:
        one small per-DPU MRAM tag write (absorbed by the frontend's
        request batching when enabled) and a double spot-check read of
        the staged file (the second read hits the prefetch cache when
        enabled).  Off by default so the Fig. 9/11 operation mix and
        timings are exactly the paper's.
        """
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        super().__init__(nr_dpus)
        file_bytes = max(1024, int(file_mb * (1 << 20) / scale))
        self.scale = scale
        self.file_mb = file_mb
        self.verify_staging = verify_staging
        self.file = random_array(file_bytes, np.uint8, lo=0, hi=256,
                                 seed=seed).astype(np.uint8)

    def expected(self) -> int:
        return int(self.file.astype(np.uint64).sum() & 0xFFFFFFFF)

    def _spot_check(self, dpus: DpuSet) -> None:
        """Verify the staged file in place before launching.

        Tags are 8-byte per-DPU serial writes (the batching-absorbable
        pattern); the spot read runs twice so the first pass refills the
        prefetch cache and the second is served from it.
        """
        tag_offset = (self.file.size + 7) & ~7
        for i in range(self.nr_dpus):
            tag = np.full(8, i % 256, np.uint8)
            dpus.copy_to_mram(i, tag_offset, tag)
        spot = min(VERIFY_SPOT_BYTES, self.file.size)
        expect = self.file[:spot]
        for _pass in range(2):
            for i in range(self.nr_dpus):
                got = dpus.copy_from_mram(i, 0, spot)
                if not np.array_equal(got, expect):
                    raise AssertionError(
                        f"DPU {i} staged file mismatch in spot check")

    def run(self, transport: Transport) -> int:
        profiler = transport.profiler
        with DpuSet(transport, self.nr_dpus) as dpus:
            dpus.load(ChecksumProgram())
            with profiler.segment("CPU-DPU"):
                dpus.broadcast_to("n_bytes", 0,
                                  np.array([self.file.size], np.uint32))
                # One write-to-rank carrying the file to every DPU.
                dpus.push_to_mram(0, [self.file] * self.nr_dpus)
                if self.verify_staging:
                    self._spot_check(dpus)
            with profiler.segment("DPU"):
                dpus.launch()
                # The demo's status/command CI stream (§5.3.1), scaled
                # with the workload.
                dpus.ci_ops(max(1, ci_ops_for_size(self.file_mb) // self.scale))
            with profiler.segment("DPU-CPU"):
                # One read-from-rank operation per DPU, serially.
                sums = [int(dpus.copy_from(i, "checksum", 0, 4)
                            .view(np.uint32)[0])
                        for i in range(self.nr_dpus)]
        expected = sums[0]
        if any(s != expected for s in sums):
            raise AssertionError("DPUs disagree on the checksum")
        return expected
