#!/usr/bin/env python3
"""Quickstart: write a PIM application, run it natively and under vPIM.

This is the Fig. 2 "count zeros" example of the paper, written against
this library's SDK.  The same application code runs unmodified on the
native transport and inside a Firecracker microVM with a vUPMEM device —
the transparency requirement (R3) vPIM is designed around.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.apps.base import HostApplication
from repro.config import small_machine
from repro.core import VPim
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, RankContext


class CountZerosProgram(DpuProgram):
    """DPU side: count zeros in each DPU's MRAM partition (Fig. 2b)."""

    name = "count_zeros_dpu"
    symbols = {"zero_count": 4, "partition_size": 4}
    nr_tasklets = 16

    def run_rank(self, rank: RankContext) -> None:
        # One body for every DPU of the launch: each DPU's tasklets split
        # its partition in blocks (Fig. 2b lines 8-11), and each working
        # tasklet takes a 2 KB WRAM buffer, streams its block through it
        # and counts.
        n = rank.host_u32("partition_size")
        _starts, lens = rank.split(n)
        working = lens > 0
        rank.mem_alloc(2048, tasklets=working.sum(axis=1))
        rank.dma(lens * 4, where=working)
        rank.charge(lens * 3)                       # load, compare, count
        for i in np.flatnonzero(n).tolist():
            dpu = rank.dpu(i)
            part = dpu.mram_read(0, int(n[i]) * 4).view(np.int32)
            # The tasklets add their counts to the host variable.
            zeros = dpu.host_u32("zero_count") + int((part == 0).sum())
            dpu.set_host_u32("zero_count", zeros)


class CountZeros(HostApplication):
    """Host side: allocate, distribute, launch, gather (Fig. 2a)."""

    name = "Count Zeros"
    short_name = "CZ"
    domain = "Example"

    def __init__(self, nr_dpus: int, n_elements: int = 1 << 20,
                 seed: int = 0) -> None:
        super().__init__(nr_dpus, n_elements=n_elements, seed=seed)
        rng = np.random.default_rng(seed)
        self.array = rng.integers(0, 4, n_elements, dtype=np.int32)

    def expected(self) -> int:
        return int((self.array == 0).sum())

    def run(self, transport) -> int:
        profiler = transport.profiler
        counts = self.split_even(self.array.size, self.nr_dpus)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        total = 0
        with DpuSet(transport, self.nr_dpus) as dpus:      # dpu_alloc
            dpus.load(CountZerosProgram())                 # dpu_load
            with profiler.segment("CPU-DPU"):              # dpu_push_xfer
                dpus.push_to("partition_size", 0,
                             [np.array([c], np.uint32) for c in counts])
                dpus.push_to_mram(0, [self.array[bounds[i]:bounds[i + 1]]
                                      for i in range(self.nr_dpus)])
            with profiler.segment("DPU"):                  # dpu_launch
                dpus.launch()
            with profiler.segment("DPU-CPU"):              # dpu_copy_from
                for i in range(self.nr_dpus):
                    total += int(dpus.copy_from(i, "zero_count", 0, 4)
                                 .view(np.uint32)[0])
        return total                                       # dpu_free on exit


def main() -> None:
    app_args = dict(nr_dpus=16, n_elements=1 << 20)

    # Native baseline: the SDK drives the physical ranks directly.
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    native = vpim.native_session().run(CountZeros(**app_args))

    # The same application inside a Firecracker microVM with 2 vUPMEM
    # devices, all vPIM optimizations enabled.
    vpim2 = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    session = vpim2.vm_session(nr_vupmem=2)
    virt = session.run(CountZeros(**app_args))

    print("Count-zeros on 16 DPUs across 2 ranks")
    print(f"  expected zeros : {CountZeros(**app_args).expected()}")
    print(f"  native         : {native.segments_total * 1e3:7.2f} ms  "
          f"(verified: {native.verified})")
    print(f"  vPIM           : {virt.segments_total * 1e3:7.2f} ms  "
          f"(verified: {virt.verified})")
    print(f"  overhead       : {virt.overhead_vs(native):.2f}x")
    print(f"  guest<->VMM transitions: {virt.vmexits}")
    print("\nSegment breakdown (vPIM):")
    for name, value in virt.segments.items():
        print(f"  {name:<10} {value * 1e3:8.3f} ms")


if __name__ == "__main__":
    main()
