"""What the extent pool keeps resident (Linux: ``VmRSS``, minor faults).

The store's correctness is the model test's job; this guards its cost.
A pooled extent should hold the pages of the segments its last owner
wrote — so sparse workloads do not accumulate (the pool used to converge
on the union of every footprint it had seen) and a repeated dense one is
recycled warm (which is what dropping the pool would lose).
"""

import gc
import sys

import numpy as np
import pytest

from repro.hardware import memory
from repro.hardware.memory import EXTENT_BYTES, MemoryRegion

resource = pytest.importorskip("resource")
pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads /proc/self/status and counts 4 KB minor faults")

MB = 1 << 20


def vm_rss() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmRSS in /proc/self/status")


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.fixture
def pool(monkeypatch):
    """A pool of this test's own: what earlier tests left in the process
    pool is neither counted nor recycled here."""
    pool = memory._ExtentPool(max_bytes=2 << 30)
    monkeypatch.setattr(memory, "EXTENT_POOL", pool)
    return pool


def test_sparse_cycles_do_not_accumulate(pool):
    data = np.full(16 << 10, 0x5A, dtype=np.uint8)
    after = []
    for cycle in range(8):
        rng = np.random.default_rng(cycle)
        regions = [MemoryRegion(64 * MB) for _ in range(64)]
        for region in regions:
            for offset in rng.integers(0, 64 * MB - data.size, 3):
                region.write(int(offset), data[:rng.integers(1, data.size + 1)])
        del regions, region
        gc.collect()
        after.append(vm_rss())
    series = " ".join(f"{rss / MB:.0f}" for rss in after)
    assert after[7] - after[1] <= 16 * MB, f"VmRSS per cycle (MB): {series}"

    # Every pooled extent is counted once, and never past the cap (a
    # cycle lets go of ~2.7 GB of extents, so the cap does refuse some).
    pooled = [ext for free in pool._free.values() for ext in free]
    assert len({id(ext) for ext in pooled}) == len(pooled)
    assert pool._held == sum(ext.size for ext in pooled)
    assert pool.max_bytes - EXTENT_BYTES < pool._held <= pool.max_bytes


def test_dense_rewrite_is_recycled_warm(pool):
    data = np.full(MB, 0x5A, dtype=np.uint8)

    def faults_of_one_tenant() -> int:
        region = MemoryRegion(64 * MB)
        before = minor_faults()
        region.write(0, data)
        return minor_faults() - before

    first = faults_of_one_tenant()      # dropped on return: pooled
    second = faults_of_one_tenant()
    assert first > 0 and second * 4 < first, (first, second)
