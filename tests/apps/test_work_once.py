"""Count guard: the kernel path does each piece of work once.

Three rules (``docs/performance.md``, "The kernel path: every piece of
work once"): a span every tasklet reads is copied out of MRAM once per
run, a phase whose inputs are DPU-wide is computed once per DPU, and a
kernel's numpy calls do not grow with its share of the rows.  Counted at
test size on the native transport, not timed, so a reintroduced repeat
fails here and in CI's ``perf-smoke`` job, where wall-clock is owned.
The fourth count — ``expected()`` once per app instance — is
``test_apps_correctness.py::test_reference_is_computed_once_per_instance``.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

from repro.apps.prim import bfs
from repro.apps.prim.bfs import BreadthFirstSearch
from repro.apps.prim.bs import BinarySearch
from repro.apps.prim.spmv import SpMV, SpmvProgram
from repro.config import small_machine
from repro.core import VPim
from repro.hardware.memory import MemoryRegion

NR_DPUS = 8


def run_native(app):
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=NR_DPUS))
    return app.run(vpim.native_session().transport)


def test_bs_copies_the_slice_out_of_mram_once_per_dpu(monkeypatch):
    app = BinarySearch(NR_DPUS, n_elements=1 << 15, n_queries=1 << 10)
    slice_bytes = app.data.size // NR_DPUS * 8
    reads: Counter = Counter()
    read = MemoryRegion.read

    def counting(region, offset, length):
        reads[region.name.split("[")[0], offset, length] += 1
        return read(region, offset, length)

    monkeypatch.setattr(MemoryRegion, "read", counting)
    run_native(app)
    # All 16 tasklets of a DPU search the whole slice; the result writes
    # between their reads must not cost a fresh 32 KB copy each.
    assert reads["mram", 0, slice_bytes] == NR_DPUS


def test_bfs_gathers_neighbours_once_per_dpu_per_level(monkeypatch):
    app = BreadthFirstSearch(NR_DPUS, n_vertices=1 << 10)
    gathers = []
    gather_runs = bfs.gather_runs
    monkeypatch.setattr(
        bfs, "gather_runs",
        lambda *args: gathers.append(1) or gather_runs(*args))
    levels = run_native(app)
    # A DPU gathers at a level iff a frontier vertex it owns has edges.
    owner = np.repeat(np.arange(NR_DPUS),
                      app.split_even(levels.size, NR_DPUS))
    has_edges = np.diff(app.row_ptr) > 0
    expected = sum(np.unique(owner[(levels == level) & has_edges]).size
                   for level in range(levels.max() + 1))
    assert len(gathers) == expected > levels.max()


def test_spmv_kernel_calls_do_not_grow_with_the_rows(monkeypatch):
    """Calls made by the kernel body (numpy and ``ctx`` alike), per
    launch, for 4 and for 16 rows per tasklet."""
    kernel = SpmvProgram.kernel.__code__

    def calls_of(n_rows: int) -> int:
        count = 0

        def profile(frame, event, _arg):
            nonlocal count
            if event == "c_call":
                count += frame.f_code is kernel
            elif event == "call":
                count += frame.f_back.f_code is kernel

        app = SpMV(NR_DPUS, n_rows=n_rows, n_cols=256)
        sys.setprofile(profile)
        try:
            run_native(app)
        finally:
            sys.setprofile(None)
        return count

    few, many = calls_of(NR_DPUS * 16 * 4), calls_of(NR_DPUS * 16 * 16)
    assert few == many > 0
