"""Count guard: a launch runs one body, once.

The rule (``docs/performance.md``, "The kernel path: one body per
launch"): the host executes the launch, not the DPU or the tasklet, so
what a launch costs the host does not depend on the program's width —
the same number of body calls and of MRAM region reads and writes with
1 tasklet as with 16 — the eight rank-form programs cost one
``run_program`` call per launch however many DPUs it boots, and a
body's numpy calls grow with neither the width nor a DPU's share of the
rows.  Counted at test size on the native transport, not timed, so a
reintroduced per-tasklet or per-DPU repeat fails here and in CI's
``perf-smoke`` job, where wall-clock is owned.  The other count —
``expected()`` once per app instance — is
``test_apps_correctness.py::test_reference_is_computed_once_per_instance``.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

import numpy as np
import pytest

from repro.analysis.figures import SIZE_PROFILES
from repro.apps.prim import bfs
from repro.apps.registry import app_by_short_name
from repro.apps.prim.bfs import BfsProgram, BreadthFirstSearch
from repro.apps.prim.bs import BinarySearch, BsProgram
from repro.apps.prim.scan_ssa import ScanSsa, ScanSsaProgram
from repro.apps.prim.spmv import SpMV, SpmvProgram
from repro.config import small_machine
from repro.core import VPim
from repro.driver import driver
from repro.hardware.dpu import Dpu
from repro.hardware.memory import SEGMENT_SIZE, MemoryRegion
from repro.hardware.rank import Rank
from repro.sdk.runtime import run_program

NR_DPUS = 8
#: The programs whose one body is a rank-form ``run_rank``.
RANK_FORM_APPS = ("BS", "BFS", "TS", "HST-S", "HST-L", "SpMV", "SCAN-SSA",
                  "RED")


def run_native(app, nr_dpus: int = NR_DPUS):
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=nr_dpus))
    return app.run(vpim.native_session().transport)


def counted(monkeypatch, owner, name: str, counts: Counter, key=None):
    """Count the calls of ``owner.name`` under ``key(*args)``."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[key(*args) if key else name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("app_cls, program, short_name", [
    (BinarySearch, BsProgram, "BS"),
    (ScanSsa, ScanSsaProgram, "SCAN-SSA"),
    (BreadthFirstSearch, BfsProgram, "BFS"),
])
def test_launch_cost_does_not_depend_on_the_width(monkeypatch, app_cls,
                                                  program, short_name):
    """Region reads and writes and body calls over one app run, host
    transfers included (they do not depend on the width either)."""
    def calls_with(nr_tasklets: int) -> Counter:
        counts: Counter = Counter()
        with monkeypatch.context() as patch:
            patch.setattr(program, "nr_tasklets", nr_tasklets)
            counted(patch, program, "run_rank", counts)
            counted(patch, MemoryRegion, "read", counts)
            counted(patch, MemoryRegion, "read_into", counts)
            counted(patch, MemoryRegion, "write", counts)
            app = app_cls(NR_DPUS, **SIZE_PROFILES["test"][short_name])
            assert app.verify(run_native(app))
        return counts

    one, sixteen = calls_with(1), calls_with(16)
    assert one == sixteen
    assert one["run_rank"] and one["read"] + one["read_into"] and one["write"]


@pytest.mark.parametrize("short_name", RANK_FORM_APPS)
def test_one_program_call_per_launch_whatever_its_width(monkeypatch,
                                                        short_name):
    """``run_program`` calls and rank launches over one app run, on 8
    and on 16 DPUs of one rank."""
    info = app_by_short_name(short_name)

    def calls_with(nr_dpus: int) -> Counter:
        counts: Counter = Counter()
        with monkeypatch.context() as patch:
            counted(patch, driver, "run_program", counts)
            counted(patch, Rank, "launch", counts)
            app = info.cls(nr_dpus, **SIZE_PROFILES["test"][short_name])
            assert app.verify(run_native(app, nr_dpus))
        return counts

    eight = calls_with(8)
    assert eight == calls_with(16)
    assert eight["run_program"] == eight["launch"] >= 1


def _searched(monkeypatch) -> list:
    """The sorted slices ``np.searchsorted`` is called on."""
    slices = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda data, queries: slices.append(
        data) or searchsorted(data, queries))
    return slices


def _in_the_bank(row: np.ndarray) -> bool:
    """Whether ``row`` views an MRAM extent (a mapping, not an array)."""
    while isinstance(row, np.ndarray) and row.base is not None:
        row = row.base
    return not isinstance(row, np.ndarray)


def test_bs_copies_the_slice_out_of_mram_once_per_dpu(monkeypatch):
    """All 16 tasklets of a DPU search the whole slice.  Present in one
    extent, it is searched where it lies, never copied; otherwise it is
    copied once, into the row its search gets."""
    app = BinarySearch(NR_DPUS, n_elements=1 << 15, n_queries=1 << 10)
    slice_bytes = app.data.size // NR_DPUS * 8
    reads: Counter = Counter()
    counted(monkeypatch, MemoryRegion, "read", reads,
            key=lambda region, offset, length: (offset, length))
    counted(monkeypatch, MemoryRegion, "read_into", reads,
            key=lambda region, offset, out: (offset, out.size))
    pieces: Counter = Counter()
    counted(monkeypatch, MemoryRegion, "read_pieces", pieces,
            key=lambda region, offset, out: (offset, out.size))
    with monkeypatch.context() as patch:
        slices = _searched(patch)
        found = run_native(app)
    assert app.verify(found)
    assert reads[0, slice_bytes] == 0
    assert pieces[0, slice_bytes] == NR_DPUS
    assert len(slices) == NR_DPUS and all(map(_in_the_bank, slices))

    # A slice with an absent segment in the middle (it reads zero there).
    n = 3 * SEGMENT_SIZE // 8
    dpus = []
    for i in range(2):
        dpu = Dpu(0, i)
        program = BsProgram()
        dpu.load_program(program, program.binary_size, program.symbols)
        for name, value in (("n_elems", n), ("n_queries", 1),
                            ("q_offset", 4 * SEGMENT_SIZE),
                            ("r_offset", 5 * SEGMENT_SIZE)):
            dpu.write_symbol(name, 0, np.uint32(value).tobytes())
        data = np.arange(n, dtype=np.int64)
        data[n // 3:2 * n // 3] = 0
        dpu.mram.write(0, data[:n // 3])
        dpu.mram.write(2 * SEGMENT_SIZE, data[2 * n // 3:])
        dpu.mram.write(4 * SEGMENT_SIZE, np.array([n - 1], np.int64))
        dpus.append(dpu)
    reads.clear()
    pieces.clear()
    with monkeypatch.context() as patch:
        slices = _searched(patch)
        run_program(BsProgram(), dpus)
    assert reads[0, n * 8] == 0
    assert pieces[0, n * 8] == 2
    assert len(slices) == 2 and not any(map(_in_the_bank, slices))
    assert all(np.array_equal(row, data) for row in slices)
    for dpu in dpus:
        assert dpu.mram.read(5 * SEGMENT_SIZE, 8).view(np.int64)[0] == n - 1


def test_bs_probes_only_the_queries_its_slice_can_hold(monkeypatch):
    """The query set is the whole array's; a DPU calls ``searchsorted``
    once, on the queries inside ``[data[0], data[-1]]`` of its slice."""
    app = BinarySearch(NR_DPUS, n_elements=1 << 15, n_queries=1 << 10)
    probed = []
    searchsorted = np.searchsorted
    with monkeypatch.context() as patch:
        patch.setattr(
            np, "searchsorted",
            lambda data, queries: probed.append((data, queries))
            or searchsorted(data, queries))
        found = run_native(app)
    assert app.verify(found)
    assert len(probed) == NR_DPUS
    for data, queries in probed:
        assert ((data[0] <= queries) & (queries <= data[-1])).all()
    # Each query is in range of one slice, or of none (between two).
    assert sum(queries.size for _, queries in probed) <= app.queries.size


def test_bfs_gathers_neighbours_once_per_level(monkeypatch):
    app = BreadthFirstSearch(NR_DPUS, n_vertices=1 << 10)
    gathers: Counter = Counter()
    # Neighbours are int32 column indices (the frontier's bytes are
    # gathered too, as uint8).
    counted(monkeypatch, bfs, "gather_runs", gathers,
            key=lambda values, _starts, _sizes: values.dtype.name)
    levels = run_native(app)
    # A level's launch gathers iff a vertex of its frontier has edges,
    # whichever DPUs own them.
    has_edges = np.diff(app.row_ptr) > 0
    expected = sum(bool((has_edges & (levels == level)).any())
                   for level in range(levels.max() + 1))
    assert gathers["int32"] == expected >= levels.max()


def test_spmv_kernel_calls_do_not_grow_with_the_rows(monkeypatch):
    """Calls made by the program body (numpy and ``rank`` alike), per
    launch, for 4 and for 16 rows per tasklet.  Earlier garbage is
    collected first: the finalizers a collection inside the body would
    call are not the body's calls."""
    body = SpmvProgram.run_rank.__code__

    def calls_of(n_rows: int) -> int:
        count = 0

        def profile(frame, event, _arg):
            nonlocal count
            if event == "c_call":
                count += frame.f_code is body
            elif event == "call":
                count += frame.f_back.f_code is body

        app = SpMV(NR_DPUS, n_rows=n_rows, n_cols=256)
        gc.collect()
        sys.setprofile(profile)
        try:
            run_native(app)
        finally:
            sys.setprofile(None)
        return count

    few, many = calls_of(NR_DPUS * 16 * 4), calls_of(NR_DPUS * 16 * 16)
    assert few == many > 0
