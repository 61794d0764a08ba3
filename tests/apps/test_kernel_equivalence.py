"""Rank body == Fig. 2b tasklet program, for all 16 PrIM programs, CHK
and UPIS.

Every program has one body under ``src/``, ``run_rank``, for the whole
launch (DPUs and tasklets vector axes, or a loop over the launch's DPUs
where each DPU's work is shaped by its own data).  ``reference_kernels.py``
keeps each program's per-tasklet generator body
(``tests/tasklet_reference.py``, the Fig. 2b model), the one oracle the
rank body is checked against.  Whatever a launch leaves behind
or is charged must be the same for both forms, DPU by DPU: MRAM bytes,
host symbols, every tasklet's instruction count, DMA operations and
bytes, the modeled run time to the last bit (``float.hex()``), and the
*union* of the dirty-log extents (the rank body stores the union of the
tasklets' pieces in one write, and the transfer cache prunes digests by
overlap).  Compared at app level (the ``test`` profile on 8 DPUs, every
launch of every DPU; a small file for CHK and a small corpus for UPIS),
on a DPU without work, and on drawn launches of one to five DPUs, each
drawn independently: ``n == 0``, ``n < nr_tasklets``, a ragged last
tasklet, a ragged last DPU, DPUs without work.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.analysis.figures import SIZE_PROFILES
from repro.apps.registry import ALL_APPS
from repro.config import small_machine
from repro.core import VPim
from repro.driver import driver
from repro.errors import DpuFaultError, MemoryAccessError
from repro.hardware.dpu import Dpu, DpuRunStats
from repro.hardware.timing import DEFAULT_COST_MODEL
from repro.sdk.kernel import DpuProgram
from repro.sdk.runtime import run_program
from repro.workloads.wikipedia import SyntheticCorpus
from tests.apps.reference_kernels import REFERENCE_PROGRAMS
from tests.integration.test_quickstart import load_quickstart

NR_DPUS = 8
APPS = [info.short_name for info in ALL_APPS]

#: App parameters: the ``test`` profile, and small CHK and UPIS runs (a
#: file that does not split evenly, and 445 queries over eight DPUs:
#: fewer queries per DPU than tasklets).
PROFILE = {**SIZE_PROFILES["test"], "CHK": dict(file_mb=0.05),
           "UPIS": dict(corpus=SyntheticCorpus(nr_documents=200,
                                               vocabulary_size=500, seed=3))}


def array_form(short_name: str) -> type:
    """The program class the app loads (the reference's base under
    ``src/``)."""
    return next(cls for cls in REFERENCE_PROGRAMS[short_name].__mro__
                if cls.__module__.startswith("repro."))


def forms(short_name: str) -> list:
    """The program's body under ``src/``, then its tasklet form."""
    return [array_form(short_name), REFERENCE_PROGRAMS[short_name]]


def union(extents) -> dict:
    """``{space: [(start, stop), ...]}`` with touching extents merged."""
    merged: dict = {}
    for space, offset, nbytes in sorted(extents):
        runs = merged.setdefault(space, [])
        if runs and offset <= runs[-1][1]:
            runs[-1] = (runs[-1][0], max(runs[-1][1], offset + nbytes))
        else:
            runs.append((offset, offset + nbytes))
    return merged


def observed(dpu: Dpu, stats: DpuRunStats) -> dict:
    """Everything a run left on ``dpu`` and charged it."""
    return {
        "mram": {seg: data.tobytes()
                 for seg, data in dpu.mram.snapshot_segments().items()
                 if data.any()},
        "symbols": {name: bytes(buf) for name, buf in dpu.symbols.items()},
        "tasklet_instructions": stats.tasklet_instructions,
        "dma_ops": stats.dma_ops,
        "dma_bytes": stats.dma_bytes,
        "dpu_run_time": DEFAULT_COST_MODEL.dpu_run_time(
            stats.tasklet_instructions, stats.dma_ops,
            stats.dma_bytes).hex(),
        "dirty": union(dpu.dirty_log),
    }


def observed_launch(program: DpuProgram, dpus: list):
    """Run ``program`` on ``dpus`` as one launch with their dirty logs
    armed: one observation per DPU, and the launch's stats."""
    for dpu in dpus:
        dpu.dirty_log = []
    try:
        stats = run_program(program, dpus)
        return [observed(dpu, run)
                for dpu, run in zip(dpus, stats.per_dpu)], stats
    finally:
        for dpu in dpus:
            dpu.dirty_log = None


def assert_same(array: list, reference: list) -> None:
    """The rank body's observations are the tasklet form's, DPU by DPU."""
    assert len(array) == len(reference)
    for got, want in zip(array, reference):
        for field in want:
            assert got[field] == want[field], field


# -- app level: every launch of the test profile ------------------------------

def launches_of(short_name: str, monkeypatch, program_cls: type) -> list:
    """Run the app natively with ``program_cls`` loaded; one observation
    per DPU of every launch, in order."""
    info = next(info for info in ALL_APPS if info.short_name == short_name)
    monkeypatch.setattr(sys.modules[info.cls.__module__],
                        array_form(short_name).__name__, program_cls)
    runs = []

    def recording(program, dpus):
        launch_runs, stats = observed_launch(program, dpus)
        runs.extend(launch_runs)
        return stats

    monkeypatch.setattr(driver, "run_program", recording)
    app = info.cls(nr_dpus=NR_DPUS, **PROFILE[short_name])
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=NR_DPUS))
    assert app.verify(app.run(vpim.native_session().transport))
    return runs


def test_every_program_is_one_rank_body():
    """Every program under ``src/repro/`` and the quickstart's, and their
    base, define ``run_rank`` and neither ``run`` nor ``kernel``."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    quickstart = load_quickstart()
    programs, pending = [], [DpuProgram]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro.") or cls.__module__ == quickstart.__name__:
            programs.append(cls)
    assert {array_form(name) for name in APPS} | {quickstart.CountZerosProgram} \
        <= set(programs)
    for cls in programs:
        hooks = [name for name in ("run_rank", "run", "kernel") if name in vars(cls)]
        assert hooks == ["run_rank"], cls


@pytest.mark.parametrize("short_name", APPS)
def test_array_form_matches_tasklet_form_on_the_test_profile(short_name,
                                                             monkeypatch):
    array, reference = [launches_of(short_name, monkeypatch, form)
                        for form in forms(short_name)]
    assert len(array) >= NR_DPUS
    assert_same(array, reference)
    assert all(type(n) is int
               for run in array for n in run["tasklet_instructions"])


# -- drawn shapes ---------------------------------------------------------------
#
# A case is ``(symbols, mram)``: the host variables by name and the MRAM
# contents by offset that one DPU holds when it is launched.

#: Item counts around the tasklet widths (8 for NW, 16 elsewhere): none,
#: fewer than tasklets, exact multiples, ragged last tasklets.
counts = st.sampled_from([0, 1, 3, 7, 8, 15, 16, 17, 31, 33, 100, 257])
int32s = st.integers(-(1 << 31), (1 << 31) - 1)


def array_of(draw, elements, n: int, dtype) -> np.ndarray:
    return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype)


def u32(*values: int) -> np.ndarray:
    return np.array(values, np.uint32)


def align8(nbytes: int) -> int:
    return (nbytes + 7) // 8 * 8


@st.composite
def va_cases(draw):
    n = draw(counts)
    b_off = align8(n * 4)
    symbols = {"n_elems": u32(n), "b_offset": u32(b_off),
               "c_offset": u32(2 * b_off)}
    # Full-range operands: the sums wrap int32, identically.
    return symbols, {0: array_of(draw, int32s, n, np.int32),
                     b_off: array_of(draw, int32s, n, np.int32)}


@st.composite
def matvec_cases(draw, weights, inputs, mlp: bool):
    """GEMV and MLP: a row block of the matrix and the whole vector."""
    n_rows, n_cols = draw(counts), draw(st.integers(0, 9))
    x_off = align8(n_rows * n_cols * 4)
    y_off = x_off + align8(n_cols * 4)
    symbols = {"n_rows": u32(n_rows), "n_cols": u32(n_cols),
               "x_offset": u32(x_off), "y_offset": u32(y_off)}
    if mlp:
        symbols["w_offset"] = u32(0)
    return symbols, {0: array_of(draw, weights, n_rows * n_cols, np.int32),
                     x_off: array_of(draw, inputs, n_cols, np.int32)}


@st.composite
def bs_cases(draw):
    n, nq = draw(counts), draw(counts)
    # Duplicates on purpose: a hit reports the leftmost position.
    data = np.sort(array_of(draw, st.integers(-50, 50), n, np.int64))
    # In the slice, between its values, below it and above it.
    queries = array_of(draw, st.integers(-60, 60), nq, np.int64)
    q_off = align8(n * 8)
    symbols = {"n_elems": u32(n), "n_queries": u32(nq), "q_offset": u32(q_off),
               "r_offset": u32(q_off + nq * 8),
               "base_index": u32(draw(st.integers(0, 1 << 20)))}
    return symbols, {0: data, q_off: queries}


@st.composite
def stream_cases(draw, count: str, output: str, elements, dtype,
                 extra: dict = None):
    """RED, SEL, UNI, HST-S, HST-L: ``n`` elements at MRAM offset 0, the
    output past them; ``count`` and ``output`` name the two symbols."""
    data = array_of(draw, elements, draw(counts), dtype)
    symbols = {count: u32(data.size), output: u32(align8(data.nbytes))}
    for name, strategy in (extra or {}).items():
        symbols[name] = u32(draw(strategy))
    return symbols, {0: data}


@st.composite
def scan_cases(draw):
    """SCAN-SSA and SCAN-RSS, either phase.  Phase 1 of SCAN-SSA reads
    the scanned slice that phase 0 left at ``out_offset``."""
    n = draw(counts)
    data = array_of(draw, st.integers(0, 63), n, np.int32)
    out_off = align8(n * 4)
    symbols = {"n_elems": u32(n), "out_offset": u32(out_off),
               "sum_offset": u32(out_off + n * 8),
               "phase": u32(draw(st.integers(0, 1))),
               "base": np.array([draw(st.integers(-(1 << 40), 1 << 40))],
                                np.int64)}
    return symbols, {0: data, out_off: np.cumsum(data, dtype=np.int64)}


@st.composite
def chk_cases(draw):
    """A file of any length, some of it several 2 KB DMA blocks per
    tasklet."""
    n = draw(st.one_of(counts, st.integers(0, 80_000)))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 32)))
    return {"n_bytes": u32(n)}, {0: rng.integers(0, 256, n, dtype=np.uint8)}


@st.composite
def upis_cases(draw):
    """A small inverted index (empty posting lists too) and queries in
    the vocabulary and outside it on both sides."""
    n_words = draw(st.integers(0, 6))
    sizes = array_of(draw, st.integers(0, 4), n_words, np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int32)
    nq = draw(counts)
    post_off = align8(offsets.nbytes)
    q_off = post_off + int(offsets[-1]) * 8
    symbols = {"n_words": u32(n_words), "post_offset": u32(post_off),
               "n_queries": u32(nq), "q_offset": u32(q_off),
               "r_offset": u32(q_off + align8(nq * 4))}
    return symbols, {
        0: offsets,
        post_off: array_of(draw, st.integers(0, 99), 2 * int(offsets[-1]),
                           np.int32),
        q_off: array_of(draw, st.integers(-2, n_words + 2), nq, np.int32),
    }


@st.composite
def ts_cases(draw):
    # m == 0 with n == 0 is what a booted DPU outside the host's working
    # set sees (all-zero symbols): one trivial window.
    n, m = draw(counts), draw(st.integers(0, 5))
    q_off = align8(n * 4)
    symbols = {"n_points": u32(n), "m": u32(m), "q_offset": u32(q_off)}
    values = st.integers(0, 127)
    return symbols, {0: array_of(draw, values, n, np.int32),
                     q_off: array_of(draw, values, m, np.int32)}


@st.composite
def csr_slices(draw, max_rows, max_row_len):
    """Row pointers of one DPU's slice: empty rows are common, and an
    empty slice, one shorter than the 16 tasklets and one that does not
    divide by them all occur."""
    n_rows = draw(st.integers(0, max_rows))
    sizes = array_of(draw, st.sampled_from([0, 0, 1, 2, max_row_len]),
                     n_rows, np.int32)
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int32)


@st.composite
def bfs_cases(draw):
    """One DPU's share of a BFS level."""
    row_ptr = draw(csr_slices(max_rows=70, max_row_len=5))
    first = draw(st.integers(0, 70))
    n_owned = row_ptr.size - 1
    nv = first + n_owned + draw(st.integers(1, 70))
    col_idx = array_of(draw, st.integers(0, nv - 1), int(row_ptr[-1]),
                       np.int32)
    # Any mix of bits (all clear and all set included), or one vertex
    # only: at most one tasklet has work.
    frontier = np.array(draw(st.one_of(
        st.lists(st.integers(0, 1), min_size=nv, max_size=nv),
        st.integers(0, nv - 1).map(lambda v: np.arange(nv) == v),
    )), dtype=np.uint8)
    col_off = (n_owned + 1) * 4
    f_off = col_off + (col_idx.size + 1) // 2 * 8
    n_off = f_off + ((nv + 7) // 8 + 7) // 8 * 8
    mram = {0: row_ptr, f_off: np.packbits(frontier)}
    if col_idx.size:
        mram[col_off] = col_idx
    # SpMV and BFS keep their arguments in one ``args`` symbol.
    return {"args": u32(nv, first, n_owned, col_off, f_off, n_off)}, mram


@st.composite
def spmv_cases(draw):
    """One DPU's rows of a sparse matrix."""
    row_ptr = draw(csr_slices(max_rows=70, max_row_len=6))
    n_cols = draw(st.integers(1, 40))
    n_rows, nnz = row_ptr.size - 1, int(row_ptr[-1])
    col_idx = array_of(draw, st.integers(0, n_cols - 1), nnz, np.int32)
    # Full-range values: six 2**62 products wrap int64, identically.
    values = array_of(draw, int32s, nnz, np.int32)
    x = array_of(draw, int32s, n_cols, np.int32)
    col_off = (n_rows + 1) * 4
    val_off = col_off + nnz * 4
    x_off = val_off + nnz * 4
    y_off = (x_off + n_cols * 4 + 7) // 8 * 8
    mram = {0: row_ptr, x_off: x}
    if nnz:
        mram.update({col_off: col_idx, val_off: values})
    return {"args": u32(n_rows, nnz, n_cols, col_off, val_off, x_off,
                        y_off)}, mram


@st.composite
def nw_cases(draw):
    bs = draw(st.integers(0, 9))
    bi, bj = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    bases = st.integers(0, 3)
    scores = st.integers(-100, 100)
    offsets = dict(zip(("a_offset", "b_offset", "hdr_offset", "top_offset",
                        "left_offset", "out_offset"), range(0, 6 * 128, 128)))
    symbols = {name: u32(off) for name, off in offsets.items()}
    symbols["block_size"] = u32(bs)
    header = np.array([draw(st.integers(0, 1)), bi, bj], np.int32)
    return symbols, {
        offsets["a_offset"]: array_of(draw, bases, 3 * bs, np.int8),
        offsets["b_offset"]: array_of(draw, bases, 3 * bs, np.int8),
        offsets["hdr_offset"]: header,
        offsets["top_offset"]: array_of(draw, scores, bs + 1, np.int64),
        offsets["left_offset"]: array_of(draw, scores, bs, np.int64),
    }


@st.composite
def trns_cases(draw):
    t, n_tiles = draw(st.integers(0, 4)), draw(counts)
    tiles = array_of(draw, int32s, n_tiles * t * t, np.int32)
    symbols = {"tile_dim": u32(t), "n_tiles": u32(n_tiles),
               "out_offset": u32(align8(tiles.nbytes))}
    return symbols, {0: tiles}


CASES = {
    "VA": va_cases(),
    "GEMV": matvec_cases(int32s, int32s, mlp=False),
    "SpMV": spmv_cases(),
    "SEL": stream_cases("n_elems", "out_offset", int32s, np.int32),
    "UNI": stream_cases("n_elems", "out_offset", st.integers(0, 2),
                        np.int32),
    "BS": bs_cases(),
    "TS": ts_cases(),
    "BFS": bfs_cases(),
    # |w| <= 4 and x < 2^31 keep the float64 row sums exact.
    "MLP": matvec_cases(st.integers(-4, 4), st.integers(0, (1 << 31) - 1),
                        mlp=True),
    "NW": nw_cases(),
    # Pixels past the last bin are clipped into it.
    "HST-S": stream_cases("n_pixels", "hist_offset", st.integers(0, 300),
                          np.uint16, {"n_bins": st.integers(1, 256)}),
    # More bins than one pass holds: several passes over the pixels.
    "HST-L": stream_cases("n_pixels", "hist_offset",
                          st.integers(0, 2000), np.uint16,
                          {"n_bins": st.sampled_from([1, 256, 513, 1500])}),
    "RED": stream_cases("n_elems", "result_offset", int32s, np.int32),
    "SCAN-SSA": scan_cases(),
    "SCAN-RSS": scan_cases(),
    "TRNS": trns_cases(),
    "CHK": chk_cases(),
    "UPIS": upis_cases(),
}


def launch(program: DpuProgram, cases: list):
    """What one launch of ``program`` on fresh DPUs, DPU ``i`` holding
    ``cases[i]``, leaves behind and is charged, or ``"fault"``."""
    dpus = []
    for i, (symbols, mram) in enumerate(cases):
        dpu = Dpu(0, i)
        dpu.load_program(program, program.binary_size, program.symbols)
        for name, value in symbols.items():
            dpu.write_symbol(name, 0, value.tobytes())
        for offset, data in mram.items():
            dpu.mram.write(offset, data.view(np.uint8))
        dpus.append(dpu)
    try:
        return observed_launch(program, dpus)[0]
    except DpuFaultError:
        return "fault"


def assert_every_form_alike(short_name: str, cases: list) -> None:
    array, reference = [launch(form(), cases) for form in forms(short_name)]
    assert array != "fault" and len(array) == len(cases)
    assert_same(array, reference)


#: A DPU outside the host's working set: every symbol zero.
WITHOUT_WORK = ({}, {})


@pytest.mark.parametrize("short_name", APPS)
def test_dpu_without_work_runs_the_same(short_name):
    assert_every_form_alike(short_name, [WITHOUT_WORK])


@pytest.mark.parametrize("short_name", APPS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_array_form_matches_tasklet_form_on_drawn_shapes(short_name, data):
    """The rank body against the tasklet form, DPU by DPU, on launches
    of one to five DPUs, each drawn on its own: different slice lengths
    (a ragged last DPU), edge and non-zero counts, ``n == 0``, DPUs
    without work."""
    cases = data.draw(st.lists(
        st.one_of(CASES[short_name], st.just(WITHOUT_WORK)),
        min_size=1, max_size=5))
    assert_every_form_alike(short_name, cases)


def test_a_posting_list_past_mram_faults_in_every_form():
    """UPIS reads the posting pairs it counts, one transfer per query: a
    list that ends past the bank is a bad access in both forms."""
    end = Dpu(0, 0).mram.size
    symbols = {"n_words": u32(1), "post_offset": u32(end - 4),
               "n_queries": u32(1), "q_offset": u32(8), "r_offset": u32(16)}
    case = (symbols, {0: np.array([0, 1], np.int32), 8: np.zeros(1, np.int32)})
    for form in forms("UPIS"):
        with pytest.raises(MemoryAccessError):
            launch(form(), [case])


# -- the WRAM budget ------------------------------------------------------------

#: Per app, symbols that give every tasklet of the widest launch work.
#: 24 tasklets (the hardware maximum) with 3 KB of buffers each ask for
#: more than the 64 KB of WRAM, and so do a 32 x 32 tile per tasklet and
#: one 2048-wide NW block; 2 KB each fit, and HST-L sizes its private
#: bins by the width.
OVER_ALLOCATING = {
    "VA": (24, {"n_elems": u32(24)}),
    "SpMV": (24, {"args": u32(24, 0, 1, 0, 0, 0, 0)}),
    "TS": (24, {"n_points": u32(24), "m": u32(1)}),
    "BFS": (24, {"args": u32(24, 0, 24, 0, 0, 0)}),
    "MLP": (24, {"n_rows": u32(24), "n_cols": u32(1)}),
    "TRNS": (16, {"tile_dim": u32(32), "n_tiles": u32(16)}),
    "NW": (8, {"block_size": u32(2048)}),
    "UPIS": (24, {"n_queries": u32(24)}),
}
FITTING = {
    "GEMV": (24, {"n_rows": u32(24), "n_cols": u32(1)}),
    "SEL": (24, {"n_elems": u32(24)}),
    "UNI": (24, {"n_elems": u32(24)}),
    "BS": (24, {"n_elems": u32(24), "n_queries": u32(24)}),
    "HST-S": (24, {"n_pixels": u32(24), "n_bins": u32(256)}),
    "HST-L": (24, {"n_pixels": u32(24), "n_bins": u32(1024)}),
    "RED": (24, {"n_elems": u32(24)}),
    "SCAN-SSA": (24, {"n_elems": u32(24)}),
    "SCAN-RSS": (24, {"n_elems": u32(24)}),
    "CHK": (24, {"n_bytes": u32(24)}),
}


@pytest.mark.parametrize("short_name", APPS)
def test_wram_over_allocation_faults_in_both_forms(short_name):
    """In both forms, on a launch whose other DPU has no work: the
    launch faults as a whole, or both forms run it alike."""
    nr_tasklets, symbols = {**OVER_ALLOCATING, **FITTING}[short_name]
    # MRAM is zero but for NW's header at offset 0, which marks the block
    # active.
    mram = {0: np.ones(1, np.int32)} if short_name == "NW" else {}
    cases = [WITHOUT_WORK, (symbols, mram)]
    outcomes = [launch(type("Widest", (form,), {"nr_tasklets": nr_tasklets})(),
                       cases)
                for form in forms(short_name)]
    if short_name in OVER_ALLOCATING:
        assert outcomes == ["fault", "fault"]
    else:
        assert "fault" not in outcomes
        assert_same(*outcomes)
