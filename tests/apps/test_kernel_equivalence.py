"""Rank form == DPU form == tasklet form, for all 16 PrIM programs.

Every PrIM program has one body under ``src/``: BS, BFS, TS, HST-S,
HST-L, SpMV, SCAN-SSA and RED one rank-form body per launch (DPUs and
tasklets vector axes), the other eight one DPU-form body per DPU
(tasklets a vector axis).  ``reference_kernels.py`` keeps the bodies
they replaced: the DPU form of the eight rank-form programs and the
per-tasklet generator body of all 16.  Whatever a launch leaves behind
or is charged must be the same for every form, DPU by DPU: MRAM bytes,
host symbols, every tasklet's instruction count, DMA operations and
bytes, the modeled run time to the last bit (``float.hex()``), and the
*union* of the dirty-log extents (a vector form stores the union of the
tasklets' pieces in one write, and the transfer cache prunes digests by
overlap).  Compared at app level (the ``test`` profile on 8 DPUs, every
launch of every DPU), on drawn one-DPU shapes that hit ``n == 0``,
``n < nr_tasklets``, a ragged last tasklet and a DPU without work, and
on drawn multi-DPU launches whose DPUs are drawn independently (a
ragged last DPU, DPUs without work, ``n == 0`` on some).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.figures import SIZE_PROFILES
from repro.apps.registry import PRIM_APPS
from repro.config import small_machine
from repro.core import VPim
from repro.driver import driver
from repro.errors import DpuFaultError
from repro.hardware.dpu import Dpu, DpuRunStats
from repro.hardware.timing import DEFAULT_COST_MODEL
from repro.sdk.kernel import DpuProgram
from repro.sdk.runtime import run_program
from tests.apps.reference_kernels import DPU_FORMS, REFERENCE_PROGRAMS
from tests.properties.test_kernel_algorithms import bfs_cases, spmv_cases

NR_DPUS = 8
APPS = [info.short_name for info in PRIM_APPS]


def array_form(short_name: str) -> type:
    """The program class the app loads (the reference's base class)."""
    return REFERENCE_PROGRAMS[short_name].__mro__[1]


def forms(short_name: str) -> list:
    """The program's body under ``src/``, then its reference forms."""
    return [array_form(short_name),
            *([DPU_FORMS[short_name]] if short_name in DPU_FORMS else []),
            REFERENCE_PROGRAMS[short_name]]


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


def assert_same(got: dict, reference: dict) -> None:
    for field in reference:
        assert got[field] == reference[field], field


# -- app level: every launch of the test profile ------------------------------

def launches_of(short_name: str, monkeypatch, program_cls: type) -> list:
    """Run the app natively with ``program_cls`` loaded; one observation
    per DPU of every launch, in order."""
    info = next(info for info in PRIM_APPS if info.short_name == short_name)
    monkeypatch.setattr(sys.modules[info.cls.__module__],
                        array_form(short_name).__name__, program_cls)
    runs = []

    def recording(program, dpus):
        launch_runs, stats = observed_launch(program, dpus)
        runs.extend(launch_runs)
        return stats

    monkeypatch.setattr(driver, "run_program", recording)
    app = info.cls(nr_dpus=NR_DPUS, **SIZE_PROFILES["test"][short_name])
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=NR_DPUS))
    assert app.verify(app.run(vpim.native_session().transport))
    return runs


@pytest.mark.parametrize("short_name", APPS)
def test_array_form_matches_tasklet_form_on_the_test_profile(short_name,
                                                             monkeypatch):
    body = "run_rank" if short_name in DPU_FORMS else "run"
    assert [name for name in ("run_rank", "run", "kernel")
            if name in vars(array_form(short_name))] == [body]
    array, *references = [launches_of(short_name, monkeypatch, form)
                          for form in forms(short_name)]
    for reference in references:
        assert len(array) == len(reference) >= NR_DPUS
        for got, want in zip(array, reference):
            assert_same(got, want)
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
def csr_cases(draw, shapes):
    """SpMV and BFS keep their arguments in one ``args`` symbol."""
    args, mram, _span = draw(shapes)
    return {"args": u32(*args)}, mram


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
    "SpMV": csr_cases(spmv_cases()),
    "SEL": stream_cases("n_elems", "out_offset", int32s, np.int32),
    "UNI": stream_cases("n_elems", "out_offset", st.integers(0, 2),
                        np.int32),
    "BS": bs_cases(),
    "TS": ts_cases(),
    "BFS": csr_cases(bfs_cases()),
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
    array, *references = [launch(form(), cases) for form in forms(short_name)]
    assert array != "fault"
    for reference in references:
        assert len(array) == len(reference) == len(cases)
        for got, want in zip(array, reference):
            assert_same(got, want)


@pytest.mark.parametrize("short_name", APPS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_array_form_matches_tasklet_form_on_drawn_shapes(short_name, data):
    assert_every_form_alike(short_name, [data.draw(CASES[short_name])])


#: A DPU outside the host's working set: every symbol zero.
WITHOUT_WORK = ({}, {})


@pytest.mark.parametrize("short_name", APPS)
def test_dpu_without_work_runs_the_same(short_name):
    assert_every_form_alike(short_name, [WITHOUT_WORK])


@pytest.mark.parametrize("short_name", sorted(DPU_FORMS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rank_form_matches_dpu_and_tasklet_forms_on_drawn_launches(
        short_name, data):
    """Each DPU of the launch drawn on its own: different slice lengths
    (a ragged last DPU), edge and non-zero counts, ``n == 0``, DPUs
    without work."""
    cases = data.draw(st.lists(
        st.one_of(CASES[short_name], st.just(WITHOUT_WORK)),
        min_size=2, max_size=5))
    assert_every_form_alike(short_name, cases)


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
}


@pytest.mark.parametrize("short_name", APPS)
def test_wram_over_allocation_faults_in_both_forms(short_name):
    """In every form, on a launch whose other DPU has no work: the
    launch faults as a whole, or every form runs it alike."""
    nr_tasklets, symbols = {**OVER_ALLOCATING, **FITTING}[short_name]
    # MRAM is zero but for NW's header at offset 0, which marks the block
    # active.
    mram = {0: np.ones(1, np.int32)} if short_name == "NW" else {}
    cases = [WITHOUT_WORK, (symbols, mram)]
    outcomes = [launch(type("Widest", (form,), {"nr_tasklets": nr_tasklets})(),
                       cases)
                for form in forms(short_name)]
    if short_name in OVER_ALLOCATING:
        assert outcomes == ["fault"] * len(outcomes)
    else:
        array, *references = outcomes
        assert "fault" not in outcomes
        for reference in references:
            for got, want in zip(array, reference):
                assert_same(got, want)
