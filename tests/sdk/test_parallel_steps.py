"""A launch's per-DPU steps fan out; nothing else leaves the thread.

``RankContext.map`` runs each DPU's step of a launch that has charged at
least ``copies.FLOOR`` DMA bytes on every usable core
(``docs/performance.md``, "A launch's per-DPU steps use the host's
cores").  These tests force the core count and the floor through
``copies`` and check what must not change: everything a launch leaves
on its DPUs and is charged, against the one-core loop, for every
program; that a destination overlapping an absent input never shows the
stale bytes of a recycled extent; a faulting step; and that every check,
region update, metric and span stays on the calling thread.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.apps.registry import ALL_APPS
from repro.config import RankConfig, small_machine
from repro.core import VPim
from repro.driver import driver
from repro.errors import DpuFaultError
from repro.hardware import copies, memory
from repro.hardware.dpu import DpuState
from repro.hardware.memory import SEGMENT_SIZE
from repro.hardware.rank import Rank
from repro.sdk import kernel
from repro.sdk.kernel import DpuProgram, RankContext
from repro.sdk.runtime import run_program
from tests.apps.test_kernel_equivalence import NR_DPUS, PROFILE
from tests.apps.test_work_once import RANK_FORM_APPS
from tests.hardware.test_parallel_copies import (
    CALLING_THREAD_ONLY,
    _dirty_pool,
    bounded,
)
from tests.integration.test_quickstart import load_quickstart

PROGRAMS = [info.short_name for info in ALL_APPS] + ["quickstart"]
#: The repository root: ``src/`` and ``examples/`` are under it.
REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(repro.__file__))))


@pytest.fixture
def hand_outs(monkeypatch):
    """The DPU count of each launch whose steps were handed out."""
    count = []
    hand_out = copies.hand_out

    def counting(work, groups, sizes):
        if getattr(work, "func", None) is kernel._run_steps:
            count.append(len(groups))
        hand_out(work, groups, sizes)

    monkeypatch.setattr(copies, "hand_out", counting)
    return count


def _app(name: str):
    if name == "quickstart":
        return load_quickstart().CountZeros(NR_DPUS, n_elements=1000)
    info = next(info for info in ALL_APPS if info.short_name == name)
    return info.cls(NR_DPUS, **PROFILE[name])


def _launches(monkeypatch, name: str) -> list:
    """Everything each launch of one native run of ``name`` left on its
    DPUs and was charged, DPU by DPU."""
    seen = []

    def recording(program, dpus):
        for dpu in dpus:
            dpu.dirty_log = []
        try:
            stats = run_program(program, dpus)
            for dpu, run in zip(dpus, stats.per_dpu):
                mram = dpu.mram
                seen.append({
                    "mram": {seg: data.tobytes() for seg, data
                             in mram.snapshot_segments().items()},
                    "present": {i: (mask == memory._PRESENT).tobytes()
                                for i, mask in mram._masks.items()},
                    "materialized": mram.materialized_bytes,
                    "symbols": {key: bytes(buf)
                                for key, buf in dpu.symbols.items()},
                    "dirty": list(dpu.dirty_log),
                    "stats": run,
                })
            return stats
        finally:
            for dpu in dpus:
                dpu.dirty_log = None

    with monkeypatch.context() as patch:
        patch.setattr(driver, "run_program", recording)
        app = _app(name)
        _dirty_pool()
        vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=NR_DPUS))
        assert app.verify(bounded(app.run, vpim.native_session().transport))
    return seen


def _with(monkeypatch, cores: int, floor: int):
    monkeypatch.setattr(copies, "CORES", cores)
    monkeypatch.setattr(copies, "FLOOR", floor)


@pytest.mark.parametrize("name", PROGRAMS)
def test_fanned_out_steps_leave_what_the_one_core_loop_leaves(
        monkeypatch, hand_outs, name):
    _with(monkeypatch, 1, copies.FLOOR)
    reference = _launches(monkeypatch, name)
    assert reference and hand_outs == []
    for cores in (2, 8):
        _with(monkeypatch, cores, 0)
        assert _launches(monkeypatch, name) == reference, cores
    assert hand_outs and max(hand_outs) >= 2


@pytest.mark.parametrize("name", PROGRAMS)
def test_steps_stay_bit_identical_under_stress(monkeypatch, name):
    """Eight workers on fewer cores, a thread switch every microsecond."""
    _with(monkeypatch, 1, copies.FLOOR)
    reference = _launches(monkeypatch, name)
    _with(monkeypatch, 8, 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _launches(monkeypatch, name) == reference
    finally:
        sys.setswitchinterval(interval)


class _Program(DpuProgram):
    """A test program: ``body(rank)`` is its whole launch."""

    nr_tasklets = 1

    def __init__(self, body) -> None:
        self.body = body

    def run_rank(self, rank: RankContext) -> None:
        self.body(rank)


def _launch(body, rank: Rank) -> None:
    """``body`` run as one launch on every DPU of ``rank``."""
    program = _Program(body)
    for dpu in rank.dpus:
        dpu.load_program(program, program.binary_size, {})
    bounded(rank.launch, range(rank.nr_dpus),
            lambda dpus: run_program(program, dpus))


@pytest.mark.parametrize("cores, floor", [(1, copies.FLOOR), (2, 0), (8, 0)])
def test_a_store_over_an_absent_input_reads_zero_on_a_dirty_extent(
        monkeypatch, cores, floor):
    """The input is resolved before the destination materializes: the
    input reads zeros, not the 0xAB an earlier owner left, and the store
    zeroes the rest of its segment."""
    _with(monkeypatch, cores, floor)
    rows = {}

    def body(rank: RankContext) -> None:
        for dpu in rank.dpus:
            # Acquires a recycled extent: every other segment is stale.
            dpu.mram.write(5 * SEGMENT_SIZE, np.ones(8, np.uint8))
        rank.dma(np.full(rank.nr_dpus, 1 << 20))

        def step(d, below, over):
            rows[d] = (below.copy(), over.copy())
            return np.full(100, d + 1, np.uint8)

        rank.map(step, (0, 4096), (200, 300), into=(250, 100))

    _dirty_pool()
    rank = Rank(RankConfig(0, 4))
    _launch(body, rank)
    assert len(rows) == 4
    for d, (below, over) in rows.items():
        assert not below.any() and not over.any(), d
    for d, dpu in enumerate(rank.dpus):
        head = dpu.mram.read(0, SEGMENT_SIZE)
        assert (head[250:350] == d + 1).all()
        assert not head[:250].any() and not head[350:].any()


@pytest.mark.parametrize("cores, floor", [(1, copies.FLOOR), (8, 0)])
def test_a_present_input_the_store_overlaps_is_read_before_it(
        monkeypatch, cores, floor):
    _with(monkeypatch, cores, floor)

    def body(rank: RankContext) -> None:
        for dpu in rank.dpus:
            dpu.mram.write(0, np.arange(64, dtype=np.uint8))
        rank.dma(np.full(rank.nr_dpus, 1 << 20))
        rank.map(lambda d, row: row[::-1], (0, 64), into=(16, 64))

    rank = Rank(RankConfig(0, 4))
    _launch(body, rank)
    for dpu in rank.dpus:
        got = dpu.mram.read(0, 80)
        assert (got[:16] == np.arange(16)).all()
        assert (got[16:] == np.arange(64)[::-1]).all()


@pytest.mark.parametrize("cores, floor", [(1, copies.FLOOR), (2, 0), (8, 0)])
def test_a_wrong_size_row_faults_the_launch(monkeypatch, cores, floor):
    """The store of DPU 1 is refused and left zero (a stale segment of a
    recycled extent included), every other step runs and stores, and
    every DPU of the launch ends in FAULT."""
    _with(monkeypatch, cores, floor)
    stored = []

    def body(rank: RankContext) -> None:
        rank.dma(np.full(rank.nr_dpus, 1 << 20))
        try:
            rank.map(lambda d, row: np.full(16 if d == 1 else 8, 7, np.uint8),
                     (0, 8), into=(SEGMENT_SIZE - 4, 8))
        finally:
            stored.extend(dpu.mram.read(0, 2 * SEGMENT_SIZE)
                          for dpu in rank.dpus)

    _dirty_pool()
    rank = Rank(RankConfig(0, 8))
    with pytest.raises(DpuFaultError, match="DPU 1 of the launch"):
        _launch(body, rank)
    assert all(dpu.state is DpuState.FAULT for dpu in rank.dpus)
    for d, got in enumerate(stored):
        assert (got[SEGMENT_SIZE - 4:SEGMENT_SIZE + 4] == 7 * (d != 1)).all()
        assert not got[:SEGMENT_SIZE - 4].any()
        assert not got[SEGMENT_SIZE + 4:].any()


def test_the_lowest_failing_dpu_is_raised(monkeypatch):
    """Every step runs; the failing ones leave their stores zero."""
    _with(monkeypatch, 8, 0)
    stored = []

    class Boom(Exception):
        pass

    def step(d, row):
        if d in (2, 5, 6):
            raise Boom(d)
        return np.full(8, d, np.uint8)

    def body(rank: RankContext) -> None:
        rank.dma(np.full(rank.nr_dpus, 1 << 20))
        try:
            rank.map(step, (0, 8), into=(0, 8))
        finally:
            stored.extend(dpu.mram.read(0, 8).tolist() for dpu in rank.dpus)

    for _ in range(20):
        with pytest.raises(Boom) as caught:
            _launch(body, Rank(RankConfig(0, 8)))
        assert caught.value.args == (2,)
        assert stored == [[0 if d in (2, 5, 6) else d] * 8 for d in range(8)]
        del stored[:]


def test_a_failed_hand_out_raises_the_lowest_run_every_time(monkeypatch):
    """Runs 1 and 3 of a copy fan-out fail, run 1 last; run 1's error is
    raised, not the one that completed first, and with the calling
    thread's own run 0 failing too, run 0's."""
    monkeypatch.setattr(copies, "CORES", 8)
    copy = copies.copy
    failing = {1, 3}

    def tagging(pieces):
        tag = int(pieces[0][1][0])
        if tag == 1:
            time.sleep(0.005)
        if tag in failing:
            raise ValueError(tag)
        copy(pieces)

    monkeypatch.setattr(copies, "copy", tagging)
    size = 1 << 20
    groups = [[(np.empty(size, np.uint8), np.full(size, run, np.uint8))]
              for run in range(8)]
    for _ in range(20):
        with pytest.raises(ValueError) as caught:
            bounded(copies.fan_out, groups)
        assert caught.value.args == (1,)
        assert copies._tasks.empty()
    failing.add(0)
    with pytest.raises(ValueError) as caught:
        bounded(copies.fan_out, groups)
    assert caught.value.args == (0,)


def test_only_steps_and_copies_leave_the_calling_thread(monkeypatch):
    """Launches of the eight rank-form apps fan their steps out; workers
    run ``_serve``, ``copy``, the map's runner and the programs' own
    functions, nothing else of the package."""
    _with(monkeypatch, 2, 0)
    monkeypatch.setattr(copies, "_workers", [])
    monkeypatch.setattr(copies, "_tasks", copies.queue.SimpleQueue())
    gc.collect()    # as in test_parallel_copies: earlier tests' cycles
    idents = set()
    for owner, names in CALLING_THREAD_ONLY + [
            (RankContext, ("map", "dma", "charge", "mem_alloc", "split",
                           "read_ragged", "stats", "host_u32", "host_i64",
                           "set_host_u32", "set_host_i64"))]:
        for name in names:
            original = vars(owner)[name]

            def recording(*args, _original=original, **kwargs):
                idents.add(threading.get_ident())
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, recording)
    worker_calls = set()

    def profile(frame, event, _arg):
        if (event == "call" and frame.f_code.co_filename.startswith(REPO)
                and threading.current_thread().name.startswith(
                    "repro-copies")):
            worker_calls.add((os.path.relpath(frame.f_code.co_filename, REPO),
                              frame.f_code.co_name))

    def run_apps():
        vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=NR_DPUS))
        session = vpim.native_session()
        for name in RANK_FORM_APPS + ("quickstart",):
            app = _app(name)
            assert app.verify(app.run(session.transport))
        return set(idents)

    threading.setprofile(profile)
    try:
        callers = bounded(run_apps)
    finally:
        threading.setprofile(None)
    assert len(callers) == 1
    assert ("src/repro/sdk/kernel.py", "_run_steps") in worker_calls
    others = {(path, name) for path, name in worker_calls
              if not path.startswith(("src/repro/apps/", "examples/"))}
    assert others <= {("src/repro/hardware/copies.py", "_serve"),
                      ("src/repro/hardware/copies.py", "copy"),
                      ("src/repro/sdk/kernel.py", "_run_steps")}
