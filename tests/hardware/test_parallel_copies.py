"""Rank transfers fan their copies out; nothing else leaves the thread.

A multi-DPU rank operation of at least ``copies.FLOOR`` bytes copies on
every usable core (``docs/performance.md``, "Rank transfers use the
host's cores").  These tests force the core count through the module
and check what must not change: the bytes (against the one-core loop),
the order of one DPU's pieces, failures, the one-core case, and that
every check, region update, metric and span stays on the calling thread.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro.config import RankConfig, small_machine
from repro.core import VPim
from repro.hardware import copies, memory
from repro.hardware.memory import (
    EXTENT_BYTES,
    EXTENT_POOL,
    BlockRecycler,
    MemoryRegion,
)
from repro.hardware.rank import Rank, ReadSpec, WriteSpec
from repro.observability.metrics import CounterChild, GaugeChild, HistogramChild
from repro.observability.spans import SpanRecorder
from repro.sdk.dpu_set import DpuSet

#: Seconds any one operation may take before the test calls it hung.
JOIN_S = 60.0
MB = 1 << 20
EXT = EXTENT_BYTES


def bounded(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` on a thread joined with a timeout: a
    fan-out that never joins fails the test instead of hanging it."""
    box = {}

    def run():
        try:
            box["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # handed to the test thread
            box["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(JOIN_S)
    assert not thread.is_alive(), f"{fn.__name__} did not return"
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.fixture
def copiers(monkeypatch):
    """The thread idents that ran ``copies.copy``, one entry per run."""
    idents = []
    copy = copies.copy

    def spy(pieces):
        idents.append(threading.get_ident())
        copy(pieces)

    monkeypatch.setattr(copies, "copy", spy)
    return idents


def _payload(seed: int, size: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8)


def _dirty_pool() -> None:
    """Leave two whole extents of 0xAB at the top of the pool: the next
    regions to materialize get them as they are."""
    junk = MemoryRegion(2 * EXT, "junk")
    junk.write(0, np.full(2 * EXT, 0xAB, dtype=np.uint8))
    junk.fill(0)


#: ``(DPU, offset, length)`` of each write: partial segments, a span
#: across the 16 MB extent boundary, a row of length 0, whole segments,
#: and DPU 0 twice, overlapping.
WRITES = [(0, 100, 70_000), (1, EXT - 40_000, 100_000), (2, 0, 0),
          (3, 0, 64 << 10), (0, 50_000, 40_000), (4, 3, 7)]
PINNED = [(1, EXT - 8_000, 20_000), (5, 0, 300_000), (6, EXT - 1, 2),
          (5, 200_000, 1_000)]
#: Reads over absent DPUs (7), partly present segments, the extent
#: boundary and rows of length 0.
READS = [(7, 0, 200_000), (0, 0, 256 << 10), (1, EXT - 128_000, 256_000),
         (2, 0, 0), (4, 0, 70_000), (6, EXT - 70_000, 140_000)]
WINDOWS = [(0, 300_000), (EXT - 300_000, 600_000)]


def _scenario(rank: Rank) -> list:
    """Every transfer kind against ``rank``; returns all it can see."""
    seen = []
    rank.write_mram([WriteSpec(d, off, _payload(i, n))
                     for i, (d, off, n) in enumerate(WRITES)])
    pinned = rank.pin_mram_write([WriteSpec(d, off, np.empty(n, np.uint8))
                                  for d, off, n in PINNED])
    rank.write_mram_pinned(pinned, [_payload(10 + i, n)
                                    for i, (_, _, n) in enumerate(PINNED)])
    specs = [ReadSpec(d, off, n) for d, off, n in READS]
    into = [np.full(n, 0xEE, dtype=np.uint8) for _, _, n in READS]
    rows, _ = rank.read_mram(specs, into=into)
    seen.append([row.tobytes() for row in rows])
    rows, _ = rank.read_mram(specs, blocks=BlockRecycler())
    seen.append([row.tobytes() for row in rows])
    for dpu in rank.dpus:
        mram = dpu.mram
        seen.append([mram.read(off, n).tobytes() for off, n in WINDOWS])
        seen.append((mram.materialized_bytes,
                     {i: (m == memory._PRESENT).tobytes()
                      for i, m in mram._masks.items()}))
    seen.append((dict(rank.xfer_ops), dict(rank.xfer_bytes)))
    return seen


def _run_scenario(monkeypatch, cores: int, floor: int) -> list:
    monkeypatch.setattr(copies, "CORES", cores)
    monkeypatch.setattr(copies, "FLOOR", floor)
    _dirty_pool()
    rank = Rank(RankConfig(0, 8))
    return bounded(_scenario, rank)


@pytest.mark.parametrize("cores", [2, 8])
def test_fanned_out_transfers_are_bit_identical_to_the_one_core_loop(
        monkeypatch, copiers, cores):
    reference = _run_scenario(monkeypatch, 1, copies.FLOOR)
    assert copiers == []                    # the one-core loop, no fan-out
    fanned = _run_scenario(monkeypatch, cores, 0)
    assert len(set(copiers)) >= 2           # workers did copy
    assert fanned == reference


@pytest.mark.parametrize("pinned", [False, True])
def test_the_last_of_two_overlapping_specs_for_one_dpu_wins(
        monkeypatch, copiers, pinned):
    monkeypatch.setattr(copies, "CORES", 2)
    rank = Rank(RankConfig(0, 8))
    specs = [WriteSpec(0, 0, np.full(2 * MB, 0x11, np.uint8)),
             WriteSpec(1, 0, np.full(2 * MB, 0x22, np.uint8)),
             WriteSpec(0, MB, np.full(2 * MB, 0x33, np.uint8))]
    assert sum(s.data.size for s in specs) >= copies.FLOOR
    if pinned:
        bounded(rank.write_mram_pinned, rank.pin_mram_write(specs),
                [s.data for s in specs])
    else:
        bounded(rank.write_mram, specs)
    assert len(set(copiers)) == 2
    got = rank.dpu(0).mram.read(0, 3 * MB)
    assert (got[:MB] == 0x11).all() and (got[MB:] == 0x33).all()
    assert (rank.dpu(1).mram.read(0, 2 * MB) == 0x22).all()


@pytest.mark.parametrize("bad_row", [0, 7])
def test_a_failing_copy_raises_after_every_group_joined(monkeypatch, bad_row):
    monkeypatch.setattr(copies, "CORES", 8)
    running = []
    copy = copies.copy

    def tracked(pieces):
        running.append(1)
        try:
            copy(pieces)
        finally:
            running.pop()

    monkeypatch.setattr(copies, "copy", tracked)
    rank = Rank(RankConfig(0, 8))
    rank.write_mram([WriteSpec(d, 0, np.full(MB, d, np.uint8))
                     for d in range(8)])
    into = [np.zeros(MB, np.uint8) for _ in range(8)]
    into[bad_row].flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        bounded(rank.read_mram, [ReadSpec(d, 0, MB) for d in range(8)],
                into=into)
    assert running == []                    # no worker still copies
    assert copies._tasks.empty()
    for d, row in enumerate(into):          # every other group ran
        assert d == bad_row or (row == d).all()
    assert rank.xfer_ops.get("read", 0) == 0    # nothing was accounted


@pytest.mark.parametrize("fails", [False, True])
def test_no_collection_starts_on_a_worker(monkeypatch, fails):
    """A collection runs the finalizers of what it frees (a region's
    extent release, a block's return) on the thread that started it: a
    worker that allocates must not start one, and collection is back on
    after the join, whether or not a copy failed."""
    monkeypatch.setattr(copies, "CORES", 2)
    copy = copies.copy

    def allocating(pieces):
        garbage = [[] for _ in range(5 * gc.get_threshold()[0])]
        del garbage
        copy(pieces)

    monkeypatch.setattr(copies, "copy", allocating)
    collectors = []

    def started(phase, _info):
        if phase == "start":
            collectors.append(threading.current_thread().name)

    rank = Rank(RankConfig(0, 8))
    into = [np.zeros(MB, np.uint8) for _ in range(8)]
    into[7].flags.writeable = not fails
    gc.callbacks.append(started)
    try:
        bounded(rank.write_mram, [WriteSpec(d, 0, np.full(MB, d, np.uint8))
                                  for d in range(8)])
        try:
            bounded(rank.read_mram, [ReadSpec(d, 0, MB) for d in range(8)],
                    into=into)
        except ValueError:
            assert fails
    finally:
        gc.callbacks.remove(started)
    assert gc.isenabled()
    assert not [name for name in collectors
                if name.startswith("repro-copies")]


def test_one_core_starts_no_thread(monkeypatch, copiers):
    monkeypatch.setattr(copies, "CORES", 1)
    threads, workers = threading.active_count(), list(copies._workers)
    rank = Rank(RankConfig(0, 8))
    rank.write_mram([WriteSpec(d, 0, np.full(MB, d, np.uint8))
                     for d in range(8)])
    rows, _ = rank.read_mram([ReadSpec(d, 0, MB) for d in range(8)])
    assert all((row == d).all() for d, row in enumerate(rows))
    assert copiers == []
    assert threading.active_count() == threads
    assert copies._workers == workers


def test_the_core_count_is_the_affinity_mask():
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no affinity mask on this platform")
    code = ("import os, threading\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import numpy as np\n"
            "from repro.config import RankConfig\n"
            "from repro.hardware import copies\n"
            "from repro.hardware.rank import Rank, WriteSpec\n"
            "rank = Rank(RankConfig(0, 8))\n"
            "rank.write_mram([WriteSpec(d, 0, np.ones(1 << 20, np.uint8))\n"
            "                 for d in range(8)])\n"
            "print(copies.CORES, threading.active_count())\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=JOIN_S, check=True, env=env)
    assert out.stdout.split() == ["1", "1"]


#: What ``benchmarks/perf/layers.py`` wraps below the SDK, plus every
#: metric, span, extent-pool and result-block touch.  The profile hook of
#: the test below catches anything else a worker might call.
CALLING_THREAD_ONLY = [
    (Rank, ("write_mram", "write_mram_pinned", "pin_mram_write", "read_mram",
            "launch", "reset", "_account")),
    (MemoryRegion, ("read", "read_into", "write", "fill", "pin_span",
                    "pin_chunks", "read_pieces", "write_pieces")),
    (SpanRecorder, ("begin", "event", "end")),
    (CounterChild, ("inc",)),
    (GaugeChild, ("inc", "set")),
    (HistogramChild, ("observe",)),
    (type(EXTENT_POOL), ("acquire", "release_all")),
    (BlockRecycler, ("take", "_came_back")),
]


@pytest.mark.parametrize("mode", ["vm", "native"])
def test_only_copies_leave_the_calling_thread(monkeypatch, copiers, mode):
    monkeypatch.setattr(copies, "CORES", 2)
    # Fresh workers, so that the profile hook below is theirs too.
    monkeypatch.setattr(copies, "_workers", [])
    monkeypatch.setattr(copies, "_tasks", copies.queue.SimpleQueue())
    # Earlier tests' cyclic garbage (regions whose ``__del__`` releases
    # extents) is finalized now: a collection that ``bounded`` started on
    # this thread would otherwise count it as a second caller.
    gc.collect()
    idents = set()
    for owner, names in CALLING_THREAD_ONLY:
        for name in names:
            original = vars(owner)[name]

            def recording(*args, _original=original, **kwargs):
                idents.add(threading.get_ident())
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, recording)
    worker_calls = set()
    src = os.path.dirname(os.path.abspath(repro.__file__))

    def profile(frame, event, _arg):
        if (event == "call" and frame.f_code.co_filename.startswith(src)
                and threading.current_thread().name.startswith(
                    "repro-copies")):
            worker_calls.add(frame.f_code.co_name)

    def push_and_read():
        vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8))
        session = (vpim.vm_session(nr_vupmem=1) if mode == "vm"
                   else vpim.native_session())
        rows = [_payload(d, MB) for d in range(8)]
        with DpuSet(session.transport, 8) as dpus:
            for _ in range(2):              # compile, then replay
                dpus.push_to_mram(0, rows)
                back = dpus.push_from_mram(0, MB)
                assert all(np.array_equal(a, b) for a, b in zip(back, rows))
            del back
        return set(idents)

    threading.setprofile(profile)
    try:
        callers = bounded(push_and_read)
    finally:
        threading.setprofile(None)
    assert len(set(copiers)) == 2           # the transfers did fan out
    assert len(callers) == 1
    assert worker_calls == {"_serve", "copy"}


def test_repeated_operations_under_stress_stay_bit_identical(monkeypatch):
    """More workers than cores, a thread switch every microsecond."""
    monkeypatch.setattr(copies, "CORES", 8)
    rank = Rank(RankConfig(0, 8))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(12):
            size = MB + 4099 * i
            rows = [_payload(100 * i + d, size) for d in range(8)]
            offset = (i % 3) * (EXT - size // 2)
            bounded(rank.write_mram, [WriteSpec(d, offset, rows[d])
                                      for d in range(8)])
            specs = [ReadSpec(d, offset, size) for d in range(8)]
            back, _ = bounded(rank.read_mram, specs)
            assert all(np.array_equal(a, b) for a, b in zip(back, rows))
            into = [np.empty(size, np.uint8) for _ in range(8)]
            bounded(rank.read_mram, specs, into=into)
            assert all(np.array_equal(a, b) for a, b in zip(into, rows))
    finally:
        sys.setswitchinterval(interval)
