"""Step guard: what one replayed small copy may execute, in steps not time.

A small serial copy is a replay: its plan is compiled, its trace cannot
be retained.  What it still computes is what varies per request; what the
plan key, the frontend's options or the set's rank count determine is
read from where it was worked out (``docs/performance.md``, "The
small-copy path").  Deterministic: Python ``call`` events of functions
defined under ``src/repro`` are counted, not timed, so neither the box
nor the Python or numpy version moves the number.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

import repro
from repro.analysis.trace import Tracer
from repro.config import small_machine
from repro.core import VPim
from repro.errors import TransferError
from repro.hardware.timing import CostModel
from repro.sdk.dpu_set import DpuSet
from repro.sdk.transfer import DpuEntry

SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
NR_DPUS = 16
SIZES = (64, 512, 4096, 8192, 16384)
SLOT = 16 << 10
ROUNDS = 60

#: Calls under ``src/repro`` per copy of the sequence below.  PR 23 (the
#: parent of the change that added this guard) executed 166.8; that
#: change left 131.2, and the budget stays at least 20 % below the parent.
PARENT_CALLS_PER_COPY = 166.8
CALLS_PER_COPY_BUDGET = 132.0


def _copies(dpus: DpuSet, rounds: int = ROUNDS) -> None:
    """``2 * rounds`` single-DPU copies, the same every time: each write
    is read back, so the batch buffer is empty and the prefetch cache
    invalid again after every pair."""
    for i in range(rounds):
        dpu, size = (i * 5) % NR_DPUS, SIZES[i % len(SIZES)]
        offset = (i % 3) * SLOT
        payload = np.full(size, i % 251, dtype=np.uint8)
        dpus.copy_to_mram(dpu, offset, payload)
        got = dpus.copy_from_mram(dpu, offset, size)
        assert np.array_equal(got, payload)


@pytest.fixture
def one_rank():
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=NR_DPUS))
    vpim.spans.max_traces = 16
    session = vpim.vm_session(nr_vupmem=1)
    with DpuSet(session.transport, NR_DPUS) as dpus:
        yield vpim, session, dpus


def _count_repro_calls(run) -> int:
    """Python calls of named functions under ``src/repro`` while ``run``
    executes (comprehension and generator frames are left out: whether
    they are frames at all depends on the Python version)."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(SRC)
                and not code.co_name.startswith("<")):
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_a_replayed_small_copy_stays_inside_its_step_budget(one_rank):
    vpim, session, dpus = one_rank
    frontend = session.vm.devices[0].frontend
    _copies(dpus)           # fills the retained list, compiles every plan
    assert len(vpim.spans.traces) == vpim.spans.max_traces
    compiled = frontend.plans.misses
    calls = _count_repro_calls(lambda: _copies(dpus))
    assert frontend.plans.misses == compiled        # every request replayed
    per_copy = calls / (2 * ROUNDS)
    print(f"calls under src/repro per copy: {per_copy:.1f}")
    assert CALLS_PER_COPY_BUDGET <= 0.8 * PARENT_CALLS_PER_COPY
    assert per_copy <= CALLS_PER_COPY_BUDGET


def test_a_replay_reads_the_plans_own_lists(one_rank, monkeypatch):
    _vpim, session, dpus = one_rank
    device = session.vm.devices[0]
    payload = np.arange(8192, dtype=np.uint8)
    dpus.copy_to_mram(3, SLOT, payload)             # compiles the plan
    (plan,) = [p for p in device.frontend.plans._plans.values()
               if p.entries[0].size == payload.size]

    bound, costed = [], []
    bind = device.frontend.memory.bind
    backend_steps = CostModel.backend_steps

    def spy_bind(gpas, buffers):
        bound.append(gpas)
        bind(gpas, buffers)

    def spy_steps(cost, kind, entry_pages=(), *args, **kwargs):
        costed.append(entry_pages)
        return backend_steps(cost, kind, entry_pages, *args, **kwargs)

    monkeypatch.setattr(device.frontend.memory, "bind", spy_bind)
    monkeypatch.setattr(CostModel, "backend_steps", spy_steps)
    for _ in range(2):                              # two consecutive replays
        dpus.copy_to_mram(3, SLOT, payload)
    assert plan.replays == 2
    assert len(bound) == 2 and all(g is plan.payload_gpas for g in bound)
    assert len(costed) == 2 and all(p is plan.entry_pages for p in costed)
    assert plan.payload_gpas == [gpa for _, _, gpa
                                 in plan.sreq.data_descriptors]
    assert plan.entry_pages == [2] and plan.sreq.total_pages == 2


@pytest.mark.parametrize("nr_ranks, entries_per_copy", [(1, 1), (2, 2)])
def test_a_one_rank_set_passes_its_entries_through(
        nr_ranks, entries_per_copy, monkeypatch):
    vpim = VPim(small_machine(nr_ranks=nr_ranks, dpus_per_rank=8))
    session = vpim.vm_session(nr_vupmem=nr_ranks)
    built = []
    init = DpuEntry.__init__

    def counting_init(entry, *args, **kwargs):
        built.append(entry)
        init(entry, *args, **kwargs)

    with DpuSet(session.transport, 8 * nr_ranks) as dpus:
        # Two pages: too large to batch, so nothing below the set builds
        # an entry for it.
        payload = np.arange(8192, dtype=np.uint8)
        monkeypatch.setattr(DpuEntry, "__init__", counting_init)
        dpus.copy_to_mram(8 * nr_ranks - 1, 0, payload)
        assert len(built) == entries_per_copy
        monkeypatch.undo()
        assert np.array_equal(
            dpus.copy_from_mram(8 * nr_ranks - 1, 0, 8192), payload)


def test_rows_come_back_in_set_order_and_bad_indices_are_refused():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    session = vpim.vm_session(nr_vupmem=2)
    with DpuSet(session.transport, 16) as dpus:
        assert len(dpus.channels) == 2
        rows = [np.full(512, i, dtype=np.uint8) for i in range(16)]
        dpus.push_to_mram(0, rows)
        back = dpus.push_from_mram(0, 512)
        assert len(back) == 16
        assert all(np.array_equal(a, b) for a, b in zip(back, rows))
        assert np.array_equal(dpus.copy_from_mram(11, 0, 512), rows[11])
    with DpuSet(session.transport, 8) as dpus:
        assert len(dpus.channels) == 1
        with pytest.raises(TransferError) as refused:
            dpus.copy_to_mram(8, 0, np.zeros(64, dtype=np.uint8))
        assert str(refused.value) == "entry targets DPU 8, set has 8"
        with pytest.raises(TransferError) as refused:
            dpus.copy_from_mram(-1, 0, 64)
        assert str(refused.value) == "entry targets DPU -1, set has 8"


#: ``(kind, start, duration)`` of the tracer's events over the first
#: eight rounds after a warm-up pass plus one prefetch-cache hit, captured
#: from PR 23: event starts come from span cursors, which counting a
#: trace must not move.
PARENT_EVENTS = [
    ("W-rank", "0x1.8090a4726d005p-3", "0x1.4ab66534eba2bp-22"),
    ("W-rank", "0x1.8090cdc939a6fp-3", "0x1.9b8b8380c8b48p-14"),
    ("R-rank", "0x1.80c43f39a9c00p-3", "0x1.364810045147fp-12"),
    ("W-rank", "0x1.815f6341abe8bp-3", "0x1.86d78ee17391bp-22"),
    ("W-rank", "0x1.815f941c9dc4ep-3", "0x1.a11f5a090aa5cp-14"),
    ("R-rank", "0x1.8193b807dee63p-3", "0x1.364810045147fp-12"),
    ("W-rank", "0x1.822edc0fe10eep-3", "0x1.b3f06e22d9850p-21"),
    ("W-rank", "0x1.822f490bfc979p-3", "0x1.cdbe0e4b1a2f8p-14"),
    ("R-rank", "0x1.826900cdc5fadp-3", "0x1.364810045147fp-12"),
    ("W-rank", "0x1.830424d5c8238p-3", "0x1.00d9c48a05fdap-13"),
    ("R-rank", "0x1.83445b46eaa50p-3", "0x1.364810045147fp-12"),
    ("W-rank", "0x1.83df7f4eeccdap-3", "0x1.34cf3f52f7c96p-13"),
    ("R-rank", "0x1.842cb31ec18b9p-3", "0x1.364810045147fp-12"),
    ("W-rank", "0x1.84c7d726c3b43p-3", "0x1.4ab66534eba2bp-22"),
    ("W-rank", "0x1.84c8007d905adp-3", "0x1.9b8b8380c8b48p-14"),
    ("R-rank", "0x1.84fb71ee0073ep-3", "0x1.364810045147fp-12"),
    ("W-rank", "0x1.859695f6029c9p-3", "0x1.86d78ee17391bp-22"),
    ("W-rank", "0x1.8596c6d0f478cp-3", "0x1.a11f5a090aa5cp-14"),
    ("R-rank", "0x1.85caeabc359a1p-3", "0x1.364810045147fp-12"),
    ("W-rank", "0x1.86660ec437c2cp-3", "0x1.b3f06e22d9850p-21"),
    ("W-rank", "0x1.86667bc0534b7p-3", "0x1.cdbe0e4b1a2f8p-14"),
    ("R-rank", "0x1.86a033821caebp-3", "0x1.364810045147fp-12"),
    ("R-rank", "0x1.873b578a1ed76p-3", "0x1.4ab66534eba2bp-22"),
]


def test_tracer_events_are_the_parents(one_rank):
    _vpim, session, dpus = one_rank
    _copies(dpus)           # the retained list is full: traces are counted
    tracer = session.transport.profiler.tracer = Tracer()
    _copies(dpus, rounds=8)
    # Round 7 wrote DPU 3 at slot 1: this read is a prefetch-cache hit.
    dpus.copy_from_mram(3, SLOT, 64)
    events = [(e.name, e.start.hex(), e.duration.hex())
              for e in tracer.events]
    assert events == PARENT_EVENTS
