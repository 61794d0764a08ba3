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

import gc
import os
import sys
from collections import Counter

import numpy as np
import pytest

import repro
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

#: Calls under ``src/repro`` per copy of the sequence below, before the
#: change that set this budget: a counted trace then still built a
#: ``Trace`` and bumped a metric child per span, and a replay rebuilt
#: the steps its plan fixes.  The budget stays at least 20 % below it.
PARENT_CALLS_PER_COPY = 131.0
CALLS_PER_COPY_BUDGET = 87.0


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


def _count_repro_calls(run) -> Counter:
    """Python calls of named functions under ``src/repro`` while ``run``
    executes, by module path (comprehension and generator frames are
    left out: whether they are frames at all depends on the Python
    version).  Earlier garbage is collected first: the finalizers a
    collection inside ``run`` would call are not ``run``'s steps."""
    gc.collect()
    calls: Counter = Counter()

    def profile(frame, event, _arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(SRC)
                and not code.co_name.startswith("<")):
            calls[code.co_filename[len(SRC):]] += 1

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
    compiled = frontend.plans.counts["misses"]
    calls = _count_repro_calls(lambda: _copies(dpus))
    assert frontend.plans.counts["misses"] == compiled        # every request replayed
    copies = 2 * ROUNDS
    per_copy = sum(calls.values()) / copies
    print(f"calls under src/repro per copy: {per_copy:.1f}")
    assert CALLS_PER_COPY_BUDGET <= 0.8 * PARENT_CALLS_PER_COPY
    by_module = "\n".join(f"  {n / copies:6.1f}  {module}"
                          for module, n in calls.most_common())
    assert per_copy <= CALLS_PER_COPY_BUDGET, (
        f"{per_copy:.1f} calls per copy, budget {CALLS_PER_COPY_BUDGET}; "
        f"per module:\n{by_module}")


def test_a_replay_reads_the_plans_own_lists(one_rank, monkeypatch):
    _vpim, session, dpus = one_rank
    device = session.vm.devices[0]
    cost, threads = device.backend.cost, device.backend.translation_threads
    payload = np.arange(8192, dtype=np.uint8)
    dpus.copy_to_mram(3, SLOT, payload)             # compiles the plan
    (plan,) = [p for p in device.frontend.plans._plans.values()
               if p.entries[0].size == payload.size]
    fixed = ({"Page": 2 * cost.page_mgmt_per_page,
              "Ser": 2 * cost.serialize_per_page,
              "Int": cost.vmexit_cost + cost.event_dispatch_cost,
              "QoS": 0.0, "Backend": 0.0, "Irq": cost.irq_inject_cost},
             {(threads, False): cost.backend_steps(
                 "write_rank", [2], 0, threads, False)})

    bound, costed = [], []
    bind = device.frontend.memory.bind

    def spy_bind(gpas, buffers):
        bound.append(gpas)
        bind(gpas, buffers)

    def spy_steps(name):
        def spy(_cost, *args, **kwargs):
            costed.append(name)
            raise AssertionError(f"a replay worked out {name}")
        return spy

    monkeypatch.setattr(device.frontend.memory, "bind", spy_bind)
    for name in ("roundtrip_steps", "backend_steps"):
        monkeypatch.setattr(CostModel, name, spy_steps(name))
    for _ in range(2):                              # two consecutive replays
        dpus.copy_to_mram(3, SLOT, payload)
    assert plan.replays == 2 and costed == []
    assert len(bound) == 2 and all(g is plan.payload_gpas for g in bound)
    assert plan.payload_gpas == [gpa for _, _, gpa
                                 in plan.sreq.data_descriptors]
    assert plan.entry_pages == [2] and plan.sreq.total_pages == 2
    # Each replay filled in a copy: QoS, Backend and T-data stay open.
    assert (plan.roundtrip_steps, plan.backend_steps) == fixed


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


#: ``kind -> (count, time.hex())`` of the profiler's driver ops over
#: the first eight rounds after a warm-up pass plus one prefetch-cache
#: hit, captured before the Chrome-trace exporter was removed (its event
#: durations summed to these; its starts came from span cursors, which
#: counting a trace must not move, and are pinned by the span exports).
PARENT_DRIVER_OPS = {
    "R-rank": (9, "0x1.365265b77aef5p-9"),
    "W-rank": (14, "0x1.d192d7a091d8bp-11"),
}


def test_driver_ops_are_the_parents(one_rank):
    _vpim, session, dpus = one_rank
    _copies(dpus)           # the retained list is full: traces are counted
    profiler = session.transport.profiler
    profiler.reset()
    _copies(dpus, rounds=8)
    # Round 7 wrote DPU 3 at slot 1: this read is a prefetch-cache hit.
    dpus.copy_from_mram(3, SLOT, 64)
    assert {kind: (stats.count, stats.time.hex())
            for kind, stats in profiler.driver.items()} == PARENT_DRIVER_OPS
