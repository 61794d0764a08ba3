"""Count guard: a plan's wire metadata is one reserved run, pinned once.

The compiler sizes the chain by arithmetic and then places it
(``docs/performance.md``, "plan cache"): one ``reserve_pages`` and one
``pin_span`` per compile whatever the entry count, every wire buffer
carved from that run, and a refusal found before either call, so a
refused compile has nothing to roll back.  Counted, not timed — a page
reserved and pinned per buffer (130 + 130 calls and 520 KB of guest RAM
for a full-rank shape) must fail here and in CI's ``perf-smoke`` job.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE, small_machine
from repro.core import VPim
from repro.sdk.dpu_set import DpuSet
from repro.sdk.transfer import DpuEntry, TransferMatrix, XferKind
from repro.virt.guest_memory import GuestMemory
from repro.virt.plans import PlanUnsupported
from repro.virt.serialization import RequestHeader, RequestKind

from tests.virt.test_plans_property import _allocator_state, _compile

NR_DPUS = 64
SIZE = 17 * PAGE_SIZE       # past the batch buffer and the prefetch line


def _count_placements(monkeypatch) -> Counter:
    """``method -> calls`` of the two placing methods while installed."""
    calls: Counter = Counter()
    for method in ("reserve_pages", "pin_span"):
        def counting(memory, *args, _original=getattr(GuestMemory, method),
                     _method=method):
            calls[_method] += 1
            return _original(memory, *args)

        monkeypatch.setattr(GuestMemory, method, counting)
    return calls


def _vm():
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=NR_DPUS))
    session = vpim.vm_session(nr_vupmem=1)
    return session, session.vm.devices[0].frontend


def test_a_compile_reserves_one_run_and_pins_it_once(monkeypatch):
    session, frontend = _vm()
    source = np.arange(SIZE, dtype=np.uint8)
    once = {"reserve_pages": 1, "pin_span": 1}
    with DpuSet(session.transport, NR_DPUS) as dpus:
        calls = _count_placements(monkeypatch)
        for compiling in (
                lambda: dpus.copy_to_mram(3, 0, source),            # 1 entry
                lambda: dpus.copy_from_mram(3, 0, SIZE),
                lambda: dpus.push_to_mram(0, [source] * NR_DPUS),   # 64
                lambda: dpus.push_from_mram(0, SIZE)):
            compiling()
            assert dict(calls) == once
            calls.clear()
            compiling()
            assert not calls, "a replay places nothing"
        assert (frontend.plans.counts["misses"], frontend.plans.counts["hits"]) == (4, 4)


@pytest.mark.parametrize("writing", [True, False])
def test_a_refused_compile_changes_no_guest_memory_state(monkeypatch, writing):
    """One page past the window, in both directions: the refusal is
    arithmetic, so nothing is reserved or pinned and the floor, the
    released runs and what guest RAM has materialized are exactly what
    they were — every time it is asked."""
    memory = GuestMemory(64 << 20)
    kind, request = ((XferKind.TO_DPU, RequestKind.WRITE_RANK) if writing
                     else (XferKind.FROM_DPU, RequestKind.READ_RANK))
    header = RequestHeader(request, symbol=MRAM_HEAP_SYMBOL)
    data = np.zeros(memory.window_bytes, np.uint8)

    def compile_(sizes):
        matrix = TransferMatrix(kind, MRAM_HEAP_SYMBOL, 0, [
            DpuEntry(i, n, data[:n] if writing else None)
            for i, n in enumerate(sizes)])
        return _compile(memory, header, matrix, None)

    keep = compile_([SIZE])
    dropped = compile_([600 * PAGE_SIZE])
    compile_([2 * SIZE])
    dropped.release(memory)         # with a plan below it: released room
    assert memory._released
    state = _allocator_state(memory)
    third = memory.window_bytes // 3 // PAGE_SIZE * PAGE_SIZE
    sizes = [third, third, memory.window_bytes - 2 * third + PAGE_SIZE]
    calls = _count_placements(monkeypatch)
    for _attempt in range(3):
        with pytest.raises(PlanUnsupported, match="payload window"):
            compile_(sizes)
        assert not calls and _allocator_state(memory) == state
    sizes[-1] -= PAGE_SIZE          # ends on the window's last page
    plan = compile_(sizes)
    assert dict(calls) == {"reserve_pages": 1, "pin_span": 1}
    run, nr_pages = plan.reservation
    payload_end = plan.sreq.data_descriptors[-1][2] + sizes[-1]
    assert payload_end == memory._window_end <= run
    assert run + nr_pages * PAGE_SIZE <= keep.reservation[0]


def test_two_hundred_full_rank_plans_stay_under_two_megabytes():
    session, frontend = _vm()
    source = np.zeros(2 * PAGE_SIZE, np.uint8)
    with DpuSet(session.transport, NR_DPUS) as dpus:
        for shape in range(200):
            dpus.push_to_mram(8 * shape, [source] * NR_DPUS)
        assert frontend.plans.nr_plans == 200
        assert frontend.memory.region.materialized_bytes < 2 << 20
