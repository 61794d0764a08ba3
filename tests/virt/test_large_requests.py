"""Requests larger than an extent, than the arena, up to the window's edge.

Guest RAM is three disjoint regions (``GuestMemory``): the rolling arena
holds the bytes that really move, the payload window holds addresses
only, and a plan's payload run may be of any size anywhere in the window.
So a data request leaves the planned path for one reason — its payload
ends past the window — and every shape below that edge must compile
once, replay afterwards, move no byte through guest RAM and change
nothing an application or the cost model can see (paper R3).

The guests are small (32 MB with a 4 MB arena: a 26 MB window) so the
edges are cheap to reach; the wire reference (``tests.conftest.wire_path``:
every compile refused) runs in a guest whose arena holds every chain
drawn here.  ``firecracker.GuestMemory`` is patched for the arena size
because ``VmConfig`` deliberately has no option for it.
"""

from __future__ import annotations

import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.virt.backend
import repro.virt.frontend
from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE, small_machine
from repro.core import VPim
from repro.errors import TranslationError
from repro.hardware.memory import EXTENT_BYTES
from repro.sdk.dpu_set import DpuSet
from repro.sdk.transfer import DpuEntry, XferKind
from repro.virt.guest_memory import GuestMemory

from tests.conftest import wire_path
from tests.faults.test_pool_stability import assert_quiescent
from tests.virt.test_plans_property import _allocator_state

MB = 1 << 20
NR_DPUS = 4
ARENA = 4 * MB
GUEST = 32 * MB
#: The window of a ``GUEST``-byte guest: what the BIOS megabyte, the
#: arena and the metadata quarter leave.
WINDOW = GUEST - MB - ARENA - ARENA // 4
#: Reference guest: its default arena (half of RAM) holds any chain of
#: up to ``WINDOW`` bytes of payload.
REFERENCE_GUEST = 64 * MB

#: Payload bytes of every test: entry ``i`` of repetition ``rep`` is a
#: view at its own offset, so contents differ per DPU and per repetition
#: without generating 26 MB of random bytes each time.
_BASE = np.random.default_rng(20).integers(
    0, 256, WINDOW + 16 * PAGE_SIZE, dtype=np.uint8)


def _payload(sizes, rep):
    return [_BASE[(NR_DPUS * rep + i) * 64:][:n] for i, n in enumerate(sizes)]


def _pages(nbytes):
    return -(-nbytes // PAGE_SIZE)


def _vm(mem_bytes=GUEST, arena_bytes=ARENA):
    """``(vpim, session)`` of a one-rank VM with the given guest layout."""
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=NR_DPUS))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.virt.firecracker.GuestMemory",
                      lambda size: GuestMemory(size, arena_bytes))
        session = vpim.vm_session(nr_vupmem=1, mem_bytes=mem_bytes)
    return vpim, session


def _count_wire_path(patch) -> Counter:
    """Calls of the wire serializer and of the backend's gather/scatter —
    the second data path — while ``patch`` is installed."""
    calls: Counter = Counter()
    for module, name in ((repro.virt.frontend, "serialize_matrix"),
                         (repro.virt.backend, "gather_entry_data"),
                         (repro.virt.backend, "scatter_entry_data")):
        def counting(*args, _original=getattr(module, name), _name=name,
                     **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        patch.setattr(module, name, counting)
    return calls


def _exercise(vpim, session, sizes, reps=3):
    """Push ``sizes`` (one entry per DPU) and read them back ``reps``
    times, fresh bytes each time, checking what the application sees.
    Returns what the cost model saw — ``float.hex()`` of every
    operation's modeled duration and of the W-rank steps — and, for a VM,
    ``(guest RAM materialized, plan hits, plan misses)`` per repetition."""
    clock = vpim.machine.clock
    frontend = session.vm.devices[0].frontend if session.vm else None
    durations, states = [], []
    with DpuSet(session.transport, NR_DPUS) as dpus:
        for rep in range(reps):
            data = _payload(sizes, rep)
            t0 = clock.now
            dpus.push([DpuEntry(i, n, buf)
                       for i, (n, buf) in enumerate(zip(sizes, data))],
                      XferKind.TO_DPU, MRAM_HEAP_SYMBOL, 0)
            t1 = clock.now
            if frontend is not None:
                assert frontend.memory.nr_bound == 0
            got = dpus.push([DpuEntry(i, n) for i, n in enumerate(sizes)],
                            XferKind.FROM_DPU, MRAM_HEAP_SYMBOL, 0)
            durations += [float(t1 - t0).hex(), float(clock.now - t1).hex()]
            assert all(np.array_equal(g, d) for g, d in zip(got, data)), \
                f"{session.mode}: read-back differs at repetition {rep}"
            del got
            if frontend is not None:
                assert frontend.memory.nr_bound == 0
                states.append((frontend.memory.region.materialized_bytes,
                               frontend.plans.hits, frontend.plans.misses))
    steps = {step: float(value).hex() for step, value in
             session.transport.profiler.wrank_steps.items()}
    return (durations, steps), states


def _planned(sizes):
    vpim, session = _vm()
    frontend = session.vm.devices[0].frontend
    assert frontend.memory.window_bytes == WINDOW
    with pytest.MonkeyPatch.context() as patch:
        wire_calls = _count_wire_path(patch)
        modeled, states = _exercise(vpim, session, sizes)
    assert not wire_calls, f"planned requests took the wire path: {wire_calls}"
    # Repetition 1 compiles the write and the read plan; 2 and 3 replay.
    assert [state[1:] for state in states] == [(0, 2), (2, 2), (4, 2)]
    # The window holds no bytes: guest RAM materialized the plans'
    # metadata and the control messages — a sliver of the payload pushed —
    # and not one segment more on a replay.
    resident = [state[0] for state in states]
    assert resident[0] == resident[1] == resident[2] < sum(sizes) // 8
    assert_quiescent(session)
    return modeled


def _unplanned(sizes):
    vpim, session = _vm(REFERENCE_GUEST, 512 * MB)
    with wire_path(), pytest.MonkeyPatch.context() as patch:
        wire_calls = _count_wire_path(patch)
        modeled, states = _exercise(vpim, session, sizes)
    assert wire_calls["serialize_matrix"] == 6, "the reference is the wire"
    assert [state[1:] for state in states] == [(0, 2), (0, 4), (0, 6)]
    return modeled


def _check(sizes):
    """``sizes`` through the native, the planned and the wire transport,
    one at a time: a dead VM keeps its guest RAM and scratch buffers
    until the cycle collector runs, and three per example would pile up
    on tier-1's peak RSS."""
    assert sum(_pages(n) for n in sizes) * PAGE_SIZE <= WINDOW
    native = VPim(small_machine(nr_ranks=1, dpus_per_rank=NR_DPUS))
    _exercise(native, native.native_session(), sizes)
    del native
    gc.collect()
    planned = _planned(sizes)
    gc.collect()
    unplanned = _unplanned(sizes)
    gc.collect()
    assert planned == unplanned, "modeled durations or W-rank steps differ"


def test_one_entry_larger_than_an_extent():
    """17 MB to one DPU: no single view could pin it, and nothing has to."""
    assert 17 * MB > EXTENT_BYTES
    _check([17 * MB])


def test_request_larger_than_the_arena():
    """4 x 6 MB: six times what the rolling arena could hold as bytes."""
    assert 4 * 6 * MB > ARENA
    _check([6 * MB] * NR_DPUS)


#: Entry sizes on either side of the extent and arena edges, page-exact
#: and one byte off (a tail page).
_EDGE_SIZES = [edge + delta for edge in (EXTENT_BYTES, ARENA)
               for delta in (-PAGE_SIZE, -1, 0, 1, PAGE_SIZE)]


@st.composite
def _edge_shapes(draw):
    """1-4 entry sizes from the edges above — the longest prefix of the
    draw that fits the window — with the last optionally grown so the
    payload ends exactly on the window's edge, or one page short of it."""
    sizes, room = [], WINDOW // PAGE_SIZE
    for size in draw(st.lists(st.sampled_from(_EDGE_SIZES),
                              min_size=1, max_size=NR_DPUS)):
        if _pages(size) > room:
            break
        sizes.append(size)
        room -= _pages(size)
    spare = draw(st.sampled_from([None, 0, 1]))
    if spare is not None and room > spare:
        sizes[-1] += (room - spare) * PAGE_SIZE
    return sizes


@given(sizes=_edge_shapes())
@settings(max_examples=6, deadline=None)
def test_shapes_on_the_extent_arena_and_window_edges(sizes):
    _check(sizes)


@pytest.mark.parametrize("writing", [True, False])
def test_one_page_past_the_window_is_refused_whole(writing):
    """The planned path's one refusal, on a guest whose arena cannot hold
    the chain either: the error names the window, and nothing is left
    behind — no binding, no pool loan, no result block on loan, not a
    reserved page, not a moved cursor."""
    vpim, session = _vm()
    frontend = session.vm.devices[0].frontend
    memory, plans = frontend.memory, frontend.plans
    sizes = [WINDOW // 4] * 3 + [WINDOW // 4 + PAGE_SIZE]
    entries = [DpuEntry(i, n, np.zeros(n, np.uint8) if writing else None)
               for i, n in enumerate(sizes)]
    kind = XferKind.TO_DPU if writing else XferKind.FROM_DPU
    with DpuSet(session.transport, NR_DPUS) as dpus:
        dpus.copy_to_mram(0, 0, _BASE[:2 * PAGE_SIZE])     # a plan to keep
        state = _allocator_state(memory)
        misses = plans.misses
        for attempt in (1, 2):      # refused, asked again, refused again
            with pytest.raises(TranslationError, match=f"{WINDOW}-byte"):
                dpus.push(entries, kind, MRAM_HEAP_SYMBOL, 0)
            assert memory.nr_bound == 0
            assert _allocator_state(memory) == state
            assert (plans.nr_plans, plans.misses) == (1, misses + attempt)
        # One page less is inside the window: compiled, then replayed.
        entries[-1] = DpuEntry(3, WINDOW // 4, entries[0].data)
        dpus.push(entries, kind, MRAM_HEAP_SYMBOL, 0)
        hits = plans.hits
        dpus.push(entries, kind, MRAM_HEAP_SYMBOL, 0)
        assert plans.hits == hits + 1 and plans.nr_plans == 2
    assert_quiescent(session)


@pytest.mark.parametrize("writing", [True, False])
def test_unplanned_chain_over_the_arena_is_refused_not_wrapped(writing):
    """Regression (R3), end to end: on the wire path a 3 x 3 MB
    request on an 8 MB arena used to wrap inside its own chain and reach
    the backend with its header overwritten (``SerializationError:
    unknown request kind``, or ``GET_CONFIG`` for a zero-filled push).
    It is refused before anything is placed, and the device serves the
    next request."""
    vpim, session = _vm(arena_bytes=8 * MB)
    memory = session.vm.devices[0].frontend.memory
    kind = XferKind.TO_DPU if writing else XferKind.FROM_DPU

    def entries(nr):
        return [DpuEntry(i, 3 * MB, np.zeros(3 * MB, np.uint8)
                         if writing else None) for i in range(nr)]

    with wire_path(), DpuSet(session.transport, NR_DPUS) as dpus:
        dpus.push_to_mram(0, _payload([3 * MB] * 2, 0))
        state = _allocator_state(memory)
        with pytest.raises(TranslationError, match=f"{8 * MB}-byte DMA arena"):
            dpus.push(entries(3), kind, MRAM_HEAP_SYMBOL, 0)
        assert _allocator_state(memory) == state and memory.nr_bound == 0
        got = dpus.push(entries(2), kind, MRAM_HEAP_SYMBOL, 0)
        if not writing:
            assert all(np.array_equal(g, d) for g, d
                       in zip(got, _payload([3 * MB] * 2, 0)))
    assert_quiescent(session)
