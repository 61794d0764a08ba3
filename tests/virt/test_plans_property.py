"""Property-based equivalence of the shape-specialized plan cache.

The contract of ``repro.virt.plans`` (``docs/performance.md``) is that a
compiled plan is *indistinguishable on the wire* from the naive
serializer: same buffer lengths, same writable flags, same metadata and
payload bytes — only the GPAs differ (one private metadata run and
the shared payload window vs the rolling bump allocator).  These tests
drive random shapes through both paths and compare the chains
buffer-for-buffer, interleave plans of two devices through the one
window, and exercise the budget and invalidation rules (window size,
refused compiles, eviction, migration, failover) end to end.  The
reference arm of every ``planned == wire`` comparison runs under
``tests.conftest.wire_path``, which makes ``compile_plan`` refuse.

The window stages addresses, not bytes: a planned request's payload
GPAs resolve to the caller's own buffers while it is in flight
(``GuestMemory.bind``), so the wire is read through ``GuestMemory``
under that binding, and the end-to-end classes check what the single
copy per direction must still deliver — the bytes at call time, in
rows nobody else owns, with nothing of the caller's kept afterwards.
"""

import gc
import weakref
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE, small_machine
from repro.core import VPim
from repro.errors import BackendHungError, TranslationError
from repro.hardware.memory import EXTENT_BYTES
from repro.sdk.dpu_set import DpuSet
from repro.sdk.transfer import (
    DpuEntry,
    TransferMatrix,
    XferKind,
    uniform_read,
    uniform_write,
)
from repro.virt.guest_memory import GuestMemory
from repro.virt.migration import migrate_device
from repro.virt.opts import OptimizationConfig
from repro.virt.plans import (
    PLAN_CAPACITY,
    PlanCache,
    PlanUnsupported,
    compile_plan,
    plan_key,
)
from repro.virt.serialization import (
    RequestHeader,
    RequestKind,
    SkipExtent,
    serialize_matrix,
)

from tests.conftest import wire_path


# -- strategies --------------------------------------------------------------

#: Entry sizes hitting the layout edges: sub-word, page-aligned tails
#: (a size that is an exact multiple of PAGE_SIZE leaves a zero-length
#: tail in its last page), one-past/one-short of a page, multi-page.
entry_sizes = st.one_of(
    st.sampled_from([1, 7, 8, PAGE_SIZE - 1, PAGE_SIZE,
                     PAGE_SIZE + 1, 2 * PAGE_SIZE, 3 * PAGE_SIZE - 9]),
    st.integers(min_value=1, max_value=2 * PAGE_SIZE),
)

shapes = st.lists(entry_sizes, min_size=1, max_size=6)
offsets = st.sampled_from([0, 8, 64, PAGE_SIZE, 3 * PAGE_SIZE + 8])
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _payloads(sizes, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=n, dtype=np.uint8).astype(np.uint8)
            for n in sizes]


def _digests_for(sizes, seed, cache_format):
    if not cache_format:
        return None
    rng = np.random.default_rng(seed ^ 0xD16E57)
    return {i: int(rng.integers(1, 2**63)) for i in range(len(sizes))}


@contextmanager
def _bound(memory, sreq, matrix):
    """The frontend's part of a planned roundtrip: ``matrix``'s entry
    buffers live at ``sreq``'s payload GPAs while the device holds it."""
    gpas = [gpa for _dpu, _size, gpa in sreq.data_descriptors]
    memory.bind(gpas, [e.data for e in matrix.entries])
    try:
        yield
    finally:
        memory.unbind(gpas)
    assert memory.nr_bound == 0


def _planned_wire(memory, sreq, matrix):
    with _bound(memory, sreq, matrix):
        return _wire(memory, sreq, matrix.kind)


def _wire(memory, sreq, kind):
    """Everything observable about a chain except the GPA values: buffer
    (length, writable, bytes) for header/metas, (length, writable) for
    the page-GPA buffers, and the gathered payload each entry's pages
    hold (writes only — read pages are destinations), read through
    ``GuestMemory`` as a reader of guest RAM would."""
    chain = sreq.chain
    metas = [(d.length, d.device_writable, memory.read(d.gpa, d.length).tobytes())
             for d in [chain[0], chain[1]] + chain[2::2]]
    page_bufs = [(d.length, d.device_writable) for d in chain[3::2]]
    payloads = [
        (dpu, size,
         memory.read(gpa, size).tobytes() if kind is XferKind.TO_DPU else b"")
        for dpu, size, gpa in sreq.data_descriptors
    ]
    return metas, page_bufs, payloads, sreq.total_pages


def _compile(memory, header, matrix, digests, skips=None):
    key = plan_key(header, matrix, digests, skips, batched=False)
    assert key is not None, "data request must be plannable"
    return compile_plan(key, header, matrix, memory, digests, skips)


# -- wire-level equivalence --------------------------------------------------

class TestWireEquivalence:
    @given(sizes=shapes, offset=offsets, seed=seeds,
           cache_format=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_planned_write_matches_naive(self, sizes, offset, seed,
                                         cache_format):
        """compile → chain equals serialize_matrix byte-for-byte."""
        memory = GuestMemory(64 << 20)
        matrix = uniform_write(MRAM_HEAP_SYMBOL, offset,
                               _payloads(sizes, seed))
        header = RequestHeader(RequestKind.WRITE_RANK, offset=offset,
                               symbol=MRAM_HEAP_SYMBOL)
        digests = _digests_for(sizes, seed, cache_format)

        naive = serialize_matrix(header, matrix, memory, digests, None)
        plan = _compile(memory, header, matrix, digests)
        assert (_planned_wire(memory, plan.sreq, matrix)
                == _wire(memory, naive, XferKind.TO_DPU))
        plan.release(memory)

    @given(sizes=shapes, offset=offsets, seed=seeds,
           cache_format=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_replay_matches_naive_with_fresh_data(self, sizes, offset, seed,
                                                  cache_format):
        """Replays carry fresh payloads + digests; the wire stays
        identical to what a from-scratch serialization of the new data
        emits."""
        memory = GuestMemory(64 << 20)
        header = RequestHeader(RequestKind.WRITE_RANK, offset=offset,
                               symbol=MRAM_HEAP_SYMBOL)
        plan = _compile(
            memory, header,
            uniform_write(MRAM_HEAP_SYMBOL, offset, _payloads(sizes, seed)),
            _digests_for(sizes, seed, cache_format))

        for rep in (1, 2, 3):
            fresh = uniform_write(MRAM_HEAP_SYMBOL, offset,
                                  _payloads(sizes, seed + rep))
            digests = _digests_for(sizes, seed + rep, cache_format)
            naive = serialize_matrix(header, fresh, memory, digests, None)
            replayed = plan.replay(fresh, digests, None)
            assert (_planned_wire(memory, replayed, fresh)
                    == _wire(memory, naive, XferKind.TO_DPU))
        assert plan.replays == 3
        plan.release(memory)

    @given(sizes=shapes, offset=offsets, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_planned_read_matches_naive(self, sizes, offset, seed):
        memory = GuestMemory(64 << 20)
        size = max(sizes)
        matrix = uniform_read(MRAM_HEAP_SYMBOL, offset, size,
                              nr_dpus=len(sizes))
        header = RequestHeader(RequestKind.READ_RANK, offset=offset,
                               symbol=MRAM_HEAP_SYMBOL)

        naive = serialize_matrix(header, matrix, memory, None, None)
        plan = _compile(memory, header, matrix, None)
        assert (_wire(memory, plan.sreq, XferKind.FROM_DPU)
                == _wire(memory, naive, XferKind.FROM_DPU))
        assert ([(dpu, n) for dpu, n, _gpa in plan.sreq.data_descriptors]
                == [(e.dpu_index, size) for e in matrix.entries])
        plan.release(memory)

    @given(sizes=shapes, offset=offsets, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_replay_repatches_skip_digests(self, sizes, offset, seed):
        """Cache-format replays swap in fresh SKIP extents: the replayed
        chain must equal a naive serialization carrying the same skips."""
        memory = GuestMemory(64 << 20)
        header = RequestHeader(RequestKind.WRITE_RANK, offset=offset,
                               symbol=MRAM_HEAP_SYMBOL)
        rng = np.random.default_rng(seed ^ 0x5C1B)
        # Skips share the key with the kept entries, so both arms carry
        # the same (dpu, size) skip tuple; only the digests vary per rep.
        skip_shape = [(len(sizes) + i, int(rng.integers(1, PAGE_SIZE)))
                      for i in range(2)]

        def skips_at(rep):
            return [SkipExtent(dpu, size, digest=rep * 1000 + dpu)
                    for dpu, size in skip_shape]

        plan = _compile(
            memory, header,
            uniform_write(MRAM_HEAP_SYMBOL, offset, _payloads(sizes, seed)),
            _digests_for(sizes, seed, True), skips=skips_at(0))

        for rep in (1, 2):
            fresh = uniform_write(MRAM_HEAP_SYMBOL, offset,
                                  _payloads(sizes, seed + rep))
            digests = _digests_for(sizes, seed + rep, True)
            naive = serialize_matrix(header, fresh, memory, digests,
                                     skips_at(rep))
            replayed = plan.replay(fresh, digests, skips_at(rep))
            assert (_planned_wire(memory, replayed, fresh)
                    == _wire(memory, naive, XferKind.TO_DPU))
        plan.release(memory)


# -- cache behaviour ---------------------------------------------------------

class TestPlanCacheEviction:
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_eviction_mid_sequence_stays_correct(self, seed):
        """Cycling more shapes than the LRU holds keeps evicting, and
        every replayed-or-recompiled chain still matches the naive one."""
        memory = GuestMemory(64 << 20)
        cache = PlanCache(memory, capacity=2)
        sizes_by_shape = [[64], [128, 32], [PAGE_SIZE + 1]]

        for rep in range(3):
            for shape_id, sizes in enumerate(sizes_by_shape):
                offset = shape_id * (8 << 10)
                matrix = uniform_write(
                    MRAM_HEAP_SYMBOL, offset,
                    _payloads(sizes, seed + 31 * rep + shape_id))
                header = RequestHeader(RequestKind.WRITE_RANK, offset=offset,
                                       symbol=MRAM_HEAP_SYMBOL)
                key = plan_key(header, matrix, None, None, batched=False)
                plan = cache.get(key)
                if plan is None:
                    plan = compile_plan(key, header, matrix, memory,
                                        None, None)
                    cache.insert(key, plan)
                    sreq = plan.sreq
                else:
                    sreq = plan.replay(matrix, None, None)
                naive = serialize_matrix(header, matrix, memory, None, None)
                assert (_planned_wire(memory, sreq, matrix)
                        == _wire(memory, naive, XferKind.TO_DPU))

        # 3 shapes through a 2-slot LRU in cyclic order: every visit
        # after the warm-up evicts, and nothing ever replays.
        assert cache.evictions > 0
        assert cache.nr_plans <= 2
        cache.invalidate_all()
        assert cache.nr_plans == 0


# -- the shared payload window ------------------------------------------------

def _allocator_state(memory):
    return (memory._reserve_floor, memory._arena_cursor,
            dict(memory._released), memory.region.materialized_bytes)


class TestStagingWindow:
    def test_plans_hold_private_metadata_only(self):
        """Payload pages are window offsets every plan shares; only the
        metadata is the plan's own — one reserved run above the window
        that holds every wire buffer, each at an 8-byte boundary."""
        memory = GuestMemory(64 << 20)
        header = RequestHeader(RequestKind.READ_RANK, symbol=MRAM_HEAP_SYMBOL)
        plans = [_compile(memory, header,
                          uniform_read(MRAM_HEAP_SYMBOL, 0, size, nr_dpus=3),
                          None)
                 for size in (PAGE_SIZE, 5 * PAGE_SIZE)]
        runs = []
        for plan in plans:
            payload = [gpa for _dpu, _size, gpa in plan.sreq.data_descriptors]
            run, nr_pages = plan.reservation
            run_end = run + nr_pages * PAGE_SIZE
            assert min(payload) == memory.window_base
            assert max(payload) < memory._window_end <= run
            assert run_end <= memory.size
            cursor = run
            for desc in plan.sreq.chain:    # carved in chain order
                assert desc.gpa % 8 == 0 and cursor <= desc.gpa
                cursor = desc.gpa + desc.length
            assert cursor <= run_end
            runs.append((run, run_end))
        assert runs[0][0] >= runs[1][1], "each plan has a run of its own"
        first = [p.sreq.data_descriptors[0][2] for p in plans]
        assert first[0] == first[1], "plans overlay the same window pages"

    def test_entries_never_straddle_an_extent(self):
        """(Named for the rule this replaced: a payload run used to be
        realigned so it never straddled a backing extent, and one larger
        than an extent was refused.)  Payload placement is address
        arithmetic: the runs of one plan are page-aligned and laid end to
        end in entry order from the window's base, inside the window and
        clear of the arena and of every reservation — for entries below,
        at and above ``EXTENT_BYTES`` alike."""
        memory = GuestMemory(256 << 20)
        sizes = [EXTENT_BYTES - PAGE_SIZE, 3 << 20, EXTENT_BYTES, 100,
                 EXTENT_BYTES + PAGE_SIZE + 1, 2 * EXTENT_BYTES]
        assert sum(sizes) < memory.window_bytes
        matrix = TransferMatrix(XferKind.FROM_DPU, MRAM_HEAP_SYMBOL, 0,
                                [DpuEntry(i, n) for i, n in enumerate(sizes)])
        header = RequestHeader(RequestKind.READ_RANK, symbol=MRAM_HEAP_SYMBOL)
        plan = _compile(memory, header, matrix, None)

        expected = memory.window_base
        assert expected == memory._arena_start + memory._arena_bytes
        for (_dpu, size, gpa), want in zip(plan.sreq.data_descriptors, sizes):
            assert size == want and gpa == expected and gpa % PAGE_SIZE == 0
            expected += -(-size // PAGE_SIZE) * PAGE_SIZE
        assert expected <= memory._window_end
        assert plan.reservation[0] >= memory._window_end
        plan.release(memory)

    def test_refused_compile_leaves_guest_memory_untouched(self):
        """Regression: a compile refused part-way used to hand its partial
        reservations to the free list and leave the floor where it had
        moved, so every refused bulk shape cost metadata room.  The
        compiler now sizes before it places: a refusal reserves, pins
        and materializes nothing."""
        memory = GuestMemory(64 << 20)
        header = RequestHeader(RequestKind.READ_RANK, symbol=MRAM_HEAP_SYMBOL)
        keep = _compile(memory, header,
                        uniform_read(MRAM_HEAP_SYMBOL, 0, 64, nr_dpus=2), None)
        evicted = _compile(memory, header,
                           uniform_read(MRAM_HEAP_SYMBOL, 0, 128, nr_dpus=2),
                           None)
        evicted.release(memory)     # released room to disturb
        memory.alloc_pages(3)
        before = _allocator_state(memory)

        # One page more than the window holds, behind entries that fit.
        sizes = [PAGE_SIZE, PAGE_SIZE, memory.window_bytes - PAGE_SIZE]
        matrix = TransferMatrix(XferKind.FROM_DPU, MRAM_HEAP_SYMBOL, 0,
                                [DpuEntry(i, n) for i, n in enumerate(sizes)])
        for _ in range(3):
            with pytest.raises(PlanUnsupported, match="payload window"):
                _compile(memory, header, matrix, None)
            assert _allocator_state(memory) == before
        # One page less and the same shape compiles.
        matrix.entries[-1] = DpuEntry(2, sizes[-1] - PAGE_SIZE)
        _compile(memory, header, matrix, None).release(memory)
        keep.release(memory)

    def test_budget_is_the_largest_plan_not_the_sum(self, monkeypatch):
        """Every plan overlays the one window, so what it must hold is
        the largest request, not their sum — and it is the guest's RAM
        between the arena and the metadata quarter, whatever the arena's
        size: 3 MB entries (12 MB a push, over the 8 MB arena) compile
        and replay; a push one page larger than the window is refused,
        which the wire path cannot serve either."""
        monkeypatch.setattr("repro.virt.firecracker.GuestMemory",
                            lambda size: GuestMemory(size, 8 << 20))
        vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=4))
        session = vpim.vm_session(nr_vupmem=1, mem_bytes=33 << 20)
        memory = session.vm.devices[0].frontend.memory
        assert memory._arena_bytes == 8 << 20
        assert memory.window_bytes == (33 - 1 - 8 - 2) << 20
        plans = session.vm.devices[0].frontend.plans
        size = 3 << 20
        rng = np.random.default_rng(7)
        with DpuSet(session.transport, 4) as dpus:
            for rep in range(3):
                for shape in range(5):
                    data = [rng.integers(0, 256, size, dtype=np.uint8)
                            for _ in range(4)]
                    dpus.push_to_mram(shape * size, data)
                    got = dpus.push_from_mram(shape * size, size)
                    assert all(np.array_equal(g, d)
                               for g, d in zip(got, data))
            assert (plans.misses, plans.hits) == (10, 20)

            state = _allocator_state(memory)
            quarter = memory.window_bytes // 4
            big = [np.zeros(n, np.uint8)
                   for n in [quarter] * 3 + [quarter + PAGE_SIZE]]
            for attempt in (1, 2):
                with pytest.raises(TranslationError,
                                   match=str(memory.window_bytes)):
                    dpus.push_to_mram(0, big)
                assert plans.nr_plans == 10
                assert _allocator_state(memory) == state
                assert memory.nr_bound == 0
                assert (plans.misses, plans.hits) == (10 + attempt, 20)
            # The refusal poisoned nothing: the shape one page smaller
            # compiles, and the plans made before it still replay.
            big[3] = big[3][PAGE_SIZE:]
            dpus.push_to_mram(0, big)
            dpus.push_to_mram(0, big)
            assert (plans.misses, plans.hits) == (10 + 3, 20 + 1)


# -- capacity: one rule, the LRU's ----------------------------------------------

class TestPlanCapacity:
    NR_SHAPES = 400
    NR_DPUS = 64
    SIZE = 2 * PAGE_SIZE        # past the batch buffer: one request a push

    def _push_all(self, dpus, base):
        """Every shape once: a full-rank write at its own offset (the
        offset is part of the key), fresh bytes per shape."""
        for shape in range(self.NR_SHAPES):
            dpus.push_to_mram(8 * shape, [
                base[64 * (shape + dpu):][:self.SIZE]
                for dpu in range(self.NR_DPUS)])

    @pytest.mark.parametrize("mem_bytes", [4 << 30, 64 << 20])
    def test_every_shape_below_the_lru_capacity_keeps_its_plan(
            self, monkeypatch, mem_bytes):
        """Regression: with a page reserved per wire buffer a full-rank
        plan took 130 pages, so the reservation quarter held 252 of them
        in the default guest (15 in a 64 MB one) and the other shapes
        were refused for good without one eviction.  A plan's metadata
        is one run — a page here — and ``PLAN_CAPACITY`` is the only
        capacity rule left."""
        assert self.NR_SHAPES < PLAN_CAPACITY

        def no_wire(*_args, **_kwargs):
            raise AssertionError("a plannable shape took the wire path")

        monkeypatch.setattr("repro.virt.frontend.serialize_matrix", no_wire)
        base = np.random.default_rng(23).integers(
            0, 256, self.SIZE + 64 * (self.NR_SHAPES + self.NR_DPUS),
            dtype=np.uint8)
        config = small_machine(nr_ranks=1, dpus_per_rank=self.NR_DPUS)
        session = VPim(config).vm_session(nr_vupmem=1, mem_bytes=mem_bytes)
        plans = session.vm.devices[0].frontend.plans
        with DpuSet(session.transport, self.NR_DPUS) as dpus:
            self._push_all(dpus, base)
            assert (plans.nr_plans, plans.misses, plans.hits) == (
                self.NR_SHAPES, self.NR_SHAPES, 0)
            self._push_all(dpus, base)
            assert (plans.nr_plans, plans.misses, plans.hits) == (
                self.NR_SHAPES, self.NR_SHAPES, self.NR_SHAPES)
            assert plans.evictions == 0
            span = 8 * self.NR_SHAPES + self.SIZE
            virtualized = [
                dpu.mram.read(0, span).tobytes() for dpu in
                session.vm.devices[0].backend.mapping.rank.dpus]

        native = VPim(config).native_session().transport
        with DpuSet(native, self.NR_DPUS) as dpus:
            self._push_all(dpus, base)
            self._push_all(dpus, base)
            assert virtualized == [
                dpu.mram.read(0, span).tobytes()
                for dpu in native.machine.ranks[0].dpus]


# -- two devices, one window: planned == wire reference -----------------------

#: One request shape: (device, writing, offset, per-DPU sizes).  Sizes
#: straddle ``SMALL_WRITE_BYTES`` so batched flushes, prefetched reads
#: and bulk requests all take part; distinct offsets keep every shape's
#: MRAM footprint apart so the final banks show each write.
request_shapes = st.tuples(
    st.integers(0, 1), st.booleans(),
    st.sampled_from([0, 1 << 20, 2 << 20, 3 << 20]),
    st.lists(st.sampled_from([8, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1,
                              5 * PAGE_SIZE, 17 * PAGE_SIZE + 3,
                              40 * PAGE_SIZE]),
             min_size=1, max_size=4))


def _drive(planned, shapes, order, seed, fault_at, capacity):
    """Run ``order`` (indices into ``shapes``) on a two-device VM — on the
    wire path unless ``planned``; returns every read result, both ranks'
    final MRAM, and the modeled time."""
    with nullcontext() if planned else wire_path():
        return _drive_requests(shapes, order, seed, fault_at, capacity)


def _drive_requests(shapes, order, seed, fault_at, capacity):
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=4))
    session = vpim.vm_session(nr_vupmem=2, mem_bytes=1 << 30)
    devices = session.vm.devices
    assert devices[0].frontend.memory is devices[1].frontend.memory
    requests = [0]

    def hang_once(_backend):
        requests[0] += 1
        if requests[0] == fault_at:
            raise BackendHungError("injected hang", penalty_s=1e-3)

    reads = []
    with DpuSet(session.transport, 8) as dpus:
        for device in devices:
            device.backend.fault_hook = hang_once
            device.frontend.plans.capacity = capacity
        t0 = vpim.machine.clock.now
        for step, index in enumerate(order):
            device, writing, offset, sizes = shapes[index]
            if writing:
                data = _payloads(sizes, seed + step)
                dpus.push([DpuEntry(4 * device + i, n, buf)
                           for i, (n, buf) in enumerate(zip(sizes, data))],
                          XferKind.TO_DPU, MRAM_HEAP_SYMBOL, offset)
            else:
                got = dpus.push([DpuEntry(4 * device + i, n)
                                 for i, n in enumerate(sizes)],
                                XferKind.FROM_DPU, MRAM_HEAP_SYMBOL, offset)
                reads.append([buf.tobytes() for buf in got])
        modeled = float(vpim.machine.clock.now - t0).hex()
        banks = [dpu.mram.read(0, 4 << 20).tobytes()
                 for device in devices
                 for dpu in device.backend.mapping.rank.dpus]
        stats = [(d.frontend.plans.hits, d.frontend.plans.evictions)
                 for d in devices]
    return (reads, banks, modeled), stats


class TestSharedWindowInterleaving:
    @given(shapes=st.lists(request_shapes, min_size=2, max_size=6),
           data=st.data(), seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_interleaved_replays_match_plans_off(self, shapes, data, seed):
        """Plans of both directions on two devices replay through the one
        window in a random interleaving — with a tiny LRU evicting
        mid-sequence and one request retried after an injected backend
        hang — and nothing observable differs from the wire reference."""
        order = data.draw(st.lists(st.integers(0, len(shapes) - 1),
                                   min_size=4, max_size=24))
        fault_at = data.draw(st.integers(1, len(order)))
        capacity = data.draw(st.sampled_from([1, 2, 512]))
        on, _stats = _drive(True, shapes, order, seed, fault_at, capacity)
        off, wire_stats = _drive(False, shapes, order, seed, fault_at,
                                 capacity)
        assert wire_stats == [(0, 0), (0, 0)], "the reference is the wire"
        assert on[2] == off[2], "modeled time must be float.hex()-equal"
        assert on[0] == off[0], "read results differ, buffer for buffer"
        assert on[1] == off[1], "MRAM differs"

    def test_the_drill_replays_evicts_and_retries(self):
        """The property above is not vacuous: a fixed schedule hits,
        evicts and retries on both devices."""
        shapes = [(0, True, 0, [5 * PAGE_SIZE] * 4),
                  (1, True, 0, [40 * PAGE_SIZE] * 4),
                  (0, False, 0, [5 * PAGE_SIZE] * 4),
                  (1, False, 0, [40 * PAGE_SIZE] * 4)]
        order = [0, 1, 2, 3] * 4
        on, stats = _drive(True, shapes, order, 3, fault_at=7, capacity=1)
        off, _ = _drive(False, shapes, order, 3, fault_at=7, capacity=1)
        assert on == off
        assert all(evictions > 0 for _hits, evictions in stats)
        on, stats = _drive(True, shapes, order, 3, fault_at=7, capacity=512)
        assert on == off
        assert all(hits >= 6 for hits, _evictions in stats)


# -- end-to-end: planned VM == wire-reference VM ------------------------------

def _session(nr_ranks=1, **opt_kwargs):
    vpim = VPim(small_machine(nr_ranks=nr_ranks, dpus_per_rank=4))
    session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30,
                              opts=OptimizationConfig(**opt_kwargs))
    return vpim, session


class TestEndToEndEquivalence:
    @given(sizes=st.lists(entry_sizes, min_size=4, max_size=4), seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_plans_do_not_change_data_or_modeled_time(self, sizes, seed):
        """Same workload through a planned VM and one on the wire path:
        identical read-backs and identical modeled clock advance."""
        outcomes = {}
        for planned in (True, False):
            vpim, session = _session()
            with (nullcontext() if planned else wire_path()), \
                    DpuSet(session.transport, 4) as dpus:
                t0 = vpim.machine.clock.now
                reads = []
                for rep in range(3):
                    bufs = _payloads(sizes, seed + rep)
                    for dpu, buf in enumerate(bufs):
                        dpus.copy_to_mram(dpu, 0, buf)
                    reads.append([
                        dpus.copy_from_mram(dpu, 0, len(buf)).tobytes()
                        for dpu, buf in enumerate(bufs)])
                    for dpu, buf in enumerate(bufs):
                        assert reads[-1][dpu] == buf.tobytes()
                frontend = session.vm.devices[0].frontend
                outcomes[planned] = (
                    reads, float(vpim.machine.clock.now - t0).hex())
            if planned:
                assert frontend.plans.hits > 0, \
                    "repeated shapes must replay a compiled plan"
            else:
                assert (frontend.plans.hits, frontend.plans.nr_plans) == (0, 0)
        assert outcomes[True] == outcomes[False]


# -- one copy per direction: what binding must still deliver ------------------

#: Per-DPU sizes with the zero-size entry, a page and its neighbours, a
#: word multiple above a page (the ``u32`` and strided sources need
#: multiples of 8) and one that misses the batch buffer and the
#: prefetch line (64 KB) so a plain bulk request is always among them.
bound_sizes = st.lists(
    st.sampled_from([0, 8, PAGE_SIZE - 8, PAGE_SIZE, PAGE_SIZE + 8,
                     3 * PAGE_SIZE + 64, 17 * PAGE_SIZE]),
    min_size=4, max_size=4)
source_kinds = st.sampled_from(["plain", "readonly", "shared", "strided",
                                "u32"])
bound_opts = st.sampled_from([
    dict(), dict(prefetch_cache=False, request_batching=False),
    dict(cache=True)])


def _sources(kind, sizes, seed):
    """``(what the caller passes, the bytes it holds at call time)``."""
    rng = np.random.default_rng(seed)
    if kind == "shared":        # one buffer passed for every DPU
        buf = rng.integers(0, 256, max(sizes), dtype=np.uint8)
        return [buf] * len(sizes), [buf.tobytes()] * len(sizes)
    given = []
    for n in sizes:
        if kind == "strided":   # non-contiguous: every other byte
            buf = rng.integers(0, 256, 2 * n, dtype=np.uint8)[::2]
        elif kind == "u32":     # non-uint8: DpuEntry views the bytes
            buf = rng.integers(0, 2**32, n // 4, dtype=np.uint32)
        else:
            buf = rng.integers(0, 256, n, dtype=np.uint8)
            buf.flags.writeable = kind != "readonly"
        given.append(buf)
    return given, [buf.tobytes() for buf in given]


def _guest_extents(memory):
    return list(memory.region._extents.values())


class TestBoundTransfers:
    @given(sizes=bound_sizes, kind=source_kinds, offset=offsets, seed=seeds,
           opts=bound_opts)
    @settings(max_examples=40, deadline=None)
    def test_planned_transfers_move_the_bytes_at_call_time(
            self, sizes, kind, offset, seed, opts):
        """Planned write == reference bytes in MRAM, planned read == MRAM
        bytes, on every repetition of one shape (compile, then replays),
        whatever the caller hands in and whatever it does to its buffers
        once the call has returned."""
        vpim, session = _session(**opts)
        memory = session.vm.devices[0].frontend.memory
        with DpuSet(session.transport, 4) as dpus:
            mrams = [dpu.mram
                     for dpu in session.vm.devices[0].backend.mapping.rank.dpus]
            for rep in range(3):
                given, expect = _sources(kind, sizes, seed + rep)
                dpus.push_to_mram(offset, given)
                for buf in given:           # the caller's again: scribble
                    if buf.flags.writeable:
                        buf[...] = 0
                rows = dpus.push([DpuEntry(i, len(want))
                                  for i, want in enumerate(expect)],
                                 XferKind.FROM_DPU, MRAM_HEAP_SYMBOL, offset)
                for mram, row, want in zip(mrams, rows, expect):
                    assert mram.read(offset, len(want)).tobytes() == want
                    assert row.tobytes() == want
                    assert not any(np.shares_memory(row, ext)
                                   for ext in _guest_extents(memory))
                assert memory.nr_bound == 0
            plans = session.vm.devices[0].frontend.plans
            assert plans.hits > 0

    @given(size=st.sampled_from([8, PAGE_SIZE, 17 * PAGE_SIZE]), seed=seeds,
           prefetch=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_back_to_back_reads_return_independent_rows(self, size, seed,
                                                        prefetch):
        """Two reads through one plan: the second does not overwrite the
        first's rows — what the copy out of the window used to give."""
        _, session = _session(prefetch_cache=prefetch)
        with DpuSet(session.transport, 4) as dpus:
            first_data = _payloads([size] * 4, seed)
            second_data = _payloads([size] * 4, seed + 1)
            dpus.push_to_mram(0, first_data)
            dpus.push_from_mram(0, size)            # compiles the read plan
            first = dpus.push_from_mram(0, size)
            dpus.push_to_mram(0, second_data)
            second = dpus.push_from_mram(0, size)
            for a, b, want_a, want_b in zip(first, second, first_data,
                                            second_data):
                assert not np.shares_memory(a, b)
                assert np.array_equal(a, want_a)
                assert np.array_equal(b, want_b)
            a = dpus.copy_from_mram(2, 0, size)     # single-entry reads too
            b = dpus.copy_from_mram(2, 0, size)
            assert not np.shares_memory(a, b) and np.array_equal(a, b)
            b[...] = 0
            assert np.array_equal(a, second_data[2])

    def test_the_plan_cache_keeps_no_caller_buffer_alive(self):
        """Regression guard for the leak binding invites: after a request
        completes, neither the LRU of plans, the pinned MRAM write nor
        guest memory references a source buffer or a result block — a
        256 MB push must not live on inside 512 cached shapes."""
        _, session = _session()
        size = 17 * PAGE_SIZE       # past the batch buffer and prefetch line
        with DpuSet(session.transport, 4) as dpus:
            for rep in range(2):    # compile, then replay
                sources = _payloads([size] * 4, rep)
                dpus.push_to_mram(0, sources)
                rows = dpus.push_from_mram(0, size)
                assert all(np.array_equal(r, s)
                           for r, s in zip(rows, sources))
                refs = [weakref.ref(buf) for buf in sources]
                refs.append(weakref.ref(rows[0].base))
                del sources, rows
                gc.collect()
                assert [ref() for ref in refs] == [None] * 5
            frontend = session.vm.devices[0].frontend
            assert frontend.plans.nr_plans == 2 and frontend.plans.hits == 2

    def test_the_window_stages_addresses_only(self):
        """Bulk payload never touches guest RAM: the pages a plan's
        payload GPAs name stay unmaterialized (they read as zeros once
        the request is over), so the window costs no resident memory."""
        _, session = _session()
        frontend = session.vm.devices[0].frontend
        memory = frontend.memory
        size = 64 * PAGE_SIZE
        with DpuSet(session.transport, 4) as dpus:
            for rep in range(2):
                dpus.push_to_mram(0, [np.full(size, rep + 1, np.uint8)] * 4)
                dpus.push_from_mram(0, size)
        assert not memory.read(memory.window_base, 4 * size).any()


# -- invalidation: migration and failover ------------------------------------

class TestPlanInvalidation:
    def _warm(self, session):
        dpus = DpuSet(session.transport, 4)
        dpus.__enter__()
        # Large writes bypass the batch buffer, so each repetition is a
        # real WRITE_RANK request (the first compiles, the second replays).
        for rep in range(2):
            dpus.push_to_mram(0, [np.full(2 * PAGE_SIZE, rep + 1,
                                          np.uint8)] * 4)
            dpus.push_from_mram(0, 2 * PAGE_SIZE)
        return dpus

    def test_migration_drops_plans_and_recompiles(self):
        vpim, session = _session(nr_ranks=2)
        dpus = self._warm(session)
        device = session.vm.devices[0]
        plans = device.frontend.plans
        assert plans.nr_plans > 0 and plans.hits > 0

        invalidated_before = plans.invalidations
        migrate_device(device, vpim.manager)
        assert plans.nr_plans == 0, "migration must drop every plan"
        assert plans.invalidations > invalidated_before

        # The same shape recompiles against the new rank and the data
        # plane still round-trips correctly.
        misses_before = plans.misses
        dpus.push_to_mram(0, [np.full(512, 7, np.uint8)] * 4)
        got = dpus.push_from_mram(0, 512)
        assert all((buf == 7).all() for buf in got)
        assert plans.misses > misses_before
        dpus.__exit__(None, None, None)

    def test_failover_reason_drops_plans_but_release_does_not(self):
        """Digest-invalidation reasons that imply lost device state drop
        plans; ``release``/``load`` (plan-safe reasons) must not — plan
        validity is re-checked against guest generation and the XLB on
        every hit, which is what makes cross-run replay possible."""
        _, session = _session()
        dpus = self._warm(session)
        frontend = session.vm.devices[0].frontend
        assert frontend.plans.nr_plans > 0

        kept = frontend.plans.nr_plans
        frontend.invalidate("release")
        assert frontend.plans.nr_plans == kept, \
            "release must not drop compiled plans"
        frontend.invalidate("load")
        assert frontend.plans.nr_plans == kept

        frontend.invalidate("failover")
        assert frontend.plans.nr_plans == 0, "failover must drop plans"
        assert frontend.plans.invalidations >= kept
        dpus.__exit__(None, None, None)

    def test_failover_recovery_path_replays_correctly(self):
        """After a failover-style invalidation the next transfer
        recompiles and the data plane stays correct."""
        _, session = _session()
        dpus = self._warm(session)
        frontend = session.vm.devices[0].frontend
        frontend.invalidate("failover")

        dpus.push_to_mram(0, [np.full(512, 3, np.uint8)] * 4)
        got = dpus.push_from_mram(0, 512)
        assert all((buf == 3).all() for buf in got)
        assert frontend.plans.nr_plans > 0
        dpus.__exit__(None, None, None)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
