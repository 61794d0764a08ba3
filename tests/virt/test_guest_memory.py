"""Guest memory: allocation, translation, contiguous runs."""

import itertools

import numpy as np
import pytest

from repro.config import MRAM_HEAP_SYMBOL, MRAM_SIZE, PAGE_SIZE
from repro.errors import TranslationError
from repro.sdk.transfer import DpuEntry, TransferMatrix, XferKind
from repro.virt.guest_memory import GuestMemory, HVA_BASE
from repro.virt.plans import PlanCache, PlanUnsupported, compile_plan, plan_key
from repro.virt.serialization import RequestHeader, RequestKind


@pytest.fixture
def mem() -> GuestMemory:
    return GuestMemory(256 << 20, arena_bytes=16 << 20)


def test_alloc_pages_are_page_aligned(mem):
    gpa = mem.alloc_pages(4)
    assert gpa % PAGE_SIZE == 0


def test_alloc_pages_contiguous_and_distinct(mem):
    a = mem.alloc_pages(2)
    b = mem.alloc_pages(2)
    assert b == a + 2 * PAGE_SIZE


def test_arena_wraps(mem):
    first = mem.alloc_pages(1)
    for _ in range(10_000):
        mem.alloc_pages(100)
    again = mem.alloc_pages(1)
    assert again >= first  # wrapped back into the arena, not past it


def test_alloc_larger_than_arena_rejected(mem):
    with pytest.raises(TranslationError):
        mem.alloc_pages((32 << 20) // PAGE_SIZE)


def test_data_roundtrip(mem):
    gpa = mem.alloc_pages(1)
    mem.write(gpa, np.arange(100, dtype=np.uint8))
    assert np.array_equal(mem.read(gpa, 100), np.arange(100, dtype=np.uint8))


def test_gpa_hva_translation(mem):
    assert mem.gpa_to_hva(0) == HVA_BASE
    assert mem.gpa_to_hva(4096) == HVA_BASE + 4096
    assert mem.hva_to_gpa(HVA_BASE + 4096) == 4096


def test_translation_bounds(mem):
    with pytest.raises(TranslationError):
        mem.gpa_to_hva(mem.size)
    with pytest.raises(TranslationError):
        mem.gpa_to_hva(-1)
    with pytest.raises(TranslationError):
        mem.hva_to_gpa(HVA_BASE - 1)


def test_vectorized_translation(mem):
    gpas = np.array([0, 4096, 8192], dtype=np.uint64)
    hvas = mem.translate_pages(gpas)
    assert np.array_equal(hvas, gpas + np.uint64(HVA_BASE))


def test_vectorized_translation_bounds(mem):
    with pytest.raises(TranslationError):
        mem.translate_pages(np.array([mem.size], dtype=np.uint64))


def test_contiguous_runs_single():
    gpas = np.arange(4, dtype=np.uint64) * PAGE_SIZE + 4096
    runs = GuestMemory.contiguous_runs(gpas)
    assert runs == [(4096, 4)]


def test_contiguous_runs_split():
    gpas = np.array([0, PAGE_SIZE, 10 * PAGE_SIZE], dtype=np.uint64)
    runs = GuestMemory.contiguous_runs(gpas)
    assert runs == [(0, 2), (10 * PAGE_SIZE, 1)]


def test_contiguous_runs_empty():
    assert GuestMemory.contiguous_runs(np.empty(0, dtype=np.uint64)) == []


# -- the three regions -------------------------------------------------------

def _read_plan(mem, nr_pages, offset=0, nr_dpus=None):
    """Compile a read of ``nr_pages`` of payload: bank-sized entries, or
    ``nr_dpus`` equal ones."""
    if nr_dpus is None:
        full, rest = divmod(nr_pages * PAGE_SIZE, MRAM_SIZE)
        sizes = [MRAM_SIZE] * full + [rest] * bool(rest)
    else:
        sizes = [nr_pages * PAGE_SIZE // nr_dpus] * nr_dpus
    matrix = TransferMatrix(XferKind.FROM_DPU, MRAM_HEAP_SYMBOL, offset,
                            [DpuEntry(i, n) for i, n in enumerate(sizes)])
    header = RequestHeader(RequestKind.READ_RANK, offset=offset,
                           symbol=MRAM_HEAP_SYMBOL)
    key = plan_key(header, matrix, None, None, batched=False)
    return compile_plan(key, header, matrix, mem, None, None)


@pytest.mark.parametrize("arena_bytes", [8 << 20, 512 << 20])
@pytest.mark.parametrize("size", [
    1 << 20, (1 << 20) + PAGE_SIZE, 2 << 20, (33 << 20) + 100, 48 << 20,
    64 << 20, 128 << 20, 256 << 20, 1 << 30, 4 << 30])
def test_arena_window_and_reservations_are_disjoint(size, arena_bytes):
    """Every guest the suite builds, 1 MB to the default 4 GB: the arena
    is at most half of guest RAM, reservations take at most a quarter of
    the arena from the top, the window is all that lies between, and
    each allocator stays inside its own region — the window's being the
    plan compiler, which lays payload from its base by arithmetic."""
    mem = GuestMemory(size, arena_bytes=arena_bytes)
    arena_end = mem._arena_start + mem._arena_bytes
    window_end = mem.window_base + mem.window_bytes
    assert mem._arena_bytes <= min(arena_bytes, size // 2)
    assert mem._arena_start <= arena_end == mem.window_base <= window_end
    assert window_end <= size and size - window_end <= (
        mem._arena_bytes // 4 + PAGE_SIZE)
    if size >= 2 << 20:
        assert mem.window_bytes > mem._arena_bytes // 4 > 0

    # The rolling arena: every run inside it, across several wraps.
    chunk = mem._arena_bytes // PAGE_SIZE // 3
    for nr_pages in [chunk, 1, chunk, chunk, 2, chunk] if chunk else []:
        gpa = mem.alloc_pages(nr_pages)
        assert mem._arena_start <= gpa
        assert gpa + nr_pages * PAGE_SIZE <= arena_end
    with pytest.raises(TranslationError, match="DMA arena"):
        mem.alloc_pages(mem._arena_bytes // PAGE_SIZE + 1)

    # The payload window: one refusal, a payload that ends past it —
    # found before anything is reserved.
    pages = mem.window_bytes // PAGE_SIZE
    top = mem._reserve_floor
    with pytest.raises(PlanUnsupported,
                       match=f"{mem.window_bytes}-byte payload window"):
        _read_plan(mem, pages + 1)
    assert mem._reserve_floor == top and not mem._released

    # Reservations, until the quarter is full: disjoint runs above it.
    runs = []
    with pytest.raises(TranslationError, match="quarter"):
        for nr_pages in itertools.cycle([1, 33, 256]):
            runs.append((mem.reserve_pages(nr_pages), nr_pages))
    runs.sort()
    assert all(gpa >= window_end for gpa, _nr in runs)
    assert all(gpa + nr * PAGE_SIZE <= nxt for (gpa, nr), (nxt, _)
               in zip(runs, runs[1:] + [(size, 0)]))
    assert mem.region.materialized_bytes == 0
    # Released in any order, all of the room is back.
    for gpa, nr_pages in runs[1::2] + runs[::2]:
        mem.release_reservation(gpa, nr_pages)
    assert mem._reserve_floor == top and not mem._released

    # A payload that fills the window to its last page is placed, its
    # metadata above the window — unless a small arena's quarter cannot
    # hold the page lists, which is the other refusal.
    try:
        plan = _read_plan(mem, pages)
    except PlanUnsupported as refusal:
        assert "quarter" in str(refusal)
        assert mem._reserve_floor == top and not mem._released
    else:
        placed = [(gpa, n) for _dpu, n, gpa in plan.sreq.data_descriptors]
        assert not placed or (placed[0][0] == mem.window_base
                              and sum(placed[-1]) == window_end)
        assert window_end <= plan.reservation[0] == mem._reserve_floor


def test_a_reservation_over_one_extent_is_refused_untouched():
    """A reserved run is what a plan pins as one view, and a view cannot
    span two backing extents."""
    mem = GuestMemory(4 << 30)
    top = mem._reserve_floor
    pages = mem.region.extent_bytes // PAGE_SIZE
    with pytest.raises(TranslationError, match="one view"):
        mem.reserve_pages(pages + 1)
    assert mem._reserve_floor == top and not mem._released
    assert mem.reserve_pages(pages) == top - mem.region.extent_bytes


def _reserved(mem):
    return mem.size - mem._reserve_floor


def test_released_reservation_room_comes_back():
    """Regression: a released run was parked by its exact size and the
    floor only moved down, so rounds of *changing* shapes, each dropped
    whole (``invalidate("failover")``), walked the floor a little
    further every round.  Released room merges back: after every round
    the reservation quarter is as it was before the first."""
    mem = GuestMemory(64 << 20)
    cache = PlanCache(mem)
    for round_ in range(200):
        runs = 0
        for shape in range(6):
            # Page lists of 1 to 9 pages, a different mix every round.
            nr_pages = 600 * (1 + (3 * round_ + shape) % 7)
            plan = _read_plan(mem, nr_pages, offset=8 * shape, nr_dpus=2)
            cache.insert(plan.key, plan)
            runs += plan.reservation[1] * PAGE_SIZE
        assert _reserved(mem) == runs and not mem._released
        assert cache.invalidate_all() == 6
        assert _reserved(mem) == 0 and not mem._released


def test_an_evicted_plans_room_serves_the_next_compile():
    """The LRU's steady state: every compile evicts the oldest plan, whose
    run lies *above* the live ones, so only reuse of released room — by a
    run of another size — keeps the floor from walking to the window's
    edge (after which every new shape would be refused for good)."""
    mem = GuestMemory(64 << 20)
    cache = PlanCache(mem, capacity=4)
    largest = 0
    for step in range(200):
        nr_pages = 600 * (1 + (5 * step) % 7)
        plan = _read_plan(mem, nr_pages, offset=8 * step, nr_dpus=2)
        cache.insert(plan.key, plan)
        largest = max(largest, plan.reservation[1] * PAGE_SIZE)
        assert _reserved(mem) <= 2 * (cache.capacity + 1) * largest
    assert cache.evictions == 196


# -- request-scoped bindings ---------------------------------------------------

def _bound_window(mem):
    """Guest RAM holding 0x11 everywhere around two bound buffers: 5000
    bytes of 0xAA at ``base`` and 100 bytes of 0xBB one page later plus 8
    (a gap of RAM between them), plus an empty buffer."""
    base = mem.window_base
    mem.write(base - PAGE_SIZE, np.full(5 * PAGE_SIZE, 0x11, np.uint8))
    a = np.full(5000, 0xAA, np.uint8)
    b = np.full(100, 0xBB, np.uint8)
    gpas = [base, base + 2 * PAGE_SIZE + 8, base + 3 * PAGE_SIZE]
    mem.bind(gpas, [a, b, np.empty(0, np.uint8)])
    return base, gpas, a, b


def test_bound_gpas_read_as_the_bound_buffers(mem):
    base, gpas, a, b = _bound_window(mem)
    assert mem.nr_bound == 3
    span = mem.read(base - 16, 3 * PAGE_SIZE)    # RAM | a | RAM | b | RAM
    want = np.full(3 * PAGE_SIZE, 0x11, np.uint8)
    want[16:16 + 5000] = 0xAA
    want[16 + 2 * PAGE_SIZE + 8:16 + 2 * PAGE_SIZE + 108] = 0xBB
    assert np.array_equal(span, want)
    out = np.empty(span.size, np.uint8)
    assert np.array_equal(mem.read_into(base - 16, out), want)
    # Page-granular gather, partial tail: what the wire path would see.
    pages = np.uint64(base) + np.arange(3, dtype=np.uint64) * PAGE_SIZE
    got = mem.gather_pages(pages, 2 * PAGE_SIZE + 108,
                           np.empty(2 * PAGE_SIZE + 108, np.uint8))
    assert np.array_equal(got, want[16:16 + 2 * PAGE_SIZE + 108])
    # The caller's buffer is live, not a snapshot.
    a[7] = 0x77
    assert mem.read(base + 7, 1)[0] == 0x77

    mem.unbind(gpas)
    assert mem.nr_bound == 0
    assert (mem.read(base - 16, 3 * PAGE_SIZE) == 0x11).all()


def test_pin_span_inside_a_binding_is_the_buffer_itself(mem):
    base, gpas, a, b = _bound_window(mem)
    view = mem.pin_span(base + 10, 100)
    assert np.shares_memory(view, a)
    view[...] = 5
    assert (a[10:110] == 5).all()
    with pytest.raises(TranslationError, match="edge of a bound buffer"):
        mem.pin_span(base + 4990, 20)
    # Outside every binding it is guest RAM, as before.
    assert (mem.pin_span(base + 6000, 16) == 0x11).all()
    ro = np.zeros(64, np.uint8)
    ro.flags.writeable = False
    mem.bind([base + 4 * PAGE_SIZE], [ro])
    assert not mem.pin_span(base + 4 * PAGE_SIZE, 64).flags.writeable
    mem.unbind(gpas + [base + 4 * PAGE_SIZE])


def test_device_writes_to_bound_gpas_land_in_the_buffer(mem):
    base, gpas, a, b = _bound_window(mem)
    mem.write(base + 4990, np.full(20, 0xCC, np.uint8))   # a's tail + RAM
    assert (a[4990:] == 0xCC).all() and (a[:4990] == 0xAA).all()
    pages = np.array([base + 2 * PAGE_SIZE], dtype=np.uint64)
    mem.scatter_pages(pages, np.full(64, 0xDD, np.uint8))  # RAM + b's head
    assert (b[:56] == 0xDD).all() and (b[56:] == 0xBB).all()
    mem.unbind(gpas)
    # What fell outside the buffers went to RAM and is still there.
    assert (mem.read(base + 5000, 10) == 0xCC).all()
    assert (mem.read(base + 2 * PAGE_SIZE, 8) == 0xDD).all()
