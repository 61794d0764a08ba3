"""Guest memory: allocation, translation, contiguous runs."""

import itertools

import numpy as np
import pytest

from repro.config import PAGE_SIZE
from repro.errors import TranslationError
from repro.virt.guest_memory import GuestMemory, HVA_BASE


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

@pytest.mark.parametrize("arena_bytes", [8 << 20, 512 << 20])
@pytest.mark.parametrize("size", [
    1 << 20, (1 << 20) + PAGE_SIZE, 2 << 20, (33 << 20) + 100, 48 << 20,
    64 << 20, 128 << 20, 256 << 20, 1 << 30, 4 << 30])
def test_arena_window_and_reservations_are_disjoint(size, arena_bytes):
    """Every guest the suite builds, 1 MB to the default 4 GB: the arena
    is at most half of guest RAM, reservations take at most a quarter of
    the arena from the top, the window is all that lies between, and
    each allocator stays inside its own region."""
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

    # The payload window: address arithmetic with one refusal.
    pages = mem.window_bytes // PAGE_SIZE
    assert mem.stage_pages(mem.window_base, pages) == mem.window_base
    assert mem.stage_pages(window_end, 0) == window_end
    with pytest.raises(TranslationError, match=f"{mem.window_bytes}-byte"):
        mem.stage_pages(mem.window_base, pages + 1)
    with pytest.raises(TranslationError, match="payload window"):
        mem.stage_pages(window_end - PAGE_SIZE, 2)

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
