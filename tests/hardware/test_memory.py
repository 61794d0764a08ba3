"""MemoryRegion: lazy materialization, bounds, fill semantics."""

import numpy as np
import pytest

from repro.errors import MemoryAccessError
from repro.hardware import memory
from repro.hardware.memory import EXTENT_BYTES, MemoryRegion, SEGMENT_SIZE


def test_read_untouched_returns_zeros():
    mem = MemoryRegion(1 << 20)
    assert not mem.read(0, 4096).any()


def test_write_then_read_roundtrip():
    mem = MemoryRegion(1 << 20)
    data = np.arange(256, dtype=np.uint8)
    mem.write(100, data)
    assert np.array_equal(mem.read(100, 256), data)


def test_write_crossing_segment_boundary():
    mem = MemoryRegion(4 * SEGMENT_SIZE)
    data = np.arange(1000, dtype=np.int32).view(np.uint8)
    offset = SEGMENT_SIZE - 17
    mem.write(offset, data)
    assert np.array_equal(mem.read(offset, data.size), data)


def test_read_crossing_multiple_segments():
    mem = MemoryRegion(8 * SEGMENT_SIZE)
    data = np.random.default_rng(0).integers(
        0, 255, 3 * SEGMENT_SIZE + 5, dtype=np.uint8).astype(np.uint8)
    mem.write(SEGMENT_SIZE // 2, data)
    assert np.array_equal(mem.read(SEGMENT_SIZE // 2, data.size), data)


def test_out_of_bounds_read_raises():
    mem = MemoryRegion(1024)
    with pytest.raises(MemoryAccessError):
        mem.read(1000, 100)


def test_out_of_bounds_write_raises():
    mem = MemoryRegion(1024)
    with pytest.raises(MemoryAccessError):
        mem.write(1020, np.zeros(8, dtype=np.uint8))


def test_negative_offset_raises():
    mem = MemoryRegion(1024)
    with pytest.raises(MemoryAccessError):
        mem.read(-4, 8)


def test_zero_size_region_rejected():
    with pytest.raises(ValueError):
        MemoryRegion(0)


def test_fill_zero_drops_segments():
    mem = MemoryRegion(1 << 20)
    mem.write(0, np.ones(SEGMENT_SIZE, dtype=np.uint8))
    assert mem.materialized_bytes > 0
    mem.fill(0)
    assert mem.materialized_bytes == 0
    assert not mem.read(0, SEGMENT_SIZE).any()


def test_fill_nonzero_small_region():
    mem = MemoryRegion(4096)
    mem.fill(7)
    assert (mem.read(0, 4096) == 7).all()


def test_fill_nonzero_huge_region_rejected():
    mem = MemoryRegion(2 << 30)
    with pytest.raises(MemoryAccessError):
        mem.fill(1)


def test_is_zero_tracks_content():
    mem = MemoryRegion(1 << 16)
    assert mem.is_zero()
    mem.write(100, np.array([1], dtype=np.uint8))
    assert not mem.is_zero()
    mem.write(100, np.array([0], dtype=np.uint8))
    assert mem.is_zero()  # all bytes back to zero


def test_materialization_is_lazy():
    # A 64 MB MRAM-sized region with one small write must not allocate 64 MB.
    mem = MemoryRegion(64 << 20)
    mem.write(12345, np.zeros(16, dtype=np.uint8))
    assert mem.materialized_bytes <= 2 * SEGMENT_SIZE


def test_accepts_bytes_and_ndarray():
    mem = MemoryRegion(1024)
    mem.write(0, b"\x01\x02\x03")
    mem.write(3, bytearray(b"\x04"))
    mem.write(4, np.array([5, 6], dtype=np.uint8))
    assert list(mem.read(0, 6)) == [1, 2, 3, 4, 5, 6]


def test_non_u8_array_viewed_as_bytes():
    mem = MemoryRegion(1024)
    mem.write(0, np.array([1], dtype=np.uint32))
    assert np.array_equal(mem.read(0, 4).view(np.uint32), [1])


@pytest.mark.parametrize("size", [24 << 10, 100 << 10, SEGMENT_SIZE,
                                  (1 << 20) + 3])
def test_snapshot_round_trip_whatever_the_size(size):
    # A region that ends inside its last segment (24 KB IRAM) used to
    # snapshot a full 64 KB slice there, which its own loader refused.
    data = np.random.default_rng(size).integers(1, 256, size, dtype=np.uint8)
    mem = MemoryRegion(size)
    mem.write(0, data)
    snapshot = mem.snapshot_segments()
    assert sum(seg.size for seg in snapshot.values()) == size
    for target in (mem, MemoryRegion(size)):
        target.load_segments(snapshot)
        assert np.array_equal(target.read(0, size), data)


def test_rejected_snapshot_leaves_region_as_it_was():
    mem = MemoryRegion(100 << 10)
    mem.write(5, b"abc")
    generation = mem.generation
    too_long = {1: np.ones(SEGMENT_SIZE, dtype=np.uint8)}   # ends at 128 KB
    for bad in (too_long, {2: b"x"}, {-1: b"x"},
                {0: np.ones(SEGMENT_SIZE + 1, dtype=np.uint8)}):
        with pytest.raises(MemoryAccessError):
            mem.load_segments(bad)
        assert mem.generation == generation
        assert bytes(mem.read(5, 3)) == b"abc"
        assert mem.materialized_bytes == SEGMENT_SIZE


@pytest.mark.parametrize("phys_gib, cap_gib", [
    (64, 6), (16, 6), (8, 6), (7.7, 7.7 * 0.75), (4, 3)])
def test_extent_pool_cap_follows_the_box(monkeypatch, phys_gib, cap_gib):
    page = 4096
    sizes = {"SC_PHYS_PAGES": int(phys_gib * (1 << 30)) // page,
             "SC_PAGE_SIZE": page}
    monkeypatch.setattr(memory.os, "sysconf", sizes.__getitem__, raising=False)
    cap = memory._ExtentPool().max_bytes
    assert cap == pytest.approx(cap_gib * (1 << 30), abs=page)
    if phys_gib >= 7.7:                 # an 8 GB box still pools a
        assert cap >= 256 * EXTENT_BYTES    # 256-DPU session's 4 GiB


def _no_such_name(name):
    raise ValueError(name)


@pytest.mark.parametrize("sysconf", [lambda name: -1, _no_such_name, None],
                         ids=["unknown", "no-such-name", "no-sysconf"])
def test_extent_pool_cap_is_6_gib_where_the_box_cannot_tell(monkeypatch,
                                                            sysconf):
    if sysconf is None:
        monkeypatch.delattr(memory.os, "sysconf", raising=False)
    else:
        monkeypatch.setattr(memory.os, "sysconf", sysconf, raising=False)
    assert memory._ExtentPool().max_bytes == 6 << 30
