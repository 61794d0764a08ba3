"""Wire format: header packing, matrix (de)serialization, gather/scatter."""

import numpy as np
import pytest

from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE
from repro.errors import SerializationError, TranslationError
from repro.sdk.transfer import uniform_read, uniform_write
from repro.virt.guest_memory import GuestMemory
from repro.virt.serialization import (
    RequestHeader,
    RequestKind,
    deserialize_request,
    gather_entry_data,
    scatter_entry_data,
    serialize_matrix,
    xfer_kind_of,
)
from repro.sdk.transfer import XferKind


@pytest.fixture
def mem() -> GuestMemory:
    return GuestMemory(128 << 20)


def test_header_pack_unpack_roundtrip():
    header = RequestHeader(kind=RequestKind.WRITE_RANK, offset=12345,
                           count=7, symbol="my_symbol", program_name="prog")
    packed = header.pack()
    unpacked = RequestHeader.unpack(packed)
    assert unpacked == header


def test_header_unicode_symbol():
    header = RequestHeader(kind=RequestKind.LOAD, symbol="héap",
                           program_name="nw_dpu")
    assert RequestHeader.unpack(header.pack()) == header


def test_header_too_short_rejected():
    with pytest.raises(SerializationError):
        RequestHeader.unpack(np.zeros(10, dtype=np.uint8))


def test_header_bad_kind_rejected():
    raw = RequestHeader(kind=RequestKind.CI_OP).pack().copy()
    raw[:8] = np.frombuffer(np.uint64(99).tobytes(), dtype=np.uint8)
    with pytest.raises(SerializationError):
        RequestHeader.unpack(raw)


def test_serialize_write_matrix_layout(mem):
    bufs = [np.arange(100, dtype=np.uint8),
            (np.arange(5000) % 256).astype(np.uint8)]
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 64, bufs)
    header = RequestHeader(kind=RequestKind.WRITE_RANK, offset=64,
                           symbol=MRAM_HEAP_SYMBOL)
    sreq = serialize_matrix(header, matrix, mem)
    # Fig. 7: request info + matrix meta + per-DPU (meta, pages).
    assert len(sreq.chain) == 2 + 2 * 2
    assert sreq.total_pages == 1 + 2


def test_serialize_deserialize_roundtrip(mem):
    bufs = [np.random.default_rng(i).integers(0, 255, 3000, dtype=np.uint8)
            .astype(np.uint8) for i in range(3)]
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, bufs)
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    sreq = serialize_matrix(header, matrix, mem)
    got_header, entries, skips = deserialize_request(sreq.chain, mem)
    assert got_header.kind is RequestKind.WRITE_RANK
    assert skips == []
    assert len(entries) == 3
    for i, entry in enumerate(entries):
        assert entry.size == 3000
        data = gather_entry_data(entry, mem)
        assert np.array_equal(data, bufs[i])


def test_read_matrix_allocates_destination_pages(mem):
    matrix = uniform_read(MRAM_HEAP_SYMBOL, 0, 10_000, nr_dpus=2)
    header = RequestHeader(kind=RequestKind.READ_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    sreq = serialize_matrix(header, matrix, mem)
    _, entries, _ = deserialize_request(sreq.chain, mem)
    results = (np.arange(10_000) % 251).astype(np.uint8)
    for entry in entries:
        scatter_entry_data(entry, results, mem)
        assert np.array_equal(gather_entry_data(entry, mem), results)
    # And the frontend can find them through the data descriptors.
    for (dpu, size, gpa) in sreq.data_descriptors:
        assert np.array_equal(mem.read(gpa, size), results)


def test_scatter_wrong_size_rejected(mem):
    matrix = uniform_read(MRAM_HEAP_SYMBOL, 0, 100, nr_dpus=1)
    sreq = serialize_matrix(
        RequestHeader(kind=RequestKind.READ_RANK, symbol=MRAM_HEAP_SYMBOL),
        matrix, mem)
    _, entries, _ = deserialize_request(sreq.chain, mem)
    with pytest.raises(SerializationError):
        scatter_entry_data(entries[0], np.zeros(99, dtype=np.uint8), mem)


def test_deserialize_truncated_chain_rejected(mem):
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, [np.zeros(10, np.uint8)])
    sreq = serialize_matrix(
        RequestHeader(kind=RequestKind.WRITE_RANK, symbol=MRAM_HEAP_SYMBOL),
        matrix, mem)
    with pytest.raises(SerializationError):
        deserialize_request(sreq.chain[:-1], mem)


def test_deserialize_empty_chain_rejected(mem):
    with pytest.raises(SerializationError):
        deserialize_request([], mem)


def test_header_only_request(mem):
    # A header-only chain deserializes to zero entries.
    from repro.virt.virtio import write_buffer
    header = RequestHeader(kind=RequestKind.LAUNCH)
    chain = [write_buffer(mem, header.pack())]
    got, entries, skips = deserialize_request(chain, mem)
    assert got.kind is RequestKind.LAUNCH
    assert entries == []
    assert skips == []


def test_xfer_kind_mapping():
    assert xfer_kind_of(RequestKind.WRITE_RANK) is XferKind.TO_DPU
    assert xfer_kind_of(RequestKind.READ_RANK) is XferKind.FROM_DPU
    with pytest.raises(SerializationError):
        xfer_kind_of(RequestKind.LAUNCH)


def test_page_gpas_are_page_aligned(mem):
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0,
                           [np.zeros(PAGE_SIZE * 3, np.uint8)])
    sreq = serialize_matrix(
        RequestHeader(kind=RequestKind.WRITE_RANK, symbol=MRAM_HEAP_SYMBOL),
        matrix, mem)
    _, entries, _ = deserialize_request(sreq.chain, mem)
    assert (entries[0].page_gpas % PAGE_SIZE == 0).all()
    assert entries[0].page_gpas.size == 3


# -- cache wire format (Optimization(cache=True) writes) ----------------------

def test_cache_format_roundtrips_digests_and_skips(mem):
    from repro.virt.serialization import SkipExtent
    bufs = [np.arange(200, dtype=np.uint8),
            (np.arange(5000) % 256).astype(np.uint8)]
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 64, bufs)
    header = RequestHeader(kind=RequestKind.WRITE_RANK, offset=64,
                           symbol=MRAM_HEAP_SYMBOL)
    digests = {0: 0x1111, 1: 0xFFFFFFFFFFFFFFFF}
    skips = [SkipExtent(dpu_index=2, size=4096, digest=0xABCDEF),
             SkipExtent(dpu_index=3, size=17, digest=0)]
    sreq = serialize_matrix(header, matrix, mem, digests=digests, skips=skips)
    _, entries, got_skips = deserialize_request(sreq.chain, mem)
    assert got_skips == skips
    assert [e.digest for e in entries] == [0x1111, 0xFFFFFFFFFFFFFFFF]
    for i, entry in enumerate(entries):
        assert np.array_equal(gather_entry_data(entry, mem), bufs[i])


def test_cache_format_without_skips(mem):
    # digests alone (no suppressed extents) still select the cache
    # format: entry metadata grows the digest word, skip count is zero.
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, [np.zeros(100, np.uint8)])
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    sreq = serialize_matrix(header, matrix, mem, digests={0: 42})
    meta = mem.read(sreq.chain[1].gpa, sreq.chain[1].length).view(np.uint64)
    assert meta.size == 4 and int(meta[3]) == 0
    _, entries, skips = deserialize_request(sreq.chain, mem)
    assert skips == []
    assert entries[0].digest == 42


def test_default_format_is_unchanged_by_the_cache_code(mem):
    # The cache-off wire format must stay bit-identical: 3 meta words,
    # no digest word on entries.
    matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, [np.zeros(100, np.uint8)])
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    sreq = serialize_matrix(header, matrix, mem)
    meta = mem.read(sreq.chain[1].gpa, sreq.chain[1].length).view(np.uint64)
    assert meta.size == 3
    emeta = mem.read(sreq.chain[2].gpa, sreq.chain[2].length).view(np.uint64)
    assert emeta.size == 3
    _, entries, skips = deserialize_request(sreq.chain, mem)
    assert skips == [] and entries[0].digest == 0


@pytest.mark.parametrize("nr_entries", [2, 3])
@pytest.mark.parametrize("shape", ["write-zeros", "write-random", "read"])
def test_chain_never_wraps_over_itself(shape, nr_entries):
    """Regression (R3): every buffer of a chain used to be its own arena
    allocation, so a chain whose buffers each fit but whose sum did not
    wrapped *inside* itself and its last payload overwrote the request
    header — a zero-filled push decoded as ``GET_CONFIG``, a random one
    as ``SerializationError: unknown request kind``.  A chain is one run:
    it wraps before its first buffer (2 x 3 MB behind a cursor at 6 MB of
    8) or is refused with nothing placed (3 x 3 MB)."""
    mem = GuestMemory(64 << 20, arena_bytes=8 << 20)
    mem.alloc_pages((6 << 20) // PAGE_SIZE)
    size = 3 << 20
    rng = np.random.default_rng(nr_entries)
    if shape == "read":
        matrix = uniform_read(MRAM_HEAP_SYMBOL, 0, size, nr_dpus=nr_entries)
        header = RequestHeader(RequestKind.READ_RANK, symbol=MRAM_HEAP_SYMBOL)
    else:
        bufs = [np.zeros(size, np.uint8) if shape == "write-zeros"
                else rng.integers(0, 256, size, dtype=np.uint8)
                for _ in range(nr_entries)]
        matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, bufs)
        header = RequestHeader(RequestKind.WRITE_RANK, symbol=MRAM_HEAP_SYMBOL)
    before = (mem._arena_cursor, mem.region.materialized_bytes)

    if nr_entries == 3:
        with pytest.raises(TranslationError, match=str(8 << 20)):
            serialize_matrix(header, matrix, mem)
        assert (mem._arena_cursor, mem.region.materialized_bytes) == before
        return

    sreq = serialize_matrix(header, matrix, mem)
    starts = [d.gpa for d in sreq.chain]
    assert starts[0] == mem._arena_start and starts == sorted(starts)
    if shape == "read":
        # The device's side of a read: results land in the bound rows,
        # and the metadata still decodes while they do.
        rows = [np.zeros(size, np.uint8) for _ in range(nr_entries)]
        gpas = [gpa for _dpu, _size, gpa in sreq.data_descriptors]
        mem.bind(gpas, rows)
    got_header, entries, _ = deserialize_request(sreq.chain, mem)
    assert got_header == header
    assert [(e.dpu_index, e.size) for e in entries] == [
        (e.dpu_index, size) for e in matrix.entries]
    if shape == "read":
        results = [rng.integers(0, 256, size, dtype=np.uint8) for _ in rows]
        for entry, result in zip(entries, results):
            scatter_entry_data(entry, result, mem)
        mem.unbind(gpas)
        assert all(np.array_equal(r, w) for r, w in zip(rows, results))
    else:
        for entry, buf in zip(entries, bufs):
            assert np.array_equal(gather_entry_data(entry, mem), buf)


def test_malformed_cache_meta_rejected(mem):
    # A matrix-meta block whose size matches neither format is rejected.
    from repro.virt.virtio import write_buffer
    header = RequestHeader(kind=RequestKind.WRITE_RANK,
                           symbol=MRAM_HEAP_SYMBOL)
    for words in ([1, 0, 1, 2, 9, 9, 9],    # claims 2 skips, holds 1
                  [1, 0, 1, 1, 9, 9],       # claims 1 skip, 2 words short
                  [1, 0]):                   # shorter than default format
        chain = [write_buffer(mem, header.pack()),
                 write_buffer(mem, np.array(words, dtype=np.uint64))]
        with pytest.raises(SerializationError):
            deserialize_request(chain, mem)
