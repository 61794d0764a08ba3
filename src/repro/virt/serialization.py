"""The transfer-matrix wire format (Figs. 6 and 7).

The frontend cannot hand Linux ``struct page`` pointers to Firecracker —
they are meaningless outside the guest — so the matrix is serialized into
two buffer types (Section 4.1 "Data Transfer"):

- **metadata buffers**: 64-bit integer arrays describing the whole matrix
  and each DPU's slice (size, offset, page count);
- **page buffers**: 64-bit arrays of Guest Physical Addresses, one entry
  per data page, letting Firecracker reach the pages with no copy.

Layout in the virtqueue (Fig. 7)::

    [request info][matrix meta][dpu0 meta][dpu0 pages][dpu1 meta]...

which is at most 2 + 2*64 = 130 buffers for a full 64-DPU rank.

With the content-aware transfer cache enabled (``Optimization(cache=True)``,
see ``docs/transfer_cache.md``) writes use an extended **cache format**:
the matrix-meta buffer grows a tail of ``SKIP`` extents — unchanged
slices the backend resolves from its resident-extent index instead of
the wire — and each kept entry's metadata gains a fourth word, its
64-bit content digest.  The default format is emitted bit-for-bit
unchanged when the cache is off; the deserializer tells the two apart by
the metadata buffer sizes alone, so old and new chains coexist.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.config import PAGE_SIZE
from repro.errors import SerializationError
from repro.sdk.transfer import DpuEntry, TransferMatrix, XferKind
from repro.virt.guest_memory import GuestMemory
from repro.virt.virtio import Descriptor, write_buffer


class RequestKind(enum.IntEnum):
    """Operation codes of the virtio-pim device (Appendix A.1)."""

    GET_CONFIG = 0
    LOAD = 1
    WRITE_RANK = 2
    READ_RANK = 3
    LAUNCH = 4
    CI_OP = 5
    RELEASE = 6


#: The lower-case name every layer labels a request kind with: span
#: attributes, metric label values, ``CostModel.backend_steps`` kinds.
KIND_LABEL: Dict[RequestKind, str] = {
    member: member.name.lower() for member in RequestKind}


@dataclass
class RequestHeader:
    """The request-info buffer: op code plus addressing information (the
    first descriptor of the Fig. 6/7 wire format)."""

    kind: RequestKind
    offset: int = 0
    count: int = 0                 #: CI op count (CI_OP requests)
    symbol: str = ""
    program_name: str = ""         #: LOAD requests

    def pack(self) -> np.ndarray:
        sym = self.symbol.encode("utf-8")
        prog = self.program_name.encode("utf-8")
        head = np.array([int(self.kind), self.offset, self.count,
                         len(sym), len(prog)], dtype=np.uint64)
        payload = np.frombuffer(sym + prog, dtype=np.uint8)
        return np.concatenate([head.view(np.uint8), payload])

    @classmethod
    def unpack(cls, raw: np.ndarray) -> "RequestHeader":
        if raw.size < 40:
            raise SerializationError(
                f"request header of {raw.size} bytes is too short"
            )
        head = raw[:40].view(np.uint64)
        sym_len, prog_len = int(head[3]), int(head[4])
        tail = raw[40:40 + sym_len + prog_len].tobytes()
        try:
            kind = RequestKind(int(head[0]))
        except ValueError:
            raise SerializationError(f"unknown request kind {int(head[0])}")
        return cls(
            kind=kind,
            offset=int(head[1]),
            count=int(head[2]),
            symbol=tail[:sym_len].decode("utf-8"),
            program_name=tail[sym_len:sym_len + prog_len].decode("utf-8"),
        )


@dataclass
class SerializedEntry:
    """One DPU's slice after deserialization: metadata + page GPAs (the
    per-DPU buffer pair of the Fig. 7 chain layout)."""

    dpu_index: int
    size: int
    page_gpas: np.ndarray
    #: Content digest of the payload (cache wire format only; 0 means
    #: "not digested" and the backend records nothing for the extent).
    digest: int = 0


@dataclass(frozen=True)
class SkipExtent:
    """An unchanged extent elided from the wire (cache format only).

    The offset is the matrix offset — every entry of one matrix shares
    it — so a skip is fully located by its DPU index.  The backend must
    find the extent, with this digest, in its resident index; anything
    else is a protocol violation.
    """

    dpu_index: int
    size: int
    digest: int


@dataclass
class CacheMeta:
    """What the cache wire format adds to a write, as the transfer cache
    produces it: each kept entry's content digest, by DPU index, and the
    SKIP extents.  ``None`` in its place selects the default format."""

    digests: Dict[int, int]
    skips: List[SkipExtent]


@dataclass
class SerializedRequest:
    """A fully assembled descriptor chain plus accounting (one transferq
    message of the Appendix A.1 protocol)."""

    header: RequestHeader
    chain: List[Descriptor]
    total_pages: int = 0
    data_descriptors: List[Tuple[int, int, int]] = field(default_factory=list)
    #: ``data_descriptors[i]`` = (dpu_index, size, first page GPA) for reads.


def _pages(nbytes: int) -> int:
    """Guest pages one wire buffer or one entry's payload occupies."""
    return max(1, (nbytes + PAGE_SIZE - 1) // PAGE_SIZE)


def matrix_meta_words(matrix: TransferMatrix,
                      cache_meta: Optional[CacheMeta]) -> np.ndarray:
    """The matrix-meta buffer contents (u64), shared by the serializer
    and the plan compiler so both emit the identical wire layout."""
    head = [len(matrix.entries), matrix.offset,
            int(matrix.kind is XferKind.TO_DPU)]
    if cache_meta is not None:
        head.append(len(cache_meta.skips))
        for skip in cache_meta.skips:
            head.extend((skip.dpu_index, skip.size, skip.digest))
    return np.array(head, dtype=np.uint64)


def entry_meta_words(dpu_index: int, size: int, nr_pages: int, digest: int,
                     cache_format: bool) -> np.ndarray:
    """One entry-meta buffer's contents (u64) — see :func:`matrix_meta_words`."""
    words = [dpu_index, size, nr_pages]
    if cache_format:
        words.append(digest)
    return np.array(words, dtype=np.uint64)


def build_chain(header: RequestHeader, matrix: TransferMatrix,
                cache_meta: Optional[CacheMeta],
                put: Callable[..., Descriptor],
                place: Callable[[DpuEntry, int], int]) -> SerializedRequest:
    """Assemble the Fig. 7 descriptor chain of one data request.

    ``put(words, device_writable=False)`` stores one wire buffer and
    returns its descriptor; ``place(entry, nr_pages)`` returns the GPA
    of the entry's payload pages (already filled, for writes).  The
    serializer and the plan compiler differ only in those two — rolling
    arena buffers vs reserved, pinned ones — so both emit this layout.
    """
    cache_format = cache_meta is not None
    digests = cache_meta.digests if cache_format else {}
    chain = [put(header.pack()), put(matrix_meta_words(matrix, cache_meta))]
    total_pages = 0
    data_descriptors: List[Tuple[int, int, int]] = []
    writable = matrix.kind is XferKind.FROM_DPU
    for entry in matrix.entries:
        nr_pages = _pages(entry.size)
        total_pages += nr_pages
        chain.append(put(entry_meta_words(
            entry.dpu_index, entry.size, nr_pages,
            digests.get(entry.dpu_index, 0), cache_format)))
        gpa = place(entry, nr_pages)
        page_gpas = (np.arange(nr_pages, dtype=np.uint64) * PAGE_SIZE
                     + np.uint64(gpa))
        chain.append(put(page_gpas, device_writable=writable))
        data_descriptors.append((entry.dpu_index, entry.size, gpa))
    return SerializedRequest(header=header, chain=chain,
                             total_pages=total_pages,
                             data_descriptors=data_descriptors)


def serialize_matrix(header: RequestHeader, matrix: TransferMatrix,
                     memory: GuestMemory,
                     cache_meta: Optional[CacheMeta] = None,
                     ) -> SerializedRequest:
    """Serialize ``matrix`` into guest memory and build the chain.

    For writes, the payload is placed into guest pages and referenced by
    GPA (zero-copy hand-off).  For reads, destination pages are allocated
    so the backend can deposit results directly into guest memory.

    The chain is sized first and taken from the rolling arena as *one*
    run, so the arena wraps before the chain's first buffer or not at
    all — a later buffer can never land on an earlier one — and a chain
    the arena cannot hold whole raises :class:`TranslationError` with
    nothing placed.

    ``cache_meta`` switches the chain to the cache wire format; leaving
    it ``None`` — the cache-off default — emits the original format
    byte-for-byte.
    """
    # [header][matrix meta]([entry meta][payload pages][page list])*
    matrix_meta = matrix_meta_words(matrix, cache_meta)
    chain_pages = (_pages(header.pack().size) + _pages(matrix_meta.nbytes)
                   + sum(1 + n + _pages(8 * n)
                         for n in (_pages(e.size) for e in matrix.entries)))
    cursor = memory.alloc_pages(chain_pages)
    end = cursor + chain_pages * PAGE_SIZE

    def take(nr_pages: int) -> int:
        nonlocal cursor
        gpa, cursor = cursor, cursor + nr_pages * PAGE_SIZE
        return gpa

    def place(entry: DpuEntry, nr_pages: int) -> int:
        gpa = take(nr_pages)
        if matrix.kind is XferKind.TO_DPU:
            memory.write(gpa, entry.data)
        return gpa

    sreq = build_chain(header, matrix, cache_meta,
                       partial(write_buffer, memory, alloc=take), place)
    assert cursor == end, "chain sizing disagrees with build_chain"
    return sreq


def deserialize_request(chain: List[Descriptor], memory: GuestMemory,
                        ) -> Tuple[RequestHeader, List[SerializedEntry],
                                   List[SkipExtent]]:
    """Backend side: rebuild header, entries and SKIP extents from a chain.

    The third element is empty for the default wire format; only the
    cache format (``Optimization(cache=True)`` writes) can carry skips.
    """
    if not chain:
        raise SerializationError("empty descriptor chain")
    header = RequestHeader.unpack(memory.read(chain[0].gpa, chain[0].length))
    if len(chain) == 1:
        return header, [], []
    meta = memory.read(chain[1].gpa, chain[1].length).view(np.uint64)
    nr_entries = int(meta[0])
    skips: List[SkipExtent] = []
    if meta.size != 3:
        # Cache format: word 3 counts skip extents, three words each.
        if meta.size < 4 or meta.size != 4 + 3 * int(meta[3]):
            raise SerializationError(
                f"matrix metadata of {meta.size} words matches neither the "
                f"default (3) nor the cache format (4 + 3*nr_skips)"
            )
        for s in range(int(meta[3])):
            base = 4 + 3 * s
            skips.append(SkipExtent(dpu_index=int(meta[base]),
                                    size=int(meta[base + 1]),
                                    digest=int(meta[base + 2])))
    expected = 2 + 2 * nr_entries
    if len(chain) != expected:
        raise SerializationError(
            f"chain has {len(chain)} buffers, expected {expected} "
            f"for {nr_entries} entries"
        )
    entries: List[SerializedEntry] = []
    for i in range(nr_entries):
        meta_desc = chain[2 + 2 * i]
        pages_desc = chain[3 + 2 * i]
        emeta = memory.read(meta_desc.gpa, meta_desc.length).view(np.uint64)
        page_gpas = memory.read(pages_desc.gpa, pages_desc.length).view(np.uint64)
        if int(emeta[2]) != page_gpas.size:
            raise SerializationError(
                f"entry {i}: metadata says {int(emeta[2])} pages, "
                f"page buffer holds {page_gpas.size}"
            )
        entries.append(SerializedEntry(
            dpu_index=int(emeta[0]), size=int(emeta[1]),
            page_gpas=page_gpas.copy(),
            digest=int(emeta[3]) if emeta.size >= 4 else 0,
        ))
    return header, entries, skips


def gather_entry_data(entry: SerializedEntry, memory: GuestMemory,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """Collect an entry's payload from guest pages (bulk per contiguous run).

    With ``out`` (a pooled scratch buffer of at least ``entry.size`` bytes)
    the gather is allocation-free; the returned array is the filled
    ``entry.size``-byte prefix of ``out``.  Only the payload bytes are
    touched — the partial tail page is never read past ``entry.size``.
    """
    if out is None:
        out = np.empty(entry.size, dtype=np.uint8)
    elif out.size < entry.size:
        raise SerializationError(
            f"gather buffer of {out.size} bytes is smaller than entry "
            f"size {entry.size}"
        )
    dst = out[:entry.size]
    memory.gather_pages(entry.page_gpas, entry.size, dst)
    return dst


def scatter_entry_data(entry: SerializedEntry, data: np.ndarray,
                       memory: GuestMemory) -> None:
    """Deposit read results into the entry's guest destination pages."""
    buf = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
    if buf.size != entry.size:
        raise SerializationError(
            f"result of {buf.size} bytes does not match entry size {entry.size}"
        )
    memory.scatter_pages(entry.page_gpas, buf)
