"""Lazily materialized byte-addressable memory regions.

A full testbed exposes 480 DPUs x 64 MB of MRAM = 30 GB, which we cannot
(and need not) allocate eagerly.  :class:`MemoryRegion` materializes fixed
size segments on first write; reads of untouched areas return zeros, which
matches DRAM content after the manager's reset-to-zero policy (Section 3.5).

Segments are the *accounting* granularity (checkpoints, memory usage, the
reset policy all count 64 KB segments), but the *backing store* is coarser:
segments live inside pooled 16 MB extents, so a bulk transfer crossing many
segments is one slice copy per extent instead of one Python-level copy per
64 KB.  A per-extent mask holds one state per segment: *present* (written
by the region, the only state reads look at), *zero* (absent, and its
extent bytes read zero too: a fresh mapping, or pages given back to the
kernel) or *stale* (absent, but an earlier owner's bytes may be there).

What the host keeps resident follows the masks.  An extent is a private
anonymous mapping, so a *fresh* one costs address space only, and a
write makes resident only the pages it touches: materializing a zero
segment writes nothing but the data, and only a stale one is zeroed
around it.  A *pooled* extent holds the segments its last owner wrote
and nothing else — the rest is given back to the kernel when the region
lets go of it.  Resident memory is therefore bounded by the footprints
of each extent's current and previous owner, not by everything the
process ever touched.
"""

from __future__ import annotations

import mmap
import os
import weakref
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import MemoryAccessError
from repro.hardware.copies import Piece

BytesLike = Union[bytes, bytearray, memoryview, np.ndarray]

#: Materialization granularity.  64 KB balances dict overhead against waste.
SEGMENT_SIZE = 64 * 1024

#: Backing-store granularity: segments per pooled extent (16 MB).
EXTENT_SEGMENTS = 256
EXTENT_BYTES = EXTENT_SEGMENTS * SEGMENT_SIZE

#: ``madvise`` hints, ``None`` where the platform's ``mmap`` has no such
#: constant: the hint is then skipped and the store behaves the same,
#: it only keeps more resident.
_MADV_NOHUGEPAGE = getattr(mmap, "MADV_NOHUGEPAGE", None)
_MADV_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)

#: Segment states, one ``uint8`` per segment in an extent's mask.
_ZERO, _PRESENT, _STALE = 0, 1, 2

#: Private, so dropped pages come back zero-filled and cost nothing until
#: touched (POSIX maps shared by default; elsewhere there are no flags
#: and an anonymous map is private already).
_MAP_FLAGS = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
              if hasattr(mmap, "MAP_PRIVATE") else {})


def _hand_on(ext: np.ndarray, mask: np.ndarray) -> None:
    """Turn ``mask`` into what the extent's next owner finds: present
    segments stale, and every maximal run of stale absent ones given back
    to the kernel, which zeroes them.  Without ``MADV_DONTNEED`` every
    segment counts as stale."""
    if _MADV_DONTNEED is None:
        mask[:] = _STALE
        return
    stale = np.concatenate(([False], mask == _STALE, [False]))
    edges = np.flatnonzero(stale[1:] != stale[:-1])
    # The map is the array's base (in a memoryview on newer numpy).
    mapping = ext.base.obj if isinstance(ext.base, memoryview) else ext.base
    for start, stop in zip(edges[::2].tolist(), edges[1::2].tolist()):
        mapping.madvise(_MADV_DONTNEED, start * SEGMENT_SIZE,
                        (stop - start) * SEGMENT_SIZE)
    mask[:] = np.where(mask == _PRESENT, _STALE, _ZERO)


def _default_cap() -> int:
    """6 GiB, or three quarters of physical memory where that is less."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        phys = pages * os.sysconf("SC_PAGE_SIZE") if pages > 0 else 0
    except (AttributeError, OSError, ValueError):
        phys = 0
    return min(6 << 30, phys * 3 // 4) if phys > 0 else 6 << 30


class _ExtentPool:
    """Process-wide recycler for extent backing arrays.

    First touch is the expensive part of a bulk transfer into a new
    region (one minor fault per 4 KB, several times slower than memcpy),
    so extents are recycled warm: a workload that writes the same spans
    again finds its pages resident.  Only those, though.  An extent is a
    zero-fill mapping without huge pages — touching 16 KB costs 16 KB,
    not 2 MB — and :meth:`release_all` gives back every segment its owner
    did not write, so a pooled extent holds its last owner's footprint
    rather than the union of every footprint it has seen.

    Each extent travels with its mask.  Stale bytes are never visible (a
    segment only reads from its extent once present, and materializing a
    stale one zeroes what the write does not cover); a zero segment is
    trusted to read zero, which holds because only ``MADV_DONTNEED`` —
    or a fresh mapping — makes one.
    """

    def __init__(self) -> None:
        self.max_bytes = _default_cap()
        #: Extent size → ``(extent, mask)`` pairs.
        self._free: Dict[int, list] = {}
        self._held = 0

    def acquire(self, nbytes: int) -> Tuple[np.ndarray, np.ndarray]:
        """An extent of ``nbytes`` and its mask (all zero when fresh)."""
        lst = self._free.get(nbytes)
        if lst:
            self._held -= nbytes
            return lst.pop()
        mapping = mmap.mmap(-1, nbytes, **_MAP_FLAGS)
        if _MADV_NOHUGEPAGE is not None:
            mapping.madvise(_MADV_NOHUGEPAGE)
        # The array is the only reference: the map lives as long as it
        # does and is never closed.
        return (np.frombuffer(mapping, dtype=np.uint8),
                np.zeros(nbytes // SEGMENT_SIZE, dtype=np.uint8))

    def release_all(self, extents: Dict[int, np.ndarray],
                    masks: Dict[int, np.ndarray]) -> None:
        """Take every extent of ``extents`` into the free list (up to the
        byte cap) with its mask from ``masks``, handed on, and clear both
        dicts.  Only called on backing arrays the region owns — nothing
        else ever holds a reference to them."""
        for ext_idx, ext in extents.items():
            if self._held + ext.size <= self.max_bytes:
                _hand_on(ext, masks[ext_idx])
                self._free.setdefault(ext.size, []).append(
                    (ext, masks[ext_idx]))
                self._held += ext.size
        extents.clear()
        masks.clear()


#: Shared across all regions of the process and touched only by the
#: calling thread (rank copy workers only copy, see ``copies``); bounded
#: at ``max_bytes`` of pooled extents, counted whole whatever part of
#: them is resident.  On an 8 GB host the cap still holds the 4 GiB of a
#: 256-DPU session's 16 MB MRAM extents, so back-to-back sessions never
#: re-fault their transfer arenas.
EXTENT_POOL = _ExtentPool()


def _as_u8(data: BytesLike) -> np.ndarray:
    """View ``data`` as a contiguous uint8 numpy array without copying."""
    if isinstance(data, np.ndarray):
        if (data.dtype == np.uint8 and data.ndim == 1
                and data.flags.c_contiguous):
            return data
        return np.ascontiguousarray(data).view(np.uint8).reshape(-1)
    return np.frombuffer(bytes(data) if isinstance(data, memoryview) else data,
                         dtype=np.uint8)


def _aligned_empty(nbytes: int) -> np.ndarray:
    """``np.empty`` bytes starting on a 64-byte boundary."""
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    pos = -raw.__array_interface__["data"][0] % 64
    return raw[pos:pos + nbytes]


class BlockRecycler:
    """One rank allocation's read result blocks, handed out again once
    nothing of them is alive.

    On hardware a read lands in the application's own long-lived buffer,
    whose pages were faulted once; a block from the allocator is zeroed
    by the kernel on every read (glibc returns anything large straight
    to it), which cost a bulk read more than its copy.  So each owner of
    a rank allocation — the guest frontend, the native mapping — keeps
    one of these, and a block is in one of four states:

    - *fresh*: no idle block of the size asked for, so ``np.empty`` — the
      first read of a shape costs what it always did, huge pages or heap
      as numpy and the allocator see fit;
    - *on loan*: some row, view of a row or ``memoryview`` of one is
      alive.  The block is the caller's, exactly as a fresh one is;
    - *idle*: the last of those died and the bytes came back, pages
      resident, for the next read of that size.  Only blocks of the most
      recent size are kept — a read of another size drops them — so the
      recycler holds a working set, not a high-water mark;
    - *dropped*: :meth:`release` (the allocation's end) forgets the idle
      blocks and stops watching the ones on loan, which then die with
      their last row.  A block never leaves the allocation that read it.
    """

    def __init__(self) -> None:
        self._idle: List[np.ndarray] = []
        #: Size of every array in ``_idle``: the last size asked for.
        self._nbytes = 0
        #: ``id(store)`` → the weak reference watching the block handed
        #: out over it; the reference must live for its callback to run.
        self._loans: Dict[int, weakref.ref] = {}

    @property
    def on_loan(self) -> int:
        """Blocks something still keeps alive."""
        return len(self._loans)

    def take(self, nbytes: int) -> np.ndarray:
        """``nbytes`` of unspecified content on a 64-byte boundary."""
        if nbytes != self._nbytes:
            self._idle.clear()
            self._nbytes = nbytes
        store = self._idle.pop() if self._idle else _aligned_empty(nbytes)
        # A second array over the store's bytes, and through a
        # memoryview so that numpy takes them for a foreign buffer: it
        # then bases every view cut from ``block``, however long the
        # chain, on ``block`` itself, which is therefore alive exactly as
        # long as anything of this loan.  (Views of a plain slice are
        # based on the array the slice came from, not on the slice:
        # watching one hands the bytes on while its siblings are in use.)
        block = np.frombuffer(memoryview(store), dtype=np.uint8)
        self._loans[id(store)] = weakref.ref(
            block, partial(self._came_back, store))
        return block

    def _came_back(self, store: np.ndarray, _ref: weakref.ref) -> None:
        del self._loans[id(store)]
        if store.size == self._nbytes:
            self._idle.append(store)

    def release(self) -> None:
        """The allocation is over: keep nothing, take nothing back."""
        self._idle.clear()
        self._loans.clear()


def result_block(sizes: Sequence[int],
                 recycler: Optional[BlockRecycler] = None,
                 ) -> List[np.ndarray]:
    """One block cut into a row per read result.

    A multi-DPU read hands its caller ``len(sizes)`` arrays.  Allocated
    one by one, megabyte results come from (and return to) the kernel on
    every read, one minor fault per 4 KB; one block per request is a
    single mapping large enough for huge pages.  Rows start on 64-byte
    boundaries, are disjoint, and belong to the caller — they share a
    base but alias nothing the simulator keeps.  Their content is
    unspecified: whoever asks fills every byte before handing them on.

    The block is freshly allocated, or — with ``recycler``, the calling
    allocation's :class:`BlockRecycler` — one whose previous rows have
    all died, which only changes whether its pages are already resident.
    """
    nbytes = 0
    for size in sizes:
        nbytes += -(-size // 64) * 64
    block = (_aligned_empty(nbytes) if recycler is None
             else recycler.take(nbytes))
    pos = 0
    rows = []
    for size in sizes:
        rows.append(block[pos:pos + size])
        pos += -(-size // 64) * 64
    return rows


class MemoryRegion:
    """A byte-addressable region of ``size`` bytes, materialized on demand
    (backs the MRAM/WRAM/IRAM memories of §2).

    Supports the three memory kinds of a DPU (MRAM, WRAM, IRAM) as well as
    guest physical memory in the virtualization layer.
    """

    def __init__(self, size: int, name: str = "mem") -> None:
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        self.size = size
        self.name = name
        # Small regions (WRAM, IRAM) get right-sized extents; large ones
        # use the shared 16 MB pool class.
        nr_segments = -(-size // SEGMENT_SIZE)
        self._extent_segs = min(EXTENT_SEGMENTS, nr_segments)
        self._extent_bytes = self._extent_segs * SEGMENT_SIZE
        self._extents: Dict[int, np.ndarray] = {}
        self._masks: Dict[int, np.ndarray] = {}
        self._nr_present = 0
        #: Bumped whenever the backing store is dropped wholesale
        #: (``fill(0)``, which releases extents back to the shared pool).
        #: Holders of pinned views (:meth:`pin_span`) must revalidate
        #: against this before writing — a recycled extent may already
        #: back a *different* region.
        self.generation = 0

    # -- bounds -----------------------------------------------------------

    def check(self, offset: int, length: int) -> None:
        """Raise :class:`MemoryAccessError` unless ``[offset, offset +
        length)`` lies inside the region."""
        if offset < 0 or length < 0 or offset + length > self.size:
            raise MemoryAccessError(
                f"{self.name}: access [{offset}, {offset + length}) outside "
                f"region of {self.size} bytes"
            )

    # -- data path --------------------------------------------------------

    def read(self, offset: int, length: int) -> np.ndarray:
        """Return ``length`` bytes starting at ``offset`` as a uint8 array."""
        self.check(offset, length)
        ext_idx, ext_off = divmod(offset, self._extent_bytes)
        seg = ext_off // SEGMENT_SIZE
        if ext_off + length <= (seg + 1) * SEGMENT_SIZE:
            # Fast path: the access stays inside one segment (every DMA
            # block and metadata descriptor lands here).
            ext = self._extents.get(ext_idx)
            if ext is None or self._masks[ext_idx][seg] != _PRESENT:
                return np.zeros(length, dtype=np.uint8)
            return ext[ext_off:ext_off + length].copy()
        out = np.empty(length, dtype=np.uint8)
        for dst, src in self.read_pieces(offset, out):
            dst[...] = 0 if src is None else src
        return out

    def read_into(self, offset: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (1-D uint8) from the region — no allocation.

        The scatter-gather data plane reads through here with pooled
        buffers, so bulk transfers stop paying one fresh allocation (and
        one zero-fill) per hop.
        """
        for dst, src in self.read_pieces(offset, out):
            dst[...] = 0 if src is None else src
        return out

    def read_pieces(self, offset: int, out: np.ndarray) -> List[Piece]:
        """The slice copies that fill ``out`` (1-D uint8) from
        ``[offset, offset + out.size)``: a source view of the extent for
        a present span, ``None`` (zero) for an absent one.  Resolving
        them changes nothing; :meth:`read_into` is running them.
        """
        length = out.size
        if offset < 0 or offset + length > self.size:
            self.check(offset, length)
        extent_bytes = self._extent_bytes
        pieces: List[Piece] = []
        pos = 0
        while pos < length:
            ext_idx, ext_off = divmod(offset + pos, extent_bytes)
            chunk = min(length - pos, extent_bytes - ext_off)
            ext = self._extents.get(ext_idx)
            if ext is None:
                pieces.append((out[pos:pos + chunk], None))
                pos += chunk
                continue
            mask = self._masks[ext_idx]
            s0 = ext_off // SEGMENT_SIZE
            s1 = (ext_off + chunk - 1) // SEGMENT_SIZE
            span = mask[s0:s1 + 1] == _PRESENT
            if span.all():
                # Fully materialized span: one slice copy for the whole
                # extent's share (the bulk-transfer hot path).
                pieces.append((out[pos:pos + chunk],
                               ext[ext_off:ext_off + chunk]))
            elif not span.any():
                pieces.append((out[pos:pos + chunk], None))
            else:
                end = ext_off + chunk
                p, o = pos, ext_off
                while o < end:
                    seg = o // SEGMENT_SIZE
                    piece = min(end - o, (seg + 1) * SEGMENT_SIZE - o)
                    pieces.append((out[p:p + piece], ext[o:o + piece]
                                   if mask[seg] == _PRESENT else None))
                    p += piece
                    o += piece
            pos += chunk
        return pieces

    def _extent(self, ext_idx: int) -> Tuple[np.ndarray, np.ndarray]:
        """Extent ``ext_idx`` and its mask, acquired on first use."""
        ext = self._extents.get(ext_idx)
        if ext is None:
            ext, self._masks[ext_idx] = EXTENT_POOL.acquire(self._extent_bytes)
            self._extents[ext_idx] = ext
        return ext, self._masks[ext_idx]

    def write(self, offset: int, data: BytesLike) -> None:
        """Write ``data`` starting at ``offset``."""
        for dst, src in self.write_pieces(offset, _as_u8(data)):
            dst[...] = 0 if src is None else src

    def write_pieces(self, offset: int, buf: np.ndarray) -> List[Piece]:
        """The slice copies that write ``buf`` (1-D uint8) at ``offset``.

        Resolving them is the write's whole effect on the region's state
        — extents acquired, segments marked present — so every piece
        must run, in order and before the region is read again;
        :meth:`write` is running them.
        """
        length = buf.size
        if offset < 0 or offset + length > self.size:
            self.check(offset, length)
        extent_bytes = self._extent_bytes
        pieces: List[Piece] = []
        pos = 0
        while pos < length:
            ext_idx, ext_off = divmod(offset + pos, extent_bytes)
            chunk = min(length - pos, extent_bytes - ext_off)
            ext, mask = self._extent(ext_idx)
            s0 = ext_off // SEGMENT_SIZE
            end = ext_off + chunk
            s1 = (end - 1) // SEGMENT_SIZE
            # When a *partial* write first materializes a stale edge
            # segment, zero the uncovered part so it still reads back as
            # zero (a zero segment's untouched pages already do).
            head = ext_off - s0 * SEGMENT_SIZE
            if head and mask[s0] == _STALE:
                pieces.append((ext[s0 * SEGMENT_SIZE:ext_off], None))
            tail_end = (s1 + 1) * SEGMENT_SIZE
            if end != tail_end and mask[s1] == _STALE:
                pieces.append((ext[end:tail_end], None))
            pieces.append((ext[ext_off:end], buf[pos:pos + chunk]))
            span = mask[s0:s1 + 1]
            newly = span.size - int(np.count_nonzero(span == _PRESENT))
            if newly:
                self._nr_present += newly
                span[:] = _PRESENT
            pos += chunk
        return pieces

    def fill(self, value: int = 0) -> None:
        """Set the whole region to ``value``.

        Filling with zero simply drops all materialized segments (untouched
        memory reads back as zero), which is how the manager's rank reset is
        implemented cheaply.
        """
        if value == 0:
            EXTENT_POOL.release_all(self._extents, self._masks)
            self._nr_present = 0
            self.generation += 1
        else:
            # Non-zero fill of unmaterialized space must materialize it; we
            # forbid it for huge regions since nothing in the stack needs it.
            if self.size > 1 << 30:
                raise MemoryAccessError(
                    f"{self.name}: non-zero fill of a {self.size}-byte region "
                    "is not supported"
                )
            self.write(0, np.full(self.size, value, dtype=np.uint8))

    # -- pinned views (plan-cache fast path) --------------------------------

    def pin_span(self, offset: int, length: int) -> np.ndarray:
        """Return a writable view of ``[offset, offset + length)``.

        The span must stay inside one extent (use :meth:`pin_chunks` to
        cover arbitrary ranges).  Pinning materializes the covered
        segments — zeroed, exactly as an ordinary partial write would
        leave their uncovered bytes — so writing through the view is
        equivalent to :meth:`write` for every observer (``read``,
        ``materialized_bytes``, ``is_zero``, snapshots).

        Views are invalidated by ``fill(0)``: callers must compare the
        :attr:`generation` they captured at pin time before reusing one.
        """
        self.check(offset, length)
        if length == 0:
            return np.empty(0, dtype=np.uint8)
        ext_idx, ext_off = divmod(offset, self._extent_bytes)
        if ext_off + length > self._extent_bytes:
            raise MemoryAccessError(
                f"{self.name}: pinned span [{offset}, {offset + length}) "
                f"crosses a {self._extent_bytes}-byte extent boundary"
            )
        ext, mask = self._extent(ext_idx)
        s0 = ext_off // SEGMENT_SIZE
        span = mask[s0:(ext_off + length - 1) // SEGMENT_SIZE + 1]
        # Zero every *whole* stale segment (not just the uncovered edge):
        # replays rewrite the pinned span itself, but the first
        # materialization must leave everything readable-as-zero.
        ext.reshape(-1, SEGMENT_SIZE)[s0 + np.flatnonzero(span == _STALE)] = 0
        self._nr_present += int(np.count_nonzero(span != _PRESENT))
        span[:] = _PRESENT
        return ext[ext_off:ext_off + length]

    def pin_chunks(self, offset: int, length: int) -> list:
        """Pin ``[offset, offset + length)`` as a list of per-extent views."""
        self.check(offset, length)
        views = []
        pos = 0
        while pos < length:
            chunk = min(length - pos,
                        self._extent_bytes - (offset + pos) % self._extent_bytes)
            views.append(self.pin_span(offset + pos, chunk))
            pos += chunk
        return views

    # -- snapshots (checkpoint/restore support) -----------------------------

    def snapshot_segments(self) -> Dict[int, np.ndarray]:
        """Copy of the materialized segments (sparse checkpoint)."""
        out: Dict[int, np.ndarray] = {}
        for ext_idx in sorted(self._extents):
            ext = self._extents[ext_idx]
            mask = self._masks[ext_idx]
            base = ext_idx * self._extent_segs
            # The region may end inside its last segment.
            limit = self.size - ext_idx * self._extent_bytes
            for seg in np.flatnonzero(mask == _PRESENT):
                start = int(seg) * SEGMENT_SIZE
                stop = min(start + SEGMENT_SIZE, limit)
                out[base + int(seg)] = ext[start:stop].copy()
        return out

    def load_segments(self, segments: Dict[int, np.ndarray]) -> None:
        """Replace contents with a snapshot from :meth:`snapshot_segments`."""
        for idx, src in segments.items():
            if idx < 0 or idx * SEGMENT_SIZE >= self.size:
                raise MemoryAccessError(
                    f"{self.name}: snapshot segment {idx} outside region"
                )
            size = _as_u8(src).size
            if size > SEGMENT_SIZE:
                raise MemoryAccessError(
                    f"{self.name}: snapshot segment {idx} larger than "
                    f"{SEGMENT_SIZE} bytes"
                )
            if idx * SEGMENT_SIZE + size > self.size:
                raise MemoryAccessError(
                    f"{self.name}: snapshot segment {idx} runs past the "
                    f"region's {self.size} bytes"
                )
        # All inputs validated; the writes below cannot fail, so the
        # replacement is effectively atomic.
        self.fill(0)
        for idx, src in segments.items():
            self.write(idx * SEGMENT_SIZE, src)

    def __del__(self) -> None:
        # The one release point: ownership is a tree, so this runs as
        # the last reference dies and recycles the backing arrays (a
        # fresh VPim per run would otherwise re-fault every page).
        # Guarded: module globals may be gone at interpreter shutdown.
        try:
            EXTENT_POOL.release_all(self._extents, self._masks)
        except Exception:  # pragma: no cover - shutdown races
            pass

    # -- introspection ----------------------------------------------------

    @property
    def extent_bytes(self) -> int:
        """Backing-store granularity — the span limit for :meth:`pin_span`."""
        return self._extent_bytes

    @property
    def materialized_bytes(self) -> int:
        """Bytes of backing store actually allocated (for memory accounting)."""
        return self._nr_present * SEGMENT_SIZE

    def is_zero(self) -> bool:
        """True if every byte reads back as zero (used by isolation tests)."""
        return not any(
            ext.reshape(-1, SEGMENT_SIZE)[self._masks[i] == _PRESENT].any()
            for i, ext in self._extents.items())
