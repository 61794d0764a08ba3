"""Guest physical memory and GPA->HVA translation.

Firecracker maps the whole VM memory into its own address space, so every
guest physical address (GPA) corresponds to a host virtual address (HVA)
at a fixed offset.  The frontend serializes transfer matrices as arrays
of GPAs; the backend translates them to HVAs to reach the pages without
copying (Section 4.2 "Zero-copy Request Handling").
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.config import PAGE_SIZE
from repro.errors import TranslationError
from repro.hardware.memory import MemoryRegion

#: Host virtual address at which guest physical page 0 is mapped.
HVA_BASE = 0x7F00_0000_0000

#: The first MiB is left alone (BIOS area); the rolling arena starts here.
ARENA_START = 1 << 20

#: The smallest guest :class:`GuestMemory`'s layout works for.  The arena
#: is half of what lies above the BIOS area and plan metadata a quarter
#: of the arena, so one page of metadata takes eight pages up there.
MIN_GUEST_SIZE = ARENA_START + 8 * PAGE_SIZE


class GuestMemory:
    """The VM's physical address space (the GPA space that §4.2's
    zero-copy translation resolves to HVAs): three disjoint regions with
    one rule each::

        1 MB            arena end                    window end   top of RAM
        | rolling arena | payload window .............. | <- plan metadata |
          alloc_pages     window_base + offset            reserve_pages

    - The **rolling arena** holds the bytes that really move through
      guest RAM — control messages and wire chains — and is at most half
      of it.  Requests are synchronous, so pages are recycled once the
      arena wraps (the guest driver reuses its DMA area the same way).
    - **Plan metadata**, one private run per compiled plan holding all
      of its wire buffers, grows down from the top, a quarter of the
      arena at most; a released run is room for the next request of any
      size that fits it.
    - The **payload window** is everything in between and holds the
      payload *addresses* of every compiled plan, never payload bytes:
      a plan lays its payload end to end from :attr:`window_base`, the
      compiler refuses one that would end past :attr:`window_bytes`, and
      no window page is ever materialized — there is nothing to
      allocate.  The transferq completes one chain before the
      next is added, so a payload page needs a stable address for its
      plan's life but content only while its own request is in flight,
      and all plans overlay the same addresses.

    A payload address gets its content by **binding** (:meth:`bind`):
    for the life of one request the frontend maps the caller's own
    buffers — a write's sources, a read's result rows — at the request's
    payload GPAs, which is §4.2's "the frontend sends the GPAs of the
    user's pages".  Every accessor below resolves a bound address to the
    bound buffer, so a reader of guest RAM sees the bytes a staging copy
    would have put there, and the device's writes land in the caller's
    rows.
    """

    def __init__(self, size: int, arena_bytes: int = 512 << 20) -> None:
        self.size = size
        self.region = MemoryRegion(size, name="guest-ram")
        self._arena_start = ARENA_START
        self._arena_bytes = (min(arena_bytes, (size - self._arena_start) // 2)
                             // PAGE_SIZE * PAGE_SIZE)
        self._arena_cursor = 0
        #: GPA at which every plan's first payload page is placed.
        self.window_base = self._arena_start + self._arena_bytes
        self._reserve_floor = size // PAGE_SIZE * PAGE_SIZE
        self._window_end = (self._reserve_floor
                            - self._arena_bytes // 4 // PAGE_SIZE * PAGE_SIZE)
        #: Size of the payload window: the largest plannable request.
        self.window_bytes = self._window_end - self.window_base
        #: Released reservations, ``first GPA -> bytes``: disjoint, never
        #: adjacent to each other or to the floor (those are merged).
        self._released: Dict[int, int] = {}
        #: Live bindings, ``first GPA -> the caller's buffer mapped there``.
        self._bound: Dict[int, np.ndarray] = {}

    # -- page allocation ------------------------------------------------------

    def alloc_pages(self, nr_pages: int) -> int:
        """Return the GPA of a fresh run of ``nr_pages`` contiguous pages."""
        need = nr_pages * PAGE_SIZE
        if need > self._arena_bytes:
            raise TranslationError(
                f"request for {nr_pages} pages exceeds the "
                f"{self._arena_bytes}-byte DMA arena (a planned payload "
                f"gets the {self.window_bytes}-byte window beyond it)")
        if self._arena_cursor + need > self._arena_bytes:
            self._arena_cursor = 0  # wrap: previous requests have completed
        gpa = self._arena_start + self._arena_cursor
        self._arena_cursor += need
        return gpa

    def reserve_pages(self, nr_pages: int) -> int:
        """Claim a *stable, private* run of ``nr_pages`` pages for a
        compiled plan's wire metadata.

        Unlike :meth:`alloc_pages`, reserved runs are never recycled by
        the rolling arena — they stay valid for the plan's lifetime and
        come back through :meth:`release_reservation`.  The first
        released run that holds the request serves it (what is left of
        the run stays released); otherwise the floor moves down.  A run
        lies inside one backing extent, so it can be pinned as one view,
        and above the payload window's end: reservations take a quarter
        of the arena at most.  Raises :class:`TranslationError`, with
        nothing changed, for a run that cannot be had on those terms.
        """
        need = nr_pages * PAGE_SIZE
        ext = self.region.extent_bytes
        if need > ext:
            raise TranslationError(
                f"reservation of {nr_pages} pages cannot be pinned as one "
                f"view of a {ext}-byte backing extent")

        def one_view(gpa: int) -> bool:
            return gpa // ext == (gpa + need - 1) // ext

        for gpa, room in self._released.items():
            if room >= need and one_view(gpa):
                del self._released[gpa]
                if room > need:
                    self._released[gpa + need] = room - need
                return gpa
        gpa = self._reserve_floor - need
        if not one_view(gpa):
            gpa = (gpa // ext + 1) * ext - need
        if gpa < self._window_end:
            raise TranslationError(
                f"reservation of {nr_pages} pages would take plan "
                "metadata past a quarter of the DMA arena")
        if gpa + need < self._reserve_floor:
            # Stepped down to end on the extent boundary: what was
            # stepped over is room like any released run.
            self._released[gpa + need] = self._reserve_floor - gpa - need
        self._reserve_floor = gpa
        return gpa

    def release_reservation(self, gpa: int, nr_pages: int) -> None:
        """Give a reserved run back: merged with the released runs it
        touches, and with the unreserved room below the floor when it is
        the lowest, so the room serves a later request of any size."""
        end = gpa + nr_pages * PAGE_SIZE
        end += self._released.pop(end, 0)
        below = next((start for start, room in self._released.items()
                      if start + room == gpa), gpa)
        if below == self._reserve_floor:
            self._reserve_floor = end
        else:
            self._released[below] = end - below

    # -- request-scoped bindings ---------------------------------------------

    def bind(self, gpas: Iterable[int],
             buffers: Iterable[np.ndarray]) -> None:
        """Map ``buffers[i]`` (1-D ``uint8``) at ``gpas[i]`` until
        :meth:`unbind`: the bytes at ``[gpa, gpa + size)`` *are* the
        buffer's.  No byte moves.  The binder owns the pairing — one
        request's payload runs, disjoint by construction — and must drop
        it on every path out of that request, because a live binding
        keeps the caller's buffer alive."""
        self._bound.update(zip(gpas, buffers))

    def unbind(self, gpas: Iterable[int]) -> None:
        for gpa in gpas:
            self._bound.pop(gpa, None)

    @property
    def nr_bound(self) -> int:
        """Live bindings; zero whenever no request is in flight."""
        return len(self._bound)

    def _bound_pieces(self, gpa: int, length: int,
                      ) -> Iterator[Tuple[int, np.ndarray]]:
        """``(position in the span, slice of the bound buffer)`` for every
        binding ``[gpa, gpa + length)`` overlaps."""
        end = gpa + length
        for start, buf in self._bound.items():
            lo, hi = max(gpa, start), min(end, start + buf.size)
            if lo < hi:
                yield lo - gpa, buf[lo - start:hi - start]

    def _overlay(self, gpa: int, out: np.ndarray) -> np.ndarray:
        """Lay the bound bytes over ``out``, read from guest RAM at ``gpa``."""
        for pos, piece in self._bound_pieces(gpa, out.size):
            out[pos:pos + piece.size] = piece
        return out

    def pin_span(self, gpa: int, length: int) -> np.ndarray:
        """Writable view of guest bytes (see :meth:`MemoryRegion.pin_span`);
        of the bound buffer itself where the span lies inside a binding
        (read-only when the caller's buffer is)."""
        hit = next(self._bound_pieces(gpa, length), None)
        if hit is None:
            return self.region.pin_span(gpa, length)
        if hit[1].size != length:
            raise TranslationError(
                f"span [{gpa:#x}, {gpa + length:#x}) crosses the edge of a "
                "bound buffer and cannot be one view")
        return hit[1]

    # -- data access ------------------------------------------------------------

    def write(self, gpa: int, data: np.ndarray) -> None:
        self.region.write(gpa, data)
        if self._bound:
            buf = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
            for pos, piece in self._bound_pieces(gpa, buf.size):
                piece[...] = buf[pos:pos + piece.size]

    def read(self, gpa: int, length: int) -> np.ndarray:
        return self._overlay(gpa, self.region.read(gpa, length))

    def read_into(self, gpa: int, out: np.ndarray) -> np.ndarray:
        """Allocation-free read into a caller-provided uint8 buffer."""
        return self._overlay(gpa, self.region.read_into(gpa, out))

    def gather_pages(self, gpas: np.ndarray, nbytes: int,
                     out: np.ndarray) -> np.ndarray:
        """Gather ``nbytes`` spread over the pages in ``gpas`` into ``out``.

        One bulk :meth:`MemoryRegion.read_into` per contiguous page run
        instead of a per-page Python loop — the simulator-level analogue
        of the batched scatter-gather the real backend performs on the
        translated HVA list (Section 4.2).  The tail page may be partial
        (``nbytes`` need not be page-aligned).
        """
        pos = 0
        for start_gpa, nr_pages in self.contiguous_runs(gpas):
            if pos >= nbytes:
                break
            span = min(nr_pages * PAGE_SIZE, nbytes - pos)
            self.read_into(start_gpa, out[pos:pos + span])
            pos += span
        return out

    def scatter_pages(self, gpas: np.ndarray, data: np.ndarray) -> None:
        """Inverse of :meth:`gather_pages`: spread ``data`` over the pages."""
        pos = 0
        nbytes = data.size
        for start_gpa, nr_pages in self.contiguous_runs(gpas):
            if pos >= nbytes:
                break
            span = min(nr_pages * PAGE_SIZE, nbytes - pos)
            self.write(start_gpa, data[pos:pos + span])
            pos += span

    # -- translation ---------------------------------------------------------------

    def translate_pages(self, gpas: np.ndarray) -> np.ndarray:
        """Vectorized GPA->HVA for a page buffer (u64 array)."""
        arr = np.asarray(gpas, dtype=np.uint64)
        if arr.size and (int(arr.max()) >= self.size):
            bad = int(arr.max())
            raise TranslationError(
                f"GPA {bad:#x} outside guest memory of {self.size} bytes"
            )
        return arr + np.uint64(HVA_BASE)

    # -- contiguity helper ---------------------------------------------------------

    @staticmethod
    def contiguous_runs(gpas: np.ndarray) -> List[Tuple[int, int]]:
        """Split a page-GPA array into (start_gpa, nr_pages) contiguous runs.

        The backend uses this to gather page data with bulk copies instead
        of page-by-page loops — the simulator-level analogue of the
        scatter-gather the real backend performs.
        """
        arr = np.asarray(gpas, dtype=np.uint64)
        if arr.size == 0:
            return []
        if arr.size == 1:
            return [(int(arr[0]), 1)]
        breaks = np.nonzero(np.diff(arr) != PAGE_SIZE)[0] + 1
        if breaks.size == 0:
            # Common case: the bump allocator hands out one contiguous run.
            return [(int(arr[0]), arr.size)]
        starts = np.concatenate(([0], breaks))
        ends = np.concatenate((breaks, [arr.size]))
        run_gpas = arr[starts]
        return [(int(g), int(n)) for g, n in zip(run_gpas, ends - starts)]
