"""Shape-specialized transfer plans: compile once, replay per repetition.

PrIM workloads run ``nr_reps`` repetitions of *identically shaped*
transfers, yet the naive data plane re-derives the wire layout, page
allocations, GPA run lists, and gather/scatter segmentation from scratch
on every request.  A :class:`TransferPlan` captures everything
shape-derived and content-independent the first time a
``(direction, symbol, offset, entry shapes)`` tuple is seen:

- the serialized descriptor chain: the small metadata buffers (header,
  matrix-meta, per-entry meta and page lists) carved at 8-byte
  boundaries from *one* reserved run of guest pages
  (:meth:`GuestMemory.reserve_pages`) private to the plan with one
  writable view pinned over it, and the payload pages as fixed
  *addresses* laid end to end from the base of the one **payload
  window** every plan shares.  The window holds addresses only:
  the transferq is synchronous — one chain is added, kicked, popped and
  completed before the next — so a payload page needs a stable address
  for the plan's life and content only while its own request is in
  flight, when the frontend binds the caller's buffers (a write's
  sources, a read's result rows) at those addresses
  (:meth:`GuestMemory.bind`) and hands the same buffers to the backend
  beside the plan.  One copy per direction: caller → MRAM, MRAM → row;
- a slot for the backend's resolved MRAM destinations
  (:class:`~repro.hardware.rank.PinnedMramWrite`) and the XLB
  translation generation, so replays skip per-entry re-translation.

A plan is shape only: it never holds a caller's buffer, so an LRU of
plans keeps no payload alive.

The plan cache is the frontend's serializer; the wire path
(:func:`~repro.virt.serialization.serialize_matrix`) is the reference
the tests compare it against and what serves a request the compiler
refuses.  Every modeled duration, metric that feeds the wall-clock
digest, guest-visible byte, and DPU-visible byte is bit-identical
between the two.  A payload run may lie anywhere in the window and be of
any size, so the compiler refuses for two reasons only — the payload
ends past the window, or the reservation quarter has no room for the
metadata run — both found by arithmetic before anything is placed.  A
refusal is not remembered: asking again costs what looking it up would.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import PAGE_SIZE
from repro.errors import TransferError, TranslationError
from repro.sdk.transfer import DpuEntry, TransferMatrix
from repro.virt.guest_memory import GuestMemory
from repro.virt.serialization import (
    RequestHeader,
    RequestKind,
    SerializedEntry,
    SerializedRequest,
    SkipExtent,
    _pages,
    build_chain,
    entry_meta_words,
    matrix_meta_words,
)
from repro.virt.virtio import Descriptor

__all__ = [
    "PLAN_CAPACITY", "PlanCache", "PlanUnsupported", "TransferPlan",
    "compile_plan", "plan_key",
]

#: Distinct shapes a plan cache holds (LRU beyond it).  Sized above the
#: largest per-run shape count in the PrIM suite (321 for bench-size
#: SpMV): an LRU scanned cyclically by a repeated workload degrades to
#: zero hits the moment the working set exceeds the capacity.
PLAN_CAPACITY = 512

#: Word index of the digest inside a cache-format entry-meta buffer.
_ENTRY_DIGEST_WORD = 3
#: Matrix-meta words before the skip extents (cache format).
_SKIP_BASE_WORD = 4
#: u64 words per skip extent: (dpu_index, size, digest).
_SKIP_WORDS = 3


class PlanUnsupported(Exception):
    """The shape cannot be compiled; the caller falls back to the wire
    serializer for this request."""


def plan_key(header: RequestHeader, matrix: TransferMatrix,
             digests: Optional[Dict[int, int]],
             skips: Optional[List[SkipExtent]],
             batched: bool) -> Optional[Tuple]:
    """The cache key of a data request, or ``None`` if it has none.

    Everything that shapes the wire layout is part of the key: request
    kind, addressing, wire format, batching, the (dpu, size) tuple of
    every kept entry, and the (dpu, size) tuple of every SKIP extent.
    """
    if header.kind not in (RequestKind.WRITE_RANK, RequestKind.READ_RANK):
        return None
    if header.offset != matrix.offset or header.symbol != matrix.symbol:
        return None
    cache_format = digests is not None or skips is not None
    return (
        int(header.kind), header.symbol, matrix.offset, batched,
        cache_format,
        tuple((e.dpu_index, e.size) for e in matrix.entries),
        tuple((s.dpu_index, s.size) for s in (skips or ())),
    )


@dataclass
class TransferPlan:
    """One compiled shape: stable chain + views into its pinned metadata
    run + replay patches.  The payload runs of ``sreq.data_descriptors``
    are window addresses without content of their own."""

    key: Tuple
    header: RequestHeader
    sreq: SerializedRequest
    entries: List[SerializedEntry]
    skips: List[SkipExtent]
    #: u64 views over each entry-meta buffer (digest patched per replay).
    entry_meta_views: List[np.ndarray]
    #: u64 view over the matrix-meta buffer (skip digests patched).
    matrix_meta_view: Optional[np.ndarray]
    #: ``(gpa, nr_pages)`` of the private run that holds every wire
    #: buffer, released when the plan dies (payload pages belong to the
    #: window, not the plan); ``None`` once released.
    reservation: Optional[Tuple[int, int]]
    guest_generation: int
    cache_format: bool
    #: XLB generation at which this plan's page runs were last resolved.
    xlb_generation: int = -1
    #: Backend-resolved destinations for MRAM writes.
    pinned_write: object = None
    replays: int = field(default=0)
    # What every replay reads and the shape alone determines, worked out
    # once here (replays share the lists: read-only):
    #: the payload GPA of each entry, in entry order — where the frontend
    #: binds the request's buffers;
    payload_gpas: List[int] = field(init=False)
    #: pages per entry, which the backend costs and translates; their
    #: sum is ``sreq.total_pages``.
    entry_pages: List[int] = field(init=False)

    def __post_init__(self) -> None:
        self.payload_gpas = [gpa for _dpu, _size, gpa
                             in self.sreq.data_descriptors]
        self.entry_pages = [entry.page_gpas.size for entry in self.entries]

    def valid(self, memory: GuestMemory) -> bool:
        """Pinned views survive only as long as the guest backing store."""
        return self.guest_generation == memory.region.generation

    def replay(self, matrix: TransferMatrix,
               digests: Optional[Dict[int, int]],
               skips: Optional[List[SkipExtent]]) -> SerializedRequest:
        """Refresh content-dependent metadata; returns the stable chain.

        No payload byte moves here — the frontend binds ``matrix``'s
        buffers at the chain's payload addresses.  Cache-format replays
        re-patch the digest words in the wire metadata and swap in the
        fresh SKIP extents.
        """
        self.replays += 1
        if self.cache_format:
            for view, entry, live in zip(self.entry_meta_views,
                                         self.entries, matrix.entries):
                digest = (digests or {}).get(live.dpu_index, 0)
                entry.digest = digest
                view[_ENTRY_DIGEST_WORD] = digest
            self.skips = list(skips or ())
            meta = self.matrix_meta_view
            assert meta is not None
            for s, skip in enumerate(self.skips):
                meta[_SKIP_BASE_WORD + _SKIP_WORDS * s + 2] = skip.digest
        return self.sreq

    def release(self, memory: GuestMemory) -> None:
        if self.reservation is not None:
            memory.release_reservation(*self.reservation)
            self.reservation = None


def _aligned(nbytes: int) -> int:
    """``nbytes`` rounded up to the u64 boundary every wire buffer of a
    plan starts on."""
    return -(-nbytes // 8) * 8


def compile_plan(key: Optional[Tuple], header: RequestHeader,
                 matrix: TransferMatrix, memory: GuestMemory,
                 digests: Optional[Dict[int, int]],
                 skips: Optional[List[SkipExtent]]) -> TransferPlan:
    """Compile ``matrix`` into a :class:`TransferPlan`.

    Emits the exact chain :func:`~repro.virt.serialization.serialize_matrix`
    would (same buffer contents, lengths, and writable flags — only the
    GPAs differ: one private reservation for the metadata, the shared
    payload window for the payload, instead of the rolling bump
    allocator) once ``matrix``'s buffers are bound at the payload
    addresses; the payload pages themselves are neither pinned nor
    filled.  Like the serializer it sizes first and places once: every
    reason to refuse is checked by arithmetic, so :class:`PlanUnsupported`
    is raised with ``memory`` not yet touched.
    """
    cache_format = digests is not None or skips is not None
    if key is None:
        raise PlanUnsupported(
            "no plan key: not a data request, or header and matrix "
            "disagree on symbol or offset")
    try:
        matrix.validate()
    except TransferError as exc:
        raise PlanUnsupported(str(exc)) from exc
    entry_pages = [_pages(entry.size) for entry in matrix.entries]
    payload = sum(entry_pages) * PAGE_SIZE
    if payload > memory.window_bytes:
        raise PlanUnsupported(
            f"payload of {payload // PAGE_SIZE} pages runs past the "
            f"{memory.window_bytes}-byte payload window")
    # [header][matrix meta]([entry meta][page list])*
    entry_meta = entry_meta_words(0, 0, 0, 0, cache_format).nbytes
    meta_bytes = (_aligned(header.pack().size)
                  + matrix_meta_words(matrix, skips, cache_format).nbytes
                  + sum(entry_meta + 8 * n for n in entry_pages))
    meta_pages = _pages(meta_bytes)
    try:
        # One run, inside one backing extent or refused: one pinned view.
        run = memory.reserve_pages(meta_pages)
    except TranslationError as exc:
        raise PlanUnsupported(str(exc)) from exc
    pinned = memory.pin_span(run, meta_bytes)
    wire_views: List[np.ndarray] = []   # every metadata buffer, chain order
    used = 0                            # bytes of the run carved so far
    staged = memory.window_base         # end of the payload placed so far

    def put(data: np.ndarray, device_writable: bool = False) -> Descriptor:
        # The bytes :func:`repro.virt.virtio.write_buffer` would store.
        nonlocal used
        u8 = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        view = pinned[used:used + u8.size]
        view[...] = u8
        wire_views.append(view)
        desc = Descriptor(gpa=run + used, length=u8.size,
                          device_writable=device_writable)
        used += _aligned(u8.size)
        return desc

    def place(entry: DpuEntry, nr_pages: int) -> int:
        nonlocal staged
        gpa, staged = staged, staged + nr_pages * PAGE_SIZE
        return gpa

    sreq = build_chain(header, matrix, digests, skips, put, place)
    assert (used, staged) == (meta_bytes, memory.window_base + payload), \
        "plan sizing disagrees with build_chain"

    # Chain layout: [header][matrix meta]([entry meta][entry pages])*.
    entries = [SerializedEntry(dpu_index=e.dpu_index, size=e.size,
                               page_gpas=pages.view(np.uint64).copy(),
                               digest=(digests or {}).get(e.dpu_index, 0))
               for e, pages in zip(matrix.entries, wire_views[3::2])]
    return TransferPlan(
        key=key, header=header, sreq=sreq, entries=entries,
        skips=list(skips or ()),
        entry_meta_views=([v.view(np.uint64) for v in wire_views[2::2]]
                          if cache_format else []),
        matrix_meta_view=(wire_views[1].view(np.uint64)
                          if cache_format else None),
        reservation=(run, meta_pages),
        guest_generation=memory.region.generation,
        cache_format=cache_format,
    )


class PlanCache:
    """Bounded LRU of compiled :class:`TransferPlan` per frontend."""

    def __init__(self, memory: GuestMemory,
                 capacity: int = PLAN_CAPACITY) -> None:
        self.memory = memory
        self.capacity = max(1, capacity)
        self._plans: "OrderedDict[Tuple, TransferPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: Optional[Tuple]) -> Optional[TransferPlan]:
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
        return plan

    def insert(self, key: Tuple, plan: TransferPlan) -> int:
        """Cache ``plan``; returns how many plans were evicted for room."""
        evicted = 0
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.capacity:
            _, old = self._plans.popitem(last=False)
            old.release(self.memory)
            evicted += 1
        self.evictions += evicted
        return evicted

    def drop(self, key: Tuple) -> None:
        plan = self._plans.pop(key, None)
        if plan is not None:
            plan.release(self.memory)
            self.invalidations += 1

    def invalidate_all(self) -> int:
        """Drop every plan (migration/failover/teardown); returns count."""
        count = len(self._plans)
        for plan in self._plans.values():
            plan.release(self.memory)
        self._plans.clear()
        self.invalidations += count
        return count

    @property
    def nr_plans(self) -> int:
        return len(self._plans)
