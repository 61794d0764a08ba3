"""MemoryRegion against a bytearray, on recycled extents.

Several regions of mixed sizes share the process's extent pool, are
written through every entry point, reset, dropped and restored, so an
extent keeps changing owner.  Each region is modeled by a flat byte array
(numpy's, because a ``bytearray`` of 40 MB is zeroed eagerly and a fresh
one per example is a million page faults) and, after every rule, must read back exactly the model — no byte of a
previous owner (the manager's reset-to-zero isolation, paper §3.5) —
and account for exactly the segments written since its last reset.

The machine runs twice: as the platform gives it, and with the
``madvise`` hints reported unavailable.  Both arms equal the model, so
they equal each other: correctness does not ride on the hints (and the
second arm is what a platform without them runs).
"""

import weakref

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.errors import MemoryAccessError
from repro.hardware import memory
from repro.hardware.memory import EXTENT_BYTES, MemoryRegion, SEGMENT_SIZE

#: Two regions per extent size class (the 24 KB and 64 KB ones share
#: the one-segment class), so a dropped region's extents are picked up
#: by a neighbour as well as by its own successor.
SIZES = [24 << 10, 64 << 10, (1 << 20) + 3, (1 << 20) + 3, 40 << 20, 40 << 20]

slots = st.integers(0, len(SIZES) - 1)
#: Where a span starts: a segment, extent or region edge, give or take.
anchors = st.sampled_from([0, SEGMENT_SIZE, 3 * SEGMENT_SIZE, 1 << 20,
                           EXTENT_BYTES, 2 * EXTENT_BYTES, 40 << 20])
nudges = st.integers(-5000, 5000)
lengths = st.one_of(st.integers(1, 300),
                    st.integers(1, 3 * SEGMENT_SIZE))
seeds = st.integers(0, 250)

#: Where reads land; allocated (and faulted in) once.
SCRATCH = np.zeros(max(SIZES), dtype=np.uint8)


def payload(length: int, seed: int) -> np.ndarray:
    """``length`` bytes, none of them zero unless ``seed`` is."""
    if seed == 0:
        return np.zeros(length, dtype=np.uint8)
    pattern = ((np.arange(251) * 7 + seed) % 251 + 1).astype(np.uint8)
    return np.resize(pattern, length)


class Modeled:
    """A region, its model, and what the accounting should say."""

    def __init__(self, size: int) -> None:
        self.region = MemoryRegion(size)
        self.model = np.zeros(size, dtype=np.uint8)
        self.written = set()        # segments written since the last reset
        self.resets = 0

    def span(self, anchor: int, nudge: int, length: int):
        """Clip the drawn span into the region: ``(offset, length)``."""
        size = self.region.size
        offset = min(max(anchor + nudge, 0), size - 1)
        return offset, min(length, size - offset)

    def store(self, offset: int, data: np.ndarray) -> None:
        self.model[offset:offset + data.size] = data
        self.touch(offset, data.size)

    def touch(self, offset: int, length: int) -> None:
        self.written.update(range(offset // SEGMENT_SIZE,
                                  (offset + length - 1) // SEGMENT_SIZE + 1))

    def reset(self) -> None:
        self.model = np.zeros(self.region.size, dtype=np.uint8)
        self.written.clear()
        self.resets += 1

    def expect(self, offset: int, length: int) -> np.ndarray:
        return self.model[offset:offset + length]

    def segment(self, seg: int):
        """``(offset, length)`` of segment ``seg``, clipped to the region."""
        offset = seg * SEGMENT_SIZE
        return offset, min(SEGMENT_SIZE, self.region.size - offset)

    def check(self) -> None:
        """After every rule: the written segments and their neighbours
        (a whole-region compare of 40 MB per rule is too slow)."""
        region = self.region
        near = {seg + d for seg in self.written for d in (-1, 0, 1)}
        for seg in sorted(near):
            offset, length = self.segment(seg)
            if offset < 0 or length <= 0:
                continue
            got = region.read_into(offset, SCRATCH[:length])
            assert np.array_equal(got, self.expect(offset, length)), (
                f"{region.size}-byte region differs from its model in "
                f"[{offset}, {offset + length})")
        assert region.materialized_bytes == SEGMENT_SIZE * len(self.written)
        # Unwritten segments of the model are zero by construction.
        model_zero = not any(self.expect(*self.segment(seg)).any()
                             for seg in self.written)
        assert region.is_zero() == model_zero
        assert region.generation == self.resets

    def check_unwritten_reads_zero(self) -> None:
        """At teardown: everything outside the written segments."""
        got = self.region.read_into(0, SCRATCH[:self.region.size])
        for seg in self.written:
            offset, length = self.segment(seg)
            got[offset:offset + length] = 0
        assert not got.any()


class RecyclingMachine(RuleBasedStateMachine):

    def __init__(self) -> None:
        super().__init__()
        # Every example starts from the same pool, so a failure replays
        # (and shrinks) exactly: one extent of each size class, full of a
        # previous tenant's bytes.
        self.process_pool = memory.EXTENT_POOL
        memory.EXTENT_POOL = memory._ExtentPool()
        for size in sorted({MemoryRegion(size).extent_bytes
                            for size in SIZES}):
            MemoryRegion(size).fill(0xFF)   # pooled as it is collected
        self.slots = [Modeled(size) for size in SIZES]

    @rule(slot=slots, anchor=anchors, nudge=nudges, length=lengths, seed=seeds)
    def write(self, slot, anchor, nudge, length, seed):
        m = self.slots[slot]
        offset, length = m.span(anchor, nudge, length)
        data = payload(length, seed)
        m.region.write(offset, data)
        m.store(offset, data)

    @rule(slot=slots, anchor=anchors, nudge=nudges, length=lengths)
    def read(self, slot, anchor, nudge, length):
        m = self.slots[slot]
        offset, length = m.span(anchor, nudge, length)
        assert np.array_equal(m.region.read(offset, length),
                              m.expect(offset, length))

    @rule(slot=slots, anchor=anchors, nudge=nudges, length=lengths)
    def read_into(self, slot, anchor, nudge, length):
        m = self.slots[slot]
        offset, length = m.span(anchor, nudge, length)
        out = np.full(length, 0xAA, dtype=np.uint8)
        assert m.region.read_into(offset, out) is out
        assert np.array_equal(out, m.expect(offset, length))

    @rule(slot=slots, anchor=anchors, nudge=nudges, length=lengths,
          seed=seeds, covered=st.integers(0, 3 * SEGMENT_SIZE))
    def write_through_pin_span(self, slot, anchor, nudge, length, seed,
                               covered):
        m = self.slots[slot]
        offset, length = m.span(anchor, nudge, length)
        extent = m.region.extent_bytes
        length = min(length, extent - offset % extent)
        view = m.region.pin_span(offset, length)
        assert view.size == length
        m.touch(offset, length)     # pinning alone materializes, as zeros
        data = payload(min(covered, length), seed)
        view[:data.size] = data
        if data.size:
            m.store(offset, data)

    @rule(slot=slots, anchor=anchors, nudge=nudges, length=lengths, seed=seeds)
    def write_through_pin_chunks(self, slot, anchor, nudge, length, seed):
        m = self.slots[slot]
        offset, length = m.span(anchor, nudge, length)
        views = m.region.pin_chunks(offset, length)
        assert sum(view.size for view in views) == length
        data = payload(length, seed)
        pos = 0
        for view in views:
            view[:] = data[pos:pos + view.size]
            pos += view.size
        m.store(offset, data)

    @rule(slot=slots)
    def fill_zero(self, slot):
        m = self.slots[slot]
        m.region.fill(0)
        m.reset()

    @rule(slot=slots)
    def drop_and_collect(self, slot):
        size = self.slots[slot].region.size
        gone = weakref.ref(self.slots[slot].region)
        self.slots[slot] = None
        assert gone() is None       # its extents are in the pool now
        self.slots[slot] = Modeled(size)

    @rule(slot=slots, into=slots)
    def snapshot_and_load(self, slot, into):
        src, dst = self.slots[slot], self.slots[into]
        snapshot = src.region.snapshot_segments()
        assert set(snapshot) == src.written
        size = dst.region.size
        if any(seg * SEGMENT_SIZE + data.size > size
               for seg, data in snapshot.items()):
            # Does not fit: refused, and the target is as it was.
            with pytest.raises(MemoryAccessError):
                dst.region.load_segments(snapshot)
            return
        dst.region.load_segments(snapshot)
        if dst is not src:
            dst.reset()
            for seg, data in snapshot.items():
                dst.store(seg * SEGMENT_SIZE, data)
        else:
            dst.resets += 1

    @invariant()
    def regions_equal_their_models(self):
        for m in self.slots:
            m.check()

    def teardown(self):
        try:
            for m in self.slots:
                m.check_unwritten_reads_zero()
        finally:
            self.slots.clear()
            memory.EXTENT_POOL = self.process_pool


@pytest.mark.parametrize("hints", [True, False],
                         ids=["platform-hints", "no-madvise"])
def test_regions_on_recycled_extents_equal_their_models(hints, monkeypatch):
    if not hints:
        monkeypatch.setattr(memory, "_MADV_NOHUGEPAGE", None)
        monkeypatch.setattr(memory, "_MADV_DONTNEED", None)
    run_state_machine_as_test(
        RecyclingMachine,
        settings=settings(max_examples=15, stateful_step_count=30,
                          deadline=None))
