"""The read result recycler against what a caller may do with its rows.

A rank allocation reads through :class:`BlockRecycler`: a block goes
back to it when the last thing cut from it dies, and the next read of
that size is written into the same pages.  The contract of
``result_block`` must survive that — rows are the caller's to keep, for
as long as it likes, in whatever form it keeps them — so the machine
reads through ``Rank.read_mram`` over a sparsely written MRAM image and
holds on to rows, views of rows and memoryviews in every order, across
releases of the allocation.  After every rule:

- everything kept still holds the bytes it was returned with;
- nothing kept shares memory with something kept of another read, nor
  with a block the recycler considers idle;
- the recycler counts exactly the live blocks of the current allocation
  and idles only blocks of the size last read (it holds a working set,
  not a high-water mark; after a release, nothing).

Every idle block is then poisoned with 0xFF, so a block handed on too
early corrupts what is kept, and a row the next read does not fully
overwrite — the absent MRAM segments, which must read zero — shows.

The two ways the prototype of the recycler was wrong are kept as
mutants that the same machine must reject.
"""

import gc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.config import RankConfig
from repro.hardware.memory import SEGMENT_SIZE, BlockRecycler, result_block
from repro.hardware.rank import Rank, ReadSpec, WriteSpec

NR_DPUS = 4
#: Bytes of each DPU's MRAM the machine reads from: segments 0 and 2
#: partly written, 1, 3 and 4 absent.
SPAN = 5 * SEGMENT_SIZE


@pytest.fixture(scope="module")
def image():
    """``(rank, model)``: a rank and the bytes its MRAM should read as."""
    rank = Rank(RankConfig(0, NR_DPUS))
    model = np.zeros((NR_DPUS, SPAN), dtype=np.uint8)
    rng = np.random.default_rng(19)
    for dpu in range(NR_DPUS):
        for offset, length in ((100, SEGMENT_SIZE - 150),
                               (2 * SEGMENT_SIZE + 999, 30000)):
            data = rng.integers(1, 255, length, dtype=np.uint8)
            rank.write_mram([WriteSpec(dpu, offset, data)])
            model[dpu, offset:offset + length] = data
    return rank, model


#: Read shapes: a few common ones (an allocation repeats its reads) and
#: anything else, empty reads included.  One spec is left out — it takes
#: ``MemoryRegion.read``'s path and never asks for a block.
COMMON = [(4096, 4096, 4096, 4096), (64, 64), (20000, 3), (8, 8, 8)]
shapes = st.one_of(
    st.sampled_from(COMMON),
    st.lists(st.integers(0, 3 * SEGMENT_SIZE), min_size=2, max_size=5)
    .map(tuple),
    st.just(()))
offsets = st.one_of(st.sampled_from([0, SEGMENT_SIZE - 64, 2 * SEGMENT_SIZE]),
                    st.integers(0, SPAN - 1))
picks = st.integers(0, 1 << 16)


class Kept:
    """Something cut from read ``read`` and what it must keep reading."""

    def __init__(self, read: int, thing, want: bytes) -> None:
        self.read = read
        self.thing = thing
        self.want = want


class WatchesASlice(BlockRecycler):
    """Mutant: the watcher sits on a slice of the block.  numpy bases
    every row on the ``frombuffer`` array, not on the slice they were cut
    from, so the slice dies — and the bytes are handed on — while the
    rows are in use."""

    def take(self, nbytes):
        block = super().take(nbytes)
        store = block.base.obj
        view = block[:]
        self._loans[id(store)] = weakref.ref(
            view, partial(self._came_back, store))
        return view


class KeepsWatchingAfterRelease(BlockRecycler):
    """Mutant: release empties the idle list but not the loans, so a
    block of the previous allocation comes back into the next one."""

    def release(self):
        self._idle.clear()


class RowsMachine(RuleBasedStateMachine):

    def __init__(self, image, recycler_class) -> None:
        super().__init__()
        self.rank, self.model = image
        self.recycler = recycler_class()
        self.reads = 0
        #: Reads of the current allocation (earlier ones are disowned).
        self.first_owned = 0
        self.shape = None
        #: The rows of the last read, until a rule keeps or drops them.
        self.fresh = []
        self.kept = []

    # -- reading ---------------------------------------------------------

    def _read(self, shape, offset) -> None:
        self.fresh = []         # the previous rows die (or were kept)
        specs = [ReadSpec(i % NR_DPUS, min(offset, SPAN - size), size)
                 for i, size in enumerate(shape)]
        rows, _ = self.rank.read_mram(specs, blocks=self.recycler)
        assert [row.size for row in rows] == list(shape)
        assert all(row.ctypes.data % 64 == 0 for row in rows if row.size)
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(rows) for b in rows[i + 1:])
        self.reads += 1
        self.shape = shape
        for spec, row in zip(specs, rows):
            want = self.model[spec.dpu_index,
                              spec.offset:spec.offset + spec.length]
            assert np.array_equal(row, want), "a read row differs from MRAM"
            self.fresh.append(Kept(self.reads, row, want.tobytes()))

    @rule(shape=shapes, offset=offsets)
    def read(self, shape, offset):
        self._read(shape, offset)

    @precondition(lambda self: self.shape is not None)
    @rule(offset=offsets)
    def read_again(self, offset):
        self._read(self.shape, offset)

    # -- what a caller does with rows --------------------------------------

    @rule(pick=picks)
    def keep_some_rows(self, pick):
        self.kept += [k for i, k in enumerate(self.fresh) if pick >> i & 1]
        self.fresh = []

    @precondition(lambda self: self.fresh)
    @rule(pick=picks, a=st.integers(0, 40), n=st.integers(0, 40))
    def keep_a_view(self, pick, a, n):
        k = self.fresh[pick % len(self.fresh)]
        words = k.thing[:k.thing.size // 8 * 8].view(np.int64)[a:a + n]
        self.kept.append(Kept(k.read, words, words.tobytes()))
        self.fresh = []

    @precondition(lambda self: self.fresh)
    @rule(pick=picks)
    def keep_a_memoryview(self, pick):
        k = self.fresh[pick % len(self.fresh)]
        self.kept.append(Kept(k.read, memoryview(k.thing), k.want))
        self.fresh = []

    @rule(pick=picks)
    def drop_and_collect(self, pick):
        self.kept = [k for i, k in enumerate(self.kept) if pick >> i & 1]
        self.fresh = []
        gc.collect()

    @rule()
    def release_allocation(self):
        self.recycler.release()
        self.first_owned = self.reads + 1

    # -- after every rule -------------------------------------------------------

    @invariant()
    def kept_rows_are_the_callers(self):
        alive = self.kept + self.fresh
        recycler = self.recycler
        for idle in recycler._idle:
            assert idle.size == recycler._nbytes
            assert not any(np.shares_memory(idle, k.thing) for k in alive), (
                "a block came back while something of it was alive")
            idle[:] = 0xFF
        for k in alive:
            assert bytes(k.thing) == k.want, (
                f"something kept of read {k.read} changed under its holder")
        for i, a in enumerate(alive):
            for b in alive[i + 1:]:
                assert a.read == b.read or not np.shares_memory(
                    a.thing, b.thing), (
                    f"reads {a.read} and {b.read} share memory")
        owned = {k.read for k in alive if k.read >= self.first_owned}
        assert recycler.on_loan == len(owned), (
            f"{recycler.on_loan} blocks on loan, {len(owned)} alive")
        if self.first_owned > self.reads:
            assert not recycler._idle, "a block outlived its release"

    def teardown(self):
        self.kept = self.fresh = []
        self.recycler.release()


def run(image, recycler_class, phases=tuple(Phase)) -> None:
    # 15 examples of 6 steps reject both mutants.  What Hypothesis draws
    # depends on the constants of every loaded module, so sizes were
    # tried against up to 88 pools with random constants added: 10 to 20
    # examples of 6 steps rejected both in every pool; 6 or 8 examples
    # of 6 steps, or 5 to 10 of 15 steps, let one through in about half.
    run_state_machine_as_test(
        lambda: RowsMachine(image, recycler_class),
        settings=settings(max_examples=15, stateful_step_count=6,
                          deadline=None, database=None, derandomize=True,
                          phases=phases))


def test_rows_stay_the_callers_whatever_is_recycled(image):
    run(image, BlockRecycler)


@pytest.mark.parametrize("mutant", [WatchesASlice, KeepsWatchingAfterRelease])
def test_the_machine_rejects_the_prototypes_bugs(image, mutant):
    with pytest.raises(AssertionError):
        run(image, mutant, phases=(Phase.generate,))    # found, not shrunk


def test_blocks_are_recycled_at_all(image):
    """The machine would pass a recycler that never recycles; this is the
    other half: a dropped block is the next one, a kept one is not, and
    only the last size is held."""
    recycler = BlockRecycler()
    rows = result_block([4096, 100], recycler)
    address = rows[0].ctypes.data
    view = rows[1].view(np.int32)[3:5]
    del rows
    assert recycler.on_loan == 1 and not recycler._idle
    other = result_block([4096, 100], recycler)
    assert other[0].ctypes.data != address
    del view
    assert recycler.on_loan == 1 and len(recycler._idle) == 1
    again = result_block([4096, 100], recycler)
    assert again[0].ctypes.data == address
    del again, other
    assert len(recycler._idle) == 2
    bigger = result_block([8192, 100], recycler)
    assert not recycler._idle, "idle blocks of another size are dropped"
    del bigger
    assert recycler.on_loan == 0 and len(recycler._idle) == 1
