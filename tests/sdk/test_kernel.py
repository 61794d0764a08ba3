"""RankContext and the reference DpuContext and TaskletContext: ids,
WRAM heap, host vars, DMA accounting, the tasklet partition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MAX_TASKLETS, WRAM_SIZE
from repro.errors import DpuFaultError
from repro.hardware.dpu import Dpu
from repro.sdk.kernel import DpuProgram, RankContext
from tests.tasklet_reference import (
    BARRIER,
    DpuContext,
    TaskletContext,
    TaskletProgram,
    tasklet_range,
)


@pytest.fixture
def shared() -> DpuContext:
    dpu = Dpu(0, 0)
    dpu.load_program("p", 64, {"v32": 4, "v64": 8, "arr": 16})
    return DpuContext(dpu, nr_tasklets=4)


def test_me_and_width(shared):
    ctx = TaskletContext(shared, 2)
    assert ctx.me() == 2
    assert ctx.nr_tasklets == 4


def test_tasklet_id_out_of_range(shared):
    with pytest.raises(DpuFaultError):
        TaskletContext(shared, MAX_TASKLETS)


def test_charge_accumulates(shared):
    ctx = TaskletContext(shared, 0)
    ctx.charge(10)
    ctx.charge_loop(5, 2.5)
    assert ctx.instructions == 10 + 12


def test_charge_negative_rejected(shared):
    ctx = TaskletContext(shared, 0)
    with pytest.raises(DpuFaultError):
        ctx.charge(-1)


def test_mem_alloc_bump_and_reset(shared):
    ctx = TaskletContext(shared, 0)
    a = ctx.mem_alloc(100)
    b = ctx.mem_alloc(100)
    assert a == 0
    assert b == 104  # 8-byte aligned
    ctx.mem_reset()
    assert ctx.mem_alloc(8) == 0


def test_mem_alloc_overflow(shared):
    ctx = TaskletContext(shared, 0)
    ctx.mem_alloc(WRAM_SIZE - 8)
    with pytest.raises(DpuFaultError):
        ctx.mem_alloc(64)


def test_mem_alloc_negative_size_rejected(shared):
    """A negative size used to *lower* the heap pointer
    (``mem_alloc(1024); mem_alloc(-4096)`` left ``wram_used == -3072``),
    which defeats the 64 KB overflow check."""
    ctx = TaskletContext(shared, 0)
    ctx.mem_alloc(1024)
    with pytest.raises(DpuFaultError):
        ctx.mem_alloc(-4096)
    rank = RankContext([shared.dpu], nr_tasklets=4)
    with pytest.raises(DpuFaultError):
        rank.mem_alloc(-8, tasklets=4)
    with pytest.raises(DpuFaultError):
        rank.mem_alloc(8, tasklets=-4)
    assert shared.wram_used == 1024 and rank.wram_used.tolist() == [0]


def test_mem_alloc_for_several_tasklets(rank):
    """``tasklets[d]=k`` is ``k`` allocations of the aligned size on DPU
    ``d``: same heap pointer afterwards, same overflow point."""
    rank.mem_alloc(100, tasklets=[3, 0])
    assert rank.wram_used.tolist() == [3 * 104, 0]
    rank.mem_alloc(8, tasklets=0)
    assert rank.wram_used.tolist() == [3 * 104, 0]
    RankContext(rank.dpus, 4).mem_alloc(WRAM_SIZE // 4, tasklets=4)
    with pytest.raises(DpuFaultError, match="on DPU 1"):
        RankContext(rank.dpus, 4).mem_alloc(WRAM_SIZE // 4 + 8,
                                            tasklets=[0, 4])


def test_mram_read_write_roundtrip(shared):
    ctx = TaskletContext(shared, 0)
    data = np.arange(32, dtype=np.uint8)
    ctx.mram_write(128, data)
    assert np.array_equal(ctx.mram_read(128, 32), data)
    assert shared.dma_ops == 2
    assert shared.dma_bytes == 64


def test_mram_blocked_accounting(shared):
    ctx = TaskletContext(shared, 0)
    ctx.mram_read_blocks(0, 10_000, block_bytes=2048)
    # ceil(10000 / 2048) = 5 DMA setups for one logical read.
    assert shared.dma_ops == 5
    assert shared.dma_bytes == 10_000


SPAN = 24       #: small enough that random reads and writes collide

_extents = st.tuples(st.integers(0, SPAN - 1), st.integers(1, 8)).map(
    lambda e: (e[0], min(e[1], SPAN - e[0])))
_ops = st.tuples(
    st.integers(0, 3),                                  # tasklet
    st.sampled_from(["read_blocks", "read", "write", "write_blocks"]),
    _extents,
    st.integers(1, 255),                                # byte written
)


@given(ops=st.lists(_ops, max_size=40))
@settings(max_examples=150, deadline=None)
def test_reads_see_mram_through_any_interleaving_of_writes(ops):
    """A read returns what MRAM holds at that moment, in a buffer that is
    the tasklet's own."""
    dpu = Dpu(0, 0)
    dpu.mram.write(0, np.arange(SPAN, dtype=np.uint8))
    shared = DpuContext(dpu, nr_tasklets=4)
    tasklets = [TaskletContext(shared, t) for t in range(4)]
    for t, kind, (offset, length), byte in ops:
        ctx = tasklets[t]
        if kind.startswith("write"):
            data = np.full(length, byte, dtype=np.uint8)
            getattr(ctx, f"mram_{kind}")(offset, data)
        else:
            got = getattr(ctx, f"mram_{kind}")(offset, length)
            assert np.array_equal(got, dpu.mram.read(offset, length))
            assert got.flags.writeable


def test_mram_blocked_invalid_block(shared):
    ctx = TaskletContext(shared, 0)
    with pytest.raises(DpuFaultError):
        ctx.mram_read_blocks(0, 100, block_bytes=0)


def test_dma_charges_one_blocked_transfer_per_piece(shared):
    """``max(1, ceil(len / block))`` setups per piece, summed; a plain
    transfer (``block_bytes=None``) is one setup whatever its length."""
    shared.dma(np.array([10_000, 2048, 1, 0]), block_bytes=2048)
    assert (shared.dma_ops, shared.dma_bytes) == (5 + 1 + 1 + 1, 12_049)
    shared.dma(np.array([10_000, 0]), block_bytes=None)
    assert (shared.dma_ops, shared.dma_bytes) == (8 + 2, 22_049)
    shared.dma(np.array([], dtype=np.int64))
    shared.dma(4096)
    assert (shared.dma_ops, shared.dma_bytes) == (12, 26_145)


def test_negative_dma_length_faults(shared):
    """A negative length used to be charged (``dma(-5)`` added one
    operation and -5 bytes, which shortens the modeled run time)."""
    with pytest.raises(DpuFaultError, match="negative DMA length -5"):
        shared.dma(-5)
    with pytest.raises(DpuFaultError):
        shared.dma(np.array([10, -1]), block_bytes=None)
    assert (shared.dma_ops, shared.dma_bytes) == (0, 0)


@pytest.fixture
def rank() -> RankContext:
    return RankContext([Dpu(0, 0), Dpu(0, 1)], nr_tasklets=2)


def test_rank_dma_faults_on_a_negative_length_it_counts(rank):
    """A DPU used to end with ``dma_bytes == -4096``; an entry the mask
    leaves out stays free whatever its length."""
    with pytest.raises(DpuFaultError, match="negative DMA length -4096"):
        rank.dma([[-4096, 8], [8, 8]])
    assert rank.dma_ops.tolist() == rank.dma_bytes.tolist() == [0, 0]
    rank.dma([[-4096, 8], [8, -1]], where=[[False, True], [True, False]])
    assert rank.dma_ops.tolist() == [1, 1]
    assert rank.dma_bytes.tolist() == [8, 8]
    rank.dma([-1, 0], where=[False, True], block_bytes=None)
    assert rank.dma_ops.tolist() == [1, 2]
    with pytest.raises(DpuFaultError):
        rank.dma([-1, 0], where=[True, True], block_bytes=None)
    assert rank.dma_bytes.tolist() == [8, 8]


def test_read_ragged_faults_on_a_negative_row(rank):
    """A negative row used to be skipped silently, like an empty one."""
    rank.dpus[1].mram.write(0, np.arange(16, dtype=np.uint8))
    flat, starts = rank.read_ragged([0, 4], [0, 8])
    assert flat.tolist() == list(range(4, 12)) and starts.tolist() == [0, 0]
    with pytest.raises(DpuFaultError, match="negative MRAM read length -8"):
        rank.read_ragged([0, 0], [16, -8])


def test_read_ragged_takes_one_value_for_every_dpu_like_map():
    """A scalar length used to read DPU 0 only, a scalar offset raised."""
    rank = RankContext([Dpu(0, d) for d in range(4)], nr_tasklets=2)
    for d, dpu in enumerate(rank.dpus):
        dpu.mram.write(0, np.arange(16, dtype=np.uint8) + 16 * d)
    per_dpu = rank.read_ragged(np.full(4, 2), np.full(4, 4))
    for offsets, lengths in ((2, 4), (np.full(4, 2), 4), (2, np.full(4, 4))):
        flat, starts = rank.read_ragged(offsets, lengths)
        assert flat.tolist() == per_dpu[0].tolist()
        assert starts.tolist() == per_dpu[1].tolist() == [0, 4, 8, 12]
    assert per_dpu[0].tolist() == [b + 16 * d for d in range(4)
                                   for b in range(2, 6)]


def test_rank_symbol_stores_are_per_dpu_masked_and_logged():
    dpus = [Dpu(0, 0), Dpu(0, 1), Dpu(0, 2)]
    for dpu in dpus:
        dpu.symbols = {"v": bytearray(8), "w": bytearray(16)}
        dpu.dirty_log = []
    rank = RankContext(dpus, nr_tasklets=2)
    assert rank.host_u32("v").tolist() == [0, 0, 0]
    rank.set_host_u32("v", [1, -1, 3], where=[True, True, False], index=1)
    assert rank.host_u32("v", 1).tolist() == [1, 0xFFFFFFFF, 0]
    rank.set_host_i64("w", -5, index=1)
    assert rank.host_i64("w", 1).tolist() == [-5, -5, -5]
    assert [dpu.dirty_log for dpu in dpus] == [
        [("v", 4, 4), ("w", 8, 8)], [("v", 4, 4), ("w", 8, 8)], [("w", 8, 8)]]
    with pytest.raises(DpuFaultError, match="unknown symbol"):
        rank.set_host_u32("x", 0)
    with pytest.raises(DpuFaultError, match="index 2"):
        rank.set_host_u32("v", 0, index=2)


def test_charge_takes_one_count_per_tasklet(rank):
    rank.charge(np.array([[1, 2], [3, 4]]))
    TaskletContext(DpuContext(rank.dpus[1], 2, rank, 1), 0).charge(10)
    assert rank.instructions.tolist() == [[1, 2], [13, 4]]
    with pytest.raises(DpuFaultError):
        rank.charge(np.array([1, 2]))           # not one per tasklet
    with pytest.raises(DpuFaultError):
        rank.charge(np.array([[1, -2], [3, 4]]))
    assert rank.instructions.tolist() == [[1, 2], [13, 4]]


def test_host_u32_roundtrip(shared):
    ctx = TaskletContext(shared, 0)
    ctx.set_host_u32("v32", 0xDEADBEEF)
    assert ctx.host_u32("v32") == 0xDEADBEEF


def test_host_u64_and_i64(shared):
    ctx = TaskletContext(shared, 0)
    ctx.set_host_u64("v64", 1 << 40)
    assert ctx.host_u64("v64") == 1 << 40
    ctx.set_host_i64("v64", -12345)
    assert ctx.host_i64("v64") == -12345


def test_host_indexed_access(shared):
    ctx = TaskletContext(shared, 0)
    ctx.set_host_u32("arr", 7, index=2)
    assert ctx.host_u32("arr", index=2) == 7
    assert ctx.host_u32("arr", index=0) == 0


#: Host-variable accessors; the first four only the tasklet model has.
ACCESSES = {
    "host_u32": lambda ctx, i: ctx.host_u32("arr", i),
    "set_host_u32": lambda ctx, i: ctx.set_host_u32("arr", 1, i),
    "add_host_u32": lambda ctx, i: ctx.add_host_u32("arr", 1, i),
    "host_u64": lambda ctx, i: ctx.host_u64("arr", i // 2),
    "set_host_u64": lambda ctx, i: ctx.set_host_u64("arr", 1, i // 2),
    "add_host_u64": lambda ctx, i: ctx.add_host_u64("arr", 1, i // 2),
    "host_i64": lambda ctx, i: ctx.host_i64("arr", i // 2),
    "set_host_i64": lambda ctx, i: ctx.set_host_i64("arr", 1, i // 2),
}
TASKLET_ONLY = {"add_host_u32", "host_u64", "set_host_u64", "add_host_u64"}


@pytest.mark.parametrize("name", list(ACCESSES))
@pytest.mark.parametrize("index", [-2, 4], ids=["before", "past_end"])
def test_host_index_outside_the_symbol_faults(shared, name, index):
    """``struct`` reads a negative offset from the *end* of the buffer and
    reports one past the end as ``struct.error``; both are a DPU fault
    that names the symbol, the index and the symbol's size, through the
    tasklet facade and on the DPU context alike."""
    access = ACCESSES[name]
    tasklet = TaskletContext(shared, 0)
    contexts = (tasklet,) if name in TASKLET_ONLY else (tasklet, shared)
    before = bytes(shared.dpu.symbols["arr"])
    for ctx in contexts:
        with pytest.raises(DpuFaultError, match=r"'arr'.*index -?\d.*16 bytes"):
            access(ctx, index)
    assert bytes(shared.dpu.symbols["arr"]) == before
    access(contexts[-1], 3)     # the last element is inside


def test_add_host_u32(shared):
    ctx = TaskletContext(shared, 0)
    ctx.set_host_u32("v32", 5)
    ctx.add_host_u32("v32", 3)
    assert ctx.host_u32("v32") == 8


def test_unknown_symbol_raises(shared):
    ctx = TaskletContext(shared, 0)
    with pytest.raises(DpuFaultError):
        ctx.host_u32("missing")


def test_shared_scratch_is_per_dpu(shared):
    a = TaskletContext(shared, 0)
    b = TaskletContext(shared, 1)
    a.shared["key"] = 42
    assert b.shared["key"] == 42


def test_barrier_returns_sentinel(shared):
    ctx = TaskletContext(shared, 0)
    assert ctx.barrier() is BARRIER


@pytest.mark.parametrize("total,parts", [(100, 4), (7, 4), (3, 8), (0, 4)])
def test_tasklet_range_partition(shared, total, parts):
    shared2 = DpuContext(shared.dpu, parts)
    ranges = [tasklet_range(TaskletContext(shared2, t), total)
              for t in range(parts)]
    covered = [i for rng in ranges for i in rng]
    assert covered == list(range(total))


@pytest.mark.parametrize("total", [0, 1, 3, 7, 16, 17, 100, 1 << 20])
@pytest.mark.parametrize("parts", [1, 4, 16, 24])
def test_split_is_tasklet_range_for_every_tasklet(shared, total, parts):
    """The partition every rank body takes is Fig. 2b's, DPU by DPU."""
    rank = RankContext([shared.dpu, Dpu(0, 1)], parts)
    totals = (total, total // 3)
    starts, lens = rank.split(totals)
    for d, n in enumerate(totals):
        dpu = DpuContext(rank.dpus[d], parts, rank, d)
        ranges = [tasklet_range(TaskletContext(dpu, t), n)
                  for t in range(parts)]
        assert starts[d].tolist() == [r.start for r in ranges]
        assert lens[d].tolist() == [len(r) for r in ranges]


def test_program_requires_kernel_override():
    with pytest.raises(NotImplementedError):
        prog = TaskletProgram()
        list(prog.kernel(None))


def test_program_requires_run_rank_override():
    """``run_rank`` is a program's one body; the base has no other."""
    with pytest.raises(NotImplementedError):
        DpuProgram().run_rank(None)
    assert not hasattr(DpuProgram, "run") and not hasattr(DpuProgram, "kernel")


def test_u64_host_variables_round_trip_the_whole_range(shared):
    """The tasklet model keeps unsigned 64-bit variables on the signed
    accessors: every bit pattern survives, and an add wraps."""
    ctx = TaskletContext(shared, 0)
    for value in (0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1):
        ctx.set_host_u64("v64", value)
        assert ctx.host_u64("v64") == value
    ctx.add_host_u64("v64", 2)
    assert ctx.host_u64("v64") == 1
