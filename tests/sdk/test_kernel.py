"""Kernel/TaskletContext: ids, WRAM heap, host vars, DMA accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MAX_TASKLETS, WRAM_SIZE
from repro.errors import DpuFaultError
from repro.hardware.dpu import Dpu
from repro.sdk.kernel import (
    BARRIER,
    DpuProgram,
    DpuSharedState,
    TaskletContext,
    tasklet_range,
)
from repro.sdk.runtime import run_program


@pytest.fixture
def shared() -> DpuSharedState:
    dpu = Dpu(0, 0)
    dpu.load_program("p", 64, {"v32": 4, "v64": 8, "arr": 16})
    return DpuSharedState(dpu, nr_tasklets=4)


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


# -- the per-run cache behind ``readonly`` reads ---------------------------------

SPAN = 24       #: small enough that random reads and writes collide

_extents = st.tuples(st.integers(0, SPAN - 1), st.integers(1, 8)).map(
    lambda e: (e[0], min(e[1], SPAN - e[0])))
_ops = st.tuples(
    st.integers(0, 3),                                  # tasklet
    st.sampled_from(["read_blocks", "read_shared", "read",
                     "write", "write_blocks"]),
    _extents,
    st.integers(1, 255),                                # byte written
)


@given(ops=st.lists(_ops, max_size=40))
@settings(max_examples=150, deadline=None)
def test_reads_see_mram_through_any_interleaving_of_writes(ops):
    """Cached or not, a read returns what MRAM holds at that moment."""
    dpu = Dpu(0, 0)
    dpu.mram.write(0, np.arange(SPAN, dtype=np.uint8))
    shared = DpuSharedState(dpu, nr_tasklets=4)
    tasklets = [TaskletContext(shared, t) for t in range(4)]
    for t, kind, (offset, length), byte in ops:
        ctx = tasklets[t]
        if kind.startswith("write"):
            data = np.full(length, byte, dtype=np.uint8)
            getattr(ctx, f"mram_{kind}")(offset, data)
        else:
            if kind == "read":
                got = ctx.mram_read(offset, length)
            else:
                got = ctx.mram_read_blocks(offset, length,
                                           readonly=kind == "read_shared")
            assert np.array_equal(got, dpu.mram.read(offset, length))
            # A shared buffer cannot be scribbled on by the tasklet that
            # happens to hold it; a private one is the tasklet's own.
            assert got.flags.writeable == (kind != "read_shared")
        for (at, size), cached in shared.read_cache.items():
            assert np.array_equal(cached, dpu.mram.read(at, size))


@pytest.mark.parametrize("write", ["mram_write", "mram_write_blocks"])
def test_write_evicts_only_the_spans_it_overlaps(shared, write):
    ctx = TaskletContext(shared, 0)
    low = ctx.mram_read_blocks(0, 64, readonly=True)
    high = ctx.mram_read_blocks(64, 64, readonly=True)
    # Starts where ``low`` ends: touches it, overlaps only ``high``.
    getattr(ctx, write)(64, np.full(8, 7, dtype=np.uint8))
    assert set(shared.read_cache) == {(0, 64)}
    assert ctx.mram_read_blocks(0, 64, readonly=True) is low
    fresh = ctx.mram_read_blocks(64, 64, readonly=True)
    assert fresh is not high and fresh[0] == 7 and high[0] == 0
    # One byte into ``low`` is enough.
    getattr(ctx, write)(63, np.full(1, 9, dtype=np.uint8))
    assert set(shared.read_cache) == {(64, 64)}
    assert ctx.mram_read_blocks(0, 64, readonly=True)[63] == 9


def test_read_cache_dies_with_the_run():
    class Peek(DpuProgram):
        symbols = {"seen": 4}
        nr_tasklets = 2

        def kernel(self, ctx):
            first = ctx.mram_read_blocks(0, 8, readonly=True)
            ctx.set_host_u32("seen", int(first[0]))
            return
            yield

    program = Peek()
    dpu = Dpu(0, 0)
    dpu.load_program(program, program.binary_size, program.symbols)
    for value in (3, 4):        # the host writes between the launches
        dpu.mram.write(0, np.full(8, value, dtype=np.uint8))
        run_program(program, dpu)
        assert dpu.read_symbol("seen", 0, 4)[0] == value


def test_mram_blocked_invalid_block(shared):
    ctx = TaskletContext(shared, 0)
    with pytest.raises(DpuFaultError):
        ctx.mram_read_blocks(0, 100, block_bytes=0)


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
    shared2 = DpuSharedState(shared.dpu, parts)
    ranges = [tasklet_range(TaskletContext(shared2, t), total)
              for t in range(parts)]
    covered = [i for rng in ranges for i in rng]
    assert covered == list(range(total))


def test_program_requires_kernel_override():
    with pytest.raises(NotImplementedError):
        prog = DpuProgram()
        list(prog.kernel(None))
