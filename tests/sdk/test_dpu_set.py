"""DpuSet: allocation, multi-rank splitting, transfers, lifecycle."""

import numpy as np
import pytest

from repro.config import MRAM_HEAP_SYMBOL, small_machine
from repro.driver.native import NativeTransport
from repro.errors import AllocationError, TransferError
from repro.hardware.machine import Machine
from repro.sdk.dpu_set import DpuSet
from repro.sdk.kernel import DpuProgram, tasklet_range


class Echo(DpuProgram):
    """Copies its input region to its output region."""

    name = "echo"
    symbols = {"n_bytes": 4, "out_offset": 4}
    nr_tasklets = 4

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mem_reset()
        yield ctx.barrier()
        n = ctx.host_u32("n_bytes")
        out = ctx.host_u32("out_offset")
        rng = tasklet_range(ctx, n)
        if len(rng):
            data = ctx.mram_read(rng.start, len(rng))
            ctx.mram_write(out + rng.start, data)
            ctx.charge_loop(len(rng), 1)


@pytest.fixture
def transport():
    return NativeTransport(Machine(small_machine(nr_ranks=2, dpus_per_rank=8)))


def test_alloc_zero_rejected(transport):
    with pytest.raises(AllocationError):
        DpuSet(transport, 0)


def test_alloc_more_than_machine_rejected(transport):
    with pytest.raises(AllocationError):
        DpuSet(transport, 1000)


def test_single_rank_set(transport):
    with DpuSet(transport, 4) as dpus:
        assert len(dpus) == 4
        assert len(dpus.channels) == 1


def test_multi_rank_set_splits(transport):
    with DpuSet(transport, 12) as dpus:
        assert len(dpus.channels) == 2
        assert dpus.dpus_per_channel() == [8, 4]


def test_push_to_and_from_roundtrip(transport):
    with DpuSet(transport, 4) as dpus:
        bufs = [np.full(16, i, dtype=np.uint8) for i in range(4)]
        dpus.push_to_mram(0, bufs)
        got = dpus.push_from_mram(0, 16)
        for i in range(4):
            assert np.array_equal(got[i], bufs[i])


def test_push_spanning_ranks_preserves_order(transport):
    with DpuSet(transport, 12) as dpus:
        bufs = [np.full(8, i, dtype=np.uint8) for i in range(12)]
        dpus.push_to_mram(0, bufs)
        got = dpus.push_from_mram(0, 8)
        for i in range(12):
            assert (got[i] == i).all(), f"DPU {i} data scrambled"


def test_broadcast(transport):
    with DpuSet(transport, 6) as dpus:
        dpus.broadcast_to(MRAM_HEAP_SYMBOL, 0, np.arange(8, dtype=np.uint8))
        got = dpus.push_from_mram(0, 8)
        assert all(np.array_equal(g, np.arange(8, dtype=np.uint8))
                   for g in got)


def test_copy_to_single_dpu_only(transport):
    with DpuSet(transport, 4) as dpus:
        dpus.copy_to_mram(2, 0, np.full(8, 9, dtype=np.uint8))
        got = dpus.push_from_mram(0, 8)
        assert (got[2] == 9).all()
        assert not got[0].any() and not got[1].any() and not got[3].any()


def test_copy_from_out_of_set(transport):
    with DpuSet(transport, 4) as dpus:
        with pytest.raises(TransferError):
            dpus.copy_from_mram(7, 0, 8)


def test_too_many_buffers_rejected(transport):
    with DpuSet(transport, 2) as dpus:
        with pytest.raises(TransferError):
            dpus.push_to_mram(0, [np.zeros(4, np.uint8)] * 3)


def test_load_and_launch_roundtrip(transport):
    with DpuSet(transport, 8) as dpus:
        dpus.load(Echo())
        data = [np.arange(32, dtype=np.uint8) + i for i in range(8)]
        dpus.broadcast_to("n_bytes", 0, np.array([32], np.uint32))
        dpus.broadcast_to("out_offset", 0, np.array([64], np.uint32))
        dpus.push_to_mram(0, data)
        dpus.launch()
        got = dpus.push_from_mram(64, 32)
        for i in range(8):
            assert np.array_equal(got[i], data[i])


def test_operations_after_free_rejected(transport):
    dpus = DpuSet(transport, 2)
    dpus.free()
    with pytest.raises(AllocationError):
        dpus.push_from_mram(0, 8)
    with pytest.raises(AllocationError):
        dpus.launch()


def test_double_free_is_idempotent(transport):
    dpus = DpuSet(transport, 2)
    dpus.free()
    dpus.free()  # must not raise


def test_free_releases_ranks(transport):
    dpus = DpuSet(transport, 16)
    assert transport.driver.free_ranks() == []
    dpus.free()
    assert transport.driver.free_ranks() == [0, 1]


def test_operations_advance_clock(transport):
    start = transport.clock.now
    with DpuSet(transport, 4) as dpus:
        dpus.push_to_mram(0, [np.zeros(1024, np.uint8)] * 4)
    assert transport.clock.now > start


def test_multi_rank_parallel_advance_uses_max(transport):
    """Native multi-rank ops run in parallel: one op's clock advance must
    be far below the sum of per-rank durations."""
    with DpuSet(transport, 16) as dpus:
        t0 = transport.clock.now
        dpus.push_to_mram(0, [np.zeros(1 << 18, np.uint8)] * 16)
        elapsed = transport.clock.now - t0
        completions = [c for _, c in dpus.last_completions]
        assert elapsed == pytest.approx(max(completions))
        assert elapsed < sum(completions) * 0.75


@pytest.mark.parametrize("kind", ["native", "vm"])
@pytest.mark.parametrize("size", [512, 8 << 10, 96 << 10])
def test_read_results_alias_nothing(kind, size, request):
    """The results of one multi-DPU read share a block, not bytes: writing
    into one changes neither its siblings nor anything a later read sees
    (guest pages, the payload window, a prefetch line).  The sizes cover
    a prefetched read, a multi-page one, and one past the cache line."""
    transport = (request.getfixturevalue("native") if kind == "native"
                 else request.getfixturevalue("vm_session").transport)
    rng = np.random.default_rng(size)
    data = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(12)]
    with DpuSet(transport, 12) as dpus:
        dpus.push_to_mram(64, data)
        for _ in range(3):      # a refill, then hits (or replays)
            got = dpus.push_from_mram(64, size)
            for i, victim in enumerate(got):
                victim[:] ^= 0xFF
                assert all(np.array_equal(buf, want)
                           for j, (buf, want) in enumerate(zip(got, data))
                           if j > i)
        assert all(np.array_equal(buf, want) for buf, want
                   in zip(dpus.push_from_mram(64, size), data))
        one = dpus.copy_from_mram(3, 64, size)
        one[:] = 0
        assert np.array_equal(dpus.copy_from_mram(3, 64, size), data[3])


def test_ci_ops_recorded(transport):
    with DpuSet(transport, 2) as dpus:
        dpus.ci_ops(50)
    assert transport.profiler.op_stats("CI").count >= 50
