"""Frontend driver: prefetch cache, request batching, invalidation rules.

These are the Section 4.1 behaviours the evaluation leans on.
"""

import numpy as np
import pytest

from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE, small_machine
from repro.core import VPim
from repro.sdk.transfer import DpuEntry, TransferMatrix, XferKind
from repro.virt.frontend import BatchBuffer, PrefetchCache
from repro.virt.opts import OptimizationConfig


# -- unit level: the cache and batch structures ------------------------------

def test_prefetch_cache_hit_within_segment():
    cache = PrefetchCache(pages_per_dpu=16)
    cache.fill(0, 100, (np.arange(1000) % 256).astype(np.uint8))
    hit = cache.lookup(0, 150, 50)
    assert hit is not None
    assert np.array_equal(hit, (np.arange(50) + 50).astype(np.uint8))


def test_prefetch_cache_miss_outside_segment():
    cache = PrefetchCache(pages_per_dpu=16)
    cache.fill(0, 100, np.zeros(1000, dtype=np.uint8))
    assert cache.lookup(0, 50, 10) is None          # before the segment
    assert cache.lookup(0, 1090, 20) is None        # past the end
    assert cache.lookup(1, 100, 10) is None         # other DPU


def test_prefetch_cache_capacity():
    cache = PrefetchCache(pages_per_dpu=16)
    assert cache.capacity == 16 * PAGE_SIZE
    from repro.errors import TransferError
    with pytest.raises(TransferError):
        cache.fill(0, 0, np.zeros(cache.capacity + 1, dtype=np.uint8))


def test_prefetch_cache_invalidate():
    cache = PrefetchCache(pages_per_dpu=16)
    cache.fill(0, 0, np.ones(100, dtype=np.uint8))
    cache.invalidate()
    assert cache.lookup(0, 0, 10) is None
    assert cache.nr_lines == 0


def test_batch_buffer_accumulates_and_drains():
    batch = BatchBuffer(pages_per_dpu=64)
    matrix = TransferMatrix(XferKind.TO_DPU, MRAM_HEAP_SYMBOL, 128, [
        DpuEntry(0, 8, np.arange(8, dtype=np.uint8)),
        DpuEntry(1, 8, np.arange(8, dtype=np.uint8)),
    ])
    assert batch.fits(matrix)
    copied = batch.add(matrix)
    assert copied == 16
    records = batch.drain()
    assert len(records) == 2
    assert records[0].offset == 128
    assert batch.empty


def test_batch_buffer_capacity_per_dpu():
    batch = BatchBuffer(pages_per_dpu=1)  # 4 KB per DPU
    big = TransferMatrix(XferKind.TO_DPU, MRAM_HEAP_SYMBOL, 0, [
        DpuEntry(0, 4000, np.zeros(4000, np.uint8))])
    batch.add(big)
    more = TransferMatrix(XferKind.TO_DPU, MRAM_HEAP_SYMBOL, 4000, [
        DpuEntry(0, 200, np.zeros(200, np.uint8))])
    assert not batch.fits(more)
    other_dpu = TransferMatrix(XferKind.TO_DPU, MRAM_HEAP_SYMBOL, 0, [
        DpuEntry(1, 200, np.zeros(200, np.uint8))])
    assert batch.fits(other_dpu)


# -- integration level: behaviour through a VM -------------------------------

def make_session(**opt_kwargs):
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=4))
    opts = OptimizationConfig(**opt_kwargs)
    return vpim.vm_session(nr_vupmem=1, opts=opts)


def frontend_of(session):
    return session.vm.devices[0].frontend


def sent(session):
    """Requests the session's one frontend has sent so far."""
    return sum(frontend_of(session).requests.values())


def write_small(dpus, dpu, offset, value, size=64):
    dpus.copy_to_mram(dpu, offset, np.full(size, value, dtype=np.uint8))


def test_batching_reduces_messages():
    from repro.sdk.dpu_set import DpuSet
    session = make_session(request_batching=True, prefetch_cache=False)
    with DpuSet(session.transport, 4) as dpus:
        base = sent(session)
        for i in range(20):
            write_small(dpus, i % 4, i * 64, i)
        # All 20 small writes were absorbed, no messages sent yet.
        assert sent(session) == base
        assert frontend_of(session).counts["batched_writes"] == 20
        # A read flushes the batch in one message and sees the data.
        got = dpus.copy_from_mram(0, 0, 64)
        assert (got == 0).all()
        got = dpus.copy_from_mram(1, 64, 64)
        assert (got == 1).all()


def test_batch_flush_on_buffer_full():
    from repro.sdk.dpu_set import DpuSet
    session = make_session(request_batching=True, prefetch_cache=False,
                           batch_pages_per_dpu=1)  # 4 KB per DPU
    with DpuSet(session.transport, 4) as dpus:
        base = sent(session)
        # 3 x 2 KB to DPU 0: the third cannot fit -> flush of first two.
        for i in range(3):
            write_small(dpus, 0, i * 2048, i, size=2048)
        assert sent(session) == base + 1


def test_large_writes_bypass_batching():
    from repro.sdk.dpu_set import DpuSet
    session = make_session(request_batching=True, prefetch_cache=False)
    with DpuSet(session.transport, 4) as dpus:
        base = sent(session)
        dpus.copy_to_mram(0, 0, np.zeros(PAGE_SIZE + 1, dtype=np.uint8))
        assert sent(session) == base + 1


def test_prefetch_serves_repeated_small_reads():
    from repro.sdk.dpu_set import DpuSet
    session = make_session(prefetch_cache=True, request_batching=False)
    with DpuSet(session.transport, 4) as dpus:
        data = (np.arange(4096) % 256).astype(np.uint8)
        dpus.copy_to_mram(0, 0, data)
        counts = frontend_of(session).counts
        first = dpus.copy_from_mram(0, 0, 64)
        assert counts["prefetch_refills"] >= 1
        after_first = sent(session)
        # Subsequent reads in the prefetched segment: zero messages.
        for off in range(64, 1024, 64):
            chunk = dpus.copy_from_mram(0, off, 64)
            assert np.array_equal(chunk, data[off:off + 64])
        assert sent(session) == after_first
        assert counts["prefetch_hits"] >= 15
        assert np.array_equal(first, data[:64])


def test_prefetch_invalidated_by_write():
    from repro.sdk.dpu_set import DpuSet
    session = make_session(prefetch_cache=True, request_batching=False)
    with DpuSet(session.transport, 4) as dpus:
        dpus.copy_to_mram(0, 0, np.zeros(4096, dtype=np.uint8))
        dpus.copy_from_mram(0, 0, 64)               # populate cache
        dpus.copy_to_mram(0, 0, np.full(64, 9, dtype=np.uint8))
        got = dpus.copy_from_mram(0, 0, 64)          # must see new data
        assert (got == 9).all()


def test_prefetch_invalidated_by_launch():
    from repro.sdk.dpu_set import DpuSet
    from tests.tasklet_reference import TaskletProgram, tasklet_range

    class Echo(TaskletProgram):
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

    session = make_session(prefetch_cache=True, request_batching=False)
    with DpuSet(session.transport, 4) as dpus:
        dpus.load(Echo())
        dpus.broadcast_to("n_bytes", 0, np.array([64], np.uint32))
        dpus.broadcast_to("out_offset", 0, np.array([128], np.uint32))
        dpus.copy_to_mram(0, 0, np.full(64, 5, dtype=np.uint8))
        dpus.copy_from_mram(0, 128, 64)              # cache the (empty) output
        dpus.launch()                                 # writes the output
        got = dpus.copy_from_mram(0, 128, 64)
        assert (got == 5).all()


def test_large_reads_bypass_cache():
    from repro.sdk.dpu_set import DpuSet
    session = make_session(prefetch_cache=True, request_batching=False,
                           prefetch_pages_per_dpu=1)
    with DpuSet(session.transport, 4) as dpus:
        dpus.copy_from_mram(0, 0, 2 * PAGE_SIZE)     # larger than the cache
        assert frontend_of(session).counts.get("prefetch_refills", 0) == 0


def test_frontend_memory_overhead_bound():
    session = make_session()
    frontend = session.vm.devices[0].frontend
    overhead = frontend.max_memory_overhead_per_dpu()
    # Section 4.1: 1.37 MB per DPU.
    assert overhead == pytest.approx(1.37e6, rel=0.01)


def test_device_config_populated_after_init():
    session = make_session()
    frontend = session.vm.devices[0].frontend
    # Touch the device so it is acquired + initialized.
    from repro.sdk.dpu_set import DpuSet
    with DpuSet(session.transport, 1):
        pass
    assert frontend.device_config.frequency_hz == 350_000_000
    # GET_CONFIG and the MMIO config window agree on every A.1 field.
    from repro.driver.driver import CONFIG_LAYOUT
    from repro.virt.mmio import Reg
    assert [frontend.mmio.read(Reg.CONFIG + 4 * i)
            for i in range(len(CONFIG_LAYOUT))] == [
        int(getattr(frontend.device_config, key)) for key in CONFIG_LAYOUT]


def test_failed_request_drops_the_transferq_depth_gauge():
    """A request the backend refuses still leaves the transferq: its
    depth gauge reads 0 afterwards, not the 1 of the request in flight."""
    from repro.errors import RankOfflineError
    from repro.hardware.rank import RankHealth
    from repro.sdk.dpu_set import DpuSet
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=4))
    session = vpim.vm_session(nr_vupmem=1)
    device = session.vm.devices[0]

    def depth():
        return vpim.machine.metrics.value(
            "repro_virtio_queue_depth", device=device.device_id,
            queue="transferq", vm=session.vm.vm_id)

    buf = np.zeros(2 * PAGE_SIZE, dtype=np.uint8)
    with DpuSet(session.transport, 4) as dpus:
        dpus.copy_to_mram(0, 0, buf)
        assert depth() == 0
        device.backend.mapping.rank.health = RankHealth.OFFLINE
        with pytest.raises(RankOfflineError):
            dpus.copy_to_mram(0, 0, buf)
        assert depth() == 0
        device.backend.mapping.rank.health = RankHealth.OK
