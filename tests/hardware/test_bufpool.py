"""BufferPool: exact-size reuse bounded by bytes alone."""

import numpy as np

from repro.hardware.bufpool import BufferPool


def test_full_rank_request_finds_all_its_buffers_again():
    """A wire request acquires one scratch buffer per DPU and returns the
    64 together; the next request of that shape must allocate nothing."""
    pool = BufferPool()
    for _ in range(2):
        loans = [pool.acquire(1 << 16) for _ in range(64)]
        for buf in loans:
            pool.release(buf)
    assert (pool.alloc_count, pool.reuse_count) == (64, 64)
    assert pool.outstanding == 0 and pool.free_buffers == 64


def test_pool_is_bounded_by_bytes():
    pool = BufferPool(max_pooled_bytes=3 << 10)
    for buf in [pool.acquire(1 << 10) for _ in range(5)]:
        pool.release(buf)
    assert pool.pooled_bytes == 3 << 10 and pool.free_buffers == 3
    assert pool.outstanding == 0


def test_lease_returns_the_buffer_when_the_body_raises():
    pool = BufferPool()
    try:
        with pool.lease(128) as buf:
            assert isinstance(buf, np.ndarray) and buf.size == 128
            raise RuntimeError("abort mid-transfer")
    except RuntimeError:
        pass
    assert pool.outstanding == 0 and pool.free_buffers == 1
