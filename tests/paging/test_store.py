"""SwapStore: content-addressed dedup, refcounting, replacement."""

import numpy as np
import pytest

from repro.hardware.dpu import DpuState
from repro.paging.store import SwapStore
from repro.virt.migration import DpuSnapshot, RankCheckpoint


def _seg(fill, size=1024):
    return np.full(size, fill, dtype=np.uint8)


def _checkpoint(segment_map, source_rank=0, symbols=None):
    """One-DPU checkpoint with the given ``{seg_idx: fill}`` layout."""
    snap = DpuSnapshot(
        mram_segments={idx: _seg(fill) for idx, fill in segment_map.items()},
        symbols=dict(symbols or {}), program=None, state=DpuState.IDLE)
    cp = RankCheckpoint(source_rank=source_rank)
    cp.dpus.append(snap)
    return cp


def test_put_get_roundtrip_is_bit_identical():
    store = SwapStore()
    cp = _checkpoint({0: 7, 3: 9}, symbols={"n": b"\x04\x00"})
    store.put(2000, cp)
    got = store.get(2000)
    assert got.source_rank == cp.source_rank
    assert set(got.dpus[0].mram_segments) == {0, 3}
    for idx in (0, 3):
        np.testing.assert_array_equal(got.dpus[0].mram_segments[idx],
                                      cp.dpus[0].mram_segments[idx])
    assert got.dpus[0].symbols == {"n": b"\x04\x00"}
    assert got.dpus[0].state is DpuState.IDLE


def test_identical_segments_across_vranks_are_stored_once():
    store = SwapStore()
    raw_a, dedup_a, hits_a = store.put(2000, _checkpoint({0: 5, 1: 6}))
    raw_b, dedup_b, hits_b = store.put(2001, _checkpoint({0: 5, 1: 6}))
    assert raw_a == raw_b == 2048
    assert (dedup_a, hits_a) == (0, 0)
    assert (dedup_b, hits_b) == (2048, 2)
    assert store.counts["dedup_hits"] == 2
    # Logical footprint counts both tenants; host memory holds one copy.
    assert store.raw_bytes == 4096
    assert store.stored_bytes == 2048


def test_drop_releases_only_unshared_payloads():
    store = SwapStore()
    store.put(2000, _checkpoint({0: 5}))
    store.put(2001, _checkpoint({0: 5, 1: 8}))
    store.drop(2000)
    # Segment 5 is still referenced by vrank 2001.
    assert 2000 not in store
    assert 2001 in store
    np.testing.assert_array_equal(store.get(2001).dpus[0].mram_segments[0],
                                  _seg(5))
    store.drop(2001)
    assert store.stored_bytes == 0
    assert store.nr_checkpoints == 0


def test_put_replaces_prior_checkpoint_for_same_vrank():
    store = SwapStore()
    store.put(2000, _checkpoint({0: 1}))
    store.put(2000, _checkpoint({0: 2}))
    assert store.nr_checkpoints == 1
    np.testing.assert_array_equal(store.get(2000).dpus[0].mram_segments[0],
                                  _seg(2))
    # The replaced checkpoint's payload was released.
    assert store.stored_bytes == 1024


def test_drop_of_unknown_vrank_is_a_noop():
    store = SwapStore()
    store.drop(2999)
    assert store.nr_checkpoints == 0


def test_get_of_unknown_vrank_raises():
    with pytest.raises(KeyError):
        SwapStore().get(2999)
