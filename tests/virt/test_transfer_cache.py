"""Content-aware transfer cache: suppression, invalidation, bit-exactness.

Covers the ``docs/transfer_cache.md`` contract at three levels: the
``ExtentDigestIndex`` structure, the frontend/backend suppression
protocol through a full VM, and the byte-exactness property (cache-on
results must equal cache-off exactly) for random write/read sequences
and for every PrIM application.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.transfer_cache import output_digest
from repro.apps.registry import PRIM_APPS, app_by_short_name
from repro.analysis.figures import SIZE_PROFILES
from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE, small_machine
from repro.core import VPim
from repro.errors import SerializationError, TransientFaultError
from repro.faults import failover_device
from repro.sdk.dpu_set import DpuSet
from repro.virt.opts import OptimizationConfig
from repro.virt.transfer_cache import ExtentDigestIndex, content_digest
from tests.tasklet_reference import TaskletProgram

#: Label identity of the first vUPMEM device of the first VM.
IDS = dict(vm="vm-0", device="vm-0.vupmem0")


def make_session(nr_ranks=1, dpus_per_rank=4, **opt_kwargs):
    vpim = VPim(small_machine(nr_ranks=nr_ranks, dpus_per_rank=dpus_per_rank))
    session = vpim.vm_session(nr_vupmem=1,
                              opts=OptimizationConfig(**opt_kwargs))
    return vpim, session


def cache_metric(vpim, name, **labels):
    return vpim.machine.metrics.value(name, **IDS, **labels)


# -- unit level: the extent digest index -------------------------------------

class TestExtentDigestIndex:
    def test_hit_requires_exact_extent_triple(self):
        index = ExtentDigestIndex()
        index.insert(0, MRAM_HEAP_SYMBOL, 100, 64, 0xABCD)
        assert index.lookup(0, MRAM_HEAP_SYMBOL, 100, 64, 0xABCD)
        assert not index.lookup(0, MRAM_HEAP_SYMBOL, 100, 64, 0xABCE)
        assert not index.lookup(0, MRAM_HEAP_SYMBOL, 100, 65, 0xABCD)
        assert not index.lookup(0, MRAM_HEAP_SYMBOL, 101, 64, 0xABCD)
        assert not index.lookup(1, MRAM_HEAP_SYMBOL, 100, 64, 0xABCD)
        assert not index.lookup(0, "other_symbol", 100, 64, 0xABCD)

    def test_first_touch_collision_cannot_suppress(self):
        """A digest recorded at one extent never matches another extent,
        so a colliding payload at a first-touch offset is always sent."""
        index = ExtentDigestIndex()
        digest = content_digest(np.arange(64, dtype=np.uint8))
        index.insert(0, MRAM_HEAP_SYMBOL, 0, 64, digest)
        # Same payload digest, never-written offset: miss by design.
        assert not index.lookup(0, MRAM_HEAP_SYMBOL, 4096, 64, digest)

    def test_insert_drops_overlapping_records(self):
        index = ExtentDigestIndex()
        index.insert(0, MRAM_HEAP_SYMBOL, 0, 64, 1)
        index.insert(0, MRAM_HEAP_SYMBOL, 64, 64, 2)
        index.insert(0, MRAM_HEAP_SYMBOL, 200, 64, 3)
        # [32, 96) overlaps both of the first two records.
        index.insert(0, MRAM_HEAP_SYMBOL, 32, 64, 4)
        assert not index.lookup(0, MRAM_HEAP_SYMBOL, 0, 64, 1)
        assert not index.lookup(0, MRAM_HEAP_SYMBOL, 64, 64, 2)
        assert index.lookup(0, MRAM_HEAP_SYMBOL, 32, 64, 4)
        assert index.lookup(0, MRAM_HEAP_SYMBOL, 200, 64, 3)

    def test_reinsert_same_offset_replaces_record(self):
        index = ExtentDigestIndex()
        index.insert(0, MRAM_HEAP_SYMBOL, 0, 64, 1)
        index.insert(0, MRAM_HEAP_SYMBOL, 0, 64, 2)
        assert not index.lookup(0, MRAM_HEAP_SYMBOL, 0, 64, 1)
        assert index.lookup(0, MRAM_HEAP_SYMBOL, 0, 64, 2)
        assert index.nr_records == 1

    def test_lru_bound_evicts_oldest(self):
        index = ExtentDigestIndex(max_records_per_region=2)
        index.insert(0, MRAM_HEAP_SYMBOL, 0, 8, 1)
        index.insert(0, MRAM_HEAP_SYMBOL, 100, 8, 2)
        # Re-touching offset 0 moves it to the back of the LRU order.
        index.insert(0, MRAM_HEAP_SYMBOL, 0, 8, 1)
        index.insert(0, MRAM_HEAP_SYMBOL, 200, 8, 3)
        assert index.lookup(0, MRAM_HEAP_SYMBOL, 0, 8, 1)
        assert not index.lookup(0, MRAM_HEAP_SYMBOL, 100, 8, 2)
        assert index.lookup(0, MRAM_HEAP_SYMBOL, 200, 8, 3)

    def test_prune_counts_and_drops_overlaps(self):
        index = ExtentDigestIndex()
        index.insert(0, MRAM_HEAP_SYMBOL, 0, 64, 1)
        index.insert(0, MRAM_HEAP_SYMBOL, 64, 64, 2)
        index.insert(1, MRAM_HEAP_SYMBOL, 0, 64, 3)
        assert index.prune(0, MRAM_HEAP_SYMBOL, 60, 8) == 2
        assert index.prune(0, MRAM_HEAP_SYMBOL, 60, 8) == 0
        assert index.prune(0, MRAM_HEAP_SYMBOL, 0, 0) == 0
        # Other DPUs' regions are untouched.
        assert index.lookup(1, MRAM_HEAP_SYMBOL, 0, 64, 3)

    def test_invalidate_all_returns_count(self):
        index = ExtentDigestIndex()
        index.insert(0, MRAM_HEAP_SYMBOL, 0, 8, 1)
        index.insert(1, "sym", 0, 8, 2)
        assert index.invalidate_all() == 2
        assert index.nr_records == 0
        assert index.invalidate_all() == 0

    def test_content_digest_is_a_pure_function_of_bytes(self):
        a = np.arange(16, dtype=np.uint8)
        assert content_digest(a) == content_digest(a.copy())
        assert content_digest(a) == content_digest(a.view(np.uint32))
        assert content_digest(a) != content_digest(a[::-1].copy())
        # Empty payloads digest fine (zero-length write edge case).
        assert content_digest(np.zeros(0, np.uint8)) == \
            content_digest(np.zeros(0, np.uint64))


# -- VM level: suppression through the data plane ----------------------------

class TestSuppressionThroughVm:
    def test_repeated_large_write_sends_no_message(self):
        vpim, session = make_session(cache=True)
        buf = (np.arange(2 * PAGE_SIZE) % 251).astype(np.uint8)
        with DpuSet(session.transport, 4) as dpus:
            msgs = session.transport.profiler.messages
            dpus.copy_to_mram(0, 0, buf)
            sent = msgs.requests
            dpus.copy_to_mram(0, 0, buf)
            assert msgs.requests == sent  # fully suppressed: no message
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 1
            assert cache_metric(
                vpim, "repro_xfer_cache_suppressed_bytes_total") == buf.size
            got = dpus.copy_from_mram(0, 0, buf.size)
            assert np.array_equal(got, buf)

    def test_partially_changed_push_sends_only_changed_entries(self):
        vpim, session = make_session(cache=True)
        bufs = [(np.arange(2 * PAGE_SIZE) % (13 + i)).astype(np.uint8)
                for i in range(4)]
        with DpuSet(session.transport, 4) as dpus:
            dpus.push_to_mram(0, bufs)
            bufs[2] = bufs[2][::-1].copy()
            dpus.push_to_mram(0, bufs)
            # 3 unchanged extents suppressed, 1 changed extent re-sent.
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 3
            for i in range(4):
                assert np.array_equal(
                    dpus.copy_from_mram(i, 0, bufs[i].size), bufs[i])

    def test_batched_small_write_suppression(self):
        vpim, session = make_session(cache=True, request_batching=True)
        buf = np.full(64, 7, dtype=np.uint8)
        with DpuSet(session.transport, 4) as dpus:
            batched = session.transport.profiler.messages.batched_writes
            dpus.copy_to_mram(0, 0, buf)
            dpus.copy_to_mram(0, 0, buf)
            # The duplicate never entered the batch buffer.
            assert (session.transport.profiler.messages.batched_writes
                    == batched + 1)
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 1
            assert np.array_equal(dpus.copy_from_mram(0, 0, 64), buf)

    def test_zero_length_write_is_harmless(self):
        _, session = make_session(cache=True)
        data = np.arange(100, dtype=np.uint8)
        with DpuSet(session.transport, 4) as dpus:
            dpus.copy_to_mram(0, 0, np.zeros(0, dtype=np.uint8))
            dpus.copy_to_mram(0, 64, data)
            dpus.copy_to_mram(0, 0, np.zeros(0, dtype=np.uint8))
            # A zero-length record must not shadow the data beneath it.
            assert np.array_equal(dpus.copy_from_mram(0, 64, 100), data)

    def test_sub_page_tail_write_roundtrips(self):
        """Non-page-aligned tails digest and suppress correctly."""
        vpim, session = make_session(cache=True)
        buf = (np.arange(PAGE_SIZE + 37) % 241).astype(np.uint8)
        with DpuSet(session.transport, 4) as dpus:
            dpus.copy_to_mram(1, 128, buf)
            dpus.copy_to_mram(1, 128, buf)
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 1
            # Flip one byte in the tail: the digest must change and the
            # write must land.
            buf[-1] ^= 0xFF
            dpus.copy_to_mram(1, 128, buf)
            assert np.array_equal(dpus.copy_from_mram(1, 128, buf.size), buf)

    def test_overlapping_write_invalidates_stale_extent(self):
        _, session = make_session(cache=True)
        base = (np.arange(2 * PAGE_SIZE) % 199).astype(np.uint8)
        with DpuSet(session.transport, 4) as dpus:
            dpus.copy_to_mram(0, 0, base)
            patch = np.full(64, 0xEE, dtype=np.uint8)
            dpus.copy_to_mram(0, 4096, patch)
            # Re-pushing the original must NOT be suppressed: the extent
            # record was dropped by the overlapping patch.
            dpus.copy_to_mram(0, 0, base)
            assert np.array_equal(dpus.copy_from_mram(0, 0, base.size), base)

    def test_skip_extent_must_be_resident_on_the_backend(self):
        """A SKIP the backend cannot validate is a protocol violation."""
        _, session = make_session(cache=True)
        buf = (np.arange(2 * PAGE_SIZE) % 97).astype(np.uint8)
        other = buf[::-1].copy()
        with DpuSet(session.transport, 4) as dpus:
            frontend = session.vm.devices[0].frontend
            # Poison the frontend index: claim DPU 0's extent is resident.
            # (A fully-suppressed matrix sends no message at all, so a
            # second, unpoisoned entry keeps the request on the wire.)
            frontend.digests.insert(0, MRAM_HEAP_SYMBOL, 0, buf.size,
                                    content_digest(buf))
            with pytest.raises(SerializationError, match="not resident"):
                dpus.push_to_mram(0, [buf, other, other, other])


# -- VM level: invalidation seams --------------------------------------------

class KernelWriter(TaskletProgram):
    """Writes a marker into MRAM so launches dirty guest-pushed data."""

    name = "cache_test_writer"
    nr_tasklets = 2

    def kernel(self, ctx):
        if ctx.me() == 0:
            ctx.mram_write(0, np.full(64, 0x5A, dtype=np.uint8))
            ctx.charge(8)
        yield ctx.barrier()


class TestInvalidation:
    def test_launch_dirty_pages_are_not_suppressed(self):
        vpim, session = make_session(cache=True)
        buf = (np.arange(2 * PAGE_SIZE) % 113).astype(np.uint8)
        with DpuSet(session.transport, 4) as dpus:
            dpus.load(KernelWriter())
            dpus.copy_to_mram(0, 0, buf)
            dpus.launch()  # kernel overwrites [0, 64)
            assert cache_metric(vpim, "repro_xfer_cache_invalidations_total",
                                reason="launch_dirty") >= 1
            # The re-push must transfer again and win over the kernel's
            # marker.
            dpus.copy_to_mram(0, 0, buf)
            assert np.array_equal(dpus.copy_from_mram(0, 0, buf.size), buf)

    def test_untouched_extents_survive_a_launch(self):
        vpim, session = make_session(cache=True)
        buf = (np.arange(2 * PAGE_SIZE) % 151).astype(np.uint8)
        far = 1 << 20  # far from the kernel's [0, 64) stores
        with DpuSet(session.transport, 4) as dpus:
            dpus.load(KernelWriter())
            dpus.copy_to_mram(0, far, buf)
            dpus.launch()
            dpus.copy_to_mram(0, far, buf)
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 1

    def test_load_invalidates_the_index(self):
        vpim, session = make_session(cache=True)
        buf = (np.arange(2 * PAGE_SIZE) % 173).astype(np.uint8)
        with DpuSet(session.transport, 4) as dpus:
            dpus.copy_to_mram(0, 0, buf)
            dpus.load(KernelWriter())
            assert cache_metric(vpim, "repro_xfer_cache_invalidations_total",
                                reason="load") >= 1
            dpus.copy_to_mram(0, 0, buf)  # miss: index was dropped
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 0
            assert np.array_equal(dpus.copy_from_mram(0, 0, buf.size), buf)

    def test_retry_exhaustion_drops_the_index(self):
        vpim, session = make_session(cache=True)
        buf = (np.arange(2 * PAGE_SIZE) % 227).astype(np.uint8)
        with DpuSet(session.transport, 4) as dpus:
            frontend = session.vm.devices[0].frontend
            dpus.copy_to_mram(0, 0, buf)
            assert frontend.digests.nr_records > 0

            def always_fault(_frontend):
                raise TransientFaultError("injected", penalty_s=1e-6)

            frontend.fault_hook = always_fault
            with pytest.raises(TransientFaultError):
                dpus.copy_to_mram(0, PAGE_SIZE * 4, buf)
            frontend.fault_hook = None
            assert frontend.digests.nr_records == 0
            assert cache_metric(vpim, "repro_xfer_cache_invalidations_total",
                                reason="retry_exhausted") >= 1
            # Recovery: the repair write transfers in full and lands.
            dpus.copy_to_mram(0, 0, buf)
            assert np.array_equal(dpus.copy_from_mram(0, 0, buf.size), buf)

    def test_failover_drops_both_sides_of_the_index(self):
        vpim, session = make_session(nr_ranks=2, dpus_per_rank=4, cache=True)
        buf = (np.arange(2 * PAGE_SIZE) % 83).astype(np.uint8)
        with DpuSet(session.transport, 4) as dpus:
            device = session.vm.devices[0]
            dpus.copy_to_mram(0, 0, buf)
            dpus.copy_to_mram(0, 0, buf)
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 1
            failover_device(device, vpim.manager)
            assert device.frontend.digests.nr_records == 0
            assert device.backend.resident.nr_records == 0
            assert cache_metric(vpim, "repro_xfer_cache_invalidations_total",
                                reason="failover") >= 1
            # The replacement rank is blank: the same payload must be a
            # miss, transfer again, and read back intact.
            dpus.copy_to_mram(0, 0, buf)
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 1
            assert np.array_equal(dpus.copy_from_mram(0, 0, buf.size), buf)


# -- VM level: adaptive digest bypass ----------------------------------------

class TestAdaptiveBypass:
    def test_churn_write_stream_stops_digesting(self):
        vpim, session = make_session(cache=True, cache_bypass_min_probes=8)
        with DpuSet(session.transport, 4) as dpus:
            for i in range(10):
                buf = np.full(256, i + 1, dtype=np.uint8)
                dpus.copy_to_mram(0, 0, buf)
            # Ten rewrites of one extent, every one with fresh content:
            # nine *revisit* probes, zero hits — past the 8-probe window
            # the frontend gives up digesting this workload (the metric
            # counts the records dropped by the invalidation).
            dropped = cache_metric(vpim,
                                   "repro_xfer_cache_invalidations_total",
                                   reason="adaptive_bypass")
            assert dropped >= 1
            # From here on, a duplicate write is no longer suppressed,
            # and the bypass does not re-fire.
            buf = np.full(256, 10, dtype=np.uint8)
            dpus.copy_to_mram(0, 0, buf)
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 0
            assert cache_metric(vpim,
                                "repro_xfer_cache_invalidations_total",
                                reason="adaptive_bypass") == dropped
            # Correctness is untouched.
            got = dpus.copy_from_mram(0, 0, 256)
            assert np.array_equal(got, buf)

    def test_first_touch_writes_never_trip_the_bypass(self):
        # A cold sweep over many distinct extents (a big first push of
        # input data) carries no signal: those probes could never have
        # hit, so they must not count toward the bypass window.
        vpim, session = make_session(cache=True, cache_bypass_min_probes=8)
        buf = (np.arange(256) % 97).astype(np.uint8)
        with DpuSet(session.transport, 4) as dpus:
            for i in range(32):
                dpus.copy_to_mram(0, i * 256,
                                  np.full(256, (i % 250) + 1, dtype=np.uint8))
            assert cache_metric(vpim, "repro_xfer_cache_invalidations_total",
                                reason="adaptive_bypass") == 0
            # The cache is still engaged: a repeat suppresses.
            dpus.copy_to_mram(0, 32 * 256, buf)
            dpus.copy_to_mram(0, 32 * 256, buf)
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 1

    def test_hit_stream_keeps_the_cache_engaged(self):
        vpim, session = make_session(cache=True, cache_bypass_min_probes=8)
        buf = (np.arange(256) % 97).astype(np.uint8)
        with DpuSet(session.transport, 4) as dpus:
            for _ in range(12):
                dpus.copy_to_mram(0, 0, buf)
            assert cache_metric(vpim, "repro_xfer_cache_invalidations_total",
                                reason="adaptive_bypass") == 0
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 11

    def test_load_resets_the_bypass(self):
        vpim, session = make_session(cache=True, cache_bypass_min_probes=8)
        buf = (np.arange(256) % 89).astype(np.uint8)
        with DpuSet(session.transport, 4) as dpus:
            for i in range(10):
                dpus.copy_to_mram(0, 0,
                                  np.full(256, i + 1, dtype=np.uint8))
            assert cache_metric(vpim, "repro_xfer_cache_invalidations_total",
                                reason="adaptive_bypass") >= 1
            # A program load starts a new phase: digesting resumes and a
            # repeated write suppresses again.
            dpus.load(KernelWriter())
            dpus.copy_to_mram(0, 0, buf)
            dpus.copy_to_mram(0, 0, buf)
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 1

    def test_min_probes_zero_disables_the_bypass(self):
        vpim, session = make_session(cache=True, cache_bypass_min_probes=0)
        with DpuSet(session.transport, 4) as dpus:
            for i in range(80):
                dpus.copy_to_mram(0, (i % 20) * 256,
                                  np.full(256, (i * 7 + 1) % 251,
                                          dtype=np.uint8))
            assert cache_metric(vpim, "repro_xfer_cache_invalidations_total",
                                reason="adaptive_bypass") == 0
            buf = np.full(256, 42, dtype=np.uint8)
            dpus.copy_to_mram(0, 0, buf)
            dpus.copy_to_mram(0, 0, buf)
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") >= 1


# -- property level: cache-on is byte-identical to cache-off -----------------

#: One operation: (dpu, slot, size index, payload seed, is_read).
_ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 3),
              st.integers(0, 2), st.booleans()),
    min_size=1, max_size=24)

_SIZES = (0, 37, 512, PAGE_SIZE + 101)
_SLOT = 1024  # slots overlap for the larger sizes, on purpose


def _payload(size, seed):
    return ((np.arange(size) * 31 + seed) % 256).astype(np.uint8)


def _replay(ops, cache):
    """Run one op sequence through a VM; returns every read result."""
    _, session = make_session(cache=cache)
    reads = []
    with DpuSet(session.transport, 4) as dpus:
        for dpu, slot, size_idx, seed, is_read in ops:
            size = _SIZES[size_idx]
            if is_read:
                reads.append(dpus.copy_from_mram(dpu, slot * _SLOT,
                                                 max(size, 1)))
            else:
                dpus.copy_to_mram(dpu, slot * _SLOT, _payload(size, seed))
        # Final sweep: the full written region of every DPU.
        for dpu in range(4):
            reads.append(dpus.copy_from_mram(dpu, 0, 6 * _SLOT + _SIZES[-1]))
    return reads


@given(ops=_ops)
@settings(max_examples=20, deadline=None)
def test_random_sequences_cache_on_equals_cache_off(ops):
    off = _replay(ops, cache=False)
    on = _replay(ops, cache=True)
    assert len(off) == len(on)
    for a, b in zip(off, on):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("app_name",
                         [info.short_name for info in PRIM_APPS])
def test_prim_app_outputs_identical_with_cache(app_name):
    """Every PrIM app computes bit-identical output with the cache on."""
    digests = {}
    for cache in (False, True):
        params = dict(SIZE_PROFILES["test"][app_name])
        app = app_by_short_name(app_name).cls(nr_dpus=16, **params)
        _, session = make_session(dpus_per_rank=16, cache=cache)
        output = app.run(session.transport)
        assert app.verify(output)
        digests[cache] = output_digest(output)
    assert digests[True] == digests[False]
