"""Content-aware transfer cache: suppression, invalidation, bit-exactness.

Covers the ``docs/transfer_cache.md`` contract at three levels: the
``ExtentDigestIndex`` structure, the frontend/backend suppression
protocol through a full VM, and the byte-exactness property (cache-on
results must equal cache-off exactly) for random write/read sequences
and for every PrIM application.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.transfer_cache import output_digest, run_app_once
from repro.apps.registry import PRIM_APPS, app_by_short_name
from repro.analysis.figures import SIZE_PROFILES
from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE, small_machine
from repro.core import VPim
from repro.errors import SerializationError, TransientFaultError
from repro.faults import failover_device
from repro.faults.retry import TransportRetry
from repro.sdk.dpu_set import DpuSet
from repro.virt.frontend import SMALL_WRITE_BYTES
from repro.virt.opts import OptimizationConfig
from repro.virt import transfer_cache
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

    def test_batched_write_then_ragged_push_roundtrips(self):
        """A batched write's extent is resident on the host once its flush
        lands, so a later push may SKIP it."""
        small = (np.arange(64) % 61).astype(np.uint8)
        big = (np.arange(4 * PAGE_SIZE) % 241).astype(np.uint8)
        reads = {}
        for cache in (False, True):
            _, session = make_session(cache=cache)
            with DpuSet(session.transport, 4) as dpus:
                dpus.copy_to_mram(0, 0, small)
                dpus.push_to_mram(0, [small, big, big, big])
                reads[cache] = [dpus.copy_from_mram(i, 0, size) for i, size
                                in enumerate((small.size,) + (big.size,) * 3)]
        assert np.array_equal(reads[True][0], small)
        for off, on in zip(reads[False], reads[True]):
            assert np.array_equal(off, on)

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
            frontend.transfer_cache.index.insert(
                0, MRAM_HEAP_SYMBOL, 0, buf.size, content_digest(buf))
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
            assert frontend.transfer_cache.index.nr_records > 0

            def always_fault(_frontend):
                raise TransientFaultError("injected", penalty_s=1e-6)

            frontend.fault_hook = TransportRetry(vpim.machine.metrics,
                                                 always_fault)
            with pytest.raises(TransientFaultError):
                dpus.copy_to_mram(0, PAGE_SIZE * 4, buf)
            frontend.fault_hook = None
            assert frontend.transfer_cache.index.nr_records == 0
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
            assert device.frontend.transfer_cache.index.nr_records == 0
            assert device.backend.transfer_cache.nr_records == 0
            assert cache_metric(vpim, "repro_xfer_cache_invalidations_total",
                                reason="failover") >= 1
            # The replacement rank is blank: the same payload must be a
            # miss, transfer again, and read back intact.
            dpus.copy_to_mram(0, 0, buf)
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 1
            assert np.array_equal(dpus.copy_from_mram(0, 0, buf.size), buf)


# -- VM level: adaptive digest bypass ----------------------------------------

class TestAdaptiveBypass:
    def test_churn_write_stream_stops_digesting(self, monkeypatch):
        monkeypatch.setattr(transfer_cache, "CACHE_BYPASS_MIN_PROBES", 8)
        vpim, session = make_session(cache=True)
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

    def test_first_touch_writes_never_trip_the_bypass(self, monkeypatch):
        # A cold sweep over many distinct extents (a big first push of
        # input data) carries no signal: those probes could never have
        # hit, so they must not count toward the bypass window.
        monkeypatch.setattr(transfer_cache, "CACHE_BYPASS_MIN_PROBES", 8)
        vpim, session = make_session(cache=True)
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

    def test_hit_stream_keeps_the_cache_engaged(self, monkeypatch):
        monkeypatch.setattr(transfer_cache, "CACHE_BYPASS_MIN_PROBES", 8)
        vpim, session = make_session(cache=True)
        buf = (np.arange(256) % 97).astype(np.uint8)
        with DpuSet(session.transport, 4) as dpus:
            for _ in range(12):
                dpus.copy_to_mram(0, 0, buf)
            assert cache_metric(vpim, "repro_xfer_cache_invalidations_total",
                                reason="adaptive_bypass") == 0
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 11

    def test_load_resets_the_bypass(self, monkeypatch):
        monkeypatch.setattr(transfer_cache, "CACHE_BYPASS_MIN_PROBES", 8)
        vpim, session = make_session(cache=True)
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

    def test_the_probe_that_trips_the_bypass_suppresses_nothing(self):
        # The bypass drops both halves of the index, so the write whose
        # probe trips it may not SKIP what that probe found resident.
        vpim, session = make_session(cache=True)
        size = 2 * PAGE_SIZE
        with DpuSet(session.transport, 4) as dpus:
            for i in range(transfer_cache.CACHE_BYPASS_MIN_PROBES):
                last = np.full(size, i + 1, dtype=np.uint8)
                dpus.copy_to_mram(0, 0, last)
            # One revisit probe short of the window, no hit so far; DPU
            # 0's entry is a revisit hit, the others first touches.
            other = np.full(size, 0xC3, dtype=np.uint8)
            dpus.push_to_mram(0, [last, other, other, other])
            assert cache_metric(vpim, "repro_xfer_cache_invalidations_total",
                                reason="adaptive_bypass") >= 1
            assert cache_metric(vpim, "repro_xfer_cache_hits_total") == 0
            for dpu, buf in enumerate((last, other, other, other)):
                assert np.array_equal(dpus.copy_from_mram(dpu, 0, size), buf)

    def test_min_probes_zero_disables_the_bypass(self, monkeypatch):
        monkeypatch.setattr(transfer_cache, "CACHE_BYPASS_MIN_PROBES", 0)
        vpim, session = make_session(cache=True)
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

#: One operation: (kind, dpu, slot, size index, payload seed).  A
#: ``push`` writes a ragged matrix at the slot, DPU ``d`` getting size
#: ``_SIZES[(size index + d) % 4]``: every push mixes entries on both
#: sides of ``SMALL_WRITE_BYTES``.
_ops = st.lists(
    st.tuples(st.sampled_from(("write", "read", "push")), st.integers(0, 3),
              st.integers(0, 5), st.integers(0, 3), st.integers(0, 2)),
    min_size=1, max_size=24)

_SIZES = (0, 37, 512, PAGE_SIZE + 101)
assert min(_SIZES) < SMALL_WRITE_BYTES < max(_SIZES)
_SLOT = 1024  # slots overlap for the larger sizes, on purpose


def _payload(size, seed):
    return ((np.arange(size) * 31 + seed) % 256).astype(np.uint8)


def _replay(ops, cache):
    """Run one op sequence through a VM; returns every read result."""
    _, session = make_session(cache=cache)
    reads = []
    with DpuSet(session.transport, 4) as dpus:
        for kind, dpu, slot, size_idx, seed in ops:
            size = _SIZES[size_idx]
            if kind == "read":
                reads.append(dpus.copy_from_mram(dpu, slot * _SLOT,
                                                 max(size, 1)))
            elif kind == "write":
                dpus.copy_to_mram(dpu, slot * _SLOT, _payload(size, seed))
            else:
                dpus.push_to_mram(slot * _SLOT, [
                    _payload(_SIZES[(size_idx + d) % len(_SIZES)], seed)
                    for d in range(4)])
        # Final sweep: the full written region of every DPU.
        for dpu in range(4):
            reads.append(dpus.copy_from_mram(dpu, 0, 6 * _SLOT + _SIZES[-1]))
    return reads


@given(ops=_ops)
# A batched write, then a push that carries the same extent beside a
# request-size entry: the push may SKIP it only if the flush made it
# resident on the host too.
@example(ops=[("write", 0, 0, 1, 0), ("push", 0, 0, 1, 0)])
@settings(max_examples=20, deadline=None)
def test_random_sequences_cache_on_equals_cache_off(ops):
    off = _replay(ops, cache=False)
    on = _replay(ops, cache=True)
    assert len(off) == len(on)
    for a, b in zip(off, on):
        assert np.array_equal(a, b)


#: ``float.hex()`` of the cache-on modeled total and of every W-rank step
#: of the quick ablation runs; any move is a behaviour change of the
#: enabled path.
CACHE_ON_PINS = {
    "NW": ("0x1.00d2bfe7a7d8cp-5", {
        "Cache": "0x1.787b10ed63239p-12", "Deser": "0x1.d28c5461ac177p-11",
        "Int": "0x1.0385c67dfe32ap-10", "Page": "0x1.e8378c5e47b3ep-15",
        "Ser": "0x1.24ee21055e38cp-15", "T-data": "0x1.3b71c7b8d5f69p-9"}),
    "BFS": ("0x1.22666f43c76f8p-5", {
        "Cache": "0x1.c8571c4687a3dp-15", "Deser": "0x1.67bda96e4de65p-8",
        "Int": "0x1.91148fd9fd363p-8", "Page": "0x1.26dc0cdbb0958p-14",
        "Ser": "0x1.61d4dc3ad3e68p-15", "T-data": "0x1.1719f378ebf5cp-11"}),
    "MLP": ("0x1.3babf2bfa36c0p-6", {
        "Cache": "0x1.df284416db38fp-12", "Deser": "0x1.b459637397d24p-11",
        "Int": "0x1.d7dbf487fcb93p-11", "Page": "0x1.0c6f7a0b5ed8bp-13",
        "Ser": "0x1.421f5f40d8376p-14", "T-data": "0x1.13f47caedea33p-9"}),
}


@pytest.mark.parametrize("app_name", sorted(CACHE_ON_PINS))
def test_cache_on_modeled_time_is_pinned(app_name):
    row = run_app_once(app_name, cache=True, quick=True)
    total, steps = CACHE_ON_PINS[app_name]
    assert row["verified"]
    assert row["modeled_total_s"].hex() == total
    assert {k: v.hex() for k, v in row["wrank_steps"].items()} == steps


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
