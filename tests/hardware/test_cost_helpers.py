"""The cost helpers are the live stack's modeled time, bit for bit.

Every duration of the data path is a :class:`CostModel` helper taking
request *shape* only (``docs/architecture.md`` "Cost model").  The first
half of this file computes expected durations from shape alone — it
touches nothing but ``repro.hardware.timing`` — and the second half
sends the same requests through an unloaded VM and compares with
``float.hex()``: one slipped summation order fails here, not only in the
``BENCH_WALLCLOCK.json`` digest.
"""

import dataclasses
import functools
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MRAM_HEAP_SYMBOL, PAGE_SIZE, small_machine
from repro.hardware.timing import DEFAULT_COST_MODEL as COST

# -- shape -> steps (CostModel only) -------------------------------------------


def wire_pages(size):
    """Pages one entry occupies on the wire (an empty entry still takes one)."""
    return max(1, COST.pages_of(size))


def transfer_steps(kind, sizes, tdata, *, skips=0, threads=8,
                   broadcast=False, vhost=False):
    """``(backend steps, round-trip steps)`` of one data request whose
    wire entries have ``sizes`` and whose rank operation takes ``tdata``."""
    pages = [wire_pages(size) for size in sizes]
    backend = COST.backend_steps(kind, pages, skips, threads, broadcast,
                                 op=tdata)
    return backend, COST.roundtrip_steps(sum(pages), vhost,
                                         backend=COST.total(backend))


def control_steps(kind, op=0.0, pages=0, vhost=False):
    backend = COST.backend_steps(kind, op=op)
    return backend, COST.roundtrip_steps(pages, vhost,
                                         backend=COST.total(backend))


class TestHelpersAlone:
    def test_total_is_a_left_fold(self):
        steps = {"a": 0.1, "b": 0.2, "c": 0.3}
        assert COST.total(steps) == (0.1 + 0.2) + 0.3
        assert COST.total({}) == 0.0

    def test_placeholders_are_exact_no_ops(self):
        steps = COST.roundtrip_steps(7)
        assert steps["QoS"] == 0.0 and steps["Backend"] == 0.0
        assert COST.total(steps) == (
            steps["Page"] + steps["Ser"] + steps["Int"] + steps["Irq"])

    def test_vhost_skips_only_the_event_dispatch(self):
        plain, vhost = COST.roundtrip_steps(3), COST.roundtrip_steps(3, True)
        assert plain["Int"] - vhost["Int"] == pytest.approx(
            COST.event_dispatch_cost)
        assert {k: v for k, v in plain.items() if k != "Int"} == \
               {k: v for k, v in vhost.items() if k != "Int"}

    def test_translation_saturates_at_eight_threads(self):
        eight = COST.backend_steps("read_rank", [64], threads=8)
        assert COST.backend_steps("read_rank", [64], threads=32) == eight
        assert COST.backend_steps(
            "read_rank", [64], threads=1)["translate"] > eight["translate"]
        assert COST.translation_lanes(0) == 1

    def test_broadcast_charges_one_entry(self):
        fan = COST.backend_steps("write_rank", [5, 5, 5], broadcast=True)
        assert fan == COST.backend_steps("write_rank", [5])

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            COST.backend_steps("reboot")

    def test_single_dpu_copy_uses_one_chip_lane(self):
        one = COST.rank_op_time(1 << 20, 1)
        two = COST.rank_op_time(1 << 20, 2)
        assert one > 4 * two

    def test_sync_launch_polls_back_off(self):
        # Short run: a handful of polls.  Long run: ~run / max period.
        assert COST.sync_launch_polls(0.0) == 1
        assert COST.sync_launch_polls(1e-3) < 20
        assert 90 <= COST.sync_launch_polls(1.0) <= 120


class TestContendedMakespan:
    def test_empty_and_single_job(self):
        assert COST.contended_makespan([]) == 0.0
        # A single job never contends: makespan is its own total.
        assert COST.contended_makespan([(1e-3, 5e-3)]) == 5e-3

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            COST.contended_makespan([(2e-3, 1e-3)])   # bus > total
        with pytest.raises(ValueError):
            COST.contended_makespan([(-1e-3, 1e-3)])

    def test_two_job_formula_and_bounds(self):
        jobs = [(2e-3, 10e-3), (3e-3, 8e-3)]
        contended = COST.contended_makespan(jobs)
        # Longest job runs in full; the other job's bus seconds add at
        # the native contention factor.
        expected = 10e-3 + COST.native_parallel_contention * 3e-3
        assert contended == pytest.approx(expected)
        assert max(t for _, t in jobs) <= contended < sum(
            t for _, t in jobs)

    def test_explicit_contention_override(self):
        jobs = [(2e-3, 4e-3), (2e-3, 4e-3)]
        assert COST.contended_makespan(jobs, contention=0.0) == 4e-3
        assert COST.contended_makespan(jobs, contention=1.0) == 6e-3


# -- the live stack --------------------------------------------------------------
#
# Imported here, below the shape half, on purpose: nothing above this
# line knows a GuestMemory, a Rank or a Machine exists.

from repro.analysis.figures import SIZE_PROFILES, machine_for_dpus  # noqa: E402
from repro.apps.registry import ALL_APPS, app_by_short_name  # noqa: E402
from repro.core import VPim  # noqa: E402
from repro.driver.ioctl import IoctlCode, IoctlRequest  # noqa: E402
from repro.hardware.machine import Machine  # noqa: E402
from repro.sdk.dpu_set import DpuSet  # noqa: E402
from repro.sdk.transfer import (  # noqa: E402
    DpuEntry,
    TransferMatrix,
    XferKind,
    uniform_read,
    uniform_write,
)
from repro.virt.backend import VUpmemBackend  # noqa: E402
from repro.virt.firecracker import Firecracker, VmConfig  # noqa: E402
from repro.virt.opts import OptimizationConfig  # noqa: E402
from repro.virt import transfer_cache  # noqa: E402
from tests.tasklet_reference import TaskletProgram  # noqa: E402

from tests.conftest import wire_path  # noqa: E402
from tests.core.test_teardown import assert_freed  # noqa: E402

NR_DPUS = 4


class Spin(TaskletProgram):
    """Charges a fixed instruction count per tasklet; one host symbol."""

    name = "cost_helpers_spin"
    symbols = {"arg": 64}
    nr_tasklets = 3
    binary_size = 5000

    def kernel(self, ctx):
        ctx.charge(1000 + 10 * ctx.me())
        yield ctx.barrier()


class TappedBackend(VUpmemBackend):
    """A backend that keeps each request's result.  A subclass, not a
    closure over the bound ``process`` stored on the backend, which
    would be a cycle holding the whole stack for the collector."""

    def process(self, *args, **kwargs):
        result = super().process(*args, **kwargs)
        self.results.append(result)
        return result


class Vm:
    """One unloaded VM with a linked device and a tap on the backend."""

    def __init__(self, threads=8, **opts):
        self.vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=NR_DPUS))
        self.session = self.vpim.vm_session(
            nr_vupmem=1, mem_bytes=1 << 30, opts=OptimizationConfig(**opts))
        self.dpus = DpuSet(self.session.transport, NR_DPUS)
        device = self.session.vm.devices[0]
        self.frontend, backend = device.frontend, device.backend
        backend.translation_threads = threads
        backend.__class__ = TappedBackend
        backend.results = self.results = []

    def last(self):
        return self.results[-1].duration


def test_a_tapped_vm_is_freed_by_its_last_reference():
    vm = Vm()
    vm.frontend.release()
    assert vm.results
    roots = [vm]
    del vm
    assert_freed(roots)


def hexes(backend_steps, front_steps):
    return (COST.total(backend_steps).hex(), COST.total(front_steps).hex())


sizes_st = st.lists(
    st.sampled_from([1, 8, 100, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1,
                     3 * PAGE_SIZE - 9, 5 * PAGE_SIZE]),
    min_size=1, max_size=NR_DPUS)
flags_st = st.fixed_dictionaries({
    "c_enhancement": st.booleans(), "vhost_vsock": st.booleans(),
    "wire": st.booleans()})
threads_st = st.sampled_from([1, 3, 8, 16])


def on_either_path(test):
    """Run ``test`` on the wire path (``tests.conftest.wire_path``) when
    its ``flags`` draw says ``wire``, on the planned path otherwise; the
    test sees the remaining flags, which are ``OptimizationConfig``'s."""
    @functools.wraps(test)
    def run(self, *, flags, **drawn):
        flags = dict(flags)
        with wire_path() if flags.pop("wire") else nullcontext():
            return test(self, flags=flags, **drawn)
    return run


def payloads(sizes, seed, same=False):
    rng = np.random.default_rng(seed)
    bufs = [rng.integers(0, 256, size=n, dtype=np.uint8) for n in sizes]
    return [bufs[0].copy() for _ in bufs] if same else bufs


class TestTransfersMatchTheStack:
    @given(sizes=sizes_st, flags=flags_st, threads=threads_st,
           seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    @on_either_path
    def test_mram_write_and_read(self, sizes, flags, threads, seed):
        vm = Vm(threads, request_batching=False, prefetch_cache=False,
                **flags)
        rust, vhost = not flags["c_enhancement"], flags["vhost_vsock"]
        tdata = COST.rank_op_time(sum(sizes), len(sizes), rust)
        # Twice: on the planned path the second request replays the
        # first's plan.
        for rep in range(2):
            for kind, send in (
                    ("write_rank", lambda: vm.frontend.write(uniform_write(
                        MRAM_HEAP_SYMBOL, 64, payloads(sizes, seed + rep)))),
                    ("read_rank", lambda: vm.frontend.read(TransferMatrix(
                        XferKind.FROM_DPU, MRAM_HEAP_SYMBOL, 64,
                        [DpuEntry(i, n) for i, n in enumerate(sizes)]))[1])):
                expected = transfer_steps(kind, sizes, tdata, threads=threads,
                                          vhost=vhost)
                got = send()
                assert (vm.last().hex(), got.hex()) == hexes(*expected), \
                    (kind, rep)

    @given(sizes=sizes_st, flags=flags_st, seed=st.integers(0, 2**16),
           changed=st.lists(st.booleans(), min_size=NR_DPUS,
                            max_size=NR_DPUS),
           same=st.booleans())
    @settings(max_examples=30, deadline=None)
    @on_either_path
    def test_cached_write_with_skips_and_broadcast(self, sizes, flags, seed,
                                                   changed, same):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transfer_cache, "CACHE_BYPASS_MIN_PROBES", 0)
            self._check_cached_write(sizes, flags, seed, changed, same)

    def _check_cached_write(self, sizes, flags, seed, changed, same):
        vm = Vm(cache=True, request_batching=False, **flags)
        rust, vhost = not flags["c_enhancement"], flags["vhost_vsock"]
        if same:
            sizes = [sizes[0]] * len(sizes)
        first = payloads(sizes, seed, same)
        second = [buf ^ np.uint8(0xFF) if flip else buf
                  for buf, flip in zip(first, changed)]
        probe = COST.digest_probe_time(sizes)
        for bufs, kept in ((first, first),
                           (second, [buf for buf, flip in zip(second, changed)
                                     if flip])):
            got = vm.frontend.write(uniform_write(MRAM_HEAP_SYMBOL, 0, bufs))
            if not kept:
                # Every extent suppressed: no request at all.
                assert got.hex() == probe.hex()
                continue
            kept_sizes = [buf.size for buf in kept]
            fan = len(kept) > 1 and len({buf.tobytes() for buf in kept}) == 1
            backend, front = transfer_steps(
                "write_rank", kept_sizes,
                COST.rank_op_time(sum(kept_sizes), len(kept), rust),
                skips=len(sizes) - len(kept), broadcast=fan, vhost=vhost)
            assert vm.last().hex() == COST.total(backend).hex()
            assert got.hex() == (COST.total(front) + probe).hex()

    @given(flags=flags_st, size=st.sampled_from([4, 8, 64]),
           nr=st.integers(1, NR_DPUS))
    @settings(max_examples=10, deadline=None)
    @on_either_path
    def test_wram_symbol_transfers(self, flags, size, nr):
        vm = Vm(**flags)
        vm.dpus.load(Spin())
        tdata = COST.symbol_copy_time([size] * nr)
        expected = transfer_steps("write_rank", [size] * nr, tdata,
                                  vhost=flags["vhost_vsock"])
        got = vm.frontend.write(uniform_write(
            "arg", 0, payloads([size] * nr, seed=size)))
        assert (vm.last().hex(), got.hex()) == hexes(*expected)
        expected = transfer_steps("read_rank", [size] * nr, tdata,
                                  vhost=flags["vhost_vsock"])
        _, got = vm.frontend.read(uniform_read("arg", 0, size, nr))
        assert (vm.last().hex(), got.hex()) == hexes(*expected)


class TestControlAndLocalPaths:
    @pytest.mark.parametrize("vhost", [False, True])
    def test_load_launch_ci(self, vhost):
        vm = Vm(vhost_vsock=vhost)
        program = Spin()

        load = (COST.ci_time(NR_DPUS)
                + COST.program_load_time(program.binary_size, NR_DPUS))
        expected = control_steps("load", load,
                                 COST.pages_of(program.binary_size), vhost)
        got = vm.frontend.load(program)
        assert (vm.last().hex(), got.hex()) == hexes(*expected)

        run = COST.dpu_run_time([1000, 1010, 1020], 0, 0)
        expected = control_steps("launch", run, vhost=vhost)
        got = vm.frontend.launch()
        assert (vm.last().hex(), got.hex()) == hexes(*expected)

        got = vm.frontend.ci_ops(20)
        assert got.hex() == COST.guest_ci_time(20, vhost).hex()
        one_ci, _ = control_steps("ci_op", COST.ci_time(1), vhost=vhost)
        assert vm.last().hex() == COST.total(one_ci).hex()

    def test_config_and_release(self):
        vm = Vm()
        # GET_CONFIG ran at boot, before the tap; replay it by hand.
        assert COST.total(COST.backend_steps("get_config")) == \
            COST.config_request_cost
        expected = control_steps("release")
        got = vm.frontend.release()
        assert (vm.last().hex(), got.hex()) == hexes(*expected)

    def test_batched_write_and_its_flush(self):
        vm = Vm()
        small = [np.full(100, i, np.uint8) for i in range(NR_DPUS)]
        got = vm.frontend.write(uniform_write(MRAM_HEAP_SYMBOL, 0, small))
        assert got.hex() == COST.guest_copy_time(400, NR_DPUS).hex()
        assert not vm.results, "a batched write sends no request"

        # The flush replays one single-DPU rank operation per record.
        tdata = 0.0
        for _ in small:
            tdata += COST.rank_op_time(100, 1)
        expected = transfer_steps("write_rank", [100] * NR_DPUS, tdata)
        # Any non-write is a barrier; a read of one DPU flushes first.
        read = transfer_steps(
            "read_rank", [vm.frontend.cache.capacity],
            COST.rank_op_time(vm.frontend.cache.capacity, 1))
        _, got = vm.frontend.read(uniform_read(MRAM_HEAP_SYMBOL, 0, 100, 1))
        assert vm.results[0].duration.hex() == hexes(*expected)[0]
        assert got.hex() == (COST.total(expected[1])
                             + COST.total(read[1])).hex()

        # Now the line is cached: the same read is a local copy.
        _, got = vm.frontend.read(uniform_read(MRAM_HEAP_SYMBOL, 0, 100, 1))
        assert got.hex() == COST.guest_copy_time(100, 1).hex()

    def test_launch_poll(self):
        vm = Vm()
        penalty = vm.session.transport.launch_poll_penalty(
            10.5 * COST.status_poll_period)
        assert penalty.hex() == COST.launch_poll_time(10).hex()


# -- homogeneity: every modeled second is charged through a CostModel field ----

#: Fields that are not seconds: cycle counts, integer counts and ratios
#: stay put, rates halve.  Any other field is a time, so a new one is
#: scaled by default.
UNSCALED = frozenset({
    "pipeline_depth", "dma_setup_cycles", "dma_cycles_per_byte",
    "rust_slowdown", "parallel_contention", "native_parallel_contention",
})
RATES = frozenset({
    "dpu_frequency_hz", "rank_xfer_bandwidth", "interleave_bw_c",
    "guest_copy_bandwidth",
})


def slowed(k):
    """The default model with every time ×k and every rate ×1/k."""
    changes = {}
    for f in dataclasses.fields(COST):
        if f.name in UNSCALED:
            continue
        value = getattr(COST, f.name)
        changes[f.name] = value / k if f.name in RATES else value * k
    return dataclasses.replace(COST, **changes)


def doubled(base, slow):
    """``slow / base`` per series (a zero series must stay zero), to
    compare against 2.0 within 1e-9."""
    return {name: slow[name] / value if value else slow[name]
            for name, value in base.items()}


def twice(series):
    return {name: 2.0 if value else 0.0 for name, value in series.items()}


@pytest.mark.parametrize("mode", ["native", "vm"])
@pytest.mark.parametrize("app", [info.short_name for info in ALL_APPS])
def test_modeled_time_is_homogeneous_in_the_cost_constants(app, mode):
    """A seconds literal outside ``CostModel`` stays put when the model
    is scaled: some series of the run's profile no longer doubles, or
    a poll count moves."""
    def profile(cost):
        vpim = VPim(machine_for_dpus(64), cost=cost)
        params = SIZE_PROFILES["test"].get(app, {})
        instance = app_by_short_name(app).cls(nr_dpus=64, **params)
        session = (vpim.native_session() if mode == "native" else
                   vpim.vm_session(nr_vupmem=vpim.machine.config.nr_ranks))
        report = session.run(instance)
        snapshot = report.profile
        times = {"total": report.total_time}
        times.update((f"segment {name}", seconds)
                     for name, seconds in snapshot.segments.items())
        times.update((f"driver {name}", op.time)
                     for name, op in snapshot.driver.items())
        times.update((f"wrank {name}", seconds)
                     for name, seconds in snapshot.wrank_steps.items())
        counts = {name: op.count for name, op in snapshot.driver.items()}
        return times, counts

    assert RATES | UNSCALED <= {f.name for f in dataclasses.fields(COST)}
    (times, counts), (slow, slow_counts) = map(profile, (COST, slowed(2.0)))
    assert slow_counts == counts
    assert slow.keys() == times.keys()
    assert doubled(times, slow) == pytest.approx(twice(times), abs=1e-9)


def test_boot_and_ioctl_are_homogeneous():
    def boot_and_ioctl(cost):
        firecracker = Firecracker(Machine(small_machine(nr_ranks=1), cost))
        vm = firecracker.launch_vm(VmConfig(nr_vupmem=1, mem_bytes=1 << 30))
        driver = firecracker.driver
        rank, _ = driver.ioctl("p", IoctlRequest(IoctlCode.ALLOC_RANK, 0))
        _, ioctl = driver.ioctl("p", IoctlRequest(IoctlCode.CI_OP, rank,
                                                   count=3))
        return {"boot": vm.boot_time, "ioctl": ioctl}

    base, slow = map(boot_and_ioctl, (COST, slowed(2.0)))
    assert doubled(base, slow) == pytest.approx(twice(base), abs=1e-9)
