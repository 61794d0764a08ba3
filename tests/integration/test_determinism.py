"""Simulation determinism and miscellaneous end-to-end coverage."""

import numpy as np
import pytest

from repro.apps.prim.nw import NeedlemanWunsch
from repro.apps.prim.red import Reduction
from repro.config import small_machine
from repro.core import VPim
from repro.sdk.dpu_set import DpuSet
from repro.virt.opts import OptimizationConfig


def run_once(preset=None, app_cls=Reduction, **app_args):
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    session = (vpim.vm_session(nr_vupmem=2, preset_name=preset)
               if preset else vpim.native_session())
    return session.run(app_cls(nr_dpus=8, **app_args))


def test_simulated_times_are_deterministic():
    """Two identical runs produce bit-identical simulated timings."""
    a = run_once(preset="vPIM", n_elements=1 << 14)
    b = run_once(preset="vPIM", n_elements=1 << 14)
    assert a.segments == b.segments
    assert a.total_time == b.total_time
    assert a.vmexits == b.vmexits
    assert a.profile.messages.requests == b.profile.messages.requests


def test_nw_deterministic_across_presets():
    """Results are identical no matter which optimizations run."""
    outputs = set()
    for preset in (None, "vPIM-rust", "vPIM", "vPIM+PB"):
        app = NeedlemanWunsch(nr_dpus=8, seq_len=128, block_size=32)
        vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
        session = (vpim.vm_session(nr_vupmem=2, preset_name=preset)
                   if preset else vpim.native_session())
        outputs.add(session.run(app).verified)
        outputs.add(app.expected())
    assert True in outputs and len(outputs) == 2  # one score, all verified


def test_session_verify_false_skips_reference():
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8))
    rep = vpim.native_session().run(
        Reduction(nr_dpus=8, n_elements=1 << 12), verify=False)
    assert rep.verified  # reported as trusted, not checked


def test_partial_push_subset_of_dpus():
    """A FROM_DPU push touching only some set DPUs restitches correctly."""
    from repro.config import MRAM_HEAP_SYMBOL
    from repro.sdk.transfer import DpuEntry, XferKind
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    session = vpim.vm_session(nr_vupmem=2)
    with DpuSet(session.transport, 16) as dpus:
        dpus.push_to_mram(0, [np.full(32, i, np.uint8) for i in range(16)])
        entries = [DpuEntry(dpu_index=i, size=32) for i in (3, 9, 14)]
        bufs = dpus.push(entries, XferKind.FROM_DPU, MRAM_HEAP_SYMBOL, 0)
        assert [int(b[0]) for b in bufs] == [3, 9, 14]


def test_wram_symbol_read_path_in_vm():
    """copy_from of a WRAM symbol bypasses the prefetch cache but must
    return the exact bytes through the virtualized path."""
    from repro.sdk.kernel import DpuProgram

    class Writer(DpuProgram):
        name = "writer"
        symbols = {"value": 8}
        nr_tasklets = 2

        def kernel(self, ctx):
            if ctx.me() == 0:
                ctx.set_host_u64("value", 0xDEADBEEFCAFE)
                ctx.charge(2)
            yield ctx.barrier()

    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=4))
    session = vpim.vm_session(nr_vupmem=1)
    with DpuSet(session.transport, 4) as dpus:
        dpus.load(Writer())
        dpus.launch()
        raw = dpus.copy_from(2, "value", 0, 8)
        assert int(raw.view(np.uint64)[0]) == 0xDEADBEEFCAFE
        assert session.transport.profiler.messages.cache_refills == 0


def test_vhost_and_oversubscription_compose():
    """Extensions stack: a spilled tenant on an emulated rank with the
    vhost path still computes correctly."""
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8),
                oversubscription=True)
    hold = DpuSet(vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30).transport, 8)
    tenant = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30,
                             opts=OptimizationConfig(vhost_vsock=True))
    rep = tenant.run(Reduction(nr_dpus=8, n_elements=1 << 14))
    assert rep.verified
    assert vpim.manager.stats.emulated_allocations == 1
    hold.free()


@pytest.fixture(scope="module")
def bench_wallclock():
    """``(bench_wallclock.py's globals, the committed quick digest)``."""
    import json
    import runpy
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    bench = runpy.run_path(str(root / "benchmarks" / "bench_wallclock.py"))
    committed = json.loads((root / "BENCH_WALLCLOCK.quick.json").read_text())
    return bench, committed["modeled_digest"]


@pytest.fixture(scope="module")
def planned_quick_suite(bench_wallclock):
    """The quick PrIM suite, two repetitions per session: the first
    compiles every plan (and is what the digest covers), the second
    replays them."""
    bench, _digest = bench_wallclock
    return bench["run_suite"](quick=True, repeats=2)


def test_quick_suite_modeled_digest_is_the_committed_one(
        bench_wallclock, planned_quick_suite):
    """The sha256 over every modeled output of the quick PrIM suite is the
    one ``BENCH_WALLCLOCK.quick.json`` commits: a slipped summation order
    anywhere on the data path fails here, locally, instead of only in the
    CI perf-smoke job (~2 s on the reference box)."""
    bench, digest = bench_wallclock
    assert bench["modeled_digest"](planned_quick_suite) == digest


def test_quick_suite_on_the_wire_reference_matches_the_planned_one(
        bench_wallclock, planned_quick_suite, wire_reference):
    """``planned == wire reference`` for the whole quick suite: with
    every compile refused the wire path serves each request, and the
    digest (repetition 1: compiles on the planned side) and every
    repetition's ``float.hex()`` total (repetition 2: replays) are the
    planned run's.  This is what ``bench_wallclock.py --ablate-plans``
    compared when the planned path was an option."""
    bench, digest = bench_wallclock
    wire = bench["run_suite"](quick=True, repeats=2)
    assert bench["modeled_digest"](wire) == digest
    for app, row in planned_quick_suite.items():
        assert wire[app]["rep_totals"] == row["rep_totals"], app
        assert row["plan_cache"]["hits"] > 0, f"{app} replayed no plan"
        assert wire[app]["plan_cache"]["hits"] == 0, "the wire reference"
