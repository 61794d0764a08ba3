"""Design-choice ablations beyond the paper's figures.

These back the paper's takeaways and design constants with sweeps:

- **Takeaway 1**: "vPIM developers should disable the Prefetch Cache
  when their code lacks frequent small-size data transfer patterns" —
  shown on RED, whose single small read only *loses* from prefetching.
- **Prefetch capacity** (16 pages/DPU in the paper) and **batch
  capacity** (64 pages/DPU) sweeps on NW.
- **Translation threads**: "using more than 8 threads does not provide
  additional benefits" (Section 4.2).
- The Section 7 extensions: **oversubscription** slowdown +
  consolidation, and the **vhost** transition-cost reduction.
"""

import numpy as np

from repro.analysis.figures import machine_for_dpus
from repro.analysis.report import format_table
from repro.apps.prim.nw import NeedlemanWunsch
from repro.apps.prim.red import Reduction
from repro.apps.prim.va import VectorAdd
from repro.config import MRAM_HEAP_SYMBOL, small_machine
from repro.core import VPim
from repro.driver.driver import UpmemDriver
from repro.hardware.machine import Machine
from repro.hardware.timing import DEFAULT_COST_MODEL
from repro.sdk.dpu_set import DpuSet
from repro.sdk.transfer import uniform_write
from repro.virt.backend import VUpmemBackend
from repro.virt.guest_memory import GuestMemory
from repro.virt.opts import OptimizationConfig
from repro.virt.serialization import RequestHeader, RequestKind, serialize_matrix


def run_red(prefetch: bool):
    vpim = VPim(machine_for_dpus(16))
    opts = OptimizationConfig(prefetch_cache=prefetch)
    session = vpim.vm_session(nr_vupmem=1, opts=opts)
    return session.run(Reduction(nr_dpus=16, n_elements=1 << 18))


def bench_takeaway1_disable_prefetch_for_red(once):
    def experiment():
        return run_red(prefetch=True), run_red(prefetch=False)

    with_p, without_p = once(experiment)
    rows = [
        ("prefetch ON", f"{with_p.segments['Inter-DPU'] * 1e3:.3f}",
         f"{with_p.segments_total * 1e3:.2f}"),
        ("prefetch OFF", f"{without_p.segments['Inter-DPU'] * 1e3:.3f}",
         f"{without_p.segments_total * 1e3:.2f}"),
    ]
    print()
    print(format_table(["config", "Inter-DPU ms", "total ms"], rows,
                       title="Takeaway 1 - RED with/without the prefetch cache"))
    # RED's one small read only triggers a useless segment fetch.
    assert (without_p.segments["Inter-DPU"]
            < with_p.segments["Inter-DPU"] * 0.5)
    assert without_p.segments_total < with_p.segments_total
    assert with_p.verified and without_p.verified


def _run_nw(**opt_kwargs):
    vpim = VPim(machine_for_dpus(16))
    opts = OptimizationConfig(**opt_kwargs)
    session = vpim.vm_session(nr_vupmem=1, opts=opts)
    return session.run(NeedlemanWunsch(nr_dpus=16, seq_len=512,
                                       block_size=64))


def bench_prefetch_capacity_sweep(once):
    def experiment():
        return [(pages, _run_nw(prefetch_pages_per_dpu=pages,
                                request_batching=False))
                for pages in (4, 16, 64)]

    results = once(experiment)
    rows = [(pages, f"{rep.segments_total * 1e3:.1f}",
             rep.messages.cache_hits,
             rep.messages.cache_refills)
            for pages, rep in results]
    print()
    print(format_table(["pages/DPU", "NW total ms", "hits", "refills"], rows,
                       title="Prefetch cache capacity sweep (paper: 16)"))
    assert all(rep.verified for _, rep in results)
    # A larger cache never increases the refill count.
    refills = [rep.messages.cache_refills for _, rep in results]
    assert refills == sorted(refills, reverse=True)


def bench_batch_capacity_sweep(once):
    """TRNS stages ~64 KB of tiles per DPU before launching, so the
    batch capacity directly controls how many flushes that takes."""
    from repro.apps.prim.trns import Transpose

    def run_trns(pages):
        vpim = VPim(machine_for_dpus(16))
        opts = OptimizationConfig(batch_pages_per_dpu=pages,
                                  prefetch_cache=False)
        session = vpim.vm_session(nr_vupmem=1, opts=opts)
        return session.run(Transpose(nr_dpus=16, n_rows=512, n_cols=512,
                                     tile_dim=16))

    def experiment():
        return [(pages, run_trns(pages)) for pages in (1, 4, 64)]

    results = once(experiment)
    rows = [(pages, f"{rep.segments_total * 1e3:.1f}",
             rep.messages.requests,
             rep.messages.batched_writes)
            for pages, rep in results]
    print()
    print(format_table(["pages/DPU", "TRNS total ms", "messages", "batched"],
                       rows,
                       title="Batch buffer capacity sweep (paper: 64)"))
    assert all(rep.verified for _, rep in results)
    msgs = [rep.messages.requests for _, rep in results]
    assert msgs[0] > msgs[1] >= msgs[2], "bigger buffers must merge more"


def bench_translation_thread_saturation(once):
    """Section 4.2: translation threads saturate at 8."""
    def experiment():
        machine = Machine(small_machine(nr_ranks=1, dpus_per_rank=8))
        driver = UpmemDriver(machine)
        memory = GuestMemory(256 << 20)
        data = np.zeros(1 << 22, dtype=np.uint8)
        matrix = uniform_write(MRAM_HEAP_SYMBOL, 0, [data] * 2)
        header = RequestHeader(kind=RequestKind.WRITE_RANK,
                               symbol=MRAM_HEAP_SYMBOL)
        out = []
        for threads in (1, 2, 4, 8, 16):
            backend = VUpmemBackend(f"t{threads}", driver, memory,
                                    DEFAULT_COST_MODEL,
                                    translation_threads=threads)
            backend.link_rank(0)
            chain = serialize_matrix(header, matrix, memory).chain
            out.append((threads, backend.process(chain).steps["Deser"]))
            backend.unlink()
        return out

    results = once(experiment)
    rows = [(t, f"{d * 1e6:.1f}") for t, d in results]
    print()
    print(format_table(["threads", "Deser us"], rows,
                       title="GPA->HVA translation thread sweep"))
    by_threads = dict(results)
    assert by_threads[1] > by_threads[8]          # threading helps...
    assert by_threads[16] == by_threads[8]        # ...but saturates at 8


def bench_section7_extensions(once):
    """Oversubscription + consolidation + vhost, end to end."""
    def experiment():
        # Oversubscription: tenant B spills to an emulated rank.
        vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8),
                    oversubscription=True)
        holder = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
        tenant = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
        hold = DpuSet(holder.transport, 8)
        spilled = tenant.run(VectorAdd(nr_dpus=8, n_elements=1 << 18))

        vpim2 = VPim(small_machine(nr_ranks=1, dpus_per_rank=8))
        physical = vpim2.vm_session(nr_vupmem=1).run(
            VectorAdd(nr_dpus=8, n_elements=1 << 18))
        hold.free()

        # vhost: same NW run with and without the in-kernel path.
        base = _run_nw()
        vhost = _run_nw(vhost_vsock=True)
        return spilled, physical, base, vhost

    spilled, physical, base, vhost = once(experiment)
    rows = [
        ("VA on emulated rank", f"{spilled.segments_total * 1e3:.2f}",
         "OK" if spilled.verified else "BAD"),
        ("VA on physical rank", f"{physical.segments_total * 1e3:.2f}",
         "OK" if physical.verified else "BAD"),
        ("NW virtio path", f"{base.segments_total * 1e3:.2f}",
         "OK" if base.verified else "BAD"),
        ("NW vhost path", f"{vhost.segments_total * 1e3:.2f}",
         "OK" if vhost.verified else "BAD"),
    ]
    print()
    print(format_table(["configuration", "total ms", "verify"], rows,
                       title="Section 7 extensions"))
    print(f"\noversubscription slowdown: "
          f"{spilled.segments_total / physical.segments_total:.1f}x "
          f"(runs, degraded, instead of failing)")
    print(f"vhost transition saving on NW: "
          f"{(1 - vhost.segments_total / base.segments_total):.1%}")
    assert spilled.verified and vhost.verified
    assert spilled.segments_total > physical.segments_total
    assert vhost.segments_total < base.segments_total
