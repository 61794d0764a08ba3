"""Requirement R2 — multiplexing raises UPMEM utilization.

The paper's motivation: "users looking to leverage PIM devices must
reserve an entire server with a fixed number of devices [...] leading to
underutilization."  This bench quantifies that story on the 8-rank
testbed: eight tenants each need one rank's worth of work.

- **Exclusive reservation** (status quo): tenants take turns owning the
  whole server; seven ranks idle while one works.
- **vPIM multiplexing**: each tenant gets one vUPMEM device; jobs run
  side by side.  Per-tenant virtualization overhead applies, and shared
  host-bus contention is modeled by
  :meth:`~repro.hardware.timing.CostModel.contended_makespan`: only each
  job's bus-occupying transfer time contends (at the cost model's native
  contention factor), its on-DPU compute overlaps freely.
"""

from repro.analysis.figures import machine_config
from repro.analysis.report import format_table
from repro.apps.prim.va import VectorAdd
from repro.core import VPim
from repro.hardware.timing import DEFAULT_COST_MODEL

NR_TENANTS = 8
JOB = dict(n_elements=1 << 22)


def bench_multiplexing_utilization(once):
    def experiment():
        # One tenant's job natively owning a rank (the exclusive case
        # runs these back to back).
        native_times = []
        for seed in range(NR_TENANTS):
            vpim = VPim(machine_config(1, dpus_per_rank=60))
            rep = vpim.native_session().run(
                VectorAdd(nr_dpus=60, seed=seed, **JOB))
            assert rep.verified
            native_times.append(rep.segments_total)

        # The same jobs through vPIM, one rank each.  Keep each job's
        # bus-occupying portion (CPU<->DPU transfer segments) separate
        # from its total: only the former contends on the shared bus.
        vpim_jobs = []
        for seed in range(NR_TENANTS):
            vpim = VPim(machine_config(1, dpus_per_rank=60))
            rep = vpim.vm_session(nr_vupmem=1).run(
                VectorAdd(nr_dpus=60, seed=seed, **JOB))
            assert rep.verified
            seg = rep.segments
            bus_s = seg["CPU-DPU"] + seg["DPU-CPU"]
            vpim_jobs.append((bus_s, rep.segments_total))
        return native_times, vpim_jobs

    native_times, vpim_jobs = once(experiment)

    exclusive_makespan = sum(native_times)
    vpim_times = [total for _, total in vpim_jobs]
    peak = max(vpim_times)
    contended = DEFAULT_COST_MODEL.contended_makespan(vpim_jobs)

    rows = [
        ("exclusive server reservation", f"{exclusive_makespan * 1e3:.1f}",
         f"{100 / NR_TENANTS:.0f}%"),
        ("vPIM multiplexing (modeled contention)",
         f"{contended * 1e3:.1f}", "100%"),
    ]
    print()
    print(format_table(["scheme", "makespan ms", "rank utilization"], rows,
                       title=f"R2 - {NR_TENANTS} tenants, one rank each"))
    speedup = exclusive_makespan / contended
    print(f"\nmultiplexing speedup over exclusive reservation: "
          f"{speedup:.1f}x "
          f"(despite per-tenant virtualization overhead of "
          f"{max(vpim_times) / max(native_times):.2f}x)")

    # The modeled makespan sits between perfect overlap and full
    # contention, and multiplexing must still win by a wide margin.
    assert peak <= contended < sum(vpim_times)
    assert contended < exclusive_makespan / 2
