#!/usr/bin/env python3
"""Optimization ablation: what each vPIM optimization buys on NW.

Needleman-Wunsch is the paper's worst case — thousands of tiny boundary
transfers per run.  This example runs it under every Table 2 preset and
prints the execution time, message counts, and per-segment effects, so
you can see the prefetch cache eating the boundary *reads* and request
batching eating the boundary *writes* (Fig. 14).

Run:  python examples/optimization_ablation.py
"""

from repro.analysis.figures import machine_for_dpus
from repro.analysis.report import format_table
from repro.apps.prim.nw import NeedlemanWunsch
from repro.core import VPim
from repro.virt.opts import PRESETS

NR_DPUS = 16
NW_ARGS = dict(seq_len=512, block_size=64)


def run(preset_name=None):
    vpim = VPim(machine_for_dpus(NR_DPUS))
    if preset_name is None:
        session = vpim.native_session()
    else:
        session = vpim.vm_session(nr_vupmem=1, preset_name=preset_name)
    return session.run(NeedlemanWunsch(nr_dpus=NR_DPUS, **NW_ARGS))


def main() -> None:
    native = run()
    rows = [("native", "-", "-", "-", "-",
             f"{native.segments_total * 1e3:.1f}", "1.00x", 0)]
    for name in ("vPIM-rust", "vPIM-C", "vPIM+P", "vPIM+B", "vPIM+PB", "vPIM"):
        opts = PRESETS[name]
        rep = run(name)
        rows.append((
            name,
            "Y" if opts.c_enhancement else "-",
            "Y" if opts.prefetch_cache else "-",
            "Y" if opts.request_batching else "-",
            "Y" if opts.parallel_handling else "-",
            f"{rep.segments_total * 1e3:.1f}",
            f"{rep.overhead_vs(native):.2f}x",
            rep.messages.requests,
        ))
    print(format_table(
        ["config", "C", "P", "B", "par", "total ms", "overhead", "messages"],
        rows,
        title=f"NW ({NW_ARGS['seq_len']}x{NW_ARGS['seq_len']}, "
              f"{NR_DPUS} DPUs) under every Table 2 configuration"))
    print("\nTakeaways (matching the paper's):")
    print(" 1. disable the prefetch cache when reads are not small+repeated;")
    print(" 2. minimize transfer operations — aggregate data where you can;")
    print(" 3. batching + prefetching recover most of the naive overhead.")


if __name__ == "__main__":
    main()
