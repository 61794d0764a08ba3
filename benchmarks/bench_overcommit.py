#!/usr/bin/env python
"""Rank-overcommit benchmark: hard denial vs emulation vs demand paging.

Four tenants share a host with two physical ranks (``docs/paging.md``),
each holding its rank allocation while rounds of a verified Vector
Addition interleave across them — the access pattern that forces the
pager to swap rank state at operation boundaries.  The same schedule
runs under four arms (see ``repro.analysis.overcommit``):

- **reference**: four physical ranks — the bit-identity ground truth;
- **denial**: two ranks, no oversubscription — overflow tenants refused;
- **emulation**: the Section 7 software fallback at ~20x derating;
- **paging**: virtual ranks demand-paged over the two frames.

Scored quantities per arm: admitted tenants, completed rounds, round
latency (p50/p99), schedule goodput, swap traffic, and whether every
tenant's outputs are bit-identical to the reference.

The committed artifact is ``BENCH_OVERCOMMIT.json`` at the repository
root (full mode).  ``--check`` fails when paging does not beat the
emulation fallback on goodput (``--min-paging-vs-emulation``, default
1.05) or any arm's outputs diverge from the reference.

Usage::

    python benchmarks/bench_overcommit.py --quick             # print only
    python benchmarks/bench_overcommit.py --update            # rewrite JSON
    python benchmarks/bench_overcommit.py --quick --check     # CI gate
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import List

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")]

from artifact_cli import artifact_main  # noqa: E402
from repro.analysis.overcommit import (  # noqa: E402
    ARMS,
    overcommit_table,
    run_overcommit,
)

DEFAULT_ARTIFACT = REPO_ROOT / "BENCH_OVERCOMMIT.json"
SCHEMA = "repro.bench_overcommit/1"

QUICK = dict(rounds=6, n_elements=1 << 16)
FULL = dict(rounds=12, n_elements=1 << 16)


def measure(quick: bool) -> dict:
    params = QUICK if quick else FULL
    result = run_overcommit(**params)
    arms = {}
    for name in ARMS:
        arm = result.arms[name]
        arms[name] = {
            "admitted": arm.admitted,
            "tenants": arm.tenants,
            "rounds_completed": arm.rounds_completed,
            "p50_s": arm.p50_s,
            "p99_s": arm.p99_s,
            "mean_s": arm.mean_s,
            "setup_s": arm.setup_s,
            "makespan_s": arm.makespan_s,
            "throughput_per_s": arm.throughput_per_s,
            "steady_throughput_per_s": arm.steady_throughput_per_s,
            "swap_in_bytes": arm.swap_in_bytes,
            "swap_out_bytes": arm.swap_out_bytes,
            "demand_faults": arm.demand_faults,
            "predictive_faults": arm.predictive_faults,
            "evictions": arm.evictions,
            "bit_identical": result.identical_to_reference(name),
            "digests": {name_: f"{digest:016x}"
                        for name_, digest in sorted(arm.digests.items())},
        }
    return {
        "schema": SCHEMA,
        "mode": "quick" if quick else "full",
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "tenants": result.tenants,
        "physical_ranks": result.physical_ranks,
        "overcommit_ratio": result.overcommit_ratio,
        "rounds_per_tenant": params["rounds"],
        "n_elements": params["n_elements"],
        "arms": arms,
        "paging_vs_emulation": result.paging_vs_emulation,
        "paging_vs_denial": result.paging_vs_denial,
        "_result": result,
    }


def print_report(report: dict) -> None:
    print(f"rank overcommit (mode={report['mode']}, "
          f"{report['rounds_per_tenant']} rounds per tenant)")
    print(overcommit_table(report["_result"]))


def check(report: dict, min_paging_vs_emulation: float) -> int:
    failures = []
    for name in ARMS:
        if not report["arms"][name]["bit_identical"]:
            failures.append(
                f"arm {name!r} outputs diverge from the reference host")
    ratio = report["paging_vs_emulation"]
    if ratio < min_paging_vs_emulation:
        failures.append(
            f"paging goodput only {ratio:.2f}x of emulation, below the "
            f"{min_paging_vs_emulation:.2f}x floor")
    paging = report["arms"]["paging"]
    if paging["admitted"] != paging["tenants"]:
        failures.append(
            f"paging admitted {paging['admitted']}/{paging['tenants']} "
            "tenants; overcommit must admit everyone")
    if paging["evictions"] == 0:
        failures.append(
            "paging arm recorded zero evictions — the schedule no longer "
            "exercises swapping")
    if failures:
        print("\nOVERCOMMIT CHECK FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\novercommit ok: all arms bit-identical, paging "
          f">= {min_paging_vs_emulation:.2f}x emulation goodput "
          f"({ratio:.2f}x measured)")
    return 0


def main(argv: List[str] | None = None) -> int:
    return artifact_main(
        argv, doc=__doc__, artifact=DEFAULT_ARTIFACT,
        measure=lambda args: measure(quick=args.quick),
        check=lambda report, args: check(
            report, args.min_paging_vs_emulation),
        print_report=print_report,
        quick_help="CI-sized schedule (fewer, smaller rounds)",
        check_help="fail below the overcommit floors",
        arguments=[
            ("--min-paging-vs-emulation", dict(
                type=float, default=1.05,
                help="required paging/emulation goodput ratio "
                     "(default 1.05)")),
        ])


if __name__ == "__main__":
    raise SystemExit(main())
