#!/usr/bin/env python
"""Transfer-cache ablation: NW/BFS/MLP with the content-aware cache off/on.

The cache (``Optimization(cache=True)``, ``docs/transfer_cache.md``)
suppresses unchanged write extents and deduplicates broadcast-identical
payloads.  This harness measures what that buys on the iterative PrIM
apps whose write streams are the most redundant, and what it costs:

- **modeled T-data** per app, off vs on (the Fig. 13 step the cache
  attacks), with the cache's own digest cost charged against the win;
- **wall-clock** per app (the simulator pays real digest work too);
- a canonical sha256 over each app's *output*, asserting the
  bit-exactness contract: cache-on results must equal cache-off exactly.

The committed artifact is ``BENCH_TRANSFER_CACHE.json`` at the
repository root (full mode).  ``--check`` fails when any output pair
diverges or when the T-data reduction on NW or MLP falls below
``--min-reduction``.

Usage::

    python benchmarks/bench_transfer_cache.py --quick             # print only
    python benchmarks/bench_transfer_cache.py --update            # rewrite JSON
    python benchmarks/bench_transfer_cache.py --quick --check     # CI gate
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
from repro.analysis.transfer_cache import run_cache_ablation  # noqa: E402

DEFAULT_ARTIFACT = REPO_ROOT / "BENCH_TRANSFER_CACHE.json"
SCHEMA = "repro.bench_transfer_cache/1"

#: Apps the acceptance gate holds to the reduction floor.  BFS is
#: reported but not gated: its frontier writes genuinely change every
#: iteration, so its reduction is structural information, not a target.
GATED_APPS = ("NW", "MLP")


def measure(quick: bool) -> dict:
    ablation = run_cache_ablation(quick=quick)
    return {
        "schema": SCHEMA,
        "mode": "quick" if quick else "full",
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "apps": ablation,
    }


def print_report(report: dict) -> None:
    print(f"transfer-cache ablation (mode={report['mode']})")
    print(f"{'app':6s} {'T-data off':>12s} {'T-data on':>12s} "
          f"{'cache cost':>12s} {'reduction':>10s}  outputs")
    for name, row in report["apps"].items():
        off, on = row["off"], row["on"]
        same = "identical" if row["outputs_identical"] else "DIVERGED"
        print(f"{name:6s} {off['tdata_s'] * 1e3:10.3f} ms "
              f"{on['tdata_s'] * 1e3:10.3f} ms "
              f"{on['cache_s'] * 1e3:10.3f} ms "
              f"{row['tdata_reduction']:9.2f}x  {same}")
        print(f"{'':6s} wall {off['wall_s'] * 1e3:8.1f} ms off / "
              f"{on['wall_s'] * 1e3:8.1f} ms on; modeled total "
              f"{off['modeled_total_s'] * 1e3:.2f} -> "
              f"{on['modeled_total_s'] * 1e3:.2f} ms")


def check(report: dict, min_reduction: float) -> int:
    failures = []
    for name, row in report["apps"].items():
        if not row["outputs_identical"]:
            failures.append(f"{name}: cache-on output diverged from cache-off")
        if not (row["off"]["verified"] and row["on"]["verified"]):
            failures.append(f"{name}: result failed CPU-reference verify")
    for name in GATED_APPS:
        row = report["apps"].get(name)
        if row and row["tdata_reduction"] < min_reduction:
            failures.append(
                f"{name}: T-data reduction {row['tdata_reduction']:.2f}x "
                f"below the {min_reduction:.2f}x floor")
    if failures:
        print("\nCACHE ABLATION CHECK FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\ncache ablation ok: outputs byte-identical, gated reductions "
          f">= {min_reduction:.2f}x")
    return 0


def main(argv: List[str] | None = None) -> int:
    return artifact_main(
        argv, doc=__doc__, artifact=DEFAULT_ARTIFACT,
        measure=lambda args: measure(quick=args.quick),
        check=lambda report, args: check(report, args.min_reduction),
        print_report=print_report,
        quick_help="CI-sized workloads (test profile)",
        check_help="fail on divergence or insufficient reduction",
        arguments=[
            ("--min-reduction", dict(
                type=float, default=1.3,
                help="required T-data reduction on "
                     f"{'/'.join(GATED_APPS)} (default 1.3)")),
        ])


if __name__ == "__main__":
    raise SystemExit(main())
