#!/usr/bin/env python
"""Noisy-neighbor QoS benchmark: victim latency with enforcement off/on.

Two VMs share one host (``docs/qos.md``): a latency-sensitive victim
running small Binary Search sessions and a noisy tenant pushing bulk
Vector Addition transfers.  The same schedule runs twice — QoS
registered but unenforced (FIFO event loop, unweighted bus steal) and
enforced (weighted-fair queueing, weight-proportional steal) — and this
harness scores the isolation:

- the victim's per-session execution latency (p50/p99/mean) per arm;
- aggregate session throughput per arm (isolation must be ~free);
- the two acceptance ratios: victim p99 improvement and on/off
  throughput.

The committed artifact is ``BENCH_QOS.json`` at the repository root
(full mode).  ``--check`` fails when the p99 improvement falls below
``--min-p99-improvement`` (default 2.0) or aggregate throughput drops
below ``--min-throughput-ratio`` (default 0.9) of the unenforced arm.

Usage::

    python benchmarks/bench_qos_isolation.py --quick             # print only
    python benchmarks/bench_qos_isolation.py --update            # rewrite JSON
    python benchmarks/bench_qos_isolation.py --quick --check     # CI gate
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
from repro.analysis.qos import isolation_table, run_isolation  # noqa: E402

DEFAULT_ARTIFACT = REPO_ROOT / "BENCH_QOS.json"
SCHEMA = "repro.bench_qos_isolation/1"

QUICK_SESSIONS = 6
FULL_SESSIONS = 16


def measure(quick: bool) -> dict:
    sessions = QUICK_SESSIONS if quick else FULL_SESSIONS
    result = run_isolation(sessions=sessions)
    arms = {}
    for name, arm in (("off", result.off), ("on", result.on)):
        arms[name] = {
            "enforce": arm.enforce,
            "victim_p50_s": arm.victim_p50,
            "victim_p99_s": arm.victim_p99,
            "victim_mean_s": arm.victim_mean,
            "victim_latencies_s": arm.victim_latencies,
            "noisy_mean_s": (sum(arm.noisy_latencies)
                             / max(1, len(arm.noisy_latencies))),
            "sessions": arm.sessions,
            "makespan_s": arm.makespan_s,
            "throughput_per_s": arm.throughput_per_s,
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
        "sessions_per_arm": sessions,
        "arms": arms,
        "p99_improvement": result.p99_improvement,
        "throughput_ratio": result.throughput_ratio,
        "_result": result,
    }


def print_report(report: dict) -> None:
    print(f"qos isolation (mode={report['mode']}, "
          f"{report['sessions_per_arm']} session pairs per arm)")
    print(isolation_table(report["_result"]))


def check(report: dict, min_p99_improvement: float,
          min_throughput_ratio: float) -> int:
    failures = []
    if report["p99_improvement"] < min_p99_improvement:
        failures.append(
            f"victim p99 improvement {report['p99_improvement']:.2f}x "
            f"below the {min_p99_improvement:.2f}x floor")
    if report["throughput_ratio"] < min_throughput_ratio:
        failures.append(
            f"aggregate throughput ratio {report['throughput_ratio']:.2f} "
            f"below the {min_throughput_ratio:.2f} floor")
    if failures:
        print("\nQOS ISOLATION CHECK FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nqos isolation ok: p99 improvement "
          f">= {min_p99_improvement:.1f}x, throughput ratio "
          f">= {min_throughput_ratio:.2f}")
    return 0


def main(argv: List[str] | None = None) -> int:
    return artifact_main(
        argv, doc=__doc__, artifact=DEFAULT_ARTIFACT,
        measure=lambda args: measure(quick=args.quick),
        check=lambda report, args: check(
            report, args.min_p99_improvement, args.min_throughput_ratio),
        print_report=print_report,
        quick_help="CI-sized schedule (fewer session pairs)",
        check_help="fail below the isolation floors",
        arguments=[
            ("--min-p99-improvement", dict(
                type=float, default=2.0,
                help="required victim p99 shrink factor (default 2.0)")),
            ("--min-throughput-ratio", dict(
                type=float, default=0.9,
                help="required on/off aggregate throughput ratio "
                     "(default 0.9)")),
        ])


if __name__ == "__main__":
    raise SystemExit(main())
