#!/usr/bin/env python
"""Telemetry-pipeline benchmark: the monitored quick suite, pinned.

Runs the ``repro monitor`` quick composite (PrIM + noisy-neighbor +
paging + fault drill) under the full telemetry pipeline — time-series
store, tail-based trace retention with exemplars, alert engine — twice
at a fixed seed, and asserts the four properties the subsystem exists
to provide:

- **determinism**: both runs produce the same sha256 digest over the
  canonical result JSON (everything is simulated time, so they must);
- **exemplar coverage**: every instrumented latency histogram (frontend
  request, backend dispatch, QoS arbitration wait, paging swap) carries
  at least one exemplar after the suite;
- **tail retention**: the slowest-decile trace of the seeded
  noisy-neighbor run is retained by tail sampling and provably dropped
  by head sampling at the same retention budget;
- **alert lifecycle**: the injected fault drill drives the
  ``fault_burst`` rule through pending -> firing -> resolved;

plus the loss-free floor: zero dropped store points across the suite.

The committed artifact is ``BENCH_MONITOR.json`` at the repository
root.  ``--check`` additionally compares the measured digest against
the committed one, so any behavior change in the pipeline is a visible
diff.

Usage::

    python benchmarks/bench_monitor.py --quick             # print only
    python benchmarks/bench_monitor.py --update            # rewrite JSON
    python benchmarks/bench_monitor.py --quick --check     # CI gate
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")]

from artifact_cli import artifact_main  # noqa: E402
from repro.analysis.monitor import (  # noqa: E402
    EXEMPLAR_FAMILIES,
    MonitorConfig,
    run_monitor,
)

DEFAULT_ARTIFACT = REPO_ROOT / "BENCH_MONITOR.json"
SCHEMA = "repro.bench_monitor/1"
SEED = 0


def measure() -> dict:
    first = run_monitor(MonitorConfig(scenario="quick", seed=SEED))
    second = run_monitor(MonitorConfig(scenario="quick", seed=SEED))
    data = first.to_dict()
    scenarios = {}
    for telemetry in data["scenarios"]:
        scenarios[telemetry["name"]] = {
            "makespan_s": telemetry["makespan_s"],
            "scrapes": telemetry["scrapes"],
            "samples": telemetry["samples"],
            "dropped": telemetry["dropped"],
            "series": telemetry["series"],
            "retention_counts": telemetry["retention_counts"],
        }
    demo = data["tail_demo"]
    drill = data["drill"]
    return {
        "schema": SCHEMA,
        "mode": "quick",
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "seed": SEED,
        "digest": first.digest(),
        "digest_second_run": second.digest(),
        "deterministic": first.digest() == second.digest(),
        "dropped_points": data["dropped_points"],
        "exemplar_families": data["exemplar_families"],
        "tail_demo": {
            "sessions": demo["sessions"],
            "slow_index": demo["slow_index"],
            "sample_rate": demo["sample_rate"],
            "slowest_decile": demo["slowest_decile"],
            "head_retained": demo["head_retained"],
            "tail_tiers": demo["tail_tiers"],
            "slowest_kept_by_tail": demo["slowest_kept_by_tail"],
            "slowest_dropped_by_head": demo["slowest_dropped_by_head"],
        },
        "drill": drill,
        "scenarios": scenarios,
    }


def print_report(report: dict) -> None:
    print(f"telemetry pipeline (seed {report['seed']})")
    print(f"  digest           : {report['digest']}")
    print(f"  deterministic    : {report['deterministic']}")
    print(f"  dropped points   : {report['dropped_points']}")
    for name, count in sorted(report["exemplar_families"].items()):
        print(f"  exemplars        : {name} = {count}")
    demo = report["tail_demo"]
    print(f"  tail demo        : slowest decile {demo['slowest_decile']} "
          f"kept by tail: {demo['slowest_kept_by_tail']}, dropped by "
          f"head: {demo['slowest_dropped_by_head']}")
    drill = report["drill"]
    print(f"  fault drill      : pending={drill['visited_pending']} "
          f"firing={drill['visited_firing']} "
          f"resolved={drill['visited_resolved']}")
    for name, s in sorted(report["scenarios"].items()):
        print(f"  {name:<16} : {s['scrapes']} scrapes, {s['series']} "
              f"series, {s['dropped']} dropped, "
              f"retention {s['retention_counts']}")


def check(report: dict, artifact: Path) -> int:
    if not artifact.exists():
        print(f"no committed artifact at {artifact}; cannot check")
        return 1
    failures = []
    if not report["deterministic"]:
        failures.append(
            f"two runs at seed {report['seed']} produced different "
            f"digests: {report['digest']} vs {report['digest_second_run']}")
    if report["dropped_points"] != 0:
        failures.append(
            f"the store dropped {report['dropped_points']} points — "
            "quick-suite retention must be lossless")
    for family in EXEMPLAR_FAMILIES:
        if report["exemplar_families"].get(family, 0) < 1:
            failures.append(
                f"latency histogram {family} carries no exemplar after "
                "the quick suite")
    demo = report["tail_demo"]
    if not demo["slowest_kept_by_tail"]:
        failures.append(
            "tail sampling failed to retain the slowest-decile trace "
            f"({demo['slowest_decile']})")
    if not demo["slowest_dropped_by_head"]:
        failures.append(
            "head sampling retained the slowest-decile trace — the "
            "comparison no longer demonstrates anything")
    drill = report["drill"]
    for phase in ("pending", "firing", "resolved"):
        if not drill[f"visited_{phase}"]:
            failures.append(
                f"the fault drill never reached the {phase!r} state")
    committed = json.loads(artifact.read_text())
    if committed.get("digest") != report["digest"]:
        failures.append(
            f"digest drifted from the committed artifact: "
            f"{committed.get('digest')} -> {report['digest']} "
            "(intentional changes need --update)")
    if failures:
        print("\nMONITOR CHECK FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nmonitor ok: deterministic digest, lossless store, exemplars "
          "on every latency histogram, tail retention beats head, drill "
          "walked the full alert lifecycle")
    return 0


def main(argv: List[str] | None = None) -> int:
    return artifact_main(
        argv, doc=__doc__, artifact=DEFAULT_ARTIFACT,
        measure=lambda args: measure(),
        check=lambda report, args: check(report, args.artifact),
        print_report=print_report,
        quick_help="accepted for CI symmetry (the suite is already "
                   "quick-sized)",
        check_help="fail on any acceptance violation or digest drift")


if __name__ == "__main__":
    raise SystemExit(main())
