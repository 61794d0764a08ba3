#!/usr/bin/env python3
"""The repository benchmark: workloads, two clocks, per-layer audit.

    python3 benchmarks/perf/run.py                       # the declared workloads
    python3 benchmarks/perf/run.py --all                 # and the two ungated ones
    python3 benchmarks/perf/run.py --workload xfer_small --seed 3 \\
            --seconds 30 --trace 0                       # one run (driver form)
    python3 benchmarks/perf/run.py --selfcheck           # two sets of ten must agree
    python3 benchmarks/perf/run.py --smoke --all         # plumbing only

One run = one workload in this process.  ``--trace 0`` measures host time
with tracing off and prints the end-to-end metrics; ``--trace 1`` adds
the audit (wrappers from ``layers.py``, the other transport, R3) and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  Without
``--workload`` every workload ``BENCHMARK.json`` declares runs both ways,
each in a fresh process; ``--all`` adds the ones it does not declare.
See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
DETAIL_PREFIX = "detail "
#: Workloads ``BENCHMARK.json`` does not declare, so the driver does not
#: gate them: a unit of theirs is 0.1-4 s long, nothing to take a
#: minimum over in a run the driver's time limit allows (see README).
UNGATED = ("prim_warm", "prim_cold")


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def require_program() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
                 "is missing")


def import_program() -> float:
    """Put the checkout's ``src`` on the path and import the workloads
    (numpy and ``repro`` with them); returns the seconds that took."""
    require_program()
    # One thread: numpy's BLAS pool would put the CPU references of GEMV
    # and MLP on the second core of the 2-core reference box.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: F401
    return time.perf_counter() - start


# -- one run (the driver's form) ------------------------------------------------

def run_one(args: argparse.Namespace, spec: dict) -> int:
    import_s = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SIZES[args.sizes])
    trace = bool(args.trace)
    outcome = workload.run(args.seconds, trace, import_s)

    if trace:
        values = outcome.layer
        declared = spec["per_layer"]
    else:
        values = {"setup_s": outcome.setup_s, "wall_s": outcome.wall_s,
                  "cpu_s": outcome.cpu_s, "peak_rss_mb": outcome.peak_rss_mb}
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        sys.exit(f"run.py: metrics differ from BENCHMARK.json: "
                 f"missing {missing}, undeclared {extra}")

    print(f"{args.workload}  seed={args.seed}  trace={int(trace)}  "
          f"sizes={args.sizes}  (model unvalidated against hardware)")
    for key, (q1, med, q3, n) in outcome.timings.items():
        print(f"  {key:<16} median {med:.6f} s   quartiles "
              f"{q1:.6f} .. {q3:.6f}   n={n}")
    print(f"  modeled_time_s {outcome.modeled_time_s!r} s (SimClock)   "
          f"modeled_digest {outcome.modeled_digest}")
    print(f"  error_rate {outcome.failed}/{outcome.attempted}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    correct = outcome.failed == 0
    print(DETAIL_PREFIX + json.dumps({
        "modeled_time_s": outcome.modeled_time_s,
        "modeled_time_hex": float(outcome.modeled_time_s).hex(),
        "modeled_digest": outcome.modeled_digest,
        "timings": outcome.timings}))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_cold_child(args: argparse.Namespace) -> int:
    import_s = import_program()
    import workloads

    result = workloads.cold_child(
        args.seed, workloads.SIZES[args.sizes], args.cold_child,
        bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


# -- every workload, each run in a fresh process -----------------------------------

def spawn_run(workload: str, args: argparse.Namespace, seconds: float,
              seed: int, trace: int) -> dict:
    """One run in a fresh process, so allocator and ``EXTENT_POOL`` state
    of one workload cannot leak into the next."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--sizes", args.sizes]
    # On a timeout ``run`` kills the child and waits for it to end.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write(proc.stdout)
    if not lines or not lines[-1].startswith("{"):
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}, "exit": proc.returncode, "seed": seed}
    result = json.loads(lines[-1])
    result.update(exit=proc.returncode, seed=seed)
    for line in lines:
        if line.startswith(DETAIL_PREFIX):
            result.update(json.loads(line[len(DETAIL_PREFIX):]))
    return result


def provenance(args: argparse.Namespace, seconds: float) -> dict:
    import numpy

    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {"seed": args.seed, "runs": args.runs, "sizes": args.sizes,
            "seconds": seconds,
            "commit": git.stdout.strip() if git.returncode == 0 else "unknown",
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "model": "unvalidated against hardware"}


def run_set(args: argparse.Namespace, spec: dict, seconds: float) -> dict:
    """Per workload: ``--runs`` timed runs on seeds ``seed, seed+1, ...``
    and one audit run on ``seed``."""
    results: Dict[str, dict] = {}
    names = [entry["name"] for entry in spec["workloads"]]
    for name in names + list(UNGATED if args.all else ()):
        results[name] = {
            "timed": [spawn_run(name, args, seconds, args.seed + k, 0)
                      for k in range(args.runs)],
            "audit": spawn_run(name, args, seconds, args.seed, 1)}
    report = {"provenance": provenance(args, seconds), "workloads": results}
    # The box, as the first audit run saw it (recorded, not normalised by).
    first = next(iter(results.values()))["audit"]["metrics"]
    for key in ("host.nproc", "host.memcpy_gbps"):
        if key in first:
            report["provenance"][key] = first[key]["value"]
    return report


def failures(report: dict, spec: dict) -> List[str]:
    """Everything that makes a set of runs a failed one."""
    found = []
    for name, runs in report["workloads"].items():
        for kind, run, declared in (
                [("timed", run, spec["end_to_end"]) for run in runs["timed"]]
                + [("audit", runs["audit"], spec["per_layer"])]):
            if run["exit"] != 0 or not run["correct"]:
                found.append(f"{name}/{kind} seed {run['seed']}: exit "
                             f"{run['exit']}, {run['failed']}/"
                             f"{run['attempted']} failed")
            lacking = [m["name"] for m in declared
                       if m["name"] not in run["metrics"]]
            if lacking:
                found.append(f"{name}/{kind}: missing metrics {lacking}")
    return found


def values_of(runs: List[dict], key: str) -> List[float]:
    return [run["metrics"][key]["value"] for run in runs
            if key in run["metrics"]]


def spread_of(values: List[float]) -> float:
    """Interquartile range over median, as the driver takes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def print_summary(report: dict, spec: dict) -> None:
    print("\n== end to end (host time, tracing off): median over runs, "
          "spread = IQR / median ==")
    for name, runs in report["workloads"].items():
        cells = []
        for metric in spec["end_to_end"]:
            values = values_of(runs["timed"], metric["name"])
            if values:
                cells.append(f"{metric['name']}={statistics.median(values):.4g}"
                             f"{metric['unit']} ({spread_of(values):.3f})")
        failed = sum(run["failed"] for run in runs["timed"])
        attempted = sum(run["attempted"] for run in runs["timed"])
        print(f"{name:<14} {'  '.join(cells)}  n={len(runs['timed'])}  "
              f"error_rate={failed}/{attempted}")
    print("\n== audit (modeled clock, dominant layers, tracing cost) ==")
    for name, runs in report["workloads"].items():
        metrics = runs["audit"]["metrics"]
        if not metrics:
            continue
        shares = sorted(((m["value"], key[:-len(".self_s")])
                         for key, m in metrics.items()
                         if key.endswith(".self_s")), reverse=True)
        total = sum(value for value, _ in shares) or 1.0
        top = ", ".join(f"{layer} {value / total:.0%}"
                        for value, layer in shares[:4])
        print(f"{name:<14} modeled.time_s={metrics['modeled.time_s']['value']!r} "
              f"modeled.overhead_x={metrics['modeled.overhead_x']['value']:.4f} "
              f"trace.overhead_x={metrics['trace.overhead_x']['value']:.2f}\n"
              f"{'':<14} digest={runs['audit'].get('modeled_digest', '?')[:16]} "
              f"layers: {top}")


def selfcheck(first: dict, second: dict, spec: dict) -> List[str]:
    """The driver's acceptance rule on two sets of runs of one commit:
    every spread except ``setup_s`` within its bound, no second median
    worse than the first by more than the bound, and (ours) modeled
    time, overhead and digest identical seed by seed."""
    found = []
    for name in first["workloads"]:
        a, b = first["workloads"][name], second["workloads"][name]
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            xs, ys = values_of(a["timed"], key), values_of(b["timed"], key)
            if not xs or not ys:
                continue        # reported by failures()
            for label, values in (("first", xs), ("second", ys)):
                if key != "setup_s" and spread_of(values) > bound:
                    found.append(f"{name}: {key} spread of the {label} set "
                                 f"{spread_of(values):.3f} > {bound}")
            x, y = statistics.median(xs), statistics.median(ys)
            worse = (y - x) / x if metric["better"] == "lower" else (x - y) / x
            if worse > bound:
                found.append(f"{name}: {key} median {x:.4g} -> {y:.4g} is "
                             f"worse by {worse:.0%} > {bound:.0%}")
        for run_a, run_b in zip(a["timed"] + [a["audit"]],
                                b["timed"] + [b["audit"]]):
            for key in ("modeled_time_hex", "modeled_digest"):
                if run_a.get(key) != run_b.get(key):
                    found.append(f"{name} seed {run_a['seed']}: {key} "
                                 f"{run_a.get(key)} vs {run_b.get(key)}")
        x, y = (values_of([r["audit"]], "modeled.overhead_x") for r in (a, b))
        if x != y:
            found.append(f"{name}: modeled.overhead_x {x} vs {y}")
    return found


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds input generation only (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="how long a run measures "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = audit run, prints the per-layer metrics")
    parser.add_argument("--sizes", choices=("bench", "smoke"),
                        default="bench")
    parser.add_argument("--out", type=Path,
                        help="where the all-workloads report goes "
                             "(default benchmarks/perf/out/results.json)")
    parser.add_argument("--runs", type=int, default=1,
                        help="timed runs per workload, one seed each, "
                             "from --seed up (default 1; --selfcheck 10)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets of --runs runs; fail unless they "
                             "agree by the driver's rule")
    parser.add_argument("--all", action="store_true",
                        help="also the workloads BENCHMARK.json does not "
                             f"declare ({', '.join(UNGATED)})")
    parser.add_argument("--smoke", action="store_true",
                        help="test-sized inputs, one short run each")
    parser.add_argument("--cold-child", choices=("vm", "native"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.cold_child:
        return run_cold_child(args)
    spec = load_spec()
    if args.smoke:
        args.sizes = "smoke"
    seconds = args.seconds if args.seconds is not None else (
        0.5 if args.smoke else float(spec["run_seconds"]))
    if args.workload:
        args.seconds = seconds
        return run_one(args, spec)

    require_program()
    if args.selfcheck and args.runs == 1:
        args.runs = 10
    out = args.out or HERE / "out" / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    report = run_set(args, spec, seconds)
    print_summary(report, spec)
    problems = failures(report, spec)
    if args.selfcheck:
        second = run_set(args, spec, seconds)
        print_summary(second, spec)
        problems += failures(second, spec) + selfcheck(report, second, spec)
        with open(out.with_name(out.stem + ".second.json"), "w") as fh:
            json.dump(second, fh, indent=1)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nwrote {out}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
