"""Command-line interface: run applications and regenerate experiments.

Usage::

    python -m repro list                          # Table 1 inventory
    python -m repro run VA --dpus 60 --mode vpim  # one application
    python -m repro compare NW --dpus 16          # native vs vPIM
    python -m repro figure fig9                   # regenerate a figure
    python -m repro metrics VA --dpus 60          # Prometheus snapshot
    python -m repro metrics --diff old.json new.json  # snapshot delta
    python -m repro trace NW --dpus 16            # span tree + critical path
    python -m repro monitor --quick --out dash.html   # telemetry pipeline
    python -m repro spec                          # the virtio-pim spec
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import figures
from repro.analysis.report import format_table
from repro.apps.registry import ALL_APPS
from repro.virt.opts import PRESETS

FIGURES = {
    "fig8": lambda args: _print_fig8(args),
    "fig9": lambda args: _print_fig9(args),
    "fig10": lambda args: _print_fig10(args),
    "fig11": lambda args: _print_fig11(args),
    "fig14": lambda args: _print_fig14(args),
    "fig15": lambda args: _print_fig15(args),
    "fig16": lambda args: _print_fig16(args),
}


def _print_fig8(args) -> None:
    runs = figures.fig8_prim_applications(
        profile=args.profile, dpu_counts=tuple(args.dpu_counts))
    rows = [(r.app, r.nr_dpus, f"{r.native.segments_total * 1e3:.1f}",
             f"{r.vpim.segments_total * 1e3:.1f}", f"{r.overhead:.2f}x")
            for r in runs]
    print(format_table(["App", "DPUs", "native ms", "vPIM ms", "overhead"],
                       rows, title="Fig. 8"))


def _print_fig9(args) -> None:
    sweeps = figures.fig9_checksum_sensitivity(scale=args.scale)
    for name in ("vcpus", "dpus", "size"):
        rows = [(p.x, f"{p.native_s:.4f}", f"{p.vpim_s:.4f}",
                 f"{p.overhead:.2f}x") for p in sweeps[name]]
        print(format_table([name, "native s", "vPIM s", "overhead"], rows,
                           title=f"Fig. 9 ({name})"))
        print()


def _print_fig10(args) -> None:
    points = figures.fig10_index_search()
    rows = [(p.x, f"{p.native_s * 1e3:.1f}", f"{p.vpim_s * 1e3:.1f}",
             f"{p.overhead:.2f}x") for p in points]
    print(format_table(["#DPUs", "native ms", "vPIM ms", "overhead"], rows,
                       title="Fig. 10"))


def _print_fig11(args) -> None:
    sweeps = figures.fig11_c_enhancement(scale=args.scale)
    for name, series in sweeps.items():
        rows = [(p.x, f"{p.native_s:.4f}",
                 f"{p.variants['vPIM-rust'] / p.native_s:.2f}x",
                 f"{p.variants['vPIM-C'] / p.native_s:.2f}x")
                for p in series]
        print(format_table([name, "native s", "rust ovh", "C ovh"], rows,
                           title=f"Fig. 11 ({name})"))
        print()


def _print_fig14(args) -> None:
    rows_data = figures.fig14_nw_ablation(profile=args.profile)
    rows = [(r.mode, f"{r.total_s * 1e3:.1f}", r.messages, r.batched,
             r.cache_hits) for r in rows_data]
    print(format_table(["mode", "total ms", "messages", "batched", "hits"],
                       rows, title="Fig. 14"))


def _print_fig15(args) -> None:
    points = figures.fig15_parallel_ranks()
    rows = [(p.nr_ranks, f"{p.app_speedup:.2f}x", f"{p.write_speedup:.2f}x")
            for p in points]
    print(format_table(["ranks", "app speedup", "write speedup"], rows,
                       title="Fig. 15"))


def _print_fig16(args) -> None:
    out = figures.fig16_request_times()
    rows = [(i, f"{seq[1]:.4f}", f"{par[1]:.4f}")
            for i, (seq, par) in enumerate(zip(out["vPIM-Seq"], out["vPIM"]))]
    print(format_table(["rank", "sequential s", "parallel s"], rows,
                       title="Fig. 16"))


def cmd_list(args) -> int:
    rows = [(info.domain, info.benchmark, info.short_name)
            for info in ALL_APPS]
    print(format_table(["Domain", "Benchmark", "Short name"], rows,
                       title="Applications (Table 1 + microbenchmarks)"))
    return 0


def cmd_run(args) -> int:
    mode = "native" if args.mode == "native" else "vm"
    report = figures.run_app(args.app, args.dpus, mode=mode,
                             profile=args.profile, preset=args.preset)
    print(report.row())
    print(f"segments: " + ", ".join(
        f"{k}={v * 1e3:.2f}ms" for k, v in report.segments.items()))
    if report.vmexits:
        print(f"guest<->VMM transitions: {report.vmexits}")
    return 0 if report.verified else 1


def cmd_compare(args) -> int:
    run = figures.compare_app(args.app, args.dpus, profile=args.profile,
                              preset=args.preset)
    print(run.native.row())
    print(run.vpim.row())
    print(f"overhead: {run.overhead:.2f}x")
    return 0 if (run.native.verified and run.vpim.verified) else 1


def cmd_figure(args) -> int:
    FIGURES[args.name](args)
    return 0


def cmd_metrics(args) -> int:
    """Run one application and print/save the metrics snapshot."""
    from repro.observability.export import render_json, render_prometheus

    if args.diff:
        return _metrics_diff(args.diff[0], args.diff[1])
    if args.app is None:
        print("error: an application is required unless --diff is given",
              file=sys.stderr)
        return 2
    mode = "native" if args.mode == "native" else "vm"
    report, registry, _ = figures.run_app_traced(
        args.app, args.dpus, mode=mode, profile=args.profile,
        preset=args.preset)
    text = (render_json(registry) if args.format == "json"
            else render_prometheus(registry))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"metrics snapshot written to {args.output}")
    else:
        print(text, end="")
    return 0 if report.verified else 1


def _metrics_diff(old_path: str, new_path: str) -> int:
    """Print the per-family delta between two JSON metric snapshots."""
    from repro.errors import ObservabilityError
    from repro.observability.snapshots import (
        diff_snapshots, format_deltas, load_snapshot,
    )

    try:
        old = load_snapshot(old_path)
        new = load_snapshot(new_path)
    except (OSError, ValueError, ObservabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deltas = diff_snapshots(old, new)
    print(format_deltas(deltas))
    return 0


def cmd_monitor(args) -> int:
    """Run a scenario under the telemetry pipeline; render the dashboard."""
    import json

    from repro.analysis.monitor import SCENARIOS, MonitorConfig, run_monitor
    from repro.analysis.report import format_table
    from repro.observability.dashboard import render_dashboard

    scenario = "quick" if args.quick else args.scenario
    if scenario not in SCENARIOS:
        # Checked here, not as argparse choices, so that importing the
        # CLI does not load the monitor.
        print(f"repro monitor: error: argument --scenario: invalid choice: "
              f"{scenario!r} (choose from {', '.join(SCENARIOS)})",
              file=sys.stderr)
        return 2
    result = run_monitor(MonitorConfig(scenario=scenario, seed=args.seed,
                                       interval=args.interval))
    data = result.to_dict()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(render_dashboard(data))
        print(f"dashboard written to {args.out}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        rows = []
        for telemetry in data["scenarios"]:
            firing = [r["name"] for r in telemetry["alerts"]["rules"]
                      if r["state"] == "firing"]
            rows.append((
                telemetry["name"], telemetry["scrapes"],
                telemetry["series"], telemetry["dropped"],
                f"{telemetry['makespan_s']:.4f}",
                ",".join(f"{k}={v}" for k, v in sorted(
                    telemetry["retention_counts"].items())) or "-",
                ",".join(firing) or "-",
            ))
        print(format_table(
            ["scenario", "scrapes", "series", "dropped", "makespan s",
             "retention", "firing"],
            rows, title=f"repro monitor ({scenario}, seed {args.seed})"))
        if data["exemplar_families"]:
            print("exemplars: " + "  ".join(
                f"{name}={count}" for name, count in sorted(
                    data["exemplar_families"].items())))
        if data.get("tail_demo"):
            demo = data["tail_demo"]
            print(f"tail demo: slowest decile kept by tail arm: "
                  f"{demo['slowest_kept_by_tail']}; dropped by head arm: "
                  f"{demo['slowest_dropped_by_head']}")
        if data.get("drill"):
            drill = data["drill"]
            print(f"fault drill: pending={drill['visited_pending']} "
                  f"firing={drill['visited_firing']} "
                  f"resolved={drill['visited_resolved']}")
        print(f"digest: {result.digest()}")
    if result.dropped_points > 0:
        print(f"error: the store dropped {result.dropped_points} points — "
              "raise the scrape interval (--interval)", file=sys.stderr)
        return 1
    return 0


def cmd_trace(args) -> int:
    """Run one application under tracing; print its latency anatomy."""
    from repro.observability.critical_path import (
        critical_path, layer_self_times, slowest_spans)
    from repro.observability.export import render_prometheus

    mode = "native" if args.mode == "native" else "vm"
    report, registry, recorder = figures.run_app_traced(
        args.app, args.dpus, mode=mode, profile=args.profile,
        preset=args.preset, sample_rate=args.sample_rate)
    if args.output:
        recorder.save(args.output)
        print(f"perfetto trace written to {args.output}", file=sys.stderr)
    if args.logs:
        recorder.save_log(args.logs)
        print(f"trace-correlated logs written to {args.logs}",
              file=sys.stderr)
    if args.metrics_output:
        with open(args.metrics_output, "w") as handle:
            handle.write(render_prometheus(registry))
        print(f"metrics snapshot written to {args.metrics_output}",
              file=sys.stderr)
    trace = recorder.latest()
    if trace is None:
        print(f"no trace retained (sample_rate={args.sample_rate}); "
              f"{recorder.spans_started} spans started, "
              f"{recorder.traces_finished} traces finished")
        return 0 if report.verified else 1
    root = trace.root
    print(f"trace {trace.trace_id}: {len(trace)} spans, root {root.name} "
          f"({root.duration * 1e3:.3f} ms simulated)")
    self_times = layer_self_times(trace)
    rows = [(layer, f"{seconds * 1e3:.3f}",
             f"{seconds / root.duration * 100:.1f}%")
            for layer, seconds in sorted(self_times.items(),
                                         key=lambda kv: -kv[1])]
    print(format_table(["layer", "self ms", "share"], rows,
                       title="Per-layer self time"))
    chain = critical_path(trace)
    print("critical path: " + " > ".join(
        f"{span.name} ({span.duration * 1e3:.3f}ms)" for span in chain))
    slow = slowest_spans(trace, name="frontend.request", top=args.top)
    if slow:
        rows = [(span.span_id, span.attributes.get("kind", "?"),
                 f"{span.start * 1e3:.3f}", f"{span.duration * 1e3:.3f}")
                for span in slow]
        print(format_table(["span", "kind", "start ms", "dur ms"], rows,
                           title=f"Slowest {len(slow)} requests"))
    return 0 if report.verified else 1


def cmd_chaos(args) -> int:
    """Run sessions under a seeded fault plan."""
    from repro.analysis.chaos import (
        CHAOS_HEADERS,
        ChaosConfig,
        chaos_rows,
        run_chaos,
    )

    config = ChaosConfig(
        nr_ranks=args.ranks, dpus_per_rank=args.dpus_per_rank,
        app=args.app, nr_sessions=args.sessions, seed=args.seed,
        fault_rate_per_s=args.rate, horizon_s=args.horizon,
        max_attempts=args.max_attempts)
    result = run_chaos(config)
    print(format_table(
        CHAOS_HEADERS, chaos_rows(result),
        title=f"Chaos run ({args.app} x{args.sessions}, "
              f"seed={args.seed})"))
    print(f"timeline digest: {result.timeline_digest}")
    if result.timeline:
        print(result.timeline)
    if args.metrics_output:
        import json
        with open(args.metrics_output, "w") as handle:
            json.dump(result.metric_snapshot, handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
        print(f"fault metrics snapshot written to {args.metrics_output}")
    return 0 if result.sessions_lost == 0 else 1


def cmd_bench(args) -> int:
    """Run a benchmark harness from the ``benchmarks/`` directory.

    ``--cache`` selects the transfer-cache ablation (NW/BFS/MLP off/on,
    ``docs/transfer_cache.md``); the default is the wall-clock harness.
    """
    import runpy
    from pathlib import Path

    script = ("bench_transfer_cache.py" if args.cache
              else "bench_wallclock.py")
    path = Path(__file__).resolve().parents[2] / "benchmarks" / script
    if not path.exists():
        print(f"benchmark harness not found at {path}", file=sys.stderr)
        return 2
    argv = []
    if args.profile in ("test", "cprofile"):
        argv.append("--quick")
    if args.profile == "cprofile":
        if args.cache:
            print("--profile (cProfile mode) only applies to the "
                  "wall-clock harness, not --cache", file=sys.stderr)
            return 2
        argv.append("--profile")
    if args.check:
        argv.append("--check")
    module = runpy.run_path(str(path))
    return int(module["main"](argv))


def cmd_qos(args) -> int:
    """Noisy-neighbor isolation demo (``docs/qos.md``).

    Runs the same victim/noisy schedule with QoS off (FIFO event loop)
    and on (weighted-fair queueing), prints the victim latency
    scorecard, then — unless ``--no-slo`` — walks through one SLO
    enforcement actuation.
    """
    from repro.analysis.qos import (
        isolation_table,
        run_isolation,
        run_slo_demo,
        slo_demo_report,
    )

    result = run_isolation(sessions=args.sessions,
                           dpus_per_rank=args.dpus_per_rank)
    print(isolation_table(result))
    if not args.no_slo:
        print()
        print("SLO enforcement walkthrough")
        print(slo_demo_report(run_slo_demo(
            sessions=max(2, args.sessions // 2),
            dpus_per_rank=args.dpus_per_rank)))
    return 0


def cmd_overcommit(args) -> int:
    """Rank-overcommit demo (``docs/paging.md``).

    Runs the same interleaved tenant schedule under four arms — a
    reference host with enough physical ranks, hard denial, emulation
    fallback, and demand paging — and prints the goodput/latency/
    bit-identity scorecard plus the paging arm's swap accounting.
    """
    from repro.analysis.overcommit import overcommit_table, run_overcommit

    result = run_overcommit(tenants=args.tenants,
                            physical_ranks=args.ranks,
                            dpus_per_rank=args.dpus_per_rank,
                            rounds=args.rounds,
                            overcommit_ratio=args.ratio)
    print(overcommit_table(result))
    paging = result.arms["paging"]
    print()
    print(f"paging arm swap accounting: "
          f"{paging.demand_faults} demand + "
          f"{paging.predictive_faults} predictive faults, "
          f"{paging.evictions} evictions, "
          f"{paging.swap_bytes >> 10} KiB moved")
    return 0


def cmd_spec(args) -> int:
    from repro.config import (
        MAX_SERIALIZED_BUFFERS,
        TRANSFERQ_SLOTS,
        VIRTIO_PIM_DEVICE_ID,
    )
    from repro.driver.driver import CONFIG_LAYOUT, DeviceConfig
    config = DeviceConfig()
    print("virtio-pim device specification (paper Appendix A.1)")
    print(f"  device ID        : {VIRTIO_PIM_DEVICE_ID}")
    print(f"  queues           : transferq ({TRANSFERQ_SLOTS} slots), controlq")
    print(f"  max chain        : {MAX_SERIALIZED_BUFFERS} buffers "
          "(request info + matrix meta + 64 x (DPU meta + pages))")
    print("  feature bits     : none")
    print("  config layout    :")
    for key in CONFIG_LAYOUT:
        print(f"    {key:<22} {getattr(config, key)}")
    print("  operations       : GET_CONFIG, LOAD, WRITE_RANK, READ_RANK, "
          "LAUNCH, CI_OP, RELEASE")
    return 0


def _positive_seconds(text: str) -> float:
    """argparse type: a finite duration above zero (exit 2 otherwise)."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="vPIM reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the applications").set_defaults(
        fn=cmd_list)

    run = sub.add_parser("run", help="run one application")
    run.add_argument("app", choices=[i.short_name for i in ALL_APPS])
    run.add_argument("--dpus", type=int, default=16)
    run.add_argument("--mode", choices=["native", "vpim"], default="vpim")
    run.add_argument("--preset", choices=sorted(PRESETS), default=None)
    run.add_argument("--profile", choices=["test", "bench"], default="test")
    run.set_defaults(fn=cmd_run)

    cmp_ = sub.add_parser("compare", help="native vs vPIM on one app")
    cmp_.add_argument("app", choices=[i.short_name for i in ALL_APPS])
    cmp_.add_argument("--dpus", type=int, default=16)
    cmp_.add_argument("--preset", choices=sorted(PRESETS), default=None)
    cmp_.add_argument("--profile", choices=["test", "bench"], default="test")
    cmp_.set_defaults(fn=cmd_compare)

    fig = sub.add_parser("figure", help="regenerate one evaluation figure")
    fig.add_argument("name", choices=sorted(FIGURES))
    fig.add_argument("--scale", type=int, default=32)
    fig.add_argument("--profile", choices=["test", "bench"], default="test")
    fig.add_argument("--dpu-counts", type=int, nargs="+", default=[60, 480])
    fig.set_defaults(fn=cmd_figure)

    met = sub.add_parser(
        "metrics",
        help="run one application and emit a metrics snapshot")
    met.add_argument("app", nargs="?", default=None,
                     choices=[i.short_name for i in ALL_APPS])
    met.add_argument("--diff", nargs=2, default=None,
                     metavar=("OLD", "NEW"),
                     help="diff two JSON snapshots instead of running: "
                          "counters as rates, gauges as last value")
    met.add_argument("--dpus", type=int, default=16)
    met.add_argument("--mode", choices=["native", "vpim"], default="vpim")
    met.add_argument("--preset", choices=sorted(PRESETS), default=None)
    met.add_argument("--profile", choices=["test", "bench"], default="test")
    met.add_argument("--format", choices=["prom", "json"], default="prom")
    met.add_argument("--output", default=None, metavar="FILE",
                     help="write the snapshot here instead of stdout")
    met.set_defaults(fn=cmd_metrics)

    tra = sub.add_parser(
        "trace",
        help="run one application under request-scoped tracing")
    tra.add_argument("app", choices=[i.short_name for i in ALL_APPS])
    tra.add_argument("--dpus", type=int, default=16)
    tra.add_argument("--mode", choices=["native", "vpim"], default="vpim")
    tra.add_argument("--preset", choices=sorted(PRESETS), default=None)
    tra.add_argument("--profile", choices=["test", "bench"], default="test")
    tra.add_argument("--sample-rate", type=float, default=1.0,
                     help="head-sampling rate in [0, 1] (faulted traces "
                          "are always kept)")
    tra.add_argument("--top", type=int, default=5,
                     help="how many slowest requests to show")
    tra.add_argument("--output", default=None, metavar="FILE",
                     help="write the Perfetto/Chrome trace JSON here")
    tra.add_argument("--logs", default=None, metavar="FILE",
                     help="write the trace-correlated JSONL log here")
    tra.add_argument("--metrics-output", default=None, metavar="FILE",
                     help="also write a Prometheus metrics snapshot")
    tra.set_defaults(fn=cmd_trace)

    cha = sub.add_parser(
        "chaos",
        help="run sessions under a seeded fault plan (repro.faults)")
    cha.add_argument("--app", choices=["VA", "RED", "SEL", "BS"],
                     default="VA")
    cha.add_argument("--sessions", type=int, default=4)
    cha.add_argument("--ranks", type=int, default=3,
                     help="ranks per machine")
    cha.add_argument("--dpus-per-rank", type=int, default=8)
    cha.add_argument("--rate", type=float, default=1.0,
                     help="expected fault events per simulated second")
    cha.add_argument("--horizon", type=float, default=10.0,
                     help="fault plan horizon (simulated seconds)")
    cha.add_argument("--max-attempts", type=int, default=4,
                     help="session rerun budget")
    cha.add_argument("--seed", type=int, default=0,
                     help="plan + workload seed; same seed replays the "
                          "identical fault timeline")
    cha.add_argument("--metrics-output", default=None, metavar="FILE",
                     help="write the repro_fault_* snapshot here (JSON)")
    cha.set_defaults(fn=cmd_chaos)

    ben = sub.add_parser(
        "bench",
        help="run a perf harness (wall-clock, or --cache for the "
             "transfer-cache ablation)")
    ben.add_argument("--cache", action="store_true",
                     help="run the content-aware transfer-cache ablation")
    ben.add_argument("--check", action="store_true",
                     help="fail on regression/divergence vs the committed "
                          "artifact")
    ben.add_argument("--profile", nargs="?", const="cprofile",
                     choices=["test", "bench", "cprofile"], default="test",
                     help="test = --quick sizing; bench = full; bare "
                          "--profile = cProfile the suite (quick sizing) "
                          "and print the top-20 cumulative hot functions")
    ben.set_defaults(fn=cmd_bench)

    qos = sub.add_parser(
        "qos", help="noisy-neighbor isolation demo (docs/qos.md)")
    qos.add_argument("--sessions", type=int, default=8,
                     help="victim/noisy session pairs per arm")
    qos.add_argument("--dpus-per-rank", type=int, default=60)
    qos.add_argument("--no-slo", action="store_true",
                     help="skip the SLO enforcement walkthrough")
    qos.set_defaults(fn=cmd_qos)

    over = sub.add_parser(
        "overcommit", help="rank-overcommit demo (docs/paging.md)")
    over.add_argument("--tenants", type=int, default=4,
                      help="VMs sharing the host (default 4)")
    over.add_argument("--ranks", type=int, default=2,
                      help="physical ranks on the host (default 2)")
    over.add_argument("--dpus-per-rank", type=int, default=8)
    over.add_argument("--rounds", type=int, default=8,
                      help="interleaved VA rounds per tenant")
    over.add_argument("--ratio", type=float, default=2.0,
                      help="pager overcommit ratio (default 2.0)")
    over.set_defaults(fn=cmd_overcommit)

    mon = sub.add_parser(
        "monitor",
        help="run a scenario under the telemetry pipeline "
             "(docs/monitoring.md)")
    mon.add_argument("--scenario", default="quick",
                     help="quick (default) or one scenario row")
    mon.add_argument("--quick", action="store_true",
                     help="force the quick composite suite (the CI smoke)")
    mon.add_argument("--seed", type=int, default=0,
                     help="same seed, same telemetry digest")
    mon.add_argument("--interval", type=_positive_seconds, default=None,
                     help="override the scrape cadence (simulated seconds)")
    mon.add_argument("--out", default=None, metavar="FILE",
                     help="write the self-contained HTML dashboard here")
    mon.add_argument("--format", choices=["text", "json"], default="text",
                     help="stdout format (the dashboard is always HTML)")
    mon.set_defaults(fn=cmd_monitor)

    sub.add_parser("spec", help="print the virtio-pim specification"
                   ).set_defaults(fn=cmd_spec)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output was piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
