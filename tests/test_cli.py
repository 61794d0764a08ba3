"""The ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_list(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    assert "Vector Addition" in out
    assert "Needleman-Wunsch" in out
    assert out.count("\n") >= 18


def test_spec(capsys):
    code, out = run_cli(capsys, "spec")
    assert code == 0
    assert "device ID        : 42" in out
    assert "transferq (512 slots)" in out
    assert "130 buffers" in out


def test_run_native(capsys):
    code, out = run_cli(capsys, "run", "VA", "--dpus", "8",
                        "--mode", "native")
    assert code == 0
    assert "ok=True" in out


def test_run_vpim_with_preset(capsys):
    code, out = run_cli(capsys, "run", "RED", "--dpus", "8",
                        "--preset", "vPIM-C")
    assert code == 0
    assert "vPIM-C" in out
    assert "transitions" in out


def test_compare(capsys):
    code, out = run_cli(capsys, "compare", "VA", "--dpus", "8")
    assert code == 0
    assert "overhead:" in out
    assert "native" in out


def test_trace_prints_critical_path_and_saves_artifacts(capsys, tmp_path):
    import json

    trace_file = tmp_path / "trace.json"
    metrics_file = tmp_path / "metrics.prom"
    code, out = run_cli(capsys, "trace", "CHK", "--dpus", "8",
                        "--output", str(trace_file),
                        "--metrics-output", str(metrics_file))
    assert code == 0
    assert "Per-layer self time" in out
    assert "critical path: session.run" in out
    assert "Slowest" in out
    payload = json.loads(trace_file.read_text())
    assert payload["traceEvents"][0]["ph"] == "X"
    assert "repro_span_started_total" in metrics_file.read_text()


def test_trace_zero_sample_rate_retains_nothing(capsys):
    code, out = run_cli(capsys, "trace", "CHK", "--dpus", "8",
                        "--sample-rate", "0")
    assert code == 0
    assert "no trace retained" in out


def test_metrics_writes_a_snapshot_without_trace_families(capsys, tmp_path):
    snapshot = tmp_path / "metrics.prom"
    code, out = run_cli(capsys, "metrics", "CHK", "--dpus", "16",
                        "--output", str(snapshot))
    assert code == 0
    assert f"metrics snapshot written to {snapshot}" in out
    text = snapshot.read_text()
    assert "# TYPE repro_frontend_requests_total counter" in text
    assert "repro_trace_" not in text


def test_metrics_diffs_two_json_snapshots(capsys, tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    for app, path in (("CHK", old), ("VA", new)):
        assert run_cli(capsys, "metrics", app, "--dpus", "8", "--format",
                       "json", "--output", str(path))[0] == 0
    code, out = run_cli(capsys, "metrics", "--diff", str(old), str(new))
    assert code == 0
    assert "repro_backend_requests_total (counter)" in out
    assert "repro_vm_vupmem_devices (gauge)" in out


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "NOPE"])


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig99"])


def test_unknown_monitor_scenario_exits_2_with_the_valid_names(capsys):
    assert main(["monitor", "--scenario", "nope"]) == 2
    err = capsys.readouterr().err
    assert "'nope'" in err and "quick" in err and "drill" in err


def test_monitor_drill_resolves_at_a_10x_finer_cadence(capsys):
    """The drill's schedule is simulated seconds, not scrapes."""
    code, out = run_cli(capsys, "monitor", "--scenario", "drill",
                        "--interval", "1e-4")
    assert code == 0
    assert "resolved=True" in out


def test_monitor_drop_names_the_flag_that_helps(capsys, monkeypatch):
    """A lossy store exits 1 and names --interval, the one way to widen it."""
    from types import SimpleNamespace

    from repro.analysis import monitor
    monkeypatch.setattr(monitor, "run_monitor", lambda config: SimpleNamespace(
        dropped_points=3, to_dict=dict))
    assert main(["monitor", "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert "dropped 3 points" in err and "(--interval)" in err


def test_figure_fig16(capsys):
    code, out = run_cli(capsys, "figure", "fig16")
    assert code == 0
    assert "sequential" in out


def test_qos_isolation_demo(capsys):
    code, out = run_cli(capsys, "qos", "--sessions", "2",
                        "--dpus-per-rank", "8", "--no-slo")
    assert code == 0
    assert "Noisy neighbor" in out
    assert "victim p99 improvement" in out
    assert "SLO enforcement" not in out


def test_qos_demo_with_slo_walkthrough(capsys):
    code, out = run_cli(capsys, "qos", "--sessions", "2",
                        "--dpus-per-rank", "8")
    assert code == 0
    assert "SLO enforcement walkthrough" in out
    assert "burn rate before actuation" in out
    assert "burn rate after actuation" in out

