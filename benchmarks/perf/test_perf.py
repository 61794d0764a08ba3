"""Tests of the benchmark harness itself.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only); run with

    python -m pytest benchmarks/perf/test_perf.py
"""

from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from run import UNGATED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_of_nested_spans_sum_to_the_root():
    #  root 0..100 > a 10..60 > (b 20..30, c 30..50) ; root > d 70..90
    spans = [
        ("harness", "iteration", 0, 100, -1, 0),
        ("apps", "a", 10, 60, 0, 0),
        ("driver", "b", 20, 30, 1, 0),
        ("driver", "c", 30, 50, 1, 0),
        ("hardware.memory", "d", 70, 90, 0, 0),
    ]
    assert layers.self_times_ns(spans) == [30, 20, 10, 20, 20]
    totals = layers.layer_totals(spans)
    assert totals["driver"] == (30 / 1e9, 2)
    assert sum(self_s for self_s, _ in totals.values()) * 1e9 == 100
    assert layers.root_seconds(spans) * 1e9 == 100


def test_recorder_nests_wrapped_calls_and_taps_results():
    recorder = layers.Recorder()
    seen = []
    inner = recorder.wrap(lambda: "x", "driver", "inner", seen.append)
    outer = recorder.wrap(lambda: inner(), "apps", "outer")
    with recorder.root(7):
        assert outer() == "x"
    assert seen == ["x"]
    root, a, b = recorder.spans
    assert (root[0], a[0], b[0]) == ("harness", "apps", "driver")
    assert (root[4], a[4], b[4]) == (-1, 0, 1)
    assert {root[5], a[5], b[5]} == {7}
    assert root[2] <= a[2] <= b[2] <= b[3] <= a[3] <= root[3]
    assert sum(layers.self_times_ns(recorder.spans)) == root[3] - root[2]


def _sites():
    """Every ``(owner, attribute)`` the audit patches."""
    from repro.apps.registry import PRIM_APPS

    for _layer, modname, clsname, methods in layers.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        for method in methods:
            yield cls, method
    for info in PRIM_APPS:
        yield info.cls, "run"
    for _layer, modname, names in layers.FUNCTIONS:
        module = importlib.import_module(modname)
        for name in names:
            yield module, name
    # The importers the issue names explicitly.
    yield importlib.import_module("repro.driver.driver"), "run_program"
    yield importlib.import_module("repro.virt.frontend"), "compile_plan"


def test_wrappers_trace_a_run_and_are_fully_removed_afterwards():
    import workloads

    before = [(owner, attr, vars(owner)[attr]) for owner, attr in _sites()]
    sizes = workloads.SIZES["smoke"]
    app = workloads.build_app("VA", sizes, seed=0)
    _vpim, session = workloads.open_session("vm", sizes.nr_dpus)
    recorder = layers.Recorder()
    with layers.tracing(recorder):
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original, (owner, attr)
        with recorder.root(0):
            assert workloads.run_app(session, app).failed == 0
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)
    seen = {span[0] for span in recorder.spans}
    assert {"apps", "sdk.dpu_set", "sdk.kernel", "virt.frontend",
            "virt.backend", "driver", "hardware.rank",
            "hardware.memory"} <= seen
    assert recorder.kernel_instructions > 0
    # Untraced again: a run records nothing.
    count = len(recorder.spans)
    assert workloads.run_app(session, app).failed == 0
    assert len(recorder.spans) == count


def test_install_restores_everything_when_a_name_is_missing(monkeypatch):
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in _sites()]
    monkeypatch.setattr(layers, "FUNCTIONS", layers.FUNCTIONS + (
        ("driver", "repro.driver.driver", ("no_such_function",)),))
    try:
        layers.install(layers.Recorder())
    except KeyError:
        pass
    else:
        raise AssertionError("a missing entry point must raise")
    for owner, attr, original in before:
        assert vars(owner)[attr] is original


def test_benchmark_json_stays_inside_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_smoke_emits_exactly_the_declared_names(tmp_path):
    out = tmp_path / "results.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--all",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 60, f"smoke took {elapsed:.0f} s"
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == [
        w["name"] for w in SPEC["workloads"]] + list(UNGATED)
    for name, pair in report["workloads"].items():
        (timed,) = pair["timed"]
        for run, key in ((timed, "end_to_end"),
                         (pair["audit"], "per_layer")):
            kind = key
            assert run["correct"] and run["failed"] == 0, (name, kind)
            assert run["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            assert {k: v["unit"] for k, v in run["metrics"].items()} \
                == declared, (name, kind)
        assert all(timed["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"]), name
        audit = pair["audit"]["metrics"]
        assert audit["r3.mismatches"]["value"] == 0
        assert abs(audit["trace.coverage"]["value"] - 1.0) <= 0.01
    layer = {name: pair["audit"]["metrics"]
             for name, pair in report["workloads"].items()}
    # The dominant layers match the reason each workload exists.
    assert layer["kernel_native"]["sdk.kernel.calls"]["value"] > 0
    assert layer["xfer_small"]["sdk.kernel.calls"]["value"] == 0
    assert layer["xfer_bulk"]["sdk.kernel.calls"]["value"] == 0
    assert layer["prim_cold"]["virt.plans.compiles"]["value"] > 0
    assert layer["prim_warm"]["virt.plans.compiles"]["value"] == 0
    assert layer["xfer_small"]["virt.plans.compiles"]["value"] == 0
    assert all(value["value"] == 0
               for key, value in layer["kernel_native"].items()
               if key.startswith("virt.") and key.endswith(".calls"))
