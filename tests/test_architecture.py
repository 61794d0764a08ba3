"""The architecture rules, one table row each.

The paper's transparency requirement R3 rests on its layering (§3-4):
the frontend, backend, manager and driver each own one job, and every
opt-in extension (QoS, faults, paging, the transfer cache, telemetry)
attaches at one seam.  These rows keep it that way:

- a :class:`Grep` row fails when a line under its paths matches its
  pattern (a forbidden name is back where the rule keeps it out);
- an :class:`Absent` row fails when a retired file is back;
- an :class:`Imports` row imports a module in a fresh interpreter and
  fails when that loads a module it must not, or too many;
- the reach row fails when a definition under ``src/`` is named only by
  the tests, unless :data:`REACH_ALLOWLIST` says why it stays.

A grep row's ``example`` is a line its pattern must match, so a typo
that matches nothing fails here too.  This file is skipped by its own
scans: it spells out every forbidden name.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SELF = Path(__file__).resolve().relative_to(ROOT).as_posix()


@dataclass(frozen=True)
class Grep:
    """No line of a file under ``paths`` matches ``pattern``.

    ``paths`` are repo-relative directories (searched recursively),
    files or globs; ``include`` filters file names; a file whose path
    starts with one of ``exclude`` is skipped."""

    name: str
    pattern: str
    paths: Tuple[str, ...]
    example: str
    message: str
    include: str = "*"
    exclude: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Absent:
    """A retired file stays deleted."""

    name: str
    path: str
    message: str


@dataclass(frozen=True)
class Imports:
    """``import module`` in a fresh interpreter loads none of
    ``forbidden`` and at most ``max_modules`` ``repro`` modules
    (itself included)."""

    name: str
    module: str
    forbidden: Tuple[str, ...]
    message: str
    max_modules: Optional[int] = None


#: Every rule, in the order the layers were pinned.
RULES = (
    # The planned path is the serializer, not an option.
    Grep("no-plans-option",
         r"plans=False|ablate.plans|unplannable|\.reserving\(|stage_pages",
         ("src/", "benchmarks/*.py"),
         "vpim.vm_session(plans=False)",
         "the planned path is an option again"),
    # The transfer cache attaches at one seam per layer: the paper's
    # frontend and backend hold an optional `transfer_cache` and nothing
    # else of it.
    Grep("transfer-cache-one-module",
         r"SkipExtent|ExtentDigestIndex|content_digest|\.resident\b|cache_enabled"
         r"|dirty_log|_digest_|_probe_digests|_index_digests"
         r"|_launch_collecting_dirty|_maybe_bypass|digests=|skips=",
         ("src/repro/virt/frontend.py", "src/repro/virt/backend.py"),
         "        if self.cache_enabled:",
         "transfer-cache code is back in the paper's frontend or backend"),
    # QoS attaches at the three hooks of a VM's `qos_flow`: the cost
    # model, machine, launcher and virtqueues know no flow, arbiter or
    # event loop.
    Grep("qos-one-package",
         r"BandwidthArbiter|BusFlow|VirtioEventLoop|bus_arbiter|event_loop"
         r"|qos_(activity_window|wfq_quantum|min_active_demand)",
         ("src/repro",),
         "    arbiter = BandwidthArbiter(machine)",
         "QoS arbitration code is back outside repro.qos",
         include="*.py", exclude=("src/repro/qos/",)),
    # Faults attach at `fault_hook` seams that are None until a
    # FaultInjector arms them: the retry budget, its backoff, the fault
    # cost constants, their counts and log line live in repro.faults.
    Grep("fault-policy-one-package",
         r"max_transport_retries|fault_obs|retry_backoff|transport_corruption_detect"
         r"|backend_watchdog_timeout|transient_fault",
         ("src/repro",),
         "        for attempt in range(cost.max_transport_retries):",
         "fault-recovery policy is back outside repro.faults",
         include="*.py", exclude=("src/repro/faults/",)),
    # Oversubscription attaches at one seam: the pager and the emulated
    # pool are tiers the manager registers with the driver, so the
    # paper's manager, driver, frontend and VM name neither.
    Grep("oversubscription-one-seam",
         r'is_virtual|is_emulated|PagedRankMapping|"pager"|(pager|emulated_pool)'
         r"\.(create|release|destroy|resolve|get|has_capacity|virtual_capacity"
         r"|set_weight|prefault)\b",
         ("src/repro",),
         "        rank = self.pager.resolve(index)",
         "tier-specific oversubscription code is back on the paper path",
         include="*.py",
         exclude=("src/repro/paging/", "src/repro/virt/emulation.py")),
    Grep("driver-names-no-tier", r"pager|emulated", ("src/repro/driver/*.py",),
         "        if self.pager is not None:",
         "the driver names an oversubscription tier"),
    # A counter that mirrors a count its owner keeps follows that count
    # (metrics.Counts); an inc beside it would count the event twice.
    Grep("followed-counters-no-inc",
         r"obs\.(plan_hits|plan_misses|plan_evictions|xlb_hits|xlb_misses|kicks"
         r"|xfer_ops|xfer_bytes|evictions|swaps_out|swap_bytes_out|swap_bytes_in"
         r"|faults|dedup_hits|prefault_overlap|started|traces|batched_writes"
         r"|prefetch_hits|prefetch_misses|prefetch_refills)\b(\[[^]]*\])?\.inc\(",
         ("src/",),
         "        self.obs.xlb_hits[kind].inc()",
         "a followed counter is incremented beside its count again"),
    # The frontend's requests are followed too; the backend's
    # `obs.requests[rank, kind]` has no owner count and stays an inc.
    Grep("frontend-requests-followed", r"obs\.requests\[[^]]*\]\.inc\(",
         ("src/repro/virt/frontend.py",),
         '        self.obs.requests["ci_op"].inc(count - real)',
         "the frontend increments a request counter beside its count"),
    # A run's message counts are the session's delta of the frontends'
    # counts (ExecutionReport.messages); the profiler keeps no second
    # ledger of them.
    Grep("messages-one-ledger",
         r"count_request|count_batched_writes|count_cache_hits"
         r"|count_cache_refills|profiler?\.messages",
         ("src/", "benchmarks/", "examples/"),
         "        self.profiler.messages.count_request()",
         "the profiler keeps a second ledger of frontend messages",
         include="*.py"),
    # Every workload imports the figures module (through the CLI); the
    # opt-in paging, QoS, fault and emulated-rank extensions, the
    # telemetry tools and the section 7 / REST modules are not its
    # business: the paper's path loads the recorder and the registry.
    Imports("figures-import", "repro.analysis.figures",
            ("repro.paging", "repro.qos", "repro.faults", "repro.virt.emulation",
             "repro.observability.alerts", "repro.observability.dashboard",
             "repro.observability.timeseries", "repro.observability.snapshots",
             "repro.observability.critical_path", "repro.observability.export",
             "repro.analysis.trace", "repro.virt.migration",
             "repro.virt.api_server"),
            "import repro.analysis.figures loaded an extension"),
    # The CLI is what every workload imports; `repro monitor` loads the
    # monitor and its store and rules when it runs, not at import.  The
    # CLI adds itself to what the figures module loads, nothing more.
    Imports("cli-import", "repro.cli",
            ("repro.analysis.monitor", "repro.observability.alerts",
             "repro.observability.timeseries"),
            "import repro.cli loaded the monitor", max_modules=82),
    # Each metric family has one declaration, a row of a component table
    # in observability/catalog.py; the span recorder is the only trace
    # exporter; the paper's VM path binds no fault table.
    Absent("telemetry-no-instruments-module",
           "src/repro/observability/instruments.py",
           "the second declaration module is back"),
    Grep("telemetry-declared-once",
         r"\bTracer\b|repro_trace_|run_app_instrumented|register_all",
         ("src/repro",),
         "from repro.analysis.trace import Tracer",
         "the second trace exporter or a second declaration path is back",
         include="*.py"),
    Grep("virt-names-no-fault-table", r"\bFAULT\b", ("src/repro/virt/",),
         "        self.fault_obs = bind(FAULT, registry)",
         "the paper's VM path names the fault table", include="*.py"),
    # The multi-host fleet layer was retired: no package, metric, fault
    # kind, option or error of it may come back.
    Grep("fleet-retired",
         r"repro\.cluster|repro_cluster_|HOST_CRASH|host_crash|arm_cluster"
         r"|target_manager|extra_registries|FleetQosPolicy|ClusterError"
         r"|AdmissionError|HostCrashedError",
         ("src", "tests", "benchmarks", "examples"),
         "from repro.cluster import Fleet",
         "fleet-layer code is back", include="*.py"),
    # Request-kind labels come from one table (serialization.KIND_LABEL).
    Grep("kind-labels-one-table", r"\.kind\.name\.lower\(\)", ("src/",),
         "        label = request.kind.name.lower()",
         "a request-kind label is spelled out per request again"),
    Grep("kind-labels-one-table-virt", r"kind\.name\.lower\(\)",
         ("src/repro/virt/",),
         "        label = kind.name.lower()",
         "a request-kind label is spelled out per request again"),
    # Every program under src/ and in examples/ has one body, run_rank;
    # the Fig. 2b tasklet programs and their scheduler are test
    # references only (tests/apps/reference_kernels.py,
    # tests/tasklet_reference.py).
    Grep("one-execution-model",
         r"def kernel\(|def run\(self, dpu|TaskletContext|tasklet_range|BARRIER"
         r"|MAX_PHASES",
         ("src/", "examples/"),
         "    def kernel(self, ctx):",
         "a second execution model is back outside the tests"),
    Grep("no-per-dpu-runner", r"make_runner", ("src/", "tests/"),
         "    runner = program.make_runner(dpu)",
         "a second execution model is back outside the tests"),
    # No input generator or CPU reference dedups through np.unique,
    # which hashes integers instead of sorting them.
    Grep("set-up-is-hash-free", r"np\.unique\(",
         ("src/repro/workloads/", "src/repro/apps/"),
         "    keys = np.unique(values)",
         "np.unique is back in an input generator or CPU reference"),
    # The scaffolding 16 per-tasklet bodies needed to share one DPU-wide
    # computation must not come back.
    Grep("no-per-run-read-cache", r"\.once\(|readonly=|read_cache", ("src/",),
         "        table = ctx.once(build_table)",
         "per-tasklet sharing scaffolding is back under src/"),
    # Programs move MRAM bytes through rank-wide calls only (map,
    # read_ragged), so every per-DPU step is one the launch can hand
    # out; DpuContext.mram_read/mram_write stay for the test programs
    # (tests/tasklet_reference.py).
    Grep("mram-rank-wide-only", r"\.mram_(read|write)\(",
         ("src/repro/apps", "examples/"),
         "        block = ctx.mram_read(offset, 2048)",
         "a per-DPU MRAM call is back in a program body"),
    # One clock listener scrapes the store; the deleted queries and
    # monitor knobs stay deleted.
    Grep("no-second-clock-listener",
         r"store\.attach\(|gauge_percentile|DecayedReservoir|noisy_sessions"
         r"|oc_tenants|chaos_horizon_s",
         ("src/",),
         "        store.attach(clock)",
         "a deleted telemetry path or knob is back under src/"),
    # A modeled second of the paper's path is a CostModel field: a
    # literal elsewhere stays put when the model is rescaled (the
    # homogeneity test in tests/hardware/test_cost_helpers.py).  The
    # emulated tier of section 7 derates the model with its own numbers
    # (virt/emulation.py); core/results.py's 1e-12 is a zero guard.
    Grep("no-seconds-literal", r"\b\d+(\.\d+)?e-\d+\b",
         tuple(f"src/repro/{layer}" for layer in
               ("hardware", "driver", "sdk", "virt", "apps", "core")),
         "BASE_BOOT_TIME = 125e-3",
         "a seconds literal is back outside CostModel",
         include="*.py",
         exclude=("src/repro/hardware/timing.py", "src/repro/virt/emulation.py",
                  "src/repro/core/results.py")),
    Grep("cost-constants-retired",
         r"BASE_BOOT_TIME|IOCTL_OVERHEAD|STATUS_POLL_CADENCE|launch_poll_count"
         r"|launch_poll_period|ci_ops_per_launch|status_poll_cadence",
         ("src", "tests", "benchmarks", "examples"),
         "    polls = launch_poll_count(run_time)",
         "a retired cost constant or poll option is back", include="*.py"),
    # Kvm counts every guest<->VMM transition (trap, inject_irq).
    Grep("kvm-counts-transitions", r"stats\.(vmexits|irq_injections)\s*\+=",
         ("src/",), "                self.kvm.stats.vmexits += count - real",
         "a VM exit or IRQ injection is counted outside Kvm",
         include="*.py", exclude=("src/repro/virt/kvm.py",)),
)

GREPS = [rule for rule in RULES if isinstance(rule, Grep)]


def _ids(rules):
    return [rule.name for rule in rules]


def test_rule_names_are_unique():
    names = _ids(RULES)
    assert len(set(names)) == len(names)


# -- grep rows -------------------------------------------------------------------


def _files(rule: Grep) -> Iterator[Path]:
    for spec in rule.paths:
        if any(ch in spec for ch in "*?["):
            found = sorted(ROOT.glob(spec))
        elif (ROOT / spec).is_dir():
            found = sorted(p for p in (ROOT / spec).rglob("*")
                           if "__pycache__" not in p.parts)
        else:
            found = [ROOT / spec]
        for path in found:
            rel = path.relative_to(ROOT).as_posix()
            if (path.is_file() and fnmatch.fnmatch(path.name, rule.include)
                    and rel != SELF
                    and not rel.startswith(rule.exclude)):
                yield path


@lru_cache(maxsize=None)
def _lines(path: Path) -> Tuple[str, ...]:
    try:
        return tuple(path.read_text(encoding="utf-8").splitlines())
    except UnicodeDecodeError:      # a binary file: nothing to grep
        return ()


@pytest.mark.parametrize("rule", GREPS, ids=_ids(GREPS))
def test_grep_rule_example_matches(rule):
    assert re.search(rule.pattern, rule.example), (
        f"{rule.name}: the pattern no longer matches its example line")


@pytest.mark.parametrize("rule", GREPS, ids=_ids(GREPS))
def test_grep_rule(rule):
    pattern = re.compile(rule.pattern)
    hits = [f"{path.relative_to(ROOT).as_posix()}:{number}: {line.strip()}"
            for path in _files(rule)
            for number, line in enumerate(_lines(path), 1)
            if pattern.search(line)]
    assert not hits, f"{rule.message}:\n" + "\n".join(hits)


def test_every_grep_rule_scans_something():
    empty = [rule.name for rule in GREPS if next(_files(rule), None) is None]
    assert not empty, f"rows whose paths match no file: {empty}"


# -- absent files and imports ----------------------------------------------------

ABSENT = [rule for rule in RULES if isinstance(rule, Absent)]
IMPORTS = [rule for rule in RULES if isinstance(rule, Imports)]


@pytest.mark.parametrize("rule", ABSENT, ids=_ids(ABSENT))
def test_absent_rule(rule):
    assert not (ROOT / rule.path).exists(), rule.message


_LOADED = """\
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules
                        if m == "repro" or m.startswith("repro."))))
"""


@pytest.mark.parametrize("rule", IMPORTS, ids=_ids(IMPORTS))
def test_import_rule(rule):
    # A fresh interpreter: this one has imported everything already.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _LOADED, rule.module],
                         capture_output=True, text=True, env=env, check=True)
    loaded = json.loads(out.stdout)
    assert not [m for m in rule.forbidden if m in loaded], (
        f"{rule.message}: {[m for m in rule.forbidden if m in loaded]}")
    if rule.max_modules is not None:
        assert len(loaded) <= rule.max_modules, (
            f"import {rule.module} loads {len(loaded)} repro modules, "
            f"more than {rule.max_modules}")


# -- reach -------------------------------------------------------------------------
#
# Every function, method or class defined under src/ is named somewhere
# in src/, benchmarks/ or examples/ besides its own definition: a Name,
# an attribute, an imported name, or a string constant that is an
# identifier (benchmarks/perf/layers.py wraps entry points by string).
# A use in tests/ does not count.  What stays without one is listed
# below with one of four reasons.  The match is by bare name, so a
# test-only method passes when another definition of that name has a
# caller (``SloEnforcer.unbind`` did, through ``GuestMemory.unbind``):
# the row finds what is surely unreached, not all of it.


def _paper(where: str) -> Tuple[str, str]:
    """A mechanism of the paper; ``where`` names its section or figure."""
    return ("paper", where)


def _documented(doc: str) -> Tuple[str, str]:
    """Public API that ``doc`` documents."""
    return ("documented", doc)


def _observer(test: str) -> Tuple[str, str]:
    """An invariant observer that ``test`` asserts on."""
    return ("observer", test)


#: The wire path, deleted by ROADMAP item 2 once the benchmark stops
#: naming it.
_WIRE = ("wire", "ROADMAP item 2")

#: ``module path under src/repro :: qualified name`` -> why it stays.
REACH_ALLOWLIST: Dict[str, Tuple[str, str]] = {
    "driver/driver.py::UpmemDriver.ioctl":
        _paper("Fig. 3: safe mode, the ioctl path between host processes"),
    "driver/driver.py::UpmemDriver.rank_owner":
        _observer("tests/driver/test_driver.py"),
    "driver/sysfs.py::SysFs.rank_owner": _observer("tests/driver/test_sysfs.py"),
    "hardware/bufpool.py::BufferPool.lease": _WIRE,
    "hardware/bufpool.py::BufferPool.pooled_bytes": _WIRE,
    "hardware/bufpool.py::BufferPool.free_buffers": _WIRE,
    "hardware/interleave.py::roundtrip_identity": _WIRE,
    "hardware/memory.py::BlockRecycler.on_loan":
        _observer("tests/faults/test_pool_stability.py"),
    "hardware/rank.py::Rank.is_clean": _observer("tests/virt/test_manager.py"),
    "observability/alerts.py::AlertRuleEngine.state_of":
        _observer("tests/observability/test_alerts.py"),
    "observability/export.py::save_snapshot":
        _documented("docs/observability.md"),
    "paging/pager.py::RankPager.frames_held":
        _observer("tests/paging/test_pager.py"),
    "paging/store.py::SwapStore.nr_checkpoints":
        _observer("tests/paging/test_store.py"),
    "qos/slo.py::SloEnforcer.take_migration_hints": _documented("docs/qos.md"),
    "sdk/profile.py::Profiler.segment_time":
        _paper("Fig. 8: the application-centric segments"),
    "sdk/profile.py::Profiler.op_stats": _documented("docs/observability.md"),
    "sdk/profile.py::Profiler.breakdown":
        _paper("Fig. 8: the application-centric breakdown"),
    "sdk/transfer.py::uniform_read":
        _paper("Fig. 6: a from-DPU transfer matrix, one row per DPU"),
    "virt/api_server.py::ApiServer": _paper("§3.2: the Firecracker API server"),
    "virt/frontend.py::PrefetchCache.nr_lines":
        _observer("tests/virt/test_frontend.py"),
    "virt/frontend.py::VUpmemFrontend.max_memory_overhead_per_dpu":
        _paper("§4.1 memory overhead: EXPERIMENTS.md's 1.376 MB per DPU"),
    "virt/guest_memory.py::GuestMemory.nr_bound":
        _observer("tests/virt/test_large_requests.py"),
    "virt/manager.py::Manager.repair": _documented("docs/paging.md"),
    "virt/manager.py::Manager.failed_ranks":
        _observer("tests/faults/test_recovery.py"),
    "virt/mmio.py::MmioWindow.is_live": _observer("tests/virt/test_mmio.py"),
    "virt/plans.py::PlanCache.nr_plans":
        _observer("tests/virt/test_compile_count.py"),
    "virt/virtio.py::Virtqueue.pop_avail":
        _paper("Appendix A.1: the device side of a virtqueue"),
    "virt/virtio.py::Virtqueue.push_used":
        _paper("Appendix A.1: the device side of a virtqueue"),
    "virt/virtio.py::Virtqueue.pop_used":
        _paper("Appendix A.1: the driver side of a virtqueue"),
    "virt/vm.py::Vm.shutdown":
        _paper("§3.3: a VM's teardown returns its ranks"),
}

_SCANNED = ("src", "benchmarks", "examples")


def _definitions(tree: ast.AST, prefix: str = "") -> Iterator[Tuple[str, str]]:
    """``(qualified name, name)`` of every def and class, nested too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def _names(tree: ast.AST) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


@lru_cache(maxsize=1)
def _unreached() -> Tuple[str, ...]:
    named = set()
    defined = []
    src = ROOT / "src" / "repro"
    for top in _SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            named.update(_names(tree))
            if top == "src":
                module = path.relative_to(src).as_posix()
                defined.extend((f"{module}::{qualname}", name)
                               for qualname, name in _definitions(tree))
    return tuple(key for key, name in defined
                 if name not in named
                 and not (name.startswith("__") and name.endswith("__")))


def test_every_definition_is_reached_outside_the_tests():
    stray = [key for key in _unreached() if key not in REACH_ALLOWLIST]
    assert not stray, (
        "named only by tests (delete it with its tests, or give it a "
        "caller, or allowlist it with its reason):\n" + "\n".join(stray))


def test_every_allowlisted_definition_is_still_unreached():
    unreached = set(_unreached())
    stale = [key for key in REACH_ALLOWLIST if key not in unreached]
    assert not stale, (
        "allowlisted but reached or gone; drop the entry:\n" + "\n".join(stale))


@pytest.mark.parametrize("key", sorted(REACH_ALLOWLIST))
def test_allowlist_reason_holds(key):
    kind, where = REACH_ALLOWLIST[key]
    name = key.split("::")[1].rsplit(".", 1)[-1]
    if kind == "paper":
        assert re.search(r"§\d|Fig\. \d|Appendix [A-Z]", where), where
    elif kind == "wire":
        module = key.split("::")[0]
        assert module in (ROOT / "ROADMAP.md").read_text(encoding="utf-8"), (
            f"ROADMAP.md no longer plans to delete {module}")
    else:
        assert kind in ("documented", "observer"), kind
        text = (ROOT / where).read_text(encoding="utf-8")
        assert re.search(rf"\b{re.escape(name)}\b", text), (
            f"{where} does not name {name}")
