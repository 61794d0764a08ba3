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
  the tests, unless :data:`REACH_ALLOWLIST` says why it stays;
- the option row fails when a defaulted ``__init__`` parameter of a
  class under ``src/repro``, or a defaulted field of a frozen or
  ``*Config`` dataclass there, is set by no caller, unless
  :data:`OPTION_ALLOWLIST` names the test that must set it;
- the read row fails when an attribute a class assigns as
  ``self.<name>`` is read only by the tests, unless
  :data:`READ_ALLOWLIST` says why it stays.

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
    # telemetry tools and the section 7 module are not its business:
    # the paper's path loads the recorder and the registry.
    Imports("figures-import", "repro.analysis.figures",
            ("repro.paging", "repro.qos", "repro.faults", "repro.virt.emulation",
             "repro.observability.alerts", "repro.observability.dashboard",
             "repro.observability.timeseries", "repro.observability.snapshots",
             "repro.observability.critical_path", "repro.observability.export",
             "repro.analysis.trace", "repro.virt.migration"),
            "import repro.analysis.figures loaded an extension"),
    # The CLI is what every workload imports; `repro monitor` loads the
    # monitor and its store and rules when it runs, not at import.  The
    # CLI adds itself to what the figures module loads, nothing more.
    Imports("cli-import", "repro.cli",
            ("repro.analysis.monitor", "repro.observability.alerts",
             "repro.observability.timeseries"),
            "import repro.cli loaded the monitor", max_modules=81),
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
    # The virtio-pim device is what Appendix A.1 specifies: a request is
    # one synchronous exchange, so the transferq keeps no ring and the
    # MMIO window no interrupt status (the completion IRQ is
    # Kvm.inject_irq's), and a VM is booked one way, by its VmConfig.
    Absent("no-rest-server", "src/repro/virt/api_server.py",
           "the Firecracker REST server, a second way to book a VM, is back"),
    Grep("virtio-no-rings",
         r"pop_avail|push_used|pop_used|UsedElement|raise_interrupt"
         r"|INTERRUPT_ACK|\.notifies\b",
         ("src/repro/virt/",),
         "        self.mmio.raise_interrupt()",
         "a virtqueue ring or interrupt-status register is back",
         include="*.py"),
    # Rank arbitration has one allocation order (§3.5's round-robin),
    # one eviction rule (LRU over QoS weight) and constants for the
    # tunings nothing varied; the retired forks and knobs stay retired.
    Grep("rank-arbitration-forks-retired",
         r"first_fit|coldest|DecayedWorkingSetPolicy|make_policy"
         r"|wss_half_life_s|manager_policy|emulation_slowdown|backoff_seed"
         r"|ManagerStats|MANAGER_POOL_THREADS|pool_threads",
         ("src", "tests", "benchmarks", "examples"),
         "    vpim = VPim(config, manager_policy=\"first_fit\")",
         "a retired allocation policy, eviction policy or manager knob "
         "is back", include="*.py"),
    # Every option has a caller and every field a reader: the knobs no
    # caller set and the hardware containers nothing read stay deleted.
    Absent("no-dimm-container", "src/repro/hardware/dimm.py",
           "the DIMM container, which nothing outside the tests read, is back"),
    Absent("no-chip-container", "src/repro/hardware/chip.py",
           "the PIM-chip container, which nothing outside the tests read, "
           "is back"),
    Grep("unset-knobs-retired",
         r"kick_rate_per_s|kick_burst|byte_burst|min_sessions_per_s"
         r"|session_rate|label_dict|PimChip|\bDimm\b|\.dimms\b|\.chips\b",
         ("src", "tests", "benchmarks", "examples"),
         "    QosConfig(kick_rate_per_s=100.0, kick_burst=8.0)",
         "a knob no caller set or a container nothing read is back",
         include="*.py"),
    # The manager's allocation, reset and exhausted-retry series follow
    # its `allocations` and `counts`; an inc beside them counts twice.
    Grep("manager-counters-followed",
         r"obs\.(allocations|resets|exhausted)\b(\[[^]]*\])?\.inc\(",
         ("src/repro/virt/manager.py",),
         "        self.obs.allocations[outcome].inc()",
         "the manager increments a counter beside its count again"),
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
    "sdk/profile.py::Profiler.segment_time":
        _paper("Fig. 8: the application-centric segments"),
    "sdk/profile.py::Profiler.op_stats": _documented("docs/observability.md"),
    "sdk/profile.py::Profiler.breakdown":
        _paper("Fig. 8: the application-centric breakdown"),
    "sdk/transfer.py::uniform_read":
        _paper("Fig. 6: a from-DPU transfer matrix, one row per DPU"),
    "virt/frontend.py::PrefetchCache.nr_lines":
        _observer("tests/virt/test_frontend.py"),
    "virt/frontend.py::VUpmemFrontend.max_memory_overhead_per_dpu":
        _paper("§4.1 memory overhead: EXPERIMENTS.md's 1.376 MB per DPU"),
    "virt/guest_memory.py::GuestMemory.nr_bound":
        _observer("tests/virt/test_large_requests.py"),
    "virt/manager.py::Manager.repair": _documented("docs/paging.md"),
    "virt/manager.py::Manager.failed_ranks":
        _observer("tests/faults/test_recovery.py"),
    "virt/plans.py::PlanCache.nr_plans":
        _observer("tests/virt/test_compile_count.py"),
    "virt/vm.py::Vm.shutdown":
        _paper("§3.3: a VM's teardown returns its ranks"),
}

#: ``module path under src/repro :: Class.attribute`` -> why it stays.
READ_ALLOWLIST: Dict[str, Tuple[str, str]] = {
    "hardware/dpu.py::Dpu.last_run": _observer("tests/hardware/test_dpu.py"),
    "observability/spans.py::SpanRecorder.log_dropped":
        _observer("tests/observability/test_spans.py"),
    "paging/pager.py::RankPager.frames_acquired":
        _observer("tests/paging/test_pager.py"),
    "virt/frontend.py::VUpmemFrontend.device_config":
        _paper("Appendix A.1: the config record GET_CONFIG returned"),
    "virt/plans.py::TransferPlan.replays":
        _observer("tests/virt/test_plans_property.py"),
}

_SCANNED = ("src", "benchmarks", "examples")


@lru_cache(maxsize=1)
def _scanned_trees() -> Tuple[Tuple[str, Path, ast.AST], ...]:
    """``(top, path, tree)`` of every module under :data:`_SCANNED`."""
    return tuple((top, path, ast.parse(path.read_text(encoding="utf-8")))
                 for top in _SCANNED
                 for path in sorted((ROOT / top).rglob("*.py")))


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
    for top, path, tree in _scanned_trees():
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


@pytest.mark.parametrize("key", sorted({**REACH_ALLOWLIST, **READ_ALLOWLIST}))
def test_allowlist_reason_holds(key):
    kind, where = {**REACH_ALLOWLIST, **READ_ALLOWLIST}[key]
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


# -- options -----------------------------------------------------------------------
#
# Every defaulted ``__init__`` parameter of a class under src/repro, and
# every defaulted field of a frozen or ``*Config`` dataclass there, has a
# caller under src/, benchmarks/ or examples/ that passes it by keyword or
# position (a call of the class, or of a subclass without ``__init__``,
# outside the class's own body; ``super().__init__``; ``cls(...)``) or
# assigns ``obj.<name> = ...`` outside the class's module (by name, like
# the reach row).  An option no caller sets is a constant; one that only a
# test must set is listed with that test.  apps/ and workloads/ (the PrIM
# inputs), ``CostModel`` (the price list) and ``DeviceConfig`` (Appendix
# A.1, printed by ``repro spec``) are out of scope.

_OPTION_EXEMPT = ("apps/", "workloads/", "hardware/timing.py::CostModel",
                  "driver/driver.py::DeviceConfig")

#: ``module path under src/repro :: Class.parameter`` -> the test that
#: sets it.
OPTION_ALLOWLIST: Dict[str, str] = {
    "analysis/chaos.py::ChaosConfig.kinds": "tests/faults/test_fault_pins.py",
    "core/api.py::VPim.cost": "tests/hardware/test_cost_helpers.py",
    "hardware/bufpool.py::BufferPool.max_pooled_bytes":
        "tests/hardware/test_bufpool.py",
    "observability/spans.py::SpanRecorder.max_spans_per_trace":
        "tests/observability/test_spans.py",
    "observability/spans.py::SpanRecorder.max_traces":
        "tests/observability/test_counted_traces.py",
    "observability/timeseries.py::TimeSeriesStore.max_points":
        "tests/observability/test_timeseries.py",
    "virt/emulation.py::EmulatedRankPool.max_ranks":
        "tests/virt/test_emulation.py",
    "virt/guest_memory.py::GuestMemory.arena_bytes":
        "tests/virt/test_guest_memory.py",
    "virt/manager.py::Manager.max_attempts":
        "tests/properties/test_stateful.py",
    "virt/plans.py::PlanCache.capacity": "tests/virt/test_plans_property.py",
    "virt/transfer_cache.py::ExtentDigestIndex.max_records_per_region":
        "tests/virt/test_transfer_cache.py",
}


def _dataclass(cls: ast.ClassDef) -> Optional[bool]:
    """Whether the class's ``@dataclass`` is frozen; None without one."""
    for deco in cls.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return any(k.arg == "frozen" and getattr(k.value, "value", None)
                       for k in getattr(deco, "keywords", ()))
    return None


def _options(cls: ast.ClassDef) -> Iterator[Tuple[str, Optional[int]]]:
    """``(name, position, None if keyword-only)`` of each option."""
    init = next((node for node in cls.body if isinstance(node, ast.FunctionDef)
                 and node.name == "__init__"), None)
    if init is not None:
        params = init.args.posonlyargs + init.args.args
        for arg in params[len(params) - len(init.args.defaults):]:
            yield arg.arg, params.index(arg) - 1
        yield from ((arg.arg, None) for arg, default in zip(
            init.args.kwonlyargs, init.args.kw_defaults) if default is not None)
    elif _dataclass(cls) or (_dataclass(cls) is not None
                             and cls.name.endswith("Config")):
        fields = [node for node in cls.body if isinstance(node, ast.AnnAssign)]
        yield from ((node.target.id, position) for position, node
                    in enumerate(fields) if node.value is not None)


def _calls(tree: ast.AST, owner: Optional[str] = None,
           inner: Optional[str] = None) -> Iterator[tuple]:
    """``(top-level class, innermost class, call)`` of every call."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            yield owner, inner, node
        if isinstance(node, ast.ClassDef):
            yield from _calls(node, owner or node.name, node.name)
        else:
            yield from _calls(node, owner, inner)


@lru_cache(maxsize=1)
def _unset_options() -> Tuple[str, ...]:
    src = ROOT / "src" / "repro"
    options, classes = [], {}   # class -> (first base, has its own __init__)
    for top, path, tree in _scanned_trees():
        module = path.relative_to(src).as_posix() if top == "src" else ""
        for cls in [node for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)]:
            classes[cls.name] = (
                next((getattr(b, "id", getattr(b, "attr", None))
                      for b in cls.bases), None),
                _dataclass(cls) is not None or any(
                    getattr(node, "name", None) == "__init__" for node in cls.body))
            if (module and cls in tree.body
                    and not f"{module}::{cls.name}".startswith(_OPTION_EXEMPT)):
                options.extend((module, cls.name, *opt) for opt in _options(cls))

    def runs(name: Optional[str]) -> Optional[str]:
        """The class whose ``__init__`` a call of ``name`` runs."""
        for _ in classes:
            base, has_init = classes.get(name, (None, True))
            if has_init or base is None:
                break
            name = base
        return name

    calls, stored = set(), set()
    for top, path, tree in _scanned_trees():
        where = path.relative_to(src if top == "src" else ROOT).as_posix()
        for owner, inner, call in _calls(tree):
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            if inner and callee == "cls":
                callee, owner = inner, None
            elif inner and callee == "__init__" and getattr(
                    getattr(call.func.value, "func", None), "id", None) == "super":
                callee, owner = classes[inner][0], None
            calls.add((where, owner, runs(callee), len(call.args),
                       frozenset(k.arg for k in call.keywords)))
        stored.update((where, node.attr) for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and getattr(node.value, "id", None) != "self")
    return tuple(
        f"{module}::{cls}.{name}" for module, cls, name, position in options
        if not any(callee == cls and (where, owner) != (module, cls)
                   and (name in keywords or None in keywords
                        or (position is not None and nr_args > position))
                   for where, owner, callee, nr_args, keywords in calls)
        and not any(attribute == name and where != module
                    for where, attribute in stored))


def test_every_option_is_set_by_a_caller():
    stray = [key for key in _unset_options() if key not in OPTION_ALLOWLIST]
    assert not stray, (
        "set by no caller (make it a constant, or allowlist it with the "
        "test that must set it):\n" + "\n".join(stray))


def test_every_allowlisted_option_is_still_unset():
    unset = set(_unset_options())
    stale = [key for key in OPTION_ALLOWLIST if key not in unset]
    assert not stale, (
        "allowlisted but set by a caller or gone; drop the entry:\n"
        + "\n".join(stale))


@pytest.mark.parametrize("key", sorted(OPTION_ALLOWLIST))
def test_option_allowlist_reason_holds(key):
    name = key.rsplit(".", 1)[-1]
    test = OPTION_ALLOWLIST[key]
    assert re.search(rf"\b{re.escape(name)}=",
                     (ROOT / test).read_text(encoding="utf-8")), (
        f"{test} does not set {name}")


# -- reads -------------------------------------------------------------------------
#
# Every attribute a class under src/repro assigns as ``self.<name>`` is
# read under src/, benchmarks/ or examples/ (by name, like the reach row):
# as ``.<name>`` outside an assignment target, as a string or as a
# keyword.  What only a test reads is deleted, or in READ_ALLOWLIST.


@lru_cache(maxsize=1)
def _unread() -> Tuple[str, ...]:
    src = ROOT / "src" / "repro"
    read, assigned = set(), {}
    for top, path, tree in _scanned_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx,
                                                                  ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.keyword):
                read.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
            elif top == "src" and isinstance(node, ast.ClassDef):
                module = path.relative_to(src).as_posix()
                assigned.update(
                    (f"{module}::{node.name}.{target.attr}", target.attr)
                    for method in node.body if isinstance(method, ast.FunctionDef)
                    for target in ast.walk(method)
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.ctx, ast.Store)
                    and getattr(target.value, "id", None) == "self")
    return tuple(key for key, name in assigned.items() if name not in read)


def test_every_field_is_read_outside_the_tests():
    unread = _unread()
    stray = [key for key in unread if key not in READ_ALLOWLIST]
    stale = [key for key in READ_ALLOWLIST if key not in unread]
    assert not stray, ("assigned but read only by tests (delete it, or "
                       "allowlist it with its reason):\n" + "\n".join(stray))
    assert not stale, ("allowlisted but read or gone; drop the entry:\n"
                       + "\n".join(stale))


# -- span layers -------------------------------------------------------------------


def test_every_opened_layer_has_its_own_track():
    """A layer missing from ``LAYERS`` falls to the shared fallback
    track of the Perfetto export: every literal layer a ``spans.begin``,
    ``.event`` or ``.scope`` call under ``src/`` passes is in it."""
    from repro.observability.spans import LAYERS

    opened = []
    for top, path, tree in _scanned_trees():
        for node in ast.walk(tree) if top == "src" else ():
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("begin", "event", "scope")
                    and getattr(node.func.value, "id", getattr(
                        node.func.value, "attr", None)) == "spans"):
                layer = (node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "layer"), None))
                if isinstance(layer, ast.Constant):
                    opened.append((f"{path.relative_to(ROOT).as_posix()}:"
                                   f"{node.lineno}", layer.value))
    assert {layer for _, layer in opened} >= {"session", "rank", "qos"}
    stray = [f"{where}: {layer}" for where, layer in opened
             if layer not in LAYERS]
    assert not stray, "layers not in spans.LAYERS:\n" + "\n".join(stray)
