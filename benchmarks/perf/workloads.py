"""The five benchmark workloads (closed loop, one client, one thread).

Every workload builds its inputs from the seed, hands the program only
those inputs, checks every output, and reports two clocks: *host*
seconds (``perf_counter`` / ``process_time``) and *modeled* seconds
(``SimClock``).  The model has no hardware reference in this repository:
it is unvalidated against hardware and no accuracy figure is given.

Host time is sampled with tracing off.  With ``trace=True`` a run adds
an **audit**: the same iterations under the wrappers of
:mod:`layers`, the counts each layer publishes, and one pass on the
other transport for the paper's overhead ratio and the R3 comparison
(outputs and readbacks byte-identical native vs virtualized).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.figures import (
    SIZE_PROFILES,
    machine_config,
    machine_for_dpus,
)
from repro.apps.registry import PRIM_APPS, app_by_short_name
from repro.core import VPim
from repro.observability.stats import percentile_nearest_rank
from repro.sdk.dpu_set import DpuSet

import layers

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

ALL_APPS: Tuple[str, ...] = tuple(info.short_name for info in PRIM_APPS)
#: ``prim_cold``: the apps whose first run is dominated by first-touch
#: faults and cold ``compile_plan`` (VA 2.5 s cold vs 0.17 s warm).
COLD_APPS: Tuple[str, ...] = ("VA", "GEMV", "MLP", "SEL", "SpMV", "NW")
#: ``kernel_native``: apps whose time is the tasklet interpreter and its
#: 2 KB-block MRAM traffic.  Big-transfer apps (GEMV, VA) are left out:
#: their native passes swing with allocator phases.
KERNEL_APPS: Tuple[str, ...] = ("BS", "BFS", "TS", "HST-S", "HST-L", "SpMV",
                                "SCAN-SSA", "RED")

#: Modeled totals of one session's repeated runs differ by float dust
#: (each is a difference of a growing clock); beyond this it is a change.
MODELED_REL_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """Input sizes: ``bench`` is measured, ``smoke`` only checks plumbing."""

    name: str
    profile: str         #: key of ``repro``'s ``SIZE_PROFILES``
    nr_dpus: int
    small_ops: int       #: xfer_small operations per phase
    bulk_ranks: int
    bulk_bytes: int      #: xfer_bulk bytes per DPU


SIZES: Dict[str, Sizes] = {
    "bench": Sizes("bench", "bench", 64, 2048, 4, 1 << 20),
    "smoke": Sizes("smoke", "test", 16, 256, 2, 64 << 10),
}


# -- measurement --------------------------------------------------------------

Unit = Tuple[str, float, float]     #: ``(name, wall seconds, CPU seconds)``


class Laps:
    """Cuts an iteration into named units, each timed on both host clocks.

    The units are the samples the end-to-end times are made of: this
    box's speed flips between two levels about 1.3x apart in stretches
    of 10 ms to 30 s, so only something short has a chance of running
    at one speed from start to end.
    """

    def __init__(self) -> None:
        self.units: List[Unit] = []
        self.restart()

    def restart(self) -> None:
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def lap(self, name: str) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.units.append((name, wall - self._wall, cpu - self._cpu))
        self.restart()


@dataclass
class Step:
    """What one iteration (or one app run) reports."""

    modeled: float           #: SimClock seconds of the whole iteration
    attempted: int
    failed: int = 0
    #: The iteration's units, the same names in the same order every time.
    units: List[Unit] = field(default_factory=list)
    #: The part of ``modeled`` the paper's Fig. 8 overhead compares: an
    #: app's four execution segments, without allocation and release.
    #: Left out, it is all of ``modeled``.
    modeled_exec: Optional[float] = None

    def __post_init__(self) -> None:
        if self.modeled_exec is None:
            self.modeled_exec = self.modeled


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Meter:
    """Runs steps one at a time and keeps their host-time samples.

    Garbage is collected before each step, outside the timed region.  A
    step that raises counts all its operations as failed; the traceback
    goes to stderr and the run goes on.

    The end-to-end time of an iteration is :meth:`best`: the sum, over
    the iteration's units, of each unit's **minimum** over all timed
    iterations.  What disturbs a unit only adds time, so the minimum is
    the sample the host disturbed least.  The median of whole iterations
    follows the share of the run the box spent at its slower speed: ten
    runs of one commit spread by 24-27 % on it in a busy half hour and by
    8-13 % on the sum of minima of the same samples (README, "How a time
    is taken").
    """

    def __init__(self) -> None:
        self.wall: List[float] = []     #: whole iterations, for the audit
        self.sys: List[float] = []
        self.faults: List[int] = []
        #: Per unit name: wall and CPU samples, one per iteration.
        self.units: Dict[str, Tuple[List[float], List[float]]] = {}
        self.modeled: List[float] = []
        self.modeled_exec: List[float] = []
        self.attempted = 0
        self.failed = 0

    def add_units(self, units: Sequence[Unit]) -> None:
        for name, wall, cpu in units:
            walls, cpus = self.units.setdefault(name, ([], []))
            walls.append(wall)
            cpus.append(cpu)

    def run(self, step: Callable[[int], Step], index: int, ops: int,
            recorder: Optional[layers.Recorder] = None) -> None:
        gc.collect()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            if recorder is None:
                out = step(index)
            else:
                with recorder.root(index):
                    out = step(index)
        except Exception:
            traceback.print_exc()
            self.attempted += ops
            self.failed += ops
            return
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        self.wall.append(wall)
        self.sys.append(after.ru_stime - before.ru_stime)
        self.faults.append(after.ru_minflt - before.ru_minflt)
        self.add_units(out.units)
        self.modeled.append(out.modeled)
        self.modeled_exec.append(out.modeled_exec)
        self.attempted += out.attempted
        self.failed += out.failed

    def loop(self, step: Callable[[int], Step], first: int, ops: int,
             seconds: float, min_iters: int,
             recorder: Optional[layers.Recorder] = None) -> int:
        """Steps ``first, first+1, ...`` until ``seconds`` have passed and
        ``min_iters`` have run; returns the next unused index."""
        deadline = time.perf_counter() + seconds
        index = first
        while index - first < min_iters or time.perf_counter() < deadline:
            self.run(step, index, ops, recorder)
            index += 1
        return index

    def best(self, clock: int, prefix: str = "") -> float:
        """Sum of the units' minima; ``clock`` 0 is wall, 1 is CPU.
        ``prefix`` keeps the units of one phase."""
        return sum(min(samples[clock])
                   for name, samples in self.units.items()
                   if name.startswith(prefix))

    def iterations(self, clock: int) -> List[float]:
        """Whole iterations as the sum of their units, per iteration."""
        columns = [samples[clock] for samples in self.units.values()]
        return [sum(row) for row in zip(*columns)]

    def check_modeled(self) -> None:
        """Every iteration must model the same time as the first."""
        self.attempted += 1
        first = self.modeled[0] if self.modeled else 0.0
        if not self.modeled or any(
                not math.isclose(m, first, rel_tol=MODELED_REL_TOL)
                for m in self.modeled):
            print(f"modeled time varies between iterations: "
                  f"{sorted(set(self.modeled))}", file=sys.stderr)
            self.failed += 1


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class Outcome:
    """One workload run, ready to print."""

    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    modeled_time_s: float
    modeled_digest: str
    #: ``(q1, median, q3, n)`` per printed timing.
    timings: Dict[str, Tuple[float, float, float, int]]
    layer: Dict[str, float] = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest_modeled(rows: Sequence[Tuple[str, float]]) -> str:
    """sha256 over named modeled totals, floats rendered exactly."""
    text = "\n".join(f"{name}={float(value).hex()}" for name, value in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def digest_output(obj: object) -> str:
    """Content hash of an app output or readback, whatever its shape."""
    h = hashlib.sha256()

    def feed(x: object) -> None:
        if isinstance(x, np.ndarray):
            h.update(f"nd:{x.dtype.str}:{x.shape}:".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(f"seq:{len(x)}:".encode())
            for item in x:
                feed(item)
        elif isinstance(x, dict):
            h.update(f"map:{len(x)}:".encode())
            for key in sorted(x, key=repr):
                feed(key)
                feed(x[key])
        else:
            h.update(f"{type(x).__name__}:{x!r};".encode())

    feed(obj)
    return h.hexdigest()


# -- sessions and apps ----------------------------------------------------------

def open_session(transport: str, nr_dpus: int, nr_ranks: int = 0):
    """A fresh machine and one session on it: ``(vpim, session)``."""
    config = (machine_config(nr_ranks) if nr_ranks
              else machine_for_dpus(nr_dpus))
    vpim = VPim(config)
    if transport == "native":
        return vpim, vpim.native_session()
    return vpim, vpim.vm_session(nr_vupmem=len(config.ranks))


def build_app(name: str, sizes: Sizes, seed: int):
    params = dict(SIZE_PROFILES[sizes.profile][name])
    return app_by_short_name(name).cls(nr_dpus=sizes.nr_dpus, seed=seed,
                                       **params)


def run_app(session, app, capture: Optional[Dict[str, str]] = None) -> Step:
    """One verified ``session.run``; ``capture`` also keeps the output's
    digest, taken where the session hands the output to ``verify``."""
    if capture is not None:
        verify = app.verify

        def capturing(output):
            capture[app.short_name] = digest_output(output)
            return verify(output)

        app.verify = capturing
    laps = Laps()
    try:
        report = session.run(app)
    finally:
        if capture is not None:
            del app.verify
    laps.lap(app.short_name)
    return Step(modeled=report.total_time, attempted=1,
                failed=0 if report.verified else 1, units=laps.units,
                modeled_exec=report.segments_total)


# -- counts the layers publish ----------------------------------------------------

_REGISTRY_COUNTERS = {
    "plan_hits": ("repro_plan_cache_hits_total", None),
    "plan_misses": ("repro_plan_cache_misses_total", None),
    "prefetch_hits": ("repro_frontend_prefetch_lookups_total",
                      ("result", "hit")),
    "prefetch_misses": ("repro_frontend_prefetch_lookups_total",
                        ("result", "miss")),
    "batched_writes": ("repro_frontend_batched_writes_total", None),
    "write_requests": ("repro_frontend_requests_total",
                       ("kind", "write_rank")),
    "backend_requests": ("repro_backend_requests_total", None),
    "xlb_hits": ("repro_xlb_hits_total", None),
    "xlb_misses": ("repro_xlb_misses_total", None),
    "rank_bytes": ("repro_rank_xfer_bytes_total", None),
}
COUNTER_NAMES = tuple(_REGISTRY_COUNTERS) + (
    "vmexits", "pool_reuse", "pool_alloc")


def read_counters(vpim, session) -> Dict[str, float]:
    """Cumulative counts from public state: the machine's metric
    registry, the VM's KVM stats, the backends' buffer pools."""
    registry = vpim.machine.metrics
    out = dict.fromkeys(COUNTER_NAMES, 0.0)
    for key, (name, label) in _REGISTRY_COUNTERS.items():
        if name not in registry:
            continue
        family = registry.get(name)
        if label is None:
            out[key] = family.total()
        else:
            out[key] = sum(child.value for labels, child in family.samples()
                           if labels.get(label[0]) == label[1])
    if session.vm is not None:
        out["vmexits"] = float(session.vm.kvm.stats.vmexits)
        for device in session.vm.devices:
            out["pool_reuse"] += device.backend.pool.reuse_count
            out["pool_alloc"] += device.backend.pool.alloc_count
    return out


def add_delta(total: Dict[str, float], before: Dict[str, float],
              after: Dict[str, float]) -> None:
    for key in COUNTER_NAMES:
        total[key] = total.get(key, 0.0) + after[key] - before[key]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def calibrate_memcpy() -> float:
    """GB/s of a bulk numpy copy.  Recorded, never used to normalise:
    gating compares two commits on one box."""
    src = np.ones(32 << 20, dtype=np.uint8)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        dst[:] = src
        best = min(best, time.perf_counter() - start)
    return src.size / best / 1e9


@dataclass
class Audit:
    """What the traced iterations and the other transport produced."""

    recorder: layers.Recorder = field(default_factory=layers.Recorder)
    iterations: int = 0
    traced_wall_s: float = 0.0      #: harness clock around traced steps
    untraced_wall_s: float = 0.0    #: the same steps with tracing off
    counters: Dict[str, float] = field(default_factory=dict)
    modeled_vm: float = 0.0         #: ``Step.modeled_exec``, virtualized
    modeled_native: float = 0.0     #: the same inputs, native
    r3_mismatches: int = 0
    sys_s: float = 0.0              #: kernel time of a traced iteration
    minor_faults: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def spans(self) -> List[layers.Span]:
        """Every span is closed once the traced steps have returned."""
        return self.recorder.spans


def layer_metrics(audit: Audit, import_s: float,
                  modeled_time_s: float) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``, per iteration."""
    spans = audit.spans
    n = max(1, audit.iterations)
    totals = layers.layer_totals(spans)
    out: Dict[str, float] = {}
    for layer in layers.LAYERS:
        self_s, calls = totals.get(layer, (0.0, 0))
        out[f"{layer}.self_s"] = self_s / n
        out[f"{layer}.calls"] = calls / n
    # An SDK op is a DpuSet call made from outside DpuSet.
    sdk_ops = sum(1 for s in spans if s[0] == "sdk.dpu_set"
                  and (s[4] < 0 or spans[s[4]][0] != "sdk.dpu_set"))
    c = audit.counters
    get = lambda key: c.get(key, 0.0)  # noqa: E731
    rec = audit.recorder
    kernel_s = totals.get("sdk.kernel", (0.0, 0))[0]
    out.update({
        "virt.plans.hit_rate": ratio(get("plan_hits"),
                                     get("plan_hits") + get("plan_misses")),
        "virt.plans.compiles": sum(1 for s in spans
                                   if s[1] == "compile_plan") / n,
        "virt.frontend.prefetch_hit_rate": ratio(
            get("prefetch_hits"),
            get("prefetch_hits") + get("prefetch_misses")),
        "virt.frontend.batched_write_share": ratio(
            get("batched_writes"),
            get("batched_writes") + get("write_requests")),
        "virt.backend.requests_per_op": ratio(get("backend_requests"),
                                              sdk_ops),
        "virt.kvm.vmexits_per_op": ratio(get("vmexits"), sdk_ops),
        "virt.backend.xlb_hit_rate": ratio(
            get("xlb_hits"), get("xlb_hits") + get("xlb_misses")),
        "hardware.bufpool.reuse_rate": ratio(
            get("pool_reuse"), get("pool_reuse") + get("pool_alloc")),
        "sdk.kernel.sim_instr_per_s": ratio(rec.kernel_instructions,
                                            kernel_s),
        "sdk.kernel.dma_ops": rec.kernel_dma_ops / n,
        "hardware.memory.bytes_moved": (get("rank_bytes")
                                        + rec.kernel_dma_bytes) / n,
        "host.sys_s": audit.sys_s,
        "host.minor_faults": audit.minor_faults,
        "host.import_s": import_s,
        "host.memcpy_gbps": calibrate_memcpy(),
        "host.nproc": float(os.cpu_count() or 1),
        "trace.overhead_x": ratio(audit.traced_wall_s / n,
                                  audit.untraced_wall_s),
        "trace.coverage": ratio(sum(t[0] for t in totals.values()),
                                audit.traced_wall_s),
        "modeled.time_s": modeled_time_s,
        "modeled.overhead_x": ratio(audit.modeled_vm, audit.modeled_native),
        "r3.mismatches": float(audit.r3_mismatches),
    })
    for key in ("xfer.write_s", "xfer.read_s", "xfer.write_mb_per_s",
                "xfer.read_mb_per_s", "sdk.dpu_set.write_op_us_p50",
                "sdk.dpu_set.write_op_us_p99", "sdk.dpu_set.read_op_us_p50",
                "sdk.dpu_set.read_op_us_p99"):
        out[key] = audit.extra.get(key, 0.0)
    for app in ALL_APPS:
        out[f"apps.{app}.wall_ms"] = audit.extra.get(f"apps.{app}.wall_ms",
                                                     0.0)
    return out


def check_audit(audit: Audit, meter: Meter, virtualized_arm: bool) -> None:
    """Count the audit's own invariants as operations that can fail."""
    spans = audit.spans
    checks = {
        # Layer self times must add up to the traced wall within 1 %.
        "self times cover the traced wall": abs(
            ratio(layers.root_seconds(spans), audit.traced_wall_s) - 1.0
        ) <= 0.01,
        "outputs identical on both transports (R3)":
            audit.r3_mismatches == 0,
        "no virt span on a native arm": virtualized_arm or not any(
            s[0].startswith("virt.") for s in spans),
    }
    for what, ok in checks.items():
        meter.attempted += 1
        if not ok:
            print(f"audit check failed: {what}", file=sys.stderr)
            meter.failed += 1


def count_mismatches(a: Dict[str, str], b: Dict[str, str]) -> int:
    """Keys whose digests differ, or that only one side has (R3)."""
    return sum(1 for key in set(a) | set(b) if a.get(key) != b.get(key))


def write_trace(name: str, audit: Audit) -> None:
    """Spans of the audit iterations, one row each, columns named once."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace_{name}.json", "w") as fh:
        json.dump({"workload": name, "columns": layers.SPAN_COLUMNS,
                   "iterations": audit.iterations,
                   "spans": audit.spans}, fh)


def timing_rows(meter: Meter) -> Dict[str, Tuple[float, float, float, int]]:
    """Whole iterations, for the reader: the gated numbers are
    :meth:`Meter.best`."""
    rows = {"iteration_wall_s": meter.iterations(0),
            "iteration_cpu_s": meter.iterations(1)}
    return {key: quartiles(vals) + (len(vals),)
            for key, vals in rows.items() if vals}


# -- loop workloads: xfer_small, xfer_bulk, kernel_native ---------------------------

class LoopWorkload:
    """One long-lived set-up, then identical iterations until time is up.

    ``transport`` is the timed arm; the audit also runs the other one.
    Set-up is the inputs, machine, session and warm-up iterations, done
    ``setup_repeats`` times (the last one is kept).  It is cut into units
    as an iteration is - the inputs, the opening, the units of each
    warm-up iteration - and counted as the sum of their minima over the
    repeats, for the reason :class:`Meter` gives.
    """

    name = ""
    transport = "vm"
    #: The first iteration faults pages in and compiles plans; from the
    #: second on every iteration models the same time, and a slow one
    #: among the timed ones cannot move a minimum.
    warmups = 1
    min_iters = 3
    setup_repeats = 6
    ops_per_iter = 1        #: operations one step attempts

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    # Subclass interface.
    def build_inputs(self, laps: Laps) -> None:
        """Builds the inputs from the seed and closes a lap after each."""
        raise NotImplementedError

    def open(self, transport: str):
        """Returns the state ``step``/``pairs``/``close`` take."""
        raise NotImplementedError

    def step(self, state, index: int,
             capture: Optional[Dict[str, str]] = None) -> Step:
        raise NotImplementedError

    def pairs(self, state) -> List[Tuple[object, object]]:
        """``(vpim, session)`` pairs whose counters the audit reads."""
        raise NotImplementedError

    def close(self, state) -> None:
        raise NotImplementedError

    def audit_extras(self, state, meter: Meter, audit: Audit) -> None:
        """Workload-specific per-layer values (default: none)."""

    # Template.
    def _set_up(self, capture: Optional[Dict[str, str]]):
        """One set-up: ``(state, its units)``."""
        laps = Laps()
        self.build_inputs(laps)
        state = self.open(self.transport)
        laps.lap("open")
        units = laps.units
        for index in range(self.warmups):
            out = self.step(state, index, capture if index == 0 else None)
            if out.failed:
                raise RuntimeError(f"{self.name}: warm-up iteration failed")
            units += [(f"warm{index}.{name}", wall, cpu)
                      for name, wall, cpu in out.units]
        return state, units

    def run(self, seconds: float, trace: bool, import_s: float) -> Outcome:
        captured: Dict[str, str] = {}
        setup = Meter()
        state = None
        for _ in range(self.setup_repeats):
            if state is not None:
                self.close(state)
                state = None
                gc.collect()
            state, units = self._set_up(captured if trace else None)
            setup.add_units(units)

        meter = Meter()
        step = lambda i: self.step(state, i)  # noqa: E731
        nxt = meter.loop(step, self.warmups, self.ops_per_iter,
                         seconds * (0.4 if trace else 1.0), self.min_iters)
        meter.check_modeled()
        modeled = meter.modeled[0] if meter.modeled else 0.0
        layer: Dict[str, float] = {}
        if trace:
            audit = self._audit(state, meter, nxt, seconds * 0.3, captured)
            layer = layer_metrics(audit, import_s, modeled)
            write_trace(self.name, audit)
        self.close(state)
        return Outcome(
            setup_s=import_s + setup.best(0),
            wall_s=meter.best(0), cpu_s=meter.best(1),
            peak_rss_mb=peak_rss_mb(),
            attempted=meter.attempted, failed=meter.failed,
            modeled_time_s=modeled,
            modeled_digest=digest_modeled([(self.name, modeled)]),
            timings=timing_rows(meter), layer=layer)

    def _audit(self, state, meter: Meter, first: int, seconds: float,
               captured: Dict[str, str]) -> Audit:
        """Traced iterations from index ``first``, then the other
        transport on the same inputs and iteration indices."""
        audit = Audit(untraced_wall_s=median(meter.wall))
        self.audit_extras(state, meter, audit)
        traced = Meter()
        before = [read_counters(*pair) for pair in self.pairs(state)]
        with layers.tracing(audit.recorder):
            traced.loop(lambda i: self.step(state, i), first,
                        self.ops_per_iter, seconds, 1, audit.recorder)
        for pair, was in zip(self.pairs(state), before):
            add_delta(audit.counters, was, read_counters(*pair))
        audit.iterations = len(traced.wall)
        audit.traced_wall_s = sum(traced.wall)
        audit.sys_s = median(traced.sys)
        audit.minor_faults = median(traced.faults)
        meter.attempted += traced.attempted
        meter.failed += traced.failed

        other = self.open("native" if self.transport == "vm" else "vm")
        other_capture: Dict[str, str] = {}
        for index in range(self.warmups):
            self.step(other, index, other_capture if index == 0 else None)
        other_exec = self.step(other, self.warmups).modeled_exec
        self.close(other)
        own_exec = meter.modeled_exec[0] if meter.modeled_exec else 0.0
        audit.modeled_vm, audit.modeled_native = (
            (own_exec, other_exec) if self.transport == "vm"
            else (other_exec, own_exec))
        audit.r3_mismatches = count_mismatches(captured, other_capture)
        check_audit(audit, meter, self.transport == "vm")
        return audit


@dataclass
class XferState:
    vpim: object
    session: object
    dpus: object


class XferWorkload(LoopWorkload):
    """Shared by the two transfer workloads: one DPU set, write then read."""

    nr_ranks = 0

    @property
    def nr_dpus(self) -> int:
        return self.sizes.nr_dpus * max(1, self.nr_ranks)

    def open(self, transport: str) -> XferState:
        vpim, session = open_session(transport, self.nr_dpus, self.nr_ranks)
        return XferState(vpim, session, DpuSet(session.transport,
                                               self.nr_dpus))

    def pairs(self, state: XferState):
        return [(state.vpim, state.session)]

    def close(self, state: XferState) -> None:
        state.dpus.free()

    def bytes_per_phase(self) -> int:
        raise NotImplementedError

    def audit_extras(self, state, meter: Meter, audit: Audit) -> None:
        write_s, read_s = meter.best(0, "write"), meter.best(0, "read")
        mb = self.bytes_per_phase() / 1e6
        audit.extra.update({
            "xfer.write_s": write_s, "xfer.read_s": read_s,
            "xfer.write_mb_per_s": ratio(mb, write_s),
            "xfer.read_mb_per_s": ratio(mb, read_s),
        })


class XferSmall(XferWorkload):
    """Many small single-DPU copies: transitions, not bytes, are the cost."""

    name = "xfer_small"
    SIZES_BYTES = (64, 512, 4096, 8192, 16384)
    TRIPLES_PER_DPU = 3
    SLOT = 16 << 10
    PAYLOAD_SETS = 4
    #: Operations per unit: 5-15 ms, short against the box's stretches
    #: and long against the two clock reads that close it.
    CHUNK = 128

    def build_inputs(self, laps: Laps) -> None:
        rng = np.random.default_rng(self.seed)
        nr_dpus = self.nr_dpus
        nr_triples = nr_dpus * self.TRIPLES_PER_DPU
        # Sizes in equal shares, so every seed moves the same bytes; two
        # of each DPU's three slots share a prefetch line, one does not.
        sizes = np.resize(np.array(self.SIZES_BYTES), nr_triples)
        rng.shuffle(sizes)
        base = rng.integers(0, 1024, nr_dpus)
        triples = []
        for dpu in range(nr_dpus):
            for j, slot in enumerate((0, 1, 64)):
                offset = int(base[dpu] + slot) * self.SLOT
                triples.append((dpu, offset,
                                int(sizes[dpu * self.TRIPLES_PER_DPU + j])))
        # One seeded permutation of the triples, repeated: the batch
        # buffer then flushes the same shapes on every lap, so the whole
        # schedule stays under the plan cache's 512 shapes.
        lap = rng.permutation(nr_triples)
        order = np.resize(lap, self.sizes.small_ops)
        self.schedule = [triples[k] + (int(k),) for k in order]
        self.chunks = [self.schedule[i:i + self.CHUNK]
                       for i in range(0, len(self.schedule), self.CHUNK)]
        self.payloads = [
            [rng.integers(0, 256, size, dtype=np.uint8)
             for (_, _, size) in triples]
            for _ in range(self.PAYLOAD_SETS)]
        self.ops_per_iter = 2 * len(self.schedule)
        laps.lap("inputs")

    def bytes_per_phase(self) -> int:
        return sum(size for (_, _, size, _) in self.schedule)

    def step(self, state: XferState, index: int,
             capture: Optional[Dict[str, str]] = None,
             op_ns: Optional[Tuple[List[int], List[int]]] = None) -> Step:
        dpus = state.dpus
        payloads = self.payloads[index % len(self.payloads)]
        clock = state.vpim.clock
        modeled0 = clock.now
        tick = time.perf_counter_ns
        laps = Laps()
        for number, chunk in enumerate(self.chunks):
            if op_ns is None:
                for dpu, offset, _size, k in chunk:
                    dpus.copy_to_mram(dpu, offset, payloads[k])
            else:
                for dpu, offset, _size, k in chunk:
                    a = tick()
                    dpus.copy_to_mram(dpu, offset, payloads[k])
                    op_ns[0].append(tick() - a)
            laps.lap(f"write{number:02d}")
        failed = 0
        readback = hashlib.sha256() if capture is not None else None
        for number, chunk in enumerate(self.chunks):
            for dpu, offset, size, k in chunk:
                if op_ns is None:
                    got = dpus.copy_from_mram(dpu, offset, size)
                else:
                    a = tick()
                    got = dpus.copy_from_mram(dpu, offset, size)
                    op_ns[1].append(tick() - a)
                if not np.array_equal(got, payloads[k]):
                    failed += 1
                if readback is not None:
                    readback.update(got.tobytes())
            laps.lap(f"read{number:02d}")
        if capture is not None:
            capture["readback"] = readback.hexdigest()
        return Step(modeled=clock.now - modeled0,
                    attempted=2 * len(self.schedule), failed=failed,
                    units=laps.units)

    def audit_extras(self, state, meter: Meter, audit: Audit) -> None:
        super().audit_extras(state, meter, audit)
        # Per-op latency from two more untraced iterations: one clock
        # pair per op, so they are kept out of the timed samples.
        op_ns: Tuple[List[int], List[int]] = ([], [])
        for index in range(2):
            out = self.step(state, index, op_ns=op_ns)
            meter.attempted += out.attempted
            meter.failed += out.failed
        for phase, samples in zip(("write", "read"), op_ns):
            audit.extra[f"sdk.dpu_set.{phase}_op_us_p50"] = (
                percentile_nearest_rank(samples, 50) / 1e3)
            # p99 only when at least ten samples lie beyond it.
            if len(samples) >= 1000:
                audit.extra[f"sdk.dpu_set.{phase}_op_us_p99"] = (
                    percentile_nearest_rank(samples, 99) / 1e3)


class XferBulk(XferWorkload):
    """Fig. 15/16 shape: 1 MB per DPU over four ranks, bytes are the cost."""

    name = "xfer_bulk"
    NR_BUFFERS = 8

    @property
    def nr_ranks(self) -> int:
        return self.sizes.bulk_ranks

    def build_inputs(self, laps: Laps) -> None:
        rng = np.random.default_rng(self.seed)
        self.buffers = [rng.integers(0, 256, self.sizes.bulk_bytes,
                                     dtype=np.uint8)
                        for _ in range(self.NR_BUFFERS)]
        self.ops_per_iter = 2 * self.nr_dpus
        laps.lap("inputs")

    def bytes_per_phase(self) -> int:
        return self.nr_dpus * self.sizes.bulk_bytes

    def step(self, state: XferState, index: int,
             capture: Optional[Dict[str, str]] = None) -> Step:
        nr = self.NR_BUFFERS
        sources = [self.buffers[(dpu + index) % nr]
                   for dpu in range(self.nr_dpus)]
        clock = state.vpim.clock
        modeled0 = clock.now
        laps = Laps()
        state.dpus.push_to_mram(0, sources)
        laps.lap("write")
        # ``got`` dies with this frame: holding results across
        # iterations made reads alternate between two speeds.
        got = state.dpus.push_from_mram(0, self.sizes.bulk_bytes)
        laps.lap("read")
        failed = sum(1 for out, src in zip(got, sources)
                     if not np.array_equal(out, src))
        laps.lap("read.compare")
        if capture is not None:
            capture["readback"] = digest_output(got)
        return Step(modeled=clock.now - modeled0,
                    attempted=2 * self.nr_dpus, failed=failed,
                    units=laps.units)


class KernelNative(LoopWorkload):
    """Eight kernel-bound apps on the native transport: no ``virt`` code."""

    name = "kernel_native"
    transport = "native"
    setup_repeats = 3       #: a set-up is 3 s here, under 1 s elsewhere

    def build_inputs(self, laps: Laps) -> None:
        self.apps = []
        for name in KERNEL_APPS:
            self.apps.append(build_app(name, self.sizes, self.seed))
            laps.lap(f"inputs.{name}")
        self.ops_per_iter = len(self.apps)

    def open(self, transport: str):
        # One machine and one session for the eight apps, which allocate
        # and free its rank in turn.  A machine per app modeled the same
        # time and ran as fast, but every set-up dealt the pooled MRAM
        # extents to other DPUs, which touch other pages of them: peak
        # RSS ended at 885, 997, 1036 or 1148 MB at random (611 MB here)
        # and grew with every repeat of the set-up.
        return open_session(transport, self.sizes.nr_dpus)

    def pairs(self, state):
        return [state]

    def close(self, state) -> None:
        pass

    def step(self, state, index: int,
             capture: Optional[Dict[str, str]] = None) -> Step:
        _vpim, session = state
        total = Step(modeled=0.0, attempted=0)
        for app in self.apps:
            out = run_app(session, app, capture)
            total.modeled += out.modeled
            total.modeled_exec += out.modeled_exec
            total.attempted += out.attempted
            total.failed += out.failed
            total.units += out.units
        return total


# -- prim_warm -------------------------------------------------------------------

class PrimWarm:
    """The 16 PrIM apps, each warmed in its own fresh VM session.

    Per app: fresh ``VPim`` + VM session and one untimed run (set-up),
    then timed runs; the session is dropped before the next app, so at
    most one machine is resident.  An app run is a unit: the workload's
    iteration time is the sum over apps of each app's fastest run.
    """

    name = "prim_warm"
    min_runs = 3

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def _one_app(self, app, pos: int, seconds: float, trace: bool,
                 audit: Audit, captured: Dict[str, str],
                 ) -> Tuple[Meter, float]:
        """Set up, time and (if asked) audit one app: ``(meter, setup_s)``."""
        start = time.perf_counter()
        vpim, session = open_session("vm", self.sizes.nr_dpus)
        warm = run_app(session, app, captured if trace else None)
        setup_s = time.perf_counter() - start
        if warm.failed:
            raise RuntimeError(f"{app.short_name}: warm-up run failed")
        meter = Meter()
        step = lambda _i: run_app(session, app)  # noqa: E731
        meter.loop(step, 1, 1, seconds, 1 if trace else self.min_runs)
        meter.check_modeled()
        if trace:
            traced = Meter()
            before = read_counters(vpim, session)
            with layers.tracing(audit.recorder):
                traced.run(step, pos, 1, audit.recorder)
            add_delta(audit.counters, before, read_counters(vpim, session))
            audit.traced_wall_s += sum(traced.wall)
            audit.sys_s += sum(traced.sys)
            audit.minor_faults += sum(traced.faults)
            meter.attempted += traced.attempted
            meter.failed += traced.failed
            audit.extra[f"apps.{app.short_name}.wall_ms"] = (
                meter.best(0) * 1e3)
        return meter, setup_s

    def run(self, seconds: float, trace: bool, import_s: float) -> Outcome:
        start = time.perf_counter()
        apps = [build_app(name, self.sizes, self.seed) for name in ALL_APPS]
        setup_s = import_s + time.perf_counter() - start

        per_app: Dict[str, Meter] = {}
        audit = Audit(iterations=1)
        captured: Dict[str, str] = {}
        budget = seconds * (0.4 if trace else 1.0)
        spent = 0.0
        for pos, app in enumerate(apps):
            # An equal share of what is left of the budget: cheap apps
            # collect more samples, dear ones still get ``min_runs``.
            share = max(0.0, budget - spent) / (len(apps) - pos)
            meter, app_setup = self._one_app(app, pos, share, trace, audit,
                                             captured)
            per_app[app.short_name] = meter
            setup_s += app_setup
            spent += sum(meter.wall)
            gc.collect()

        total = Meter()
        total.attempted = sum(m.attempted for m in per_app.values())
        total.failed = sum(m.failed for m in per_app.values())
        first = lambda xs: xs[0] if xs else 0.0  # noqa: E731
        modeled_rows = [(name, first(m.modeled))
                        for name, m in per_app.items()]
        modeled = sum(value for _, value in modeled_rows)
        wall_s = sum(m.best(0) for m in per_app.values())
        passes = [quartiles(m.wall) for m in per_app.values() if m.wall]
        layer: Dict[str, float] = {}
        if trace:
            audit.untraced_wall_s = sum(q[1] for q in passes)
            audit.modeled_vm = sum(first(m.modeled_exec)
                                   for m in per_app.values())
            native: Dict[str, str] = {}
            for app in apps:
                session = open_session("native", self.sizes.nr_dpus)[1]
                audit.modeled_native += run_app(session, app,
                                                native).modeled_exec
                gc.collect()
            audit.r3_mismatches = count_mismatches(captured, native)
            check_audit(audit, total, True)
            layer = layer_metrics(audit, import_s, modeled)
            write_trace(self.name, audit)
        return Outcome(
            setup_s=setup_s, wall_s=wall_s,
            cpu_s=sum(m.best(1) for m in per_app.values()),
            peak_rss_mb=peak_rss_mb(), attempted=total.attempted,
            failed=total.failed, modeled_time_s=modeled,
            modeled_digest=digest_modeled(modeled_rows),
            timings={"iteration_wall_s": (
                sum(q[0] for q in passes), sum(q[1] for q in passes),
                sum(q[2] for q in passes),
                min(len(m.wall) for m in per_app.values()))},
            layer=layer)


# -- prim_cold -------------------------------------------------------------------

def cold_child(seed: int, sizes: Sizes, transport: str, trace: bool,
               import_s: float) -> dict:
    """The body of one ``prim_cold`` iteration, run in a fresh process:
    build the inputs, then one verified run per app, each in a fresh
    session.  Returns what the parent needs, as JSON-able values."""
    audit = Audit(iterations=1)
    captured: Dict[str, str] = {}
    meter = Meter()

    def body(_index: int) -> Step:
        total = Step(modeled=0.0, attempted=0)
        apps = [build_app(name, sizes, seed) for name in COLD_APPS]
        for app in apps:
            vpim, session = open_session(transport, sizes.nr_dpus)
            before = read_counters(vpim, session)
            out = run_app(session, app, captured if trace else None)
            add_delta(audit.counters, before, read_counters(vpim, session))
            total.modeled += out.modeled
            total.modeled_exec += out.modeled_exec
            total.attempted += out.attempted
            total.failed += out.failed
        return total

    if trace:
        with layers.tracing(audit.recorder):
            meter.run(body, 0, len(COLD_APPS), audit.recorder)
    else:
        meter.run(body, 0, len(COLD_APPS))
    result = {
        "attempted": meter.attempted, "failed": meter.failed,
        "modeled": median(meter.modeled),
        "modeled_exec": median(meter.modeled_exec),
        "rss_mb": peak_rss_mb(), "digests": captured,
    }
    if trace and transport == "vm":
        audit.traced_wall_s = sum(meter.wall)
        audit.sys_s = sum(meter.sys)
        audit.minor_faults = sum(meter.faults)
        check_audit(audit, meter, True)
        result.update(attempted=meter.attempted, failed=meter.failed)
        result["layer"] = layer_metrics(audit, import_s, result["modeled"])
        write_trace("prim_cold", audit)
    return result


class PrimCold:
    """Each iteration is a fresh process: import, inputs, six cold runs.

    A child's time is the parent's spawn-to-exit clock.  The first child
    is discarded (set-up): it ran twice as long as the rest whenever
    other processes had run since the last child.

    A child is the one unit of its iteration, so ``wall_s`` and ``cpu_s``
    are the fastest child's.  Besides the box's two speeds, a cold child
    spends 0.5 s in the kernel faulting pages in, or 1.0-1.6 s when the
    kernel has to compact memory for the huge pages numpy asks for, at
    random; with four children a run their median swung by 16-20 %
    between runs of one commit.
    """

    name = "prim_cold"
    min_children = 3
    CHILD_TIMEOUT_S = 150

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def spawn(self, meter: Meter, transport: str = "vm",
              trace: bool = False) -> dict:
        """Run one child to its end; its samples go to ``meter``."""
        cmd = [sys.executable, str(HERE / "run.py"), "--cold-child",
               transport, "--seed", str(self.seed), "--sizes",
               self.sizes.name, "--trace", "1" if trace else "0"]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        # On a timeout ``run`` kills the child and waits for it to end.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=self.CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            print(f"prim_cold child exited {proc.returncode}",
                  file=sys.stderr)
            meter.attempted += len(COLD_APPS)
            meter.failed += len(COLD_APPS)
            return {}
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        meter.wall.append(wall)
        meter.add_units([("child", wall,
                          (after.ru_utime - before.ru_utime)
                          + (after.ru_stime - before.ru_stime))])
        meter.sys.append(after.ru_stime - before.ru_stime)
        meter.modeled.append(child["modeled"])
        meter.modeled_exec.append(child["modeled_exec"])
        meter.attempted += child["attempted"]
        meter.failed += child["failed"]
        return child

    def run(self, seconds: float, trace: bool, import_s: float) -> Outcome:
        start = time.perf_counter()
        discarded = Meter()
        self.spawn(discarded)
        if discarded.failed:
            raise RuntimeError("prim_cold: the discarded first child failed")
        setup_s = import_s + time.perf_counter() - start

        meter = Meter()
        rss: List[float] = []
        deadline = time.perf_counter() + seconds * (0.3 if trace else 1.0)
        min_children = 1 if trace else self.min_children
        while (len(meter.wall) < min_children
               or time.perf_counter() < deadline):
            child = self.spawn(meter)
            if not child:
                break
            rss.append(child["rss_mb"])
        meter.check_modeled()
        modeled = meter.modeled[0] if meter.modeled else 0.0
        layer: Dict[str, float] = {}
        if trace:
            traced, native = Meter(), Meter()
            vm_child = self.spawn(traced, "vm", trace=True)
            native_child = self.spawn(native, "native", trace=True)
            for extra in (traced, native):
                meter.attempted += extra.attempted
                meter.failed += extra.failed
            if vm_child and native_child:
                layer = vm_child["layer"]
                mismatches = count_mismatches(vm_child["digests"],
                                              native_child["digests"])
                meter.attempted += 1
                meter.failed += 1 if mismatches else 0
                layer["r3.mismatches"] = float(mismatches)
                layer["modeled.overhead_x"] = ratio(
                    vm_child["modeled_exec"], native_child["modeled_exec"])
                # Both walls are the parent's spawn-to-exit clock.
                layer["trace.overhead_x"] = ratio(median(traced.wall),
                                                  median(meter.wall))
        return Outcome(
            setup_s=setup_s, wall_s=meter.best(0),
            cpu_s=meter.best(1), peak_rss_mb=median(rss),
            attempted=meter.attempted, failed=meter.failed,
            modeled_time_s=modeled,
            modeled_digest=digest_modeled([(self.name, modeled)]),
            timings=timing_rows(meter), layer=layer)


WORKLOADS = {cls.name: cls for cls in
             (PrimWarm, PrimCold, XferSmall, XferBulk, KernelNative)}
