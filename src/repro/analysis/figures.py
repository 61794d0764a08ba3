"""Experiment runners: one function per evaluation figure.

Every function takes a ``profile`` ("test" for CI-sized runs, "bench"
for the benchmark harness) selecting workload sizes, and returns plain
data structures the benchmarks print and the shape tests assert on.

A fresh machine/VPim is built per run so experiments never inherit rank
state (a released rank sits in NANA for ~600 ms of simulated time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.micro.checksum import Checksum
from repro.apps.micro.index_search import IndexSearch
from repro.apps.prim.nw import NeedlemanWunsch
from repro.apps.registry import PRIM_APPS, app_by_short_name
from repro.config import MachineConfig, RankConfig
from repro.core import VPim
from repro.core.results import ExecutionReport
from repro.observability import MetricsRegistry, SpanRecorder
from repro.sdk.dpu_set import DpuSet
from repro.workloads.wikipedia import SyntheticCorpus


def machine_config(nr_ranks: int, dpus_per_rank: int = 64,
                   first_rank_dpus: Optional[int] = None) -> MachineConfig:
    """Build a machine; ``first_rank_dpus`` models the testbed's 60-DPU rank."""
    ranks = []
    for i in range(nr_ranks):
        n = first_rank_dpus if (i == 0 and first_rank_dpus) else dpus_per_rank
        ranks.append(RankConfig(i, n))
    return MachineConfig(host_cores=16, host_dram_bytes=16 << 30, ranks=ranks)


def machine_for_dpus(nr_dpus: int) -> MachineConfig:
    """Smallest whole-rank machine covering ``nr_dpus``, paper-style.

    60 DPUs lands on the testbed's first rank; 480 uses all 8 ranks
    (rank 0 with 60 functional DPUs), matching Section 5.1.
    """
    if nr_dpus <= 60:
        return machine_config(1, dpus_per_rank=nr_dpus)
    if nr_dpus == 480:
        return machine_config(8, dpus_per_rank=60)
    nr_ranks = -(-nr_dpus // 64)
    return machine_config(nr_ranks)


#: Workload sizes per profile.  "test" keeps CI fast; "bench" preserves
#: the paper's operation-count patterns at tractable Python scale.
SIZE_PROFILES: Dict[str, Dict[str, dict]] = {
    "test": {
        "VA": dict(n_elements=1 << 15),
        "GEMV": dict(n_rows=512, n_cols=128),
        "SpMV": dict(n_rows=512, n_cols=256),
        "SEL": dict(n_elements=1 << 15),
        "UNI": dict(n_elements=1 << 15),
        "BS": dict(n_elements=1 << 15, n_queries=1 << 10),
        "TS": dict(n_points=1 << 12, query_len=32),
        "BFS": dict(n_vertices=1 << 10),
        "MLP": dict(layer_sizes=(128, 128, 128, 64)),
        "NW": dict(seq_len=256, block_size=32, chunk_bytes=64),
        "HST-S": dict(n_pixels=1 << 15),
        "HST-L": dict(n_pixels=1 << 15, n_bins=512),
        "RED": dict(n_elements=1 << 15),
        "SCAN-SSA": dict(n_elements=1 << 15),
        "SCAN-RSS": dict(n_elements=1 << 15),
        "TRNS": dict(n_rows=128, n_cols=128, tile_dim=16),
    },
    # The bench sizes keep the paper's op-count patterns while being big
    # enough that fixed virtualization costs (one 64 KB/DPU prefetch
    # refill is ~30 MB at 480 DPUs) relate to total work roughly as at
    # the paper's GB scale.
    "bench": {
        "VA": dict(n_elements=1 << 24),
        "GEMV": dict(n_rows=65536, n_cols=512),
        "SpMV": dict(n_rows=16384, n_cols=32768, nnz_per_row=16),
        "SEL": dict(n_elements=1 << 24),
        "UNI": dict(n_elements=1 << 24),
        "BS": dict(n_elements=1 << 22, n_queries=1 << 17),
        "TS": dict(n_points=1 << 20, query_len=64),
        # Bitmap of 16 KB: big enough that the prefetch refill (64 KB)
        # inflates Inter-DPU by a few-x, as the paper's ~3x, not by orders
        # of magnitude.
        "BFS": dict(n_vertices=1 << 17, avg_degree=4),
        "MLP": dict(layer_sizes=(4096, 4096, 4096, 1024)),
        "NW": dict(seq_len=1024, block_size=64),
        "HST-S": dict(n_pixels=1 << 24),
        "HST-L": dict(n_pixels=1 << 24, n_bins=1024),
        "RED": dict(n_elements=1 << 24),
        "SCAN-SSA": dict(n_elements=1 << 22),
        "SCAN-RSS": dict(n_elements=1 << 22),
        "TRNS": dict(n_rows=1024, n_cols=1024, tile_dim=16),
    },
}


@dataclass
class ComparisonRun:
    """Native-vs-vPIM pair for one (app, configuration) point."""

    app: str
    nr_dpus: int
    native: ExecutionReport
    vpim: ExecutionReport
    label: str = "vPIM"

    @property
    def overhead(self) -> float:
        return self.vpim.overhead_vs(self.native)

    def segment_overhead(self, segment: str) -> Optional[float]:
        return self.vpim.segment_overhead_vs(self.native, segment)


def _build(short_name: str, nr_dpus: int, mode: str, profile: str,
           preset: Optional[str], config: Optional[MachineConfig],
           extra_params: dict, on_vpim=None):
    """A fresh machine, the app and its session: ``(vpim, app, session)``.

    ``on_vpim(vpim)`` runs before the session exists, so whatever it
    sets (a sampling rate, a scrape store) sees the whole run.
    """
    cfg = config or machine_for_dpus(nr_dpus)
    vpim = VPim(cfg)
    if on_vpim is not None:
        on_vpim(vpim)
    params = dict(SIZE_PROFILES[profile].get(short_name, {}))
    params.update(extra_params)
    app = app_by_short_name(short_name).cls(nr_dpus=nr_dpus, **params)
    if mode == "native":
        session = vpim.native_session()
    else:
        session = vpim.vm_session(nr_vupmem=cfg.nr_ranks,
                                  preset_name=preset)
    return vpim, app, session


def run_app(short_name: str, nr_dpus: int, mode: str = "native",
            profile: str = "test", preset: Optional[str] = None,
            config: Optional[MachineConfig] = None,
            **extra_params) -> ExecutionReport:
    """Run one application on a fresh machine; returns its report."""
    _, app, session = _build(short_name, nr_dpus, mode, profile, preset,
                             config, extra_params)
    return session.run(app)


def run_app_traced(
        short_name: str, nr_dpus: int, mode: str = "vm",
        profile: str = "test", preset: Optional[str] = None,
        config: Optional[MachineConfig] = None,
        sample_rate: float = 1.0,
        on_vpim=None,
        **extra_params) -> Tuple[ExecutionReport, MetricsRegistry,
                                 SpanRecorder]:
    """Like :func:`run_app`, but under request-scoped distributed tracing.

    Returns the report, the machine registry (now including the
    ``repro_span_*`` series) and the machine's
    :class:`~repro.observability.spans.SpanRecorder`, whose retained
    traces feed :mod:`~repro.observability.critical_path` and the
    Perfetto export — the ``repro metrics`` and ``repro trace`` CLI
    subcommands are thin wrappers over this.  ``on_vpim(vpim)`` is the
    telemetry attachment seam (``repro monitor``).
    """
    def prepare(vpim) -> None:
        # The machine builds its recorder always-on; the head-sampling
        # rate only matters from the next root span.
        vpim.spans.sample_rate = sample_rate
        if on_vpim is not None:
            on_vpim(vpim)

    vpim, app, session = _build(short_name, nr_dpus, mode, profile, preset,
                                config, extra_params, on_vpim=prepare)
    return session.run(app), vpim.machine.metrics, vpim.spans


def compare_app(short_name: str, nr_dpus: int, profile: str = "test",
                preset: Optional[str] = None, **extra) -> ComparisonRun:
    native = run_app(short_name, nr_dpus, "native", profile, **extra)
    vpim = run_app(short_name, nr_dpus, "vm", profile, preset, **extra)
    return ComparisonRun(app=short_name, nr_dpus=nr_dpus, native=native,
                         vpim=vpim, label=preset or "vPIM")


# ---------------------------------------------------------------------------
# Fig. 8 — PrIM applications, native vs vPIM, 60 and 480 DPUs
# ---------------------------------------------------------------------------

def fig8_prim_applications(profile: str = "test",
                           dpu_counts: Sequence[int] = (60, 480),
                           apps: Optional[Sequence[str]] = None,
                           ) -> List[ComparisonRun]:
    names = list(apps) if apps else [info.short_name for info in PRIM_APPS]
    runs = []
    for nr_dpus in dpu_counts:
        for name in names:
            runs.append(compare_app(name, nr_dpus, profile))
    return runs


# ---------------------------------------------------------------------------
# Fig. 9 — checksum sensitivity: vCPUs, #DPUs, transfer size
# ---------------------------------------------------------------------------

@dataclass
class ChecksumPoint:
    x: object
    native_s: float
    vpim_s: float

    @property
    def overhead(self) -> float:
        return self.vpim_s / self.native_s


def _checksum_pair(nr_dpus: int, file_mb: float, scale: int,
                   vcpus: int = 16) -> ChecksumPoint:
    cfg = machine_for_dpus(nr_dpus)
    nat = VPim(cfg).native_session().run(
        Checksum(nr_dpus=nr_dpus, file_mb=file_mb, scale=scale))
    vr = VPim(cfg).vm_session(nr_vupmem=cfg.nr_ranks, vcpus=vcpus).run(
        Checksum(nr_dpus=nr_dpus, file_mb=file_mb, scale=scale))
    return ChecksumPoint(x=None, native_s=nat.segments_total,
                         vpim_s=vr.segments_total)


def fig9_checksum_sensitivity(scale: int = 32) -> Dict[str, List[ChecksumPoint]]:
    """The three sweeps of Fig. 9 (sizes are nominal MB, scaled down)."""
    out: Dict[str, List[ChecksumPoint]] = {"vcpus": [], "dpus": [], "size": []}
    for vcpus in (2, 4, 8, 16):
        point = _checksum_pair(60, 60, scale, vcpus=vcpus)
        point.x = vcpus
        out["vcpus"].append(point)
    for nr_dpus in (1, 8, 16, 60):
        point = _checksum_pair(nr_dpus, 60, scale)
        point.x = nr_dpus
        out["dpus"].append(point)
    for mb in (8, 20, 40, 60):
        point = _checksum_pair(60, mb, scale)
        point.x = mb
        out["size"].append(point)
    return out


# ---------------------------------------------------------------------------
# Fig. 10 — Index Search vs #DPUs
# ---------------------------------------------------------------------------

def fig10_index_search(dpu_counts: Sequence[int] = (1, 8, 16, 60, 128),
                       corpus: Optional[SyntheticCorpus] = None,
                       ) -> List[ChecksumPoint]:
    corpus = corpus or SyntheticCorpus(nr_documents=2000,
                                       vocabulary_size=8000, seed=7)
    points = []
    for n in dpu_counts:
        cfg = machine_for_dpus(n)
        nat = VPim(cfg).native_session().run(IndexSearch(nr_dpus=n,
                                                         corpus=corpus))
        vr = VPim(cfg).vm_session(nr_vupmem=cfg.nr_ranks).run(
            IndexSearch(nr_dpus=n, corpus=corpus))
        point = ChecksumPoint(x=n, native_s=nat.segments_total,
                              vpim_s=vr.segments_total)
        points.append(point)
    return points


# ---------------------------------------------------------------------------
# Fig. 11 — C enhancement: vPIM-rust vs vPIM-C vs native (checksum)
# ---------------------------------------------------------------------------

@dataclass
class AblationPoint:
    x: object
    native_s: float
    variants: Dict[str, float] = field(default_factory=dict)


def fig11_c_enhancement(scale: int = 32) -> Dict[str, List[AblationPoint]]:
    out: Dict[str, List[AblationPoint]] = {"dpus": [], "size": []}

    def point(nr_dpus: int, mb: float) -> AblationPoint:
        cfg = machine_for_dpus(nr_dpus)
        def app():
            return Checksum(nr_dpus=nr_dpus, file_mb=mb, scale=scale)
        nat = VPim(cfg).native_session().run(app())
        p = AblationPoint(x=None, native_s=nat.segments_total)
        for preset in ("vPIM-rust", "vPIM-C"):
            rep = VPim(cfg).vm_session(nr_vupmem=cfg.nr_ranks,
                                       preset_name=preset).run(app())
            p.variants[preset] = rep.segments_total
        return p

    for nr_dpus in (1, 16, 60):
        p = point(nr_dpus, 60)
        p.x = nr_dpus
        out["dpus"].append(p)
    for mb in (8, 40, 60):
        p = point(60, mb)
        p.x = mb
        out["size"].append(p)
    return out


# ---------------------------------------------------------------------------
# Figs. 12/13 — driver-centric breakdowns (checksum, 60 DPUs, 8 MB)
# ---------------------------------------------------------------------------

@dataclass
class DriverBreakdown:
    mode: str
    ops: Dict[str, Tuple[int, float]]        #: kind -> (count, seconds)
    wrank_steps: Dict[str, float]


def fig12_fig13_breakdowns(scale: int = 32) -> List[DriverBreakdown]:
    results = []
    for preset in ("vPIM-rust", "vPIM-C"):
        cfg = machine_for_dpus(60)
        rep = VPim(cfg).vm_session(nr_vupmem=1, preset_name=preset).run(
            Checksum(nr_dpus=60, file_mb=8, scale=scale))
        ops = {kind: (stats.count, stats.time)
               for kind, stats in rep.profile.driver.items()}
        results.append(DriverBreakdown(mode=preset, ops=ops,
                                       wrank_steps=dict(rep.profile.wrank_steps)))
    return results


def fig12_driver_breakdown(scale: int = 32) -> List[DriverBreakdown]:
    return fig12_fig13_breakdowns(scale)


def fig13_wrank_steps(scale: int = 32) -> List[DriverBreakdown]:
    return fig12_fig13_breakdowns(scale)


# ---------------------------------------------------------------------------
# Fig. 14 — NW optimization ablation
# ---------------------------------------------------------------------------

@dataclass
class NwAblationRow:
    mode: str
    total_s: float
    segments: Dict[str, float]
    messages: int
    batched: int
    cache_hits: int
    cache_refills: int


def fig14_nw_ablation(profile: str = "test",
                      nr_dpus: int = 16) -> List[NwAblationRow]:
    params = SIZE_PROFILES[profile]["NW"]
    rows = []

    def build() -> NeedlemanWunsch:
        return NeedlemanWunsch(nr_dpus=nr_dpus, **params)

    cfg = machine_for_dpus(nr_dpus)
    nat = VPim(cfg).native_session().run(build())
    rows.append(NwAblationRow("native", nat.segments_total,
                              nat.segments, 0, 0, 0, 0))
    for preset in ("vPIM-C", "vPIM+P", "vPIM+B", "vPIM+PB"):
        rep = VPim(cfg).vm_session(nr_vupmem=cfg.nr_ranks,
                                   preset_name=preset).run(build())
        m = rep.messages
        rows.append(NwAblationRow(preset, rep.segments_total, rep.segments,
                                  m.requests, m.batched_writes,
                                  m.cache_hits, m.cache_refills))
    return rows


# ---------------------------------------------------------------------------
# Figs. 15/16 — parallel operation handling on multiple ranks
# ---------------------------------------------------------------------------

@dataclass
class ParallelPoint:
    nr_ranks: int
    seq_total: float
    par_total: float
    seq_write: float
    par_write: float

    @property
    def app_speedup(self) -> float:
        return self.seq_total / self.par_total

    @property
    def write_speedup(self) -> float:
        return self.seq_write / self.par_write


def fig15_parallel_ranks(rank_counts: Sequence[int] = (2, 4, 8),
                         file_mb: float = 60, scale: int = 64,
                         ) -> List[ParallelPoint]:
    points = []
    for nr in rank_counts:
        nr_dpus = nr * 64
        results = {}
        for preset in ("vPIM-Seq", "vPIM"):
            cfg = machine_config(nr)
            rep = VPim(cfg).vm_session(nr_vupmem=nr, preset_name=preset).run(
                Checksum(nr_dpus=nr_dpus, file_mb=file_mb, scale=scale))
            results[preset] = rep
        points.append(ParallelPoint(
            nr_ranks=nr,
            seq_total=results["vPIM-Seq"].segments_total,
            par_total=results["vPIM"].segments_total,
            # Write wall time is the CPU-DPU segment (the one write op);
            # summed per-request durations would hide the overlap.
            seq_write=results["vPIM-Seq"].segments["CPU-DPU"],
            par_write=results["vPIM"].segments["CPU-DPU"],
        ))
    return points


def fig16_request_times(nr_ranks: int = 8, mb_per_dpu: float = 1.0,
                        ) -> Dict[str, List[Tuple[int, float]]]:
    """Per-rank completion times of one write spanning all ranks."""
    out: Dict[str, List[Tuple[int, float]]] = {}
    data_bytes = int(mb_per_dpu * (1 << 20))
    rng = np.random.default_rng(0)
    data = rng.integers(0, 255, data_bytes, dtype=np.uint8).astype(np.uint8)
    for preset in ("vPIM-Seq", "vPIM"):
        cfg = machine_config(nr_ranks)
        session = VPim(cfg).vm_session(nr_vupmem=nr_ranks, preset_name=preset)
        with DpuSet(session.transport, nr_ranks * 64) as dpus:
            dpus.push_to_mram(0, [data] * (nr_ranks * 64))
            out[preset] = list(dpus.last_completions)
    return out
