"""Rank-overcommit experiment (``repro.paging``, ``docs/paging.md``).

N tenants (VMs) share a host with M < N physical ranks, *holding* their
rank allocations concurrently while their operations interleave — the
workload shape that actually exercises swapping, unlike back-to-back
sessions whose allocations never coexist.  Each tenant runs rounds of a
hand-rolled Vector Addition (push inputs, launch, read outputs, verify)
on a DPU set it keeps open across all rounds.

Four arms run the identical schedule:

- **reference**: a host with N physical ranks — no overcommit; its
  per-tenant output digests are the bit-identity ground truth;
- **denial**: M physical ranks, no oversubscription tier — overflow
  tenants are refused at allocation time and complete zero rounds (the
  paper's stock behaviour);
- **emulation**: M physical ranks with the Section 7 software-emulation
  fallback — overflow tenants run, but ~20x slower;
- **paging**: M physical ranks with :class:`~repro.paging.config.\
PagingConfig` — every tenant gets a full-speed virtual rank and the
  pager swaps rank state through the frames at launch/transfer
  boundaries.

The quantities under study: aggregate round throughput, round-latency
distribution (p99 foremost), swap traffic, and — the correctness bar —
that every arm's tenant outputs are bit-identical to the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.figures import machine_config
from repro.analysis.report import format_table
from repro.apps.prim.va import VaProgram
from repro.core import VPim
from repro.errors import ManagerError
from repro.observability.stats import percentile_nearest_rank
from repro.paging.config import PagingConfig
from repro.sdk.dpu_set import DpuSet
from repro.virt.digest import content_digest

#: Arm labels, in presentation order.
ARMS = ("reference", "denial", "emulation", "paging")


class _Tenant:
    """One VM holding a DPU set open across interleaved VA rounds."""

    def __init__(self, name: str, session, nr_dpus: int,
                 n_elements: int, seed: int) -> None:
        if n_elements % nr_dpus != 0:
            raise ValueError(
                f"n_elements ({n_elements}) must divide evenly across "
                f"{nr_dpus} DPUs")
        self.name = name
        self.session = session
        self.nr_dpus = nr_dpus
        self.n_elements = n_elements
        self.rng = np.random.default_rng(seed)
        self.denied = False
        self.round_latencies: List[float] = []
        self.dpus: Optional[DpuSet] = None
        self._round_digests: List[int] = []
        per_dpu = n_elements // nr_dpus
        self._per_dpu = per_dpu
        self._max_bytes = per_dpu * 4
        self._b_off = self._max_bytes
        self._c_off = 2 * self._max_bytes

    def open(self) -> bool:
        """Allocate the rank and load the kernel; ``False`` = denied."""
        try:
            self.dpus = DpuSet(self.session.transport, self.nr_dpus)
        except ManagerError:
            self.denied = True
            return False
        self.dpus.load(VaProgram())
        count = np.array([self._per_dpu], np.uint32)
        self.dpus.push_to("n_elems", 0, [count] * self.nr_dpus)
        self.dpus.broadcast_to("b_offset", 0,
                               np.array([self._b_off], np.uint32))
        self.dpus.broadcast_to("c_offset", 0,
                               np.array([self._c_off], np.uint32))
        return True

    def run_round(self, clock) -> None:
        """One VA round: push fresh inputs, launch, read, verify."""
        assert self.dpus is not None
        a = self.rng.integers(-(1 << 20), 1 << 20, self.n_elements,
                              dtype=np.int32)
        b = self.rng.integers(-(1 << 20), 1 << 20, self.n_elements,
                              dtype=np.int32)
        n = self._per_dpu
        start = clock.now
        self.dpus.push_to_mram(0, [a[i * n:(i + 1) * n]
                                   for i in range(self.nr_dpus)])
        self.dpus.push_to_mram(self._b_off, [b[i * n:(i + 1) * n]
                                             for i in range(self.nr_dpus)])
        self.dpus.launch()
        parts = [buf.view(np.int32)
                 for buf in self.dpus.push_from_mram(self._c_off,
                                                     self._max_bytes)]
        self.round_latencies.append(clock.now - start)
        out = np.concatenate(parts)
        expected = a + b
        if not np.array_equal(out, expected):
            raise AssertionError(
                f"{self.name}: round {len(self.round_latencies)} output "
                "mismatch — rank state was corrupted across a swap")
        self._round_digests.append(content_digest(out))

    def close(self) -> None:
        if self.dpus is not None:
            self.dpus.free()
            self.dpus = None

    @property
    def output_digest(self) -> int:
        """One digest over every round's verified output, in order."""
        return content_digest(np.array(self._round_digests, dtype=np.uint64))


@dataclass
class ArmResult:
    """One arm of the overcommit experiment."""

    label: str
    tenants: int
    admitted: int
    rounds_completed: int = 0
    round_latencies: List[float] = field(default_factory=list)
    #: The interleaved-rounds phase only — the steady state under study.
    #: Setup (allocation, program load, denial retries) is ``setup_s``:
    #: it is identical across the overcommit arms up to the manager's
    #: fixed allocation cost and would otherwise swamp short runs.
    makespan_s: float = 0.0
    setup_s: float = 0.0
    #: Per-tenant digest over all verified round outputs.
    digests: Dict[str, int] = field(default_factory=dict)
    # Paging traffic (zero for the non-paging arms).
    swap_in_bytes: int = 0
    swap_out_bytes: int = 0
    demand_faults: int = 0
    predictive_faults: int = 0
    evictions: int = 0

    @property
    def p99_s(self) -> float:
        return percentile_nearest_rank(self.round_latencies, 99)

    @property
    def p50_s(self) -> float:
        return percentile_nearest_rank(self.round_latencies, 50)

    @property
    def mean_s(self) -> float:
        lat = self.round_latencies
        return sum(lat) / len(lat) if lat else 0.0

    @property
    def throughput_per_s(self) -> float:
        """Schedule goodput: completed rounds per simulated second over
        the whole arm (setup + rounds).  Counting only the steady state
        would flatter hard denial, whose refused tenants complete
        nothing at all; goodput charges it for both the retry storm and
        the missing half of the schedule."""
        total = self.setup_s + self.makespan_s
        if total <= 0:
            return 0.0
        return self.rounds_completed / total

    @property
    def steady_throughput_per_s(self) -> float:
        """Completed rounds per second of the interleaved-rounds phase."""
        if self.makespan_s <= 0:
            return 0.0
        return self.rounds_completed / self.makespan_s

    @property
    def swap_bytes(self) -> int:
        return self.swap_in_bytes + self.swap_out_bytes


@dataclass
class OvercommitResult:
    """All four arms plus the derived scorecard."""

    tenants: int
    physical_ranks: int
    overcommit_ratio: float
    arms: Dict[str, ArmResult] = field(default_factory=dict)

    @property
    def reference(self) -> ArmResult:
        return self.arms["reference"]

    def identical_to_reference(self, label: str) -> bool:
        """True when every admitted tenant of ``label`` produced outputs
        bit-identical to the same tenant on the non-overcommitted host."""
        arm = self.arms[label]
        if not arm.digests:
            return False
        return all(self.reference.digests.get(name) == digest
                   for name, digest in arm.digests.items())

    @property
    def paging_vs_emulation(self) -> float:
        """Aggregate-throughput advantage of paging over emulation."""
        emu = self.arms["emulation"].throughput_per_s
        if emu <= 0:
            return float("inf")
        return self.arms["paging"].throughput_per_s / emu

    @property
    def paging_vs_denial(self) -> float:
        den = self.arms["denial"].throughput_per_s
        if den <= 0:
            return float("inf")
        return self.arms["paging"].throughput_per_s / den


def _arm_vpim(label: str, tenants: int, physical_ranks: int,
              dpus_per_rank: int, overcommit_ratio: float) -> VPim:
    if label == "reference":
        return VPim(machine_config(tenants, dpus_per_rank=dpus_per_rank))
    config = machine_config(physical_ranks, dpus_per_rank=dpus_per_rank)
    if label == "denial":
        return VPim(config)
    if label == "emulation":
        return VPim(config, oversubscription=True)
    if label == "paging":
        return VPim(config, paging=PagingConfig(
            overcommit_ratio=overcommit_ratio))
    raise ValueError(f"unknown arm {label!r}")


def run_arm(label: str, tenants: int, physical_ranks: int,
            dpus_per_rank: int, rounds: int, n_elements: int,
            overcommit_ratio: float, on_vpim=None) -> ArmResult:
    """One arm: boot N VMs, open all DPU sets, interleave rounds.

    ``on_vpim(vpim)``, when given, runs right after the arm's machine is
    built — the telemetry pipeline's attachment seam (``repro monitor
    --scenario paging`` observes the paging arm alone).
    """
    vpim = _arm_vpim(label, tenants, physical_ranks, dpus_per_rank,
                     overcommit_ratio)
    if on_vpim is not None:
        on_vpim(vpim)
    crew = [
        _Tenant(f"tenant-{i}",
                vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30),
                nr_dpus=dpus_per_rank, n_elements=n_elements, seed=1000 + i)
        for i in range(tenants)
    ]
    arm = ArmResult(label=label, tenants=tenants, admitted=0)
    setup_start = vpim.clock.now
    for tenant in crew:
        if tenant.open():
            arm.admitted += 1
    active = [t for t in crew if not t.denied]
    arm.setup_s = vpim.clock.now - setup_start
    start = vpim.clock.now
    for _ in range(rounds):
        for tenant in active:
            tenant.run_round(vpim.clock)
    arm.makespan_s = vpim.clock.now - start
    for tenant in active:
        tenant.close()

    for tenant in active:
        arm.round_latencies.extend(tenant.round_latencies)
        arm.rounds_completed += len(tenant.round_latencies)
        arm.digests[tenant.name] = tenant.output_digest

    pager = vpim.manager.pager
    if pager is not None:
        arm.swap_in_bytes = pager.counts.get("swap_in_bytes", 0)
        arm.swap_out_bytes = pager.counts.get("swap_out_bytes", 0)
        arm.demand_faults = pager.faults.get("demand", 0)
        arm.predictive_faults = pager.faults.get("predictive", 0)
        arm.evictions = pager.counts.get("evictions", 0)
    return arm


def run_overcommit(tenants: int = 4, physical_ranks: int = 2,
                   dpus_per_rank: int = 8, rounds: int = 12,
                   n_elements: int = 1 << 16,
                   overcommit_ratio: float = 2.0) -> OvercommitResult:
    """The full experiment: the same schedule under all four arms."""
    if tenants > int(physical_ranks * overcommit_ratio):
        raise ValueError(
            f"{tenants} tenants exceed the paging arm's virtual capacity "
            f"({physical_ranks} x {overcommit_ratio})")
    result = OvercommitResult(tenants=tenants, physical_ranks=physical_ranks,
                              overcommit_ratio=overcommit_ratio)
    for label in ARMS:
        result.arms[label] = run_arm(
            label, tenants, physical_ranks, dpus_per_rank, rounds,
            n_elements, overcommit_ratio)
    return result


def overcommit_table(result: OvercommitResult) -> str:
    """Human-readable scorecard (the CLI demo and bench report body)."""
    rows = []
    for label in ARMS:
        arm = result.arms[label]
        identical = ("yes" if result.identical_to_reference(label)
                     else "NO")
        rows.append((
            label,
            f"{arm.admitted}/{arm.tenants}",
            str(arm.rounds_completed),
            f"{arm.p50_s * 1e3:.2f}",
            f"{arm.p99_s * 1e3:.2f}",
            f"{arm.throughput_per_s:.1f}",
            f"{arm.swap_bytes >> 10}",
            identical,
        ))
    table = format_table(
        ["arm", "admitted", "rounds", "p50 ms", "p99 ms", "rounds/s",
         "swap KiB", "bit-identical"],
        rows,
        title=(f"Rank overcommit: {result.tenants} tenants on "
               f"{result.physical_ranks} ranks "
               f"({result.overcommit_ratio:g}x)"))
    return (f"{table}\n\n"
            f"paging vs emulation throughput: "
            f"{result.paging_vs_emulation:.1f}x   "
            f"paging vs denial: {result.paging_vs_denial:.1f}x")
