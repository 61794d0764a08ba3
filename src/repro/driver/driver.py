"""The UPMEM kernel driver: rank ownership, safe mode, performance mode.

``apply_matrix_to_rank`` is the single place where a transfer matrix is
materialized onto hardware; the native transport, the safe-mode ioctl path
and the Firecracker backend all funnel through it, so MRAM-vs-WRAM-symbol
addressing and timing behave identically everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import (
    DPU_FREQUENCY_HZ,
    MRAM_SIZE,
    WRAM_SIZE,
)
from repro.errors import IoctlError, MmapError
from repro.driver.ioctl import IoctlCode, IoctlRequest
from repro.driver.sysfs import SysFs
from repro.hardware.dpu import Dpu, DpuRunStats, LaunchStats
from repro.hardware.machine import Machine
from repro.hardware.memory import BlockRecycler
from repro.hardware.rank import CiCommand, Rank, ReadSpec, WriteSpec
from repro.sdk.kernel import DpuProgram
from repro.sdk.runtime import run_program
from repro.sdk.transfer import Target, TransferMatrix, XferKind


@dataclass(frozen=True)
class DeviceConfig:
    """Hardware attributes the driver exposes to userspace.

    The virtio-pim specification requires the same fields in the device
    configuration layout (Appendix A.1): clock division, memory region
    size, number of control interfaces, DPU frequency, power management.
    """

    frequency_hz: int = DPU_FREQUENCY_HZ
    clock_division: int = 2
    mram_bytes: int = MRAM_SIZE
    wram_bytes: int = WRAM_SIZE
    nr_dpus: int = 64
    nr_control_interfaces: int = 8
    power_management: bool = True


#: The Appendix A.1 configuration layout: one 32-bit register per field,
#: in this order.  The MMIO config window serves it, ``repro spec``
#: prints it.
CONFIG_LAYOUT = ("frequency_hz", "clock_division", "mram_bytes", "nr_dpus",
                 "nr_control_interfaces", "power_management")


# Bound once: an Enum member read off its class costs about ten global
# reads on CPython 3.11, and the request path tests these per copy.
_TO_DPU, _MRAM = XferKind.TO_DPU, Target.MRAM


def apply_matrix_to_rank(rank: Rank, matrix: TransferMatrix,
                         rust_interleave: bool = False,
                         into: Optional[List[np.ndarray]] = None,
                         blocks: Optional[BlockRecycler] = None,
                         ) -> Tuple[Optional[List[np.ndarray]], float]:
    """Execute ``matrix`` against ``rank``; entry indices are rank-local.

    Returns ``(buffers, duration)`` — buffers is None for writes.
    ``into`` optionally supplies per-entry destination buffers for MRAM
    reads (pooled zero-copy path), ``blocks`` the recycler the result
    block of one without ``into`` comes from; both are ignored for
    writes and WRAM symbols.
    """
    if matrix.target is _MRAM:
        if matrix.kind is _TO_DPU:
            specs = [WriteSpec(e.dpu_index, matrix.offset, e.data)
                     for e in matrix.entries]
            duration = rank.write_mram(specs, rust_interleave=rust_interleave)
            return None, duration
        specs = [ReadSpec(e.dpu_index, matrix.offset, e.size)
                 for e in matrix.entries]
        return rank.read_mram(specs, rust_interleave=rust_interleave,
                              into=into, blocks=blocks)

    # WRAM host-variable transfer: small per-DPU CI-side copies.
    buffers: List[np.ndarray] = []
    for entry in matrix.entries:
        dpu = rank.dpu(entry.dpu_index)
        if matrix.kind is XferKind.TO_DPU:
            dpu.write_symbol(matrix.symbol, matrix.offset, entry.data.tobytes())
        else:
            raw = dpu.read_symbol(matrix.symbol, matrix.offset, entry.size)
            buffers.append(np.frombuffer(raw, dtype=np.uint8).copy())
    duration = rank.cost.symbol_copy_time(e.size for e in matrix.entries)
    rank.ci_counters.record(CiCommand.CONFIG, len(matrix.entries))
    if matrix.kind is XferKind.TO_DPU:
        return None, duration
    return buffers, duration


def load_program_on_rank(rank: Rank, program: DpuProgram,
                         dpu_indices: Optional[List[int]] = None) -> float:
    """Install ``program`` on the given DPUs (default: all); returns time."""
    indices = list(dpu_indices) if dpu_indices is not None else list(range(rank.nr_dpus))
    for idx in indices:
        rank.dpu(idx).load_program(program, program.binary_size, program.symbols)
    ci_time = rank.execute_ci(CiCommand.LOAD, len(indices))
    copy_time = rank.cost.program_load_time(program.binary_size, len(indices))
    return ci_time + copy_time


def launch_rank(rank: Rank, dpu_indices: Optional[List[int]] = None) -> float:
    """Boot the loaded programs and run to completion; returns run time.

    The DPUs of the launch run as one :func:`run_program` call per
    program they hold — one call when all hold the same.
    """
    indices = list(dpu_indices) if dpu_indices is not None else list(range(rank.nr_dpus))

    def runner(dpus: List[Dpu]) -> LaunchStats:
        groups: Dict[int, Tuple[DpuProgram, List[Dpu]]] = {}
        for dpu in dpus:
            groups.setdefault(id(dpu.program), (dpu.program, []))[1].append(dpu)
        runs: Dict[Dpu, DpuRunStats] = {}
        for program, group in groups.values():
            runs.update(zip(group, run_program(program, group).per_dpu))
        return LaunchStats([runs[dpu] for dpu in dpus])

    return rank.launch(indices, runner)


class PerfModeMapping:
    """Performance mode: direct (mmap) access to one rank.

    Bypasses the kernel entirely — what Firecracker's backend and native
    benchmarks use (Section 3.4).
    """

    def __init__(self, driver: "UpmemDriver", rank: Rank, owner: str) -> None:
        self._driver = driver
        self.rank = rank
        self.owner = owner
        self.mapped = True
        #: Where native reads land; emptied by :meth:`unmap`.
        self.blocks = BlockRecycler()

    @property
    def rank_index(self) -> int:
        """The index this mapping was created for.

        For a tier's mapping this is the tier's index, read without
        doing work; use it (not ``.rank.index``) for labels and scans.
        """
        return self.rank.index

    def peek_rank(self) -> Optional[Rank]:
        """The backing rank without faulting (always bound here)."""
        return self.rank

    def _check(self) -> None:
        if not self.mapped:
            raise MmapError(f"rank {self.rank_index} mapping was unmapped")

    def write(self, matrix: TransferMatrix, rust_interleave: bool = False) -> float:
        self._check()
        _, duration = apply_matrix_to_rank(self.rank, matrix, rust_interleave)
        return duration

    def write_pinned(self, pinned, sources: List[np.ndarray],
                     rust_interleave: bool = False) -> float:
        """Replay a pre-resolved MRAM write (plan-cache fast path) with
        ``sources`` — one request's entry buffers — as its payload.

        Same accounting and duration as :meth:`write` for a matrix of the
        shape the :class:`~repro.hardware.rank.PinnedMramWrite` was
        compiled from carrying ``sources``.
        """
        self._check()
        return self.rank.write_mram_pinned(pinned, sources,
                                           rust_interleave=rust_interleave)

    def read(self, matrix: TransferMatrix, rust_interleave: bool = False,
             into: Optional[List[np.ndarray]] = None,
             ) -> Tuple[List[np.ndarray], float]:
        self._check()
        buffers, duration = apply_matrix_to_rank(
            self.rank, matrix, rust_interleave, into=into, blocks=self.blocks)
        assert buffers is not None
        return buffers, duration

    def load(self, program: DpuProgram) -> float:
        self._check()
        return load_program_on_rank(self.rank, program)

    def launch(self) -> float:
        self._check()
        return launch_rank(self.rank)

    def ci_ops(self, count: int) -> float:
        self._check()
        return self.rank.execute_ci(CiCommand.STATUS, count)

    def unmap(self) -> None:
        if self.mapped:
            self.mapped = False
            self.blocks.release()
            self._driver.release_rank(self.rank_index, self.owner)


class UpmemDriver:
    """Kernel driver: exposes ranks, tracks ownership, updates sysfs."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.sysfs = SysFs()
        self._owners: Dict[int, str] = {}
        #: Oversubscription tiers (Section 7), registered by the manager:
        #: each owns the indices beyond the physical ranks it hands out.
        self.tiers: List = []
        for rank in machine.ranks:
            self.sysfs.set_rank_status(rank.index, busy=False)

    def tier_of(self, rank_index: int):
        """The tier that owns ``rank_index``; None for a physical rank."""
        for tier in self.tiers:
            if tier.owns(rank_index):
                return tier
        return None

    def resolve_rank(self, rank_index: int) -> Rank:
        """Find a rank by index: physical, or through its owning tier.

        A tier may do modeled work to resolve an index: a swapped-out
        virtual rank is faulted in, advancing the clock by the swap-in.
        """
        tier = self.tier_of(rank_index)
        if tier is not None:
            return tier.resolve(rank_index)
        return self.machine.rank(rank_index)

    @property
    def config(self) -> DeviceConfig:
        return DeviceConfig()

    # -- ownership -----------------------------------------------------------

    def rank_owner(self, rank_index: int) -> Optional[str]:
        return self._owners.get(rank_index)

    def claim_rank(self, rank_index: int, owner: str) -> Rank:
        rank = self.resolve_rank(rank_index)
        current = self._owners.get(rank_index)
        if current is not None and current != owner:
            raise MmapError(
                f"rank {rank_index} is owned by {current!r}, not {owner!r}"
            )
        self._owners[rank_index] = owner
        self.sysfs.set_rank_status(rank_index, busy=True, owner=owner)
        return rank

    def release_rank(self, rank_index: int, owner: str) -> None:
        current = self._owners.get(rank_index)
        if current != owner:
            raise MmapError(
                f"rank {rank_index} is owned by {current!r}, not {owner!r}"
            )
        del self._owners[rank_index]
        self.sysfs.set_rank_status(rank_index, busy=False)

    def free_ranks(self) -> List[int]:
        return [rank.index for rank in self.machine.ranks
                if rank.index not in self._owners]

    # -- performance mode ---------------------------------------------------------

    def mmap_rank(self, rank_index: int, owner: str) -> PerfModeMapping:
        tier = self.tier_of(rank_index)
        if tier is not None:
            return tier.mmap(self, rank_index, owner)
        rank = self.claim_rank(rank_index, owner)
        return PerfModeMapping(self, rank, owner)

    # -- safe mode -------------------------------------------------------------------

    def ioctl(self, owner: str, request: IoctlRequest):
        """Safe-mode entry point; returns ``(data, duration)``.

        Ownership is enforced per request — the isolation property safe
        mode provides between host applications (Fig. 3).
        """
        code = request.code
        overhead = self.machine.cost.ioctl_overhead
        if code is IoctlCode.GET_CONFIG:
            return self.config, overhead

        if code is IoctlCode.ALLOC_RANK:
            free = self.free_ranks()
            if not free:
                raise IoctlError("no free rank available")
            rank = self.claim_rank(free[0], owner)
            return rank.index, overhead

        rank = self.resolve_rank(request.rank_index)
        if self._owners.get(request.rank_index) != owner:
            raise IoctlError(
                f"process {owner!r} does not own rank {request.rank_index}"
            )

        if code is IoctlCode.FREE_RANK:
            self.release_rank(request.rank_index, owner)
            return None, overhead
        if code is IoctlCode.LOAD_PROGRAM:
            duration = load_program_on_rank(rank, request.program)
            return None, duration + overhead
        if code is IoctlCode.WRITE_RANK:
            _, duration = apply_matrix_to_rank(rank, request.matrix)
            return None, duration + overhead
        if code is IoctlCode.READ_RANK:
            buffers, duration = apply_matrix_to_rank(rank, request.matrix)
            return buffers, duration + overhead
        if code is IoctlCode.LAUNCH:
            duration = launch_rank(rank)
            return None, duration + overhead
        if code is IoctlCode.CI_OP:
            duration = rank.execute_ci(CiCommand.STATUS, request.count)
            return None, duration + overhead
        raise IoctlError(f"unknown ioctl code {code}")
