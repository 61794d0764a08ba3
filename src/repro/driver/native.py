"""The native transport: the SDK running directly on the host.

This is the paper's baseline ("native is run in performance mode",
Section 5.1): rank operations go straight through mmap'd ranks, multiple
ranks are driven by concurrent SDK threads, so multi-rank operations
combine in parallel.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import AllocationError
from repro.driver.driver import PerfModeMapping, UpmemDriver
from repro.hardware.machine import Machine
from repro.sdk.kernel import DpuProgram
from repro.sdk.profile import OP_CI, OP_READ, OP_WRITE
from repro.sdk.transfer import TransferMatrix
from repro.sdk.transport import RankChannel, Transport

_owner_ids = itertools.count()


class NativeRankChannel(RankChannel):
    """A perf-mode mapping wrapped in the transport interface."""

    def __init__(self, transport: "NativeTransport",
                 mapping: PerfModeMapping) -> None:
        self._mapping = mapping
        self._cost = transport.cost
        self._profiler = transport.profiler

    @property
    def nr_dpus(self) -> int:
        return self._mapping.rank.nr_dpus

    @property
    def rank_index(self) -> int:
        return self._mapping.rank.index

    def load(self, program: DpuProgram) -> float:
        return self._mapping.load(program)

    def write(self, matrix: TransferMatrix) -> float:
        duration = self._mapping.write(matrix)
        self._profiler.record_op(OP_WRITE, duration)
        self._profiler.record_wrank_steps({"T-data": duration})
        return duration

    def read(self, matrix: TransferMatrix) -> Tuple[List[np.ndarray], float]:
        buffers, duration = self._mapping.read(matrix)
        self._profiler.record_op(OP_READ, duration)
        return buffers, duration

    def launch(self) -> float:
        run_time = self._mapping.launch()
        polls = self._cost.sync_launch_polls(run_time)
        self._profiler.record_op(OP_CI, self._cost.ci_time(polls), count=polls)
        # Polling overlaps the run; only the final poll extends the wall.
        return run_time + self._cost.ci_time(1)

    def ci_ops(self, count: int) -> float:
        duration = self._mapping.ci_ops(count)
        self._profiler.record_op(OP_CI, duration, count=count)
        return duration

    def release(self) -> float:
        self._mapping.unmap()
        # An unmap is one rank operation that moves no bytes.
        return self._cost.rank_transfer_time(0)


class NativeTransport(Transport):
    """Allocates physical ranks through the driver in performance mode."""

    def __init__(self, machine: Machine,
                 driver: Optional[UpmemDriver] = None) -> None:
        super().__init__(machine.clock, machine.cost, metrics=machine.metrics,
                         spans=machine.spans)
        self.machine = machine
        self.driver = driver or UpmemDriver(machine)
        self.owner = f"native-{next(_owner_ids)}"

    @property
    def parallel_ranks(self) -> bool:
        # The SDK drives each rank from its own host thread.
        return True

    def alloc_channels(self, nr_dpus: int) -> List[RankChannel]:
        channels: List[RankChannel] = []
        covered = 0
        for rank_index in self.driver.free_ranks():
            if covered >= nr_dpus:
                break
            mapping = self.driver.mmap_rank(rank_index, self.owner)
            channels.append(NativeRankChannel(self, mapping))
            covered += mapping.rank.nr_dpus
        if covered < nr_dpus:
            for channel in channels:
                channel.release()
            raise AllocationError(
                f"machine cannot cover {nr_dpus} DPUs "
                f"({covered} available in free ranks)"
            )
        return channels
