"""Running a DPU program: one :meth:`DpuProgram.run_rank` call per launch.

The launch is the unit the host executes.  :func:`run_program` builds
the launch's :class:`RankContext` over the DPUs it boots, hands it to the
program's one body — a rank-form override for the PrIM programs whose
DPUs vectorise, the default loop over ``DpuProgram.run`` otherwise — and
returns what the timing model needs: per DPU, per-tasklet instruction
counts and the DMA engine's counters.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import MAX_TASKLETS
from repro.errors import DpuFaultError
from repro.hardware.dpu import Dpu, LaunchStats
from repro.sdk.kernel import DpuProgram, RankContext


def run_program(program: DpuProgram, dpus: Sequence[Dpu]) -> LaunchStats:
    """Execute ``program`` on ``dpus`` functionally, as one launch;
    returns its statistics, one entry per DPU in the order given."""
    nr_tasklets = program.nr_tasklets
    if not 0 < nr_tasklets <= MAX_TASKLETS:
        raise DpuFaultError(
            f"program {program.name!r} requests {nr_tasklets} tasklets, "
            f"hardware supports 1..{MAX_TASKLETS}"
        )
    rank = RankContext(dpus, nr_tasklets)
    program.run_rank(rank)
    return rank.stats()
