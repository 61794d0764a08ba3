"""Running a DPU program: one :meth:`DpuProgram.run` call per DPU.

The DPU is the unit the host executes.  :func:`run_program` builds the
run's :class:`DpuContext`, hands it to the program's one body — the
tasklet scheduler of ``DpuProgram.run`` by default, an array-form
override for the PrIM programs — and returns what the timing model
needs: per-tasklet instruction counts and the DMA engine's counters.
"""

from __future__ import annotations

from repro.config import MAX_TASKLETS
from repro.errors import DpuFaultError
from repro.hardware.dpu import Dpu, DpuRunStats
from repro.sdk.kernel import DpuContext, DpuProgram


def run_program(program: DpuProgram, dpu: Dpu) -> DpuRunStats:
    """Execute ``program`` on ``dpu`` functionally; returns run statistics."""
    nr_tasklets = program.nr_tasklets
    if not 0 < nr_tasklets <= MAX_TASKLETS:
        raise DpuFaultError(
            f"program {program.name!r} requests {nr_tasklets} tasklets, "
            f"hardware supports 1..{MAX_TASKLETS}"
        )
    ctx = DpuContext(dpu, nr_tasklets)
    program.run(ctx)
    return DpuRunStats(
        tasklet_instructions=ctx.instructions.tolist(),
        dma_ops=ctx.dma_ops,
        dma_bytes=ctx.dma_bytes,
    )


def make_runner(program: DpuProgram):
    """Return a rank-compatible runner callable for ``program``."""
    def runner(dpu: Dpu) -> DpuRunStats:
        if dpu.program is not program:
            raise DpuFaultError(
                f"DPU r{dpu.rank_index}.d{dpu.dpu_index} does not have "
                f"{program.name!r} loaded"
            )
        return run_program(program, dpu)
    return runner
