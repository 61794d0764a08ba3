"""Tasklet scheduler: barrier phases, errors, determinism."""

import numpy as np
import pytest

from repro.errors import DpuFaultError
from repro.hardware.dpu import Dpu
from repro.sdk.kernel import DpuProgram
from repro.sdk.runtime import run_program


def make_dpu(program: DpuProgram) -> Dpu:
    dpu = Dpu(0, 0)
    dpu.load_program(program, program.binary_size, program.symbols)
    return dpu


class OrderProgram(DpuProgram):
    """Records execution order across two barrier phases."""

    name = "order"
    symbols = {}
    nr_tasklets = 4

    def kernel(self, ctx):
        ctx.shared.setdefault("log", []).append(("p1", ctx.me()))
        yield ctx.barrier()
        ctx.shared["log"].append(("p2", ctx.me()))


def test_barrier_separates_phases():
    program = OrderProgram()
    dpu = make_dpu(program)
    run_program(program, [dpu])
    # Rebuild the log through a second run to inspect ordering.
    # (shared state is per-run, so capture through a fresh run)


class CaptureProgram(DpuProgram):
    name = "capture"
    symbols = {}
    nr_tasklets = 3
    log = None

    def kernel(self, ctx):
        if ctx.me() == 0:
            CaptureProgram.log = []
        yield ctx.barrier()
        CaptureProgram.log.append(("a", ctx.me()))
        yield ctx.barrier()
        CaptureProgram.log.append(("b", ctx.me()))


def test_all_tasklets_finish_phase_before_next():
    program = CaptureProgram()
    run_program(program, [make_dpu(program)])
    log = CaptureProgram.log
    phase_a = [e for e in log if e[0] == "a"]
    phase_b = [e for e in log if e[0] == "b"]
    assert len(phase_a) == 3 and len(phase_b) == 3
    # No "b" entry may precede any "a" entry.
    assert log.index(phase_b[0]) > log.index(phase_a[-1])


class UnevenProgram(DpuProgram):
    """Tasklets finish in different phases; scheduler must not hang."""

    name = "uneven"
    symbols = {"done": 4}
    nr_tasklets = 4

    def kernel(self, ctx):
        if ctx.me() < 2:
            yield ctx.barrier()
            yield ctx.barrier()
        ctx.add_host_u32("done", 1)


def test_uneven_phase_counts_complete():
    program = UnevenProgram()
    dpu = make_dpu(program)
    run_program(program, [dpu])
    assert int.from_bytes(dpu.read_symbol("done", 0, 4), "little") == 4


class StatsProgram(DpuProgram):
    name = "stats"
    symbols = {}
    nr_tasklets = 2

    def kernel(self, ctx):
        ctx.charge(ctx.me() * 10 + 5)
        ctx.mram_read(0, 64)
        yield ctx.barrier()


def test_stats_collection():
    program = StatsProgram()
    stats = run_program(program, [make_dpu(program)])
    assert stats.tasklet_instructions == [5, 15]
    assert stats.dma_ops == 2
    assert stats.dma_bytes == 128


def test_one_call_runs_the_whole_launch():
    """Per DPU, in launch order, with launch totals: the per-DPU stats
    concatenated and summed (the fields the benchmark audit taps)."""
    program = StatsProgram()
    stats = run_program(program, [make_dpu(program) for _ in range(3)])
    assert [run.tasklet_instructions for run in stats.per_dpu] == [[5, 15]] * 3
    assert [run.dma_ops for run in stats.per_dpu] == [2] * 3
    assert stats.tasklet_instructions == [5, 15] * 3
    assert (stats.dma_ops, stats.dma_bytes) == (6, 384)


class NonGeneratorProgram(DpuProgram):
    name = "nongen"
    symbols = {}
    nr_tasklets = 1

    def kernel(self, ctx):
        return 42


def test_non_generator_kernel_rejected():
    program = NonGeneratorProgram()
    with pytest.raises(DpuFaultError):
        run_program(program, [make_dpu(program)])


class BadYieldProgram(DpuProgram):
    name = "badyield"
    symbols = {}
    nr_tasklets = 1

    def kernel(self, ctx):
        yield "not a barrier"


def test_bad_yield_value_rejected():
    program = BadYieldProgram()
    with pytest.raises(DpuFaultError):
        run_program(program, [make_dpu(program)])


class TooManyTaskletsProgram(DpuProgram):
    name = "toomany"
    symbols = {}
    nr_tasklets = 25

    def kernel(self, ctx):
        yield ctx.barrier()


def test_tasklet_limit_enforced():
    program = TooManyTaskletsProgram()
    with pytest.raises(DpuFaultError):
        run_program(program, [make_dpu(program)])


def test_deterministic_results():
    class SumProgram(DpuProgram):
        name = "sum"
        symbols = {"total": 8}
        nr_tasklets = 8

        def kernel(self, ctx):
            data = ctx.mram_read(ctx.me() * 8, 8).view(np.int64)
            ctx.add_host_u64("total", int(data[0]))
            yield ctx.barrier()

    program = SumProgram()
    results = []
    for _ in range(3):
        dpu = make_dpu(program)
        dpu.mram.write(0, np.arange(8, dtype=np.int64))
        run_program(program, [dpu])
        results.append(dpu.read_symbol("total", 0, 8))
    assert results[0] == results[1] == results[2]
    assert int.from_bytes(results[0], "little") == sum(range(8))
