"""Rank: transfers, launch, reset, CI counters, hardware limits."""

import numpy as np
import pytest

from repro.config import MRAM_SIZE, RankConfig
from repro.driver import driver
from repro.errors import DpuFaultError, MemoryAccessError, TransferError
from repro.hardware import rank as rank_module
from repro.hardware.dpu import DpuRunStats, DpuState, LaunchStats
from repro.hardware.rank import (
    CiCommand,
    Rank,
    ReadSpec,
    WriteSpec,
)
from tests.tasklet_reference import TaskletProgram


@pytest.fixture
def rank() -> Rank:
    return Rank(RankConfig(0, 8))


def test_geometry(rank):
    assert rank.nr_dpus == 8


def test_defective_rank_population():
    rank = Rank(RankConfig(0, 60))
    assert rank.nr_dpus == 60


def test_write_then_read_mram(rank):
    data = np.arange(100, dtype=np.uint8)
    duration = rank.write_mram([WriteSpec(2, 64, data)])
    assert duration > 0
    bufs, rd = rank.read_mram([ReadSpec(2, 64, 100)])
    assert np.array_equal(bufs[0], data)
    assert rd > 0


def test_multi_spec_read_lands_in_one_aligned_block(rank):
    """Results of one read are disjoint 64-byte-aligned rows of one fresh
    allocation — mixed lengths, untouched MRAM and empty reads included."""
    data = np.arange(200, dtype=np.uint8)
    rank.write_mram([WriteSpec(1, 8, data)])
    specs = [ReadSpec(1, 8, 200), ReadSpec(2, 0, 70), ReadSpec(3, 0, 0),
             ReadSpec(1, 9, 1)]
    bufs, _ = rank.read_mram(specs)
    assert [b.size for b in bufs] == [200, 70, 0, 1]
    assert np.array_equal(bufs[0], data)
    assert not bufs[1].any() and bufs[3][0] == 1
    assert all(b.ctypes.data % 64 == 0 for b in bufs if b.size)
    assert len({id(b.base) for b in bufs}) == 1
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(bufs) for b in bufs[i + 1:])
    again, _ = rank.read_mram(specs)
    assert again[0].base is not bufs[0].base


def test_multi_dpu_write_is_one_operation(rank):
    specs = [WriteSpec(i, 0, np.full(10, i, dtype=np.uint8))
             for i in range(4)]
    rank.write_mram(specs)
    assert rank.xfer_ops == {"write": 1} and rank.xfer_bytes == {"write": 40}
    for i in range(4):
        assert (rank.dpu(i).mram.read(0, 10) == i).all()


def test_invalid_dpu_index(rank):
    with pytest.raises(MemoryAccessError):
        rank.dpu(8)


def test_transfer_size_limit(rank):
    # A single entry over 4 GB must be rejected (Section 3.1).
    spec = ReadSpec(0, 0, (4 << 30) + 1)
    with pytest.raises(TransferError):
        rank.read_mram([spec])


def untouched(rank) -> bool:
    """No MRAM byte written and no transfer counted."""
    return rank.is_clean() and rank.xfer_ops == rank.xfer_bytes == {}


@pytest.mark.parametrize("refused", [
    WriteSpec(1, MRAM_SIZE - 4, np.zeros(8, np.uint8)),   # past the bank
    WriteSpec(8, 0, np.zeros(8, np.uint8)),               # no such DPU
], ids=["past_mram", "bad_dpu"])
def test_refused_write_moves_no_byte(rank, refused):
    """Every spec is checked before the first byte moves: an earlier,
    valid spec is not written either."""
    with pytest.raises(MemoryAccessError):
        rank.write_mram([WriteSpec(0, 0, np.full(16, 7, np.uint8)), refused])
    assert untouched(rank)


def test_operation_over_the_total_limit_moves_no_byte(rank, monkeypatch):
    """Each spec under the limit, their sum over it: refused as a whole,
    writes and reads alike."""
    monkeypatch.setattr(rank_module, "MAX_XFER_BYTES", 24)
    data = np.full(16, 7, np.uint8)
    with pytest.raises(TransferError):
        rank.write_mram([WriteSpec(0, 0, data), WriteSpec(1, 0, data)])
    with pytest.raises(TransferError):
        rank.read_mram([ReadSpec(0, 0, 16), ReadSpec(1, 0, 16)])
    assert untouched(rank)


def test_write_duration_scales_with_bytes(rank):
    small = rank.write_mram([WriteSpec(0, 0, np.zeros(1 << 10, np.uint8))])
    large = rank.write_mram([WriteSpec(0, 0, np.zeros(1 << 20, np.uint8))])
    assert large > small


def test_rust_interleave_slower(rank):
    data = np.zeros(1 << 20, dtype=np.uint8)
    c = rank.write_mram([WriteSpec(0, 0, data)])
    rust = rank.write_mram([WriteSpec(0, 0, data)], rust_interleave=True)
    assert rust > c


def test_launch_runs_all_requested_dpus(rank):
    for dpu in rank.dpus:
        dpu.load_program("p", 64, {})

    calls = []

    def runner(dpus):
        calls.append([dpu.dpu_index for dpu in dpus])
        assert all(dpu.state is DpuState.RUNNING for dpu in dpus)
        return LaunchStats([DpuRunStats(tasklet_instructions=[100])
                            for _ in dpus])

    duration = rank.launch(range(4), runner)
    assert calls == [[0, 1, 2, 3]]      # one call for the whole launch
    assert [dpu.state for dpu in rank.dpus[:5]] == [DpuState.DONE] * 4 + [
        DpuState.IDLE]
    assert duration > 0


def test_launch_duration_is_slowest_dpu(rank):
    for dpu in rank.dpus:
        dpu.load_program("p", 64, {})

    def runner(dpus):
        return LaunchStats([DpuRunStats(tasklet_instructions=[
            1000 if dpu.dpu_index == 0 else 10]) for dpu in dpus])

    duration = rank.launch(range(2), runner)
    expected = rank.cost.pipeline_time([1000])
    assert duration == pytest.approx(expected)


def test_a_failed_launch_faults_every_dpu_of_it(rank):
    """A crashed runner leaves every DPU of the launch FAULT — none stays
    RUNNING — and counts each as a DPU fault; DPUs outside it keep their
    state."""
    for dpu in rank.dpus:
        dpu.load_program("p", 64, {})

    def runner(dpus):
        raise DpuFaultError("kernel crashed")

    with pytest.raises(DpuFaultError):
        rank.launch(range(1, 6), runner)
    assert [dpu.state for dpu in rank.dpus] == (
        [DpuState.IDLE] + [DpuState.FAULT] * 5 + [DpuState.IDLE] * 2)
    assert rank.obs.dpu_faults.value == 5
    assert rank.obs.launches.value == 0


class Charging(TaskletProgram):
    """Every tasklet charges ``instructions``."""

    name = "charging"
    symbols = {}
    nr_tasklets = 2

    def __init__(self, instructions: int) -> None:
        self.instructions = instructions

    def kernel(self, ctx):
        ctx.charge(self.instructions)
        return
        yield


def test_a_launch_of_two_programs_runs_each_group_once(rank, monkeypatch):
    slow, fast = Charging(1000), Charging(10)
    driver.load_program_on_rank(rank, slow, [0, 2, 4])
    driver.load_program_on_rank(rank, fast, [1, 3])
    calls = []
    run_program = driver.run_program

    def recording(program, dpus):
        calls.append((program, [dpu.dpu_index for dpu in dpus]))
        return run_program(program, dpus)

    monkeypatch.setattr(driver, "run_program", recording)
    duration = driver.launch_rank(rank, [0, 1, 2, 3, 4])
    assert calls == [(slow, [0, 2, 4]), (fast, [1, 3])]
    assert [rank.dpu(i).last_run.tasklet_instructions for i in range(5)] == [
        [1000, 1000], [10, 10], [1000, 1000], [10, 10], [1000, 1000]]
    assert duration == rank.cost.dpu_run_time([1000, 1000], 0, 0)


def test_ci_counters(rank):
    rank.execute_ci(CiCommand.STATUS, 5)
    rank.execute_ci(CiCommand.BOOT, 2)
    assert rank.ci_counters.ops["status"] == 5
    assert rank.ci_counters.ops["boot"] == 2
    assert rank.ci_counters.total == 7


def test_reset_erases_and_costs(rank):
    rank.dpu(0).mram.write(0, np.ones(16, dtype=np.uint8))
    duration = rank.reset()
    assert duration == pytest.approx(rank.cost.manager_reset)
    assert rank.is_clean()
    assert rank.dpu(0).program is None
