"""Rank: transfers, launch, reset, CI counters, hardware limits."""

import numpy as np
import pytest

from repro.config import RankConfig
from repro.errors import MemoryAccessError, TransferError
from repro.hardware.dpu import DpuRunStats
from repro.hardware.rank import (
    CiCommand,
    Rank,
    ReadSpec,
    WriteSpec,
)


@pytest.fixture
def rank() -> Rank:
    return Rank(RankConfig(0, 8))


def test_geometry(rank):
    assert rank.nr_dpus == 8
    assert len(rank.chips) == 1
    full = Rank(RankConfig(1, 64))
    assert len(full.chips) == 8
    assert all(len(chip) == 8 for chip in full.chips)


def test_defective_rank_population():
    rank = Rank(RankConfig(0, 60))
    assert rank.nr_dpus == 60
    assert len(rank.chips) == 8  # last chip is partially populated
    assert len(rank.chips[-1]) == 4


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
    assert rank.write_ops == 1
    assert rank.bytes_written == 40
    for i in range(4):
        assert (rank.dpu(i).mram.read(0, 10) == i).all()


def test_invalid_dpu_index(rank):
    with pytest.raises(MemoryAccessError):
        rank.dpu(8)


def test_transfer_size_limit(rank):
    # A single entry over 4 GB must be rejected (Section 3.1).
    class FakeBig:
        size = (4 << 30) + 1
    spec = ReadSpec(0, 0, (4 << 30) + 1)
    with pytest.raises(TransferError):
        rank.read_mram([spec])


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

    ran = []

    def runner(dpu):
        ran.append(dpu.dpu_index)
        return DpuRunStats(tasklet_instructions=[100])

    duration = rank.launch(range(4), runner)
    assert sorted(ran) == [0, 1, 2, 3]
    assert duration > 0


def test_launch_duration_is_slowest_dpu(rank):
    for dpu in rank.dpus:
        dpu.load_program("p", 64, {})

    def runner(dpu):
        instr = 1000 if dpu.dpu_index == 0 else 10
        return DpuRunStats(tasklet_instructions=[instr])

    duration = rank.launch(range(2), runner)
    expected = rank.cost.pipeline_time([1000])
    assert duration == pytest.approx(expected)


def test_ci_counters(rank):
    rank.ci.execute(CiCommand.STATUS, 5)
    rank.ci.execute(CiCommand.BOOT, 2)
    assert rank.ci.counters.ops["status"] == 5
    assert rank.ci.counters.ops["boot"] == 2
    assert rank.ci.counters.total == 7


def test_ci_status_reports_states(rank):
    states = rank.ci.status()
    assert len(states) == 8


def test_reset_erases_and_costs(rank):
    rank.dpu(0).mram.write(0, np.ones(16, dtype=np.uint8))
    duration = rank.reset()
    assert duration == pytest.approx(rank.cost.manager_reset)
    assert rank.is_clean()
    assert rank.dpu(0).program is None
