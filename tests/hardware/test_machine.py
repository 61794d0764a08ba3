"""Machine assembly: DIMMs, ranks, the paper testbed."""

import pytest

from repro.config import (
    MachineConfig,
    RankConfig,
    paper_testbed,
    small_machine,
)
from repro.errors import HardwareError
from repro.hardware.machine import Machine


def test_paper_testbed_geometry():
    machine = Machine(paper_testbed())
    # Section 5.1: 8 ranks, 480 functional DPUs (rank 0 has only 60).
    assert machine.nr_ranks == 8
    assert machine.total_dpus == 480
    assert machine.rank(0).nr_dpus == 60


def test_small_machine():
    machine = Machine(small_machine(nr_ranks=3, dpus_per_rank=4))
    assert machine.nr_ranks == 3
    assert machine.total_dpus == 12


def test_rank_out_of_range():
    machine = Machine(small_machine())
    with pytest.raises(HardwareError):
        machine.rank(99)


def test_rank_config_validation():
    with pytest.raises(ValueError):
        RankConfig(0, 0)
    with pytest.raises(ValueError):
        RankConfig(0, 65)


def test_machine_clock_shared_with_ranks():
    machine = Machine(small_machine())
    assert machine.clock.now == 0.0
    machine.clock.advance(1.0)
    assert machine.clock.now == 1.0


def test_config_totals():
    cfg = MachineConfig(ranks=[RankConfig(0, 60), RankConfig(1, 64)])
    assert cfg.nr_ranks == 2
    assert sum(r.functional_dpus for r in cfg.ranks) == 124
