"""DPU model: program load, symbols, state machine."""

import numpy as np
import pytest

from repro.config import IRAM_SIZE, WRAM_SIZE
from repro.errors import DpuFaultError, ProgramLoadError
from repro.hardware.dpu import Dpu, DpuRunStats, DpuState


@pytest.fixture
def dpu() -> Dpu:
    return Dpu(rank_index=0, dpu_index=3)


def test_initial_state(dpu):
    assert dpu.state is DpuState.IDLE
    assert dpu.program is None
    assert dpu.mram.size == 64 << 20
    assert WRAM_SIZE == 64 << 10
    assert IRAM_SIZE == 24 << 10


def test_load_program_sets_symbols(dpu):
    dpu.load_program("prog", binary_size=1024, symbols={"x": 4, "y": 8})
    assert dpu.program == "prog"
    assert len(dpu.symbols["x"]) == 4
    assert len(dpu.symbols["y"]) == 8


def test_load_too_large_binary_rejected(dpu):
    with pytest.raises(ProgramLoadError):
        dpu.load_program("prog", binary_size=IRAM_SIZE + 1, symbols={})


def test_load_while_running_rejected(dpu):
    dpu.load_program("prog", 64, {})
    dpu.begin_run()
    with pytest.raises(ProgramLoadError):
        dpu.load_program("prog2", 64, {})


def test_symbol_write_read(dpu):
    dpu.load_program("prog", 64, {"counter": 8})
    dpu.write_symbol("counter", 0, b"\x01\x00\x00\x00")
    assert dpu.read_symbol("counter", 0, 4) == b"\x01\x00\x00\x00"


def test_symbol_write_with_offset(dpu):
    dpu.load_program("prog", 64, {"buf": 8})
    dpu.write_symbol("buf", 4, b"\xff\xff")
    assert dpu.read_symbol("buf", 0, 8) == b"\x00\x00\x00\x00\xff\xff\x00\x00"


def test_unknown_symbol_rejected(dpu):
    dpu.load_program("prog", 64, {})
    with pytest.raises(DpuFaultError):
        dpu.write_symbol("nope", 0, b"\x00")
    with pytest.raises(DpuFaultError):
        dpu.read_symbol("nope", 0, 1)


def test_symbol_overflow_rejected(dpu):
    dpu.load_program("prog", 64, {"small": 4})
    with pytest.raises(DpuFaultError):
        dpu.write_symbol("small", 2, b"\x00\x00\x00")
    with pytest.raises(DpuFaultError):
        dpu.read_symbol("small", 0, 5)


def test_run_state_transitions(dpu):
    dpu.load_program("prog", 64, {})
    dpu.begin_run()
    assert dpu.state is DpuState.RUNNING
    stats = DpuRunStats(tasklet_instructions=[10, 20])
    dpu.finish_run(stats)
    assert dpu.state is DpuState.DONE
    assert dpu.last_run.total_instructions == 30


def test_launch_without_program_faults(dpu):
    with pytest.raises(DpuFaultError):
        dpu.begin_run()


def test_double_launch_faults(dpu):
    dpu.load_program("prog", 64, {})
    dpu.begin_run()
    with pytest.raises(DpuFaultError):
        dpu.begin_run()


def test_fault_state(dpu):
    dpu.load_program("prog", 64, {})
    dpu.begin_run()
    dpu.fault()
    assert dpu.state is DpuState.FAULT


def test_reset_clears_everything(dpu):
    dpu.load_program("prog", 64, {"v": 4})
    dpu.mram.write(0, np.array([1, 2, 3], dtype=np.uint8))
    dpu.reset()
    assert dpu.state is DpuState.IDLE
    assert dpu.program is None
    assert dpu.symbols == {}
    assert dpu.mram.is_zero()
