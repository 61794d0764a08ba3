"""Shared fixtures: small machines, transports, and VM sessions."""

from __future__ import annotations

import sys

import pytest

from repro.config import small_machine
from repro.core import VPim
from repro.driver.native import NativeTransport
from repro.hardware.machine import Machine
from repro.hardware.timing import DEFAULT_COST_MODEL


@pytest.fixture
def machine() -> Machine:
    """A 2-rank, 8-DPUs-per-rank machine for fast tests."""
    return Machine(small_machine(nr_ranks=2, dpus_per_rank=8))


@pytest.fixture
def native(machine) -> NativeTransport:
    return NativeTransport(machine)


@pytest.fixture
def vpim() -> VPim:
    return VPim(small_machine(nr_ranks=2, dpus_per_rank=8))


@pytest.fixture
def vm_session(vpim):
    return vpim.vm_session(nr_vupmem=2, mem_bytes=1 << 30)


@pytest.fixture
def cost():
    return DEFAULT_COST_MODEL


def pytest_terminal_summary(terminalreporter) -> None:
    """One line with the session's own envelope (ROADMAP item 2 watches
    tier-1 sys seconds and peak RSS).  Reported, never asserted: the
    numbers depend on the box."""
    try:
        import resource
    except ImportError:     # not a POSIX host
        return
    usage = resource.getrusage(resource.RUSAGE_SELF)
    per_mb = 1 << 20 if sys.platform == "darwin" else 1 << 10
    terminalreporter.write_line(
        f"envelope: peak RSS {usage.ru_maxrss / per_mb:.0f} MB, "
        f"user {usage.ru_utime:.1f} s, sys {usage.ru_stime:.1f} s, "
        f"{usage.ru_minflt} minor faults")
