"""Shared fixtures: small machines, transports, and VM sessions."""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest

from repro.config import small_machine
from repro.core import VPim
from repro.driver.native import NativeTransport
from repro.hardware.machine import Machine
from repro.hardware.timing import DEFAULT_COST_MODEL
from repro.virt.plans import PlanUnsupported


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


def _refuse_every_plan(*_args, **_kwargs):
    raise PlanUnsupported("refused by the test tree's wire reference")


@contextmanager
def wire_path():
    """While open, every frontend's ``compile_plan`` refuses, so each
    data request goes down the wire path — ``serialize_matrix``, the
    backend's deserializer and its pooled gather/scatter — which is the
    reference the planned path is compared against (``planned == wire``:
    bytes, ``float.hex()`` durations, W-rank steps, exports).  Nothing
    remembers a refusal, so every request asks and is refused again.

    A context manager because a hypothesis test runs both arms inside
    one example; plain tests take the :func:`wire_reference` fixture.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.virt.frontend.compile_plan", _refuse_every_plan)
        yield


@pytest.fixture
def wire_reference():
    """The whole test runs on the wire path (see :func:`wire_path`)."""
    with wire_path():
        yield


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
