"""End-to-end flows through the public API."""

import pytest

from repro.apps.prim.nw import NeedlemanWunsch
from repro.apps.prim.va import VectorAdd
from repro.apps.micro.checksum import Checksum
from repro.config import small_machine
from repro.core import VPim


def test_quickstart_flow():
    """The README quickstart: native baseline, then vPIM, then overhead."""
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    app = VectorAdd(nr_dpus=8, n_elements=1 << 15)
    native = vpim.native_session().run(app)

    vpim2 = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    virt = vpim2.vm_session(nr_vupmem=1).run(
        VectorAdd(nr_dpus=8, n_elements=1 << 15))

    assert native.verified and virt.verified
    assert virt.overhead_vs(native) > 1.0
    assert virt.vmexits > 0
    assert native.vmexits == 0


def test_back_to_back_runs_on_one_session():
    """The profiler resets between runs; the VM persists."""
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    session = vpim.vm_session(nr_vupmem=2)
    first = session.run(Checksum(nr_dpus=8, file_mb=0.25))
    second = session.run(Checksum(nr_dpus=8, file_mb=0.25))
    assert first.verified and second.verified
    # Same workload, warm VM: identical simulated segment times except
    # the manager path (NANA reuse vs fresh NAAV allocation).
    assert second.segments_total == pytest.approx(first.segments_total,
                                                  rel=0.05)


def test_each_run_reports_its_own_messages():
    """A report's messages are its run's (the session's delta of the
    frontends' counts); the registry series keep the sum of all runs."""
    def nw():
        return NeedlemanWunsch(nr_dpus=8, seq_len=128, block_size=32)

    def session():
        vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
        return vpim, vpim.vm_session(nr_vupmem=2, preset_name="vPIM+PB")

    alone = session()[1].run(nw()).messages
    vpim, warm = session()
    first, second = warm.run(nw()).messages, warm.run(nw()).messages
    assert first == alone
    assert second.batched_writes == first.batched_writes > 0
    assert second.cache_hits == first.cache_hits > 0
    assert second.cache_refills == first.cache_refills > 0
    # The warm VM's devices are initialized: no GET_CONFIG this time.
    assert 0 < second.requests < first.requests
    requests = vpim.machine.metrics.get("repro_frontend_requests_total")
    assert requests.total() == first.requests + second.requests


def test_report_row_rendering():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    rep = vpim.native_session().run(VectorAdd(nr_dpus=4, n_elements=1 << 12))
    row = rep.row()
    assert "VA" in row and "native" in row and "ok=True" in row


def test_preset_session_modes_labelled():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    session = vpim.vm_session(nr_vupmem=1, preset_name="vPIM+PB")
    assert session.mode == "vPIM+PB"
    rep = session.run(VectorAdd(nr_dpus=4, n_elements=1 << 12))
    assert rep.mode == "vPIM+PB"


def test_report_overhead_metrics():
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    app = VectorAdd(nr_dpus=8, n_elements=1 << 15)
    native = vpim.native_session().run(app)
    # Self-overhead is exactly 1; the total additionally includes
    # allocation/load/free, which the segments leave out.
    assert native.overhead_vs(native) == pytest.approx(1.0)
    assert native.total_time > native.segments_total
