"""End-to-end flows through the public API."""

import pytest

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
    # Self-overhead is exactly 1 under both metrics; the wall metric
    # additionally includes allocation/load/free so it uses more time.
    assert native.overhead_vs(native) == pytest.approx(1.0)
    assert native.overhead_vs(native, metric="wall") == pytest.approx(1.0)
    assert native.total_time > native.segments_total
