"""End-to-end: a full run populates the machine registry coherently."""

from __future__ import annotations


from repro.analysis.figures import run_app_traced
from repro.apps.micro.checksum import Checksum
from repro.config import small_machine
from repro.core import VPim
from repro.observability.catalog import CATALOG
from repro.observability.export import render_prometheus


def _vpim() -> VPim:
    return VPim(small_machine(nr_ranks=2, dpus_per_rank=8))


def _run_checksum(preset: str):
    vpim = _vpim()
    session = vpim.vm_session(nr_vupmem=2, preset_name=preset)
    report = session.run(Checksum(nr_dpus=8, verify_staging=True))
    assert report.verified
    return vpim, session


class TestCatalog:
    def test_every_spec_has_paper_pointer(self):
        for spec in CATALOG.values():
            assert spec.paper, f"{spec.name} lacks a paper pointer"


class TestFullVpimRun:
    def test_cache_and_batching_counters_nonzero_under_full_vpim(self):
        vpim, _ = _run_checksum("vPIM")
        reg = vpim.machine.metrics
        hits = sum(
            child.value
            for labels, child in
            reg.get("repro_frontend_prefetch_lookups_total").samples()
            if labels["result"] == "hit")
        assert hits > 0
        assert reg.get("repro_frontend_batch_flushes_total").total() > 0
        assert reg.get("repro_frontend_batched_writes_total").total() > 0

    def test_counters_zero_under_vpim_c(self):
        # vPIM-C is the paper's vPIM[C---]: every optimization except the
        # C data path disabled, so nothing is cached or batched.
        vpim, _ = _run_checksum("vPIM-C")
        reg = vpim.machine.metrics
        assert reg.get("repro_frontend_prefetch_lookups_total").total() == 0
        assert reg.get("repro_frontend_batch_flushes_total").total() == 0
        assert reg.get("repro_frontend_batched_writes_total").total() == 0

    def test_rank_labels_present_in_snapshot(self):
        vpim, session = _run_checksum("vPIM")
        text = render_prometheus(vpim.machine.metrics)
        assert 'repro_rank_xfer_ops_total{rank="0",direction="write"}' in text
        assert 'repro_backend_requests_total{' in text
        assert f'vm="{session.vm.vm_id}"' in text

    def test_manager_lifecycle_metrics(self):
        vpim, _ = _run_checksum("vPIM")
        reg = vpim.machine.metrics
        # One rank covers all 8 requested DPUs, so exactly one allocation.
        assert reg.value("repro_manager_allocations_total",
                         policy="round_robin", outcome="naav") == 1
        assert reg.value("repro_manager_state_transitions_total",
                         from_state="naav", to_state="allo") == 1
        # The device released its rank when the DpuSet closed.
        assert reg.value("repro_manager_state_transitions_total",
                         from_state="allo", to_state="nana") == 1
        assert reg.value("repro_manager_resets_total") == 1

    def test_manager_metrics_labeled_by_policy(self):
        from repro.sdk.dpu_set import DpuSet

        vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
        session = vpim.vm_session(nr_vupmem=1)
        with DpuSet(session.transport, 8):
            pass
        reg = vpim.machine.metrics
        assert reg.value("repro_manager_allocations_total",
                         policy="round_robin", outcome="naav") == 1
        assert reg.value("repro_manager_alloc_wait_seconds",
                         policy="round_robin") == 1

    def test_session_and_vm_metrics(self):
        vpim, session = _run_checksum("vPIM")
        reg = vpim.machine.metrics
        assert reg.value("repro_session_runs_total", app="CHK",
                         mode="vPIM", verified="true") == 1
        assert reg.value("repro_vm_boots_total") == 1
        assert reg.value("repro_vm_vupmem_devices",
                         vm=session.vm.vm_id) == 2

    def test_histograms_report_simulated_time(self):
        vpim, _ = _run_checksum("vPIM")
        reg = vpim.machine.metrics
        fam = reg.get("repro_session_run_seconds")
        ((_, child),) = fam.samples()
        # The histogram sum is the simulated run duration: far larger
        # than any plausible per-sample wall overhead and bounded by the
        # final simulated clock value.
        assert 0 < child.sum <= vpim.clock.now


class TestNativeRun:
    def test_native_run_populates_rank_metrics_only(self):
        vpim = _vpim()
        report = vpim.native_session().run(Checksum(nr_dpus=8))
        assert report.verified
        reg = vpim.machine.metrics
        assert reg.get("repro_rank_xfer_ops_total").total() > 0
        assert reg.value("repro_session_runs_total", app="CHK",
                         mode="native", verified="true") == 1
        # No VM was involved.
        assert "repro_frontend_requests_total" not in reg


class TestPlainVmRun:
    def test_a_fault_free_vm_run_exports_no_fault_or_trace_family(self):
        report, registry, _ = run_app_traced(
            "CHK", nr_dpus=8, config=small_machine(nr_ranks=2, dpus_per_rank=8))
        assert report.verified
        assert "repro_frontend_requests_total" in registry
        assert not [name for name in registry.names()
                    if name.startswith(("repro_fault_", "repro_trace_"))]
