"""Every application produces CPU-identical results on both transports.

This is the paper's first evaluation claim: "All applications run
seamlessly in the vPIM system, where the DPU computed results match
accurately with those computed on CPUs."
"""

import numpy as np
import pytest

from repro.analysis.figures import SIZE_PROFILES
from repro.apps.registry import ALL_APPS, app_by_short_name
from repro.config import small_machine
from repro.core import VPim

APP_NAMES = [info.short_name for info in ALL_APPS]

MICRO_PARAMS = {
    "CHK": dict(file_mb=0.25),
    "UPIS": dict(),
}


def build_app(short_name: str, nr_dpus: int):
    params = dict(SIZE_PROFILES["test"].get(short_name,
                                            MICRO_PARAMS.get(short_name, {})))
    return app_by_short_name(short_name).cls(nr_dpus=nr_dpus, **params)


@pytest.mark.parametrize("short_name", APP_NAMES)
def test_native_results_match_cpu(short_name):
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    report = vpim.native_session().run(build_app(short_name, 8))
    assert report.verified, f"{short_name} native result diverged from CPU"


@pytest.mark.parametrize("short_name", APP_NAMES)
def test_vpim_results_match_cpu(short_name):
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    report = vpim.vm_session(nr_vupmem=2).run(build_app(short_name, 8))
    assert report.verified, f"{short_name} vPIM result diverged from CPU"


@pytest.mark.parametrize("short_name", APP_NAMES)
def test_multi_rank_results_match_cpu(short_name):
    """Spanning two ranks must not scramble data placement."""
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    report = vpim.vm_session(nr_vupmem=2).run(build_app(short_name, 12))
    assert report.verified, f"{short_name} multi-rank result diverged"


@pytest.mark.parametrize("preset", ["vPIM-rust", "vPIM-C", "vPIM+P",
                                    "vPIM+B", "vPIM+PB", "vPIM-Seq"])
@pytest.mark.parametrize("short_name", ["NW", "RED", "SEL", "CHK"])
def test_all_presets_preserve_correctness(short_name, preset):
    """Optimizations change timing, never results (Table 2 matrix)."""
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    session = vpim.vm_session(nr_vupmem=2, preset_name=preset)
    report = session.run(build_app(short_name, 8))
    assert report.verified, f"{short_name} under {preset} diverged"


@pytest.mark.parametrize("short_name", APP_NAMES)
def test_segments_recorded(short_name):
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    report = vpim.native_session().run(build_app(short_name, 8))
    # Every app records at least data-in and compute segments.
    assert report.segments["CPU-DPU"] > 0
    assert report.segments["DPU"] > 0
    assert report.segments_total > 0


def test_vpim_slower_than_native_overall():
    """Virtualization never comes for free."""
    for short_name in ("VA", "NW", "CHK"):
        vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
        nat = vpim.native_session().run(build_app(short_name, 8))
        vpim2 = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
        vr = vpim2.vm_session(nr_vupmem=2).run(build_app(short_name, 8))
        assert vr.overhead_vs(nat) > 1.0


# -- the CPU reference: once per instance, taken before the transport runs -------

def count_expected_calls(monkeypatch, app) -> list:
    calls = []
    expected = type(app).expected
    monkeypatch.setattr(type(app), "expected",
                        lambda self: calls.append(1) or expected(self))
    return calls


@pytest.mark.parametrize("short_name", APP_NAMES)
def test_reference_is_computed_once_per_instance(short_name, monkeypatch):
    app = build_app(short_name, 8)
    calls = count_expected_calls(monkeypatch, app)
    session = VPim(small_machine(nr_ranks=2, dpus_per_rank=8)).native_session()
    assert session.run(app).verified
    assert len(calls) == 1
    assert session.run(app).verified and session.run(app).verified
    assert len(calls) == 1, "a later run recomputed the reference"


def test_rebinding_an_input_recomputes_the_reference(monkeypatch):
    app = build_app("RED", 8)
    calls = count_expected_calls(monkeypatch, app)
    session = VPim(small_machine(nr_ranks=2, dpus_per_rank=8)).native_session()
    assert session.run(app).verified
    app.data = np.ones(1024, dtype=np.int32)
    assert session.run(app).verified and app.reference() == 1024
    assert len(calls) == 2


def test_rebinding_verify_keeps_the_reference(monkeypatch):
    """A harness that wraps ``verify`` on the instance for one run (the
    perf workloads capture the output there) is not changing an input."""
    app = build_app("RED", 8)
    calls = count_expected_calls(monkeypatch, app)
    session = VPim(small_machine(nr_ranks=2, dpus_per_rank=8)).native_session()
    verify = app.verify
    app.verify = lambda output: verify(output)
    assert session.run(app).verified
    del app.verify
    assert session.run(app).verified
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["native", "vm"])
def test_input_corrupted_in_place_fails_the_next_run(mode):
    """R3, the strong form: the reference dates from before the
    transport touched the caller's buffers, so a transport (or anyone)
    scribbling on an input between runs is reported, not absorbed into a
    recomputed reference."""
    app = build_app("VA", 8)
    vpim = VPim(small_machine(nr_ranks=2, dpus_per_rank=8))
    session = (vpim.native_session() if mode == "native"
               else vpim.vm_session(nr_vupmem=2))
    assert session.run(app).verified
    app.a[7] += 1
    assert not session.run(app).verified
