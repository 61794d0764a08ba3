"""Golden content pin: what the observer exports, byte for byte.

One deterministic scenario drives every recording path a transfer can
reach — an app run, serial small copies, and a recovery rerun — and the
three exports (Prometheus text, JSON snapshot, Perfetto trace) are
pinned by sha256.  The digests were recorded before the recorder's hot
path was rewritten (ISSUE 15), so a change under ``observability/`` that
is meant to be cost-only must leave them alone; a change that means to
alter an export re-records them and says so.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.apps.prim.va import VectorAdd
from repro.config import small_machine
from repro.core import VPim
from repro.faults import FaultInjector, FaultKind, FaultPlan, run_with_recovery
from repro.observability.export import render_json, render_prometheus
from repro.sdk.dpu_set import DpuSet

from tests.faults.conftest import schedule

NR_DPUS = 16
COPY_SIZES = (64, 512, 4096, 8192)
MAX_TRACES = 46

#: Recorded at commit 303781a (the parent of ISSUE 15's change).
GOLDEN = {
    "defaults": {
        "prometheus":
            "f98ef982ca5143d0fdd469e966f477b4e4988b4d566d08c50e587fef7e7fde07",
        "json":
            "96aa19a7bfba479f879bd6021b76a235a2539c9aa04af5c70604bd917c5c8209",
        "perfetto":
            "2281dcbf25ff84298e7330b52856ef9bfb10bb5ceec5f33b3947feb04a47a1d3",
    },
    "telemetry": {
        "prometheus":
            "5943d304068a5ce100780e61baa3dadd756e342c0fce2513b15c9fedf2520aba",
        "json":
            "6a72c2e93c57d13fd5c3afe573e621e904a6a248398c18d02bb5408ee677bcfe",
        "perfetto":
            "c27bb5b485785d17e29c124c44b42eb90bd865878f46e16475f57b3f868ba61b",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _copies(dpus, indices) -> None:
    for i in indices:
        dpu, size = (i * 7) % NR_DPUS, COPY_SIZES[i % len(COPY_SIZES)]
        offset = (i % 5) * (16 << 10)
        if i % 3 == 2:
            dpus.copy_from_mram(dpu, offset, size)
        else:
            payload = (np.arange(size, dtype=np.uint32) * (i + 1)
                       ).astype(np.uint8)
            dpus.copy_to_mram(dpu, offset, payload)


def run_scenario(telemetry: bool):
    """VA on 16 DPUs, 64 mixed small copies, one faulted recovery run,
    eight more copies.

    ``telemetry`` turns on exemplars and tail sampling, halves the head
    sampling rate and lowers the retained-trace cap so the trailing
    copies are dropped at ``trace_cap`` — the steady state of a long
    small-transfer run."""
    # Three ranks: two serve the 16 DPUs, the third replaces the one the
    # injector takes offline.
    vpim = VPim(small_machine(nr_ranks=3, dpus_per_rank=8))
    if telemetry:
        vpim.spans.capture_exemplars = True
        vpim.spans.tail_sampling = True
        vpim.spans.sample_rate = 0.5
        vpim.spans.max_traces = MAX_TRACES
    injector = FaultInjector(FaultPlan(seed=0), vpim.clock,
                             registry=vpim.machine.metrics)
    injector.arm_machine(vpim.machine, vpim.manager)
    session = vpim.vm_session(nr_vupmem=3)
    injector.arm_vm(session.vm)
    app = dict(nr_dpus=NR_DPUS, n_elements=1 << 12)

    assert session.run(VectorAdd(**app)).verified

    with DpuSet(session.transport, NR_DPUS) as dpus:
        _copies(dpus, range(64))

    now = vpim.clock.now
    schedule(injector, now, FaultKind.TRANSPORT_CORRUPTION, "transport:*")
    schedule(injector, now + 1e-4, FaultKind.RANK_OFFLINE, "rank:*")
    recovery = run_with_recovery(session, VectorAdd(**app))
    assert recovery.recovered

    with DpuSet(session.transport, NR_DPUS) as dpus:
        _copies(dpus, range(64, 72))
    return vpim


@pytest.mark.parametrize("name,telemetry", [("defaults", False),
                                            ("telemetry", True)])
def test_exports_match_the_recorded_digests(name, telemetry):
    vpim = run_scenario(telemetry)
    registry = vpim.machine.metrics
    got = {
        "prometheus": _sha(render_prometheus(registry)),
        "json": _sha(render_json(registry)),
        "perfetto": _sha(json.dumps(vpim.spans.to_perfetto(),
                                    sort_keys=True)),
    }
    assert got == GOLDEN[name]


def test_scenario_reaches_the_paths_it_pins():
    """The pin is only worth its digests if the scenario exercises the
    recorder's branches: retained and faulted traces, a retry link,
    abandoned spans, exemplars, every retention tier and the cap."""
    vpim = run_scenario(telemetry=True)
    spans, registry = vpim.spans, vpim.machine.metrics
    assert spans.traces_finished > 64
    faulted = [t for t in spans.traces if t.faulted]
    assert faulted
    assert any(link["kind"] == "retry_of"
               for t in spans.traces for link in t.root.links)
    assert any(s.attributes.get("abandoned")
               for t in faulted for s in t.spans)
    assert spans.spans_dropped.get("trace_cap", 0) > 0
    assert len(spans.traces) == MAX_TRACES
    tiers = {labels["tier"] for labels, _ in
             registry.get("repro_span_retention_total").samples()}
    assert tiers == {"fault", "tail", "head", "none"}
    text = render_prometheus(registry)
    assert '# {trace_id="' in text
    assert registry.get("repro_fault_retries_total").total() >= 1
