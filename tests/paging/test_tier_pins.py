"""Both oversubscription tiers on one manager, pinned end to end.

The pager and the emulated pool serve virtual ranks through one tier
interface; these pins fix what a host with both tiers does — the
indices each tier hands out, the ladder order, the modeled clock, every
``repro_manager_*`` / ``repro_paging_*`` series — and that a VM's QoS
weight reaches the pager's victim choice.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.figures import machine_config
from repro.core import VPim
from repro.observability.export import render_prometheus
from repro.paging.config import PagingConfig
from repro.qos.config import QosConfig
from repro.sdk.dpu_set import DpuSet
from repro.virt.opts import Optimization

#: Recorded before the two tiers shared one interface; it must not move them.
MIXED_CLOCK_HEX = "0x1.a25b4ae2fb755p+0"
MIXED_SERIES_SHA256 = (
    "cd55f0909d306cb59b2b988d5c7dce1a2920da37a725e0db91902915db2d3174")


def _series_digest(registry) -> str:
    text = render_prometheus(registry)
    kept = [line for line in text.splitlines()
            if "repro_manager_" in line or "repro_paging_" in line]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def test_mixed_ladder_pages_first_then_emulates():
    vpim = VPim(machine_config(1, dpus_per_rank=4), oversubscription=True,
                paging=PagingConfig())
    indices, sets = [], []
    for tenant in range(10):
        session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 28)
        dpus = DpuSet(session.transport, 4)
        pushed = [np.full(4096, (tenant * 4 + i) & 0xFF, np.uint8)
                  for i in range(4)]
        dpus.push_to_mram(0, pushed)
        got = dpus.push_from_mram(0, 4096)
        assert all(np.array_equal(a, b) for a, b in zip(got, pushed))
        indices.append(dpus.channels[0].rank_index)
        sets.append(dpus)
    metrics = vpim.machine.metrics
    outcomes = {outcome: metrics.value("repro_manager_allocations_total",
                                       policy="round_robin", outcome=outcome)
                for outcome in ("paged", "emulated")}
    assert indices == [2000, 2001] + list(range(1000, 1008))
    assert outcomes == {"paged": 2, "emulated": 8}
    assert vpim.machine.clock.now.hex() == MIXED_CLOCK_HEX
    assert _series_digest(metrics) == MIXED_SERIES_SHA256
    for dpus in sets:
        dpus.free()


@pytest.mark.parametrize("weights, swapped", [((1, 1, 1), 0),
                                              ((4, 1, 1), 1)])
def test_qos_weight_reaches_the_pager(weights, swapped):
    vpim = VPim(machine_config(2, dpus_per_rank=4),
                paging=PagingConfig(overcommit_ratio=1.5))
    sets = []
    for tenant, weight in enumerate(weights):
        session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 28,
                                  opts=Optimization(qos=QosConfig(
                                      weight=float(weight),
                                      tenant=f"t{tenant}")))
        dpus = DpuSet(session.transport, 4)
        dpus.push_to_mram(0, [np.full(64, tenant, np.uint8)] * 4)
        sets.append(dpus)
        vpim.machine.clock.advance(1.0)
    pager = vpim.manager.pager
    resident = [pager.resident_rank(dpus.channels[0].rank_index) is not None
                for dpus in sets]
    assert resident == [tenant != swapped for tenant in range(3)]
    for dpus in sets:
        dpus.free()
