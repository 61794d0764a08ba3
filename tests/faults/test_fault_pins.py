"""Fault behaviour pinned bit-exactly: what fires, what it costs, how the
retry policy recovers, and what each faulted trace records.

The values were recorded before the retry policy moved into
``repro.faults``; a change that moves fault code around must leave every
one of them as it is.  Each scenario pins the fired timeline, the
``repro_fault_*`` snapshot, the makespan, the session outcome, and — for
every faulted trace — its fault marks plus each ``frontend.request``
span's duration, ``retries`` and ``error`` attributes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.chaos import ChaosConfig, run_chaos
from repro.faults import FaultKind, FaultPlan

#: The four kinds whose recovery crosses the request path.
KINDS = ("transport_stall", "transport_corruption", "backend_hang",
         "rank_offline")


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _faulted_requests(vpim):
    """One line per faulted trace (its marks) and per request span in it."""
    lines = []
    for trace in vpim.machine.spans.traces:
        if not trace.faulted:
            continue
        lines.append("trace " + ",".join(trace.root.attributes.get("faults",
                                                                   [])))
        for span in (s for s in trace.spans if s.name == "frontend.request"):
            lines.append(f"{span.duration.hex()} "
                         f"{span.attributes.get('retries')} "
                         f"{span.attributes.get('error')}")
    return lines


def _exhausting_plan() -> FaultPlan:
    """Four due corruptions: one more than the transport retry budget."""
    plan = FaultPlan(seed=0)
    for _ in range(4):
        plan.add(0.0, FaultKind.TRANSPORT_CORRUPTION, "transport:*")
    return plan


SCENARIOS = {
    "seed4": (ChaosConfig(seed=4, nr_sessions=4, kinds=KINDS,
                          horizon_s=0.05, fault_rate_per_s=200.0), None),
    "seed5": (ChaosConfig(seed=5, nr_sessions=4, kinds=KINDS,
                          horizon_s=0.05, fault_rate_per_s=200.0), None),
    "exhausted": (ChaosConfig(seed=0, nr_sessions=2, fault_rate_per_s=0.0),
                  _exhausting_plan),
}

#: ``scenario -> (timeline digest, snapshot digest, makespan hex,
#: (recovered, lost), faulted-request lines, their digest)``.
PINS = {
    "seed4": (
        "05c4a8a807c1e6b70ce3b9436740aae5b03d7a4238143ac99b2aae8b434041b9",
        "d7b89abd0f7e68dc95b1cef07b5eae82e03d433991b713e58d9846bff9348ba2",
        "0x1.9a999820deb91p-2", (1, 0), 17,
        "c402b92ee7c4370ef6fea1f955d7357b1018faae4214b035eb1b4fea94a90286"),
    "seed5": (
        "15f74e1687e917a28c551a1db0945b0e17722dade042d733ddfe8dd9e197e7d1",
        "5020cf4ce608c54a4ecffff01102931a3aeae778cae721295d8f851a7cabb587",
        "0x1.6a4465bf629d3p-2", (1, 0), 15,
        "9f0ae832cbdf7b22b9e215d3addfcd0eae83105e87a3fa5279efa3220ceb0b1c"),
    "exhausted": (
        "22578efca993a04710c3cc7a25a4c65f489695c0e45d0127166182d40c3b7cd6",
        "7f98a2bd362f381b031501f5ec6e8e58939a37555e6484a5f2963cbf9222347c",
        "0x1.e6fc39d6a6869p-3", (1, 0), 12,
        "daf0179c1ba491dc94574550f03592bdcbd7229acb2d367ce7ce226a2587d292"),
}


def _snapshot_digest(snapshot) -> str:
    return _digest(f"{key} {float(value).hex()}"
                   for key, value in sorted(snapshot.items()))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fault_behaviour_is_pinned(name):
    config, plan = SCENARIOS[name]
    built = []
    result = run_chaos(config, plan=plan() if plan else None,
                       on_vpim=built.append)
    lines = _faulted_requests(built[0])
    timeline, snapshot, makespan, outcome, nr_lines, requests = PINS[name]
    assert result.timeline_digest == timeline
    assert _snapshot_digest(result.metric_snapshot) == snapshot
    assert result.makespan_s.hex() == makespan
    assert (result.sessions_recovered, result.sessions_lost) == outcome
    assert len(lines) == nr_lines
    assert _digest(lines) == requests
