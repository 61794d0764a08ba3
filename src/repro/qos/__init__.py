"""Multi-tenant performance isolation (QoS) for co-resident vUPMEM VMs.

The paper's R2 motivation (many tenants multiplex one PIM server) stops
at allocation-time arbitration: the Manager hands out ranks, but once
placed, co-resident VMs contend freely on the host bus and the
Firecracker event loop.  ``repro.qos`` turns the fleet's deadline
classes into *enforced* per-tenant isolation (``docs/qos.md``).  It is
the only code that knows about flows, arbitration and dispatch order:
the paper's request path meets it at the three hooks of a VM's
``qos_flow`` (``on_kick``, ``on_bus``, ``intra_contention``), each behind
one ``None`` check.  Its parts:

- :class:`~repro.qos.config.QosConfig` — opt-in per-VM policy
  (``Optimization(qos=QosConfig(...))``); ``None`` keeps every default
  path bit-identical to the committed wall-clock digest;
- :class:`~repro.qos.arbiter.BandwidthArbiter` — the shared bus as a
  weighted-fair resource across registered flows, and
  :class:`~repro.qos.arbiter.VirtioEventLoop` — the Firecracker event
  loop's dispatch order; a host gets one of each when its first QoS VM
  attaches (:func:`~repro.qos.flow.attach`);
- :class:`~repro.qos.flow.QosFlow` — one VM's flow handle: event-loop
  dispatch, token-bucket throttles, telemetry;
- :mod:`repro.qos.slo` — declared latency/throughput objectives, burn
  tracking, and weight/throttle/migration actuation.
"""

from repro.qos.config import FleetQosPolicy, QosConfig
from repro.qos.flow import QosFlow
from repro.qos.slo import SloEnforcer, SloObjective, SloTracker
from repro.qos.tokens import TokenBucket

__all__ = [
    "FleetQosPolicy",
    "QosConfig",
    "QosFlow",
    "SloEnforcer",
    "SloObjective",
    "SloTracker",
    "TokenBucket",
]
