"""QoS through the data plane: flows, telemetry, default-path identity."""

from repro.apps.prim.va import VectorAdd
from repro.config import small_machine
from repro.core import VPim
from repro.qos import flow
from repro.qos.config import QosConfig
from repro.qos.flow import _LOOPS
from repro.virt.opts import Optimization

APP = dict(nr_dpus=8, n_elements=1 << 10, seed=0)


def make_vpim():
    return VPim(small_machine(nr_ranks=2, dpus_per_rank=8))


def counter_total(registry, name):
    return sum(child.value for child in registry.get(name).children)


def qos_session(vpim, **kwargs):
    kwargs.setdefault("demand", 1.0)
    kwargs.setdefault("mean_op_s", 1e-3)
    config = QosConfig(**kwargs)
    return vpim.vm_session(nr_vupmem=1, opts=Optimization(qos=config))


def test_enforced_flows_record_qos_telemetry():
    vpim = make_vpim()
    a = qos_session(vpim, enforce=True, tenant="a", weight=2.0)
    b = qos_session(vpim, enforce=True, tenant="b")
    for session in (a, b):
        report = session.run(VectorAdd(**APP))
        assert report.verified
    metrics = vpim.machine.metrics
    assert counter_total(metrics, "repro_qos_arbitrations_total") > 0
    assert a.vm.qos_flow.loop is b.vm.qos_flow.loop
    assert a.vm.qos_flow.loop.dispatches["wfq"] > 0
    assert a.vm.qos_flow.loop.dispatches["fifo"] == 0
    assert metrics.value("repro_qos_flow_weight",
                         vm=a.vm.qos_flow.flow_id) == 2.0


def test_unenforced_flows_dispatch_fifo_and_never_throttle(monkeypatch):
    vpim = make_vpim()
    # An absurdly tight bucket that would always wait — but enforce=False
    # means contention is modeled while throttles stay dormant.
    monkeypatch.setattr(flow, "BYTE_BURST", 1.0)
    session = qos_session(vpim, enforce=False, tenant="a", bytes_per_s=1e-3)
    assert session.run(VectorAdd(**APP)).verified
    assert session.vm.qos_flow.loop.dispatches["fifo"] > 0
    assert session.vm.qos_flow.loop.dispatches["wfq"] == 0
    assert counter_total(vpim.machine.metrics,
                         "repro_qos_throttled_total") == 0


def test_throttles_fire_when_enforced(monkeypatch):
    vpim = make_vpim()
    monkeypatch.setattr(flow, "BYTE_BURST", 1.0)
    session = qos_session(vpim, enforce=True, tenant="a", bytes_per_s=1e-3)
    assert session.run(VectorAdd(**APP)).verified
    metrics = vpim.machine.metrics
    assert counter_total(metrics, "repro_qos_throttled_total") > 0
    assert metrics.value("repro_qos_throttled_total",
                         vm=session.vm.qos_flow.flow_id,
                         resource="bytes") > 0


def test_vm_without_qos_touches_nothing():
    vpim = make_vpim()
    session = vpim.vm_session(nr_vupmem=1)
    assert session.run(VectorAdd(**APP)).verified
    assert session.vm.qos_flow is None
    # No arbiter or event loop is ever built for the host.
    assert vpim.machine not in _LOOPS
    # The qos families are registered lazily, on the first flow.
    assert "repro_qos_arbitrations_total" not in vpim.machine.metrics


def test_the_first_qos_vm_builds_the_host_arbiter_and_loop():
    """A VM without QoS leaves nothing QoS on the machine or the
    launcher; the first QoS VM attaches the host's one arbiter and
    event loop, and its flow leaves them on shutdown."""
    vpim = make_vpim()
    assert vpim.vm_session(nr_vupmem=1).run(VectorAdd(**APP)).verified
    for owner in (vpim.machine, vpim.firecracker):
        assert not [name for name in vars(owner)
                    if "arbiter" in name or "loop" in name
                    or "flow" in name], owner
    assert vpim.machine not in _LOOPS
    session = qos_session(vpim, enforce=True, tenant="a")
    loop = _LOOPS[vpim.machine]
    assert session.vm.qos_flow.loop is loop
    assert [f.flow_id for f in loop.arbiter.flows] == \
        [session.vm.qos_flow.flow_id]
    assert session.run(VectorAdd(**APP)).verified
    assert loop.dispatches["wfq"] > 0
    session.vm.shutdown()
    assert loop.arbiter.flows == []
    assert _LOOPS[vpim.machine] is loop


def test_qos_none_is_the_exact_default_path():
    plain = VPim(small_machine(nr_ranks=2, dpus_per_rank=8)) \
        .vm_session(nr_vupmem=1).run(VectorAdd(**APP))
    explicit = VPim(small_machine(nr_ranks=2, dpus_per_rank=8)) \
        .vm_session(nr_vupmem=1, opts=Optimization()).run(VectorAdd(**APP))
    assert plain.verified and explicit.verified
    assert plain.segments == explicit.segments
    assert plain.total_time == explicit.total_time


def test_flow_close_unregisters_from_the_arbiter():
    vpim = make_vpim()
    session = qos_session(vpim, enforce=True, tenant="a")
    flow = session.vm.qos_flow
    arbiter = flow.arbiter
    assert [f.flow_id for f in arbiter.flows] == [flow.flow_id]
    flow.close()
    flow.close()                                 # idempotent
    assert arbiter.flows == []


def test_enforcement_shrinks_the_queue_wait():
    """The headline property at the unit scale: with a noisy declared
    neighbor, the enforced arm's modeled kick wait is no larger."""
    results = {}
    for enforce in (False, True):
        vpim = make_vpim()
        victim = qos_session(vpim, enforce=enforce, tenant="victim")
        noisy = qos_session(vpim, enforce=enforce, tenant="noisy",
                            mean_op_s=5e-3)
        assert noisy.run(VectorAdd(**APP)).verified
        report = victim.run(VectorAdd(**APP))
        assert report.verified
        results[enforce] = report.segments_total
    assert results[True] <= results[False]
