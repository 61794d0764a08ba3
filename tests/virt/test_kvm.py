"""KVM transition accounting: ``Kvm`` counts, ``CostModel.roundtrip_steps``
prices (``tests/hardware/test_cost_helpers.py``)."""

from repro.virt.kvm import Kvm


def test_trap_counts_and_costs():
    kvm = Kvm()
    kvm.trap()
    assert kvm.stats.vmexits == 1
    assert kvm.stats.irq_injections == 0


def test_irq_counts_and_costs():
    kvm = Kvm()
    kvm.inject_irq()
    assert kvm.stats.irq_injections == 1
    assert kvm.stats.vmexits == 0


def test_stats_accumulate():
    kvm = Kvm()
    for _ in range(10):
        kvm.trap()
        kvm.inject_irq()
    assert kvm.stats.vmexits == 10
    assert kvm.stats.irq_injections == 10
