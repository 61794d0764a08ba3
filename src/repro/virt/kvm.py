"""The hypervisor boundary.

vPIM requires **no KVM changes** (requirement R1); what the hypervisor
contributes to the story is the *cost of crossing it*: every virtio kick
traps the vCPU into KVM, which forwards the event to Firecracker, and
every completion injects an IRQ back.  The paper's central measurement is
that these guest-hypervisor-VMM transitions — not data volume — dominate
virtualization overhead.

:class:`Kvm` therefore counts the transitions (the counts back Fig. 14's
claims: NW messages drop from ~10000 to ~402 with batching); their cost
is priced once, by ``CostModel.roundtrip_steps``, where the frontend
charges each request's kick and IRQ.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class KvmStats:
    """VMEXIT/IRQ counters of one VM (the transition counts whose cost
    §3.4 identifies as the irreducible virtualization overhead)."""

    vmexits: int = 0
    irq_injections: int = 0


@dataclass
class Kvm:
    """Trap/IRQ accounting for one VM (§3.4: guest↔VMM world switches are
    the irreducible virtualization cost)."""

    stats: KvmStats = field(default_factory=KvmStats)

    def trap(self, count: int = 1) -> None:
        """``count`` queue kicks: guest MMIO write -> VMEXIT -> event fd."""
        self.stats.vmexits += count

    def inject_irq(self, count: int = 1) -> None:
        """``count`` completion IRQs -> guest driver wakeup."""
        self.stats.irq_injections += count
