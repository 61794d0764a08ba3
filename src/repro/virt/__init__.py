"""The vPIM virtualization stack (Sections 3 and 4 of the paper).

Components, mirroring Fig. 4:

- :mod:`repro.virt.guest_memory` — the VM's physical address space and
  GPA->HVA translation;
- :mod:`repro.virt.kvm` — the hypervisor boundary: traps and IRQs, whose
  *count* is the paper's key overhead driver;
- :mod:`repro.virt.virtio` — virtqueues per the virtio-pim specification
  (Appendix A.1): 512-slot transferq + controlq, device ID 42;
- :mod:`repro.virt.serialization` — the Fig. 6/7 transfer-matrix wire format;
- :mod:`repro.virt.frontend` — the guest driver, with the prefetch cache
  and request batching optimizations;
- :mod:`repro.virt.backend` — the Firecracker-side device model with
  zero-copy request handling, threaded GPA->HVA translation and the
  C-vs-Rust data path;
- :mod:`repro.virt.firecracker` — the VMM: the §3.3 booking record
  (:class:`VmConfig`), boot, event loop (sequential or parallel
  operation handling);
- :mod:`repro.virt.manager` — the host-wide rank manager (Fig. 5 FSM);
- :mod:`repro.virt.transport` — the SDK transport that routes through all
  of the above, making guest applications run unmodified.

Imported from its module where used: :mod:`repro.virt.migration`
(Section 7 checkpoint/restore, migration and consolidation).
"""

from repro.virt.opts import Optimization, OptimizationConfig
from repro.virt.manager import Manager, RankState
from repro.virt.firecracker import Firecracker, VmConfig
from repro.virt.transport import VirtTransport

__all__ = [
    "Optimization",
    "OptimizationConfig",
    "Manager",
    "RankState",
    "Firecracker",
    "VmConfig",
    "VirtTransport",
]
