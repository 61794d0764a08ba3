"""``VPim``: the library facade.

One ``VPim`` instance models one host machine: the physical UPMEM ranks,
the kernel driver, the rank manager, and a Firecracker launcher.  From it
you create *sessions* — native or virtualized — and run applications on
them.  Native and virtualized sessions share the same machine, so ranks
allocated to a VM are unavailable natively and vice versa, exactly like
the coexistence story of Section 3.5.
"""

from __future__ import annotations

from typing import Optional

from repro.config import MachineConfig
from repro.core.session import ExecutionSession
from repro.driver.driver import UpmemDriver
from repro.driver.native import NativeTransport
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel, DEFAULT_COST_MODEL
from repro.virt.firecracker import Firecracker, VmConfig
from repro.virt.manager import Manager
from repro.virt.opts import OptimizationConfig, preset
from repro.virt.transport import VirtTransport


class VPim:
    """A host machine with UPMEM ranks, ready to run native or VM sessions."""

    def __init__(self, machine_config: Optional[MachineConfig] = None,
                 cost: CostModel = DEFAULT_COST_MODEL,
                 oversubscription: bool = False,
                 paging=None) -> None:
        """``oversubscription`` enables the Section 7 extension: when all
        physical ranks are allocated, the manager hands out software-
        emulated ranks running 20x slower
        (:data:`~repro.virt.emulation.DEFAULT_SLOWDOWN`).

        ``paging`` takes a :class:`~repro.paging.config.PagingConfig` to
        enable the stronger §7 extension (``docs/paging.md``): the
        manager hands out *virtual* ranks demand-paged over the physical
        frames at full speed, with emulation (if also enabled) as the
        last resort past the pager's virtual capacity.  ``None`` (the
        default) models no paging at all.

        The host manager allocates physical ranks round-robin (§3.5).
        """
        self.machine = Machine(machine_config, cost)
        self.driver = UpmemDriver(self.machine)
        self.manager = Manager(self.machine, self.driver,
                               oversubscription=oversubscription,
                               paging=paging)
        self.firecracker = Firecracker(self.machine, self.driver, self.manager)

    @property
    def clock(self):
        return self.machine.clock

    @property
    def spans(self):
        return self.machine.spans

    def native_session(self) -> ExecutionSession:
        """A session running directly on the hardware (the paper baseline)."""
        transport = NativeTransport(self.machine, self.driver)
        return ExecutionSession(transport, mode="native")

    def vm_session(self, nr_vupmem: int = 1, vcpus: int = 16,
                   mem_bytes: int = 4 << 30,
                   opts: Optional[OptimizationConfig] = None,
                   preset_name: Optional[str] = None) -> ExecutionSession:
        """Boot a microVM and return a session running inside it.

        ``preset_name`` selects a Table 2 configuration (e.g. "vPIM-rust",
        "vPIM+PB"); ``opts`` overrides it with an explicit config.
        """
        if opts is None:
            opts = preset(preset_name) if preset_name else OptimizationConfig()
        config = VmConfig(vcpus=vcpus, mem_bytes=mem_bytes,
                          nr_vupmem=nr_vupmem, opts=opts)
        vm = self.firecracker.launch_vm(config)
        transport = VirtTransport(vm)
        mode = preset_name or opts.label
        return ExecutionSession(transport, mode=mode, vm=vm)
