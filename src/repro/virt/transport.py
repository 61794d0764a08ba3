"""The virtualized SDK transport: guest applications -> vUPMEM devices.

An application inside the VM uses the exact same :class:`~repro.sdk.
dpu_set.DpuSet` API as natively; this transport routes every rank
operation through a device's frontend (and thus the virtio queue, KVM
and the backend).  Whether multi-rank operations overlap is decided by
the VM's parallel-operation-handling optimization (Section 4.2).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import AllocationError, DeviceNotLinkedError
from repro.sdk.kernel import DpuProgram
from repro.sdk.transfer import TransferMatrix
from repro.sdk.transport import RankChannel, Transport
from repro.virt.vm import Vm, VUpmemDevice


class VirtRankChannel(RankChannel):
    """One linked vUPMEM device as an SDK rank channel (requirement R3:
    the application-facing API is identical to native)."""

    def __init__(self, vm: Vm, device: VUpmemDevice) -> None:
        self._vm = vm
        self.device = device
        mapping = device.backend.mapping
        if mapping is None:
            raise DeviceNotLinkedError(
                f"device {device.device_id} lost its rank"
            )
        # Cached so reporting still works after the rank is released.
        # ``mapping.rank_index`` (not ``.rank.index``) so a paged
        # mapping reports its stable virtual index, not whichever
        # physical frame happens to back it right now.
        rank = mapping.peek_rank()
        self._nr_dpus = (rank.nr_dpus if rank is not None
                         else vm.machine.config.ranks[0].functional_dpus)
        self._rank_index = mapping.rank_index

    @property
    def nr_dpus(self) -> int:
        return self._nr_dpus

    @property
    def rank_index(self) -> int:
        return self._rank_index

    def load(self, program: DpuProgram) -> float:
        return self.device.frontend.load(program)

    def write(self, matrix: TransferMatrix) -> float:
        return self.device.frontend.write(matrix)

    def read(self, matrix: TransferMatrix) -> Tuple[List[np.ndarray], float]:
        return self.device.frontend.read(matrix)

    def launch(self) -> float:
        return self.device.frontend.launch()

    def ci_ops(self, count: int) -> float:
        return self.device.frontend.ci_ops(count)

    def release(self) -> float:
        return self.device.frontend.release()


class VirtTransport(Transport):
    """SDK transport bound to one VM (§4.2's parallel operation handling
    decides how its multi-rank durations combine)."""

    def __init__(self, vm: Vm) -> None:
        super().__init__(vm.machine.clock, vm.machine.cost, vm.profiler,
                         metrics=vm.machine.metrics,
                         spans=vm.machine.spans)
        self.vm = vm

    @property
    def parallel_ranks(self) -> bool:
        return self.vm.config.opts.parallel_handling

    def launch_poll_penalty(self, run_duration: float) -> float:
        """Each userspace status poll is a synchronous CI round trip.

        The poll loop issues one CI read every ``status_poll_period`` of
        run time; in a VM each read costs an extra guest->VMM->guest
        transition, which extends the perceived wait (Fig. 10's 2.1x
        overhead for the compute-dominated 1-DPU index search).
        """
        polls = int(run_duration / self.cost.status_poll_period)
        penalty = self.cost.launch_poll_time(polls)
        if polls:
            self.vm.kvm.trap(polls)
            self.vm.kvm.inject_irq(polls)
            if self.spans is not None:
                self.spans.event("sdk.launch_poll", "sdk", penalty,
                                 op="CI", polls=polls)
            self.profiler.record_op("CI", penalty, count=polls)
        return penalty

    def contention(self) -> float:
        """VMM-side parallel handling contends harder than native SDK
        threads: the backend's dedicated threads share the memory bus
        *and* the Firecracker process (the ~uniform, elongated blue bars
        of Fig. 16).

        With a QoS flow registered, co-resident demand raises the factor
        further: this VM's own parallel rank operations overlap less well
        when neighbors occupy the shared bus (``docs/qos.md``).
        """
        base = self.cost.parallel_contention
        flow = self.vm.qos_flow
        if flow is None:
            return base
        return flow.intra_contention(base, self.clock.now)

    def alloc_channels(self, nr_dpus: int) -> List[RankChannel]:
        channels: List[RankChannel] = []
        covered = 0
        try:
            for device in self.vm.free_devices():
                if covered >= nr_dpus:
                    break
                self.vm.acquire_rank(device)
                channel = VirtRankChannel(self.vm, device)
                channels.append(channel)
                covered += channel.nr_dpus
            if covered < nr_dpus:
                raise AllocationError(
                    f"VM {self.vm.vm_id} cannot cover {nr_dpus} DPUs with "
                    f"its vUPMEM devices ({covered} DPUs reachable); request "
                    "more devices in the VM configuration (Section 3.3)"
                )
        except BaseException:
            # Short coverage or a later device the manager refused: no
            # caller will ever hold these channels, so the ranks go back.
            for channel in channels:
                self.clock.advance(channel.release())
            raise
        return channels
