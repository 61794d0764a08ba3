"""Controlq: manager synchronization notifications (Appendix A.1)."""

from repro.config import small_machine
from repro.core import VPim
from repro.sdk.dpu_set import DpuSet


def test_controlq_carries_link_and_release_notifications():
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8))
    session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    device = session.vm.devices[0]
    assert device.frontend.queues.controlq.kicks.get("controlq", 0) == 0
    with DpuSet(session.transport, 8):
        # Device initialization posted the "linked" boolean.
        assert device.frontend.queues.controlq.kicks.get("controlq", 0) == 1
    # Release posted the "unlinked" boolean.
    assert device.frontend.queues.controlq.kicks.get("controlq", 0) == 2


def test_controlq_reuse_on_relink():
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8))
    session = vpim.vm_session(nr_vupmem=1, mem_bytes=1 << 30)
    device = session.vm.devices[0]
    with DpuSet(session.transport, 8):
        pass
    with DpuSet(session.transport, 8):
        pass
    # init happens once; each release notifies: 1 (init) + 2 (releases).
    assert device.frontend.queues.controlq.kicks.get("controlq", 0) == 3
