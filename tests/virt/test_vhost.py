"""The experimental vhost_vsock data path (Section 7 extension)."""

import numpy as np

from repro.apps.prim.nw import NeedlemanWunsch
from repro.config import small_machine
from repro.core import VPim
from repro.sdk.dpu_set import DpuSet
from repro.virt.opts import OptimizationConfig


def session_with(vhost: bool):
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=8))
    opts = OptimizationConfig(vhost_vsock=vhost)
    return vpim.vm_session(nr_vupmem=1, opts=opts)


def test_vhost_off_by_default():
    assert not OptimizationConfig().vhost_vsock
    # And it is not part of any Table 2 preset.
    from repro.virt.opts import PRESETS
    assert all(not preset.vhost_vsock for preset in PRESETS.values())


def test_vhost_preserves_correctness():
    rep = session_with(True).run(
        NeedlemanWunsch(nr_dpus=8, seq_len=128, block_size=32))
    assert rep.verified


def test_vhost_reduces_message_cost():
    def app():
        return NeedlemanWunsch(nr_dpus=8, seq_len=256, block_size=32,
                               chunk_bytes=64)
    base = session_with(False).run(app())
    vhost = session_with(True).run(app())
    assert vhost.verified
    assert vhost.segments_total < base.segments_total
    # Same message count — only the per-message cost shrinks.
    assert vhost.messages.requests == base.messages.requests


def test_vhost_cheaper_per_request():
    data = np.zeros(64, dtype=np.uint8)

    def one_write(vhost):
        session = session_with(vhost)
        with DpuSet(session.transport, 8) as dpus:
            t0 = session.transport.clock.now
            dpus.copy_to_mram(0, 0, np.zeros(8192, np.uint8))  # unbatched
            return session.transport.clock.now - t0

    assert one_write(True) < one_write(False)
