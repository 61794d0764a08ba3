"""Transfer-pattern fidelity: the op-count behaviours Section 5 hinges on."""

from repro.apps.micro.checksum import Checksum, ci_ops_for_size
from repro.apps.prim.nw import NeedlemanWunsch
from repro.apps.prim.sel import Select
from repro.apps.prim.spmv import SpMV
from repro.apps.prim.trns import Transpose
from repro.apps.prim.va import VectorAdd
from repro.config import small_machine
from repro.core import VPim
from repro.sdk.profile import OP_CI, OP_READ, OP_WRITE


def native_run(app, nr_ranks=1, dpus_per_rank=8):
    vpim = VPim(small_machine(nr_ranks=nr_ranks, dpus_per_rank=dpus_per_rank))
    session = vpim.native_session()
    report = session.run(app)
    return report


def test_checksum_op_mix():
    """§5.3.1: one write-to-rank, one read per DPU, thousands of CI ops."""
    report = native_run(Checksum(nr_dpus=8, file_mb=8, scale=64))
    # Two writes: the n_bytes argument push and the file push itself.
    assert report.profile.driver[OP_WRITE].count == 2
    assert report.profile.driver[OP_READ].count == 8
    ci = report.profile.driver[OP_CI].count
    assert ci >= ci_ops_for_size(8) // 64


def test_checksum_ci_count_band():
    """The paper reports 8,000-28,000 CI ops between 8 and 60 MB."""
    assert 8000 <= ci_ops_for_size(8) <= 28000
    assert 8000 <= ci_ops_for_size(60) <= 28000
    assert ci_ops_for_size(60) > ci_ops_for_size(8)


def test_nw_small_transfer_storm():
    """NW must produce many small operations (the paper's >15000 at full
    scale; proportionally fewer at our scale) with small average size."""
    app = NeedlemanWunsch(nr_dpus=8, seq_len=256, block_size=32)
    report = native_run(app)
    writes = report.profile.driver[OP_WRITE]
    reads = report.profile.driver[OP_READ]
    total_ops = writes.count + reads.count
    assert total_ops > 500, "NW lost its small-transfer storm"


def test_trns_tile_op_count():
    """TRNS performs one write and one read per tile (§5.2)."""
    app = Transpose(nr_dpus=8, n_rows=128, n_cols=128, tile_dim=16)
    n_tiles = (128 // 16) ** 2
    report = native_run(app)
    writes = report.profile.driver[OP_WRITE].count
    reads = report.profile.driver[OP_READ].count
    assert writes >= n_tiles
    assert reads >= n_tiles


def test_sel_serial_retrieval_scales_with_dpus():
    """SEL's DPU-CPU step is serial per DPU: op count tracks nr_dpus."""
    a = native_run(Select(nr_dpus=4, n_elements=1 << 14))
    b = native_run(Select(nr_dpus=8, n_elements=1 << 14))
    # Two read ops per DPU (count + data).
    assert b.profile.driver[OP_READ].count > a.profile.driver[OP_READ].count


def test_spmv_serial_distribution_scales_with_dpus():
    a = native_run(SpMV(nr_dpus=4, n_rows=256, n_cols=128))
    b = native_run(SpMV(nr_dpus=8, n_rows=256, n_cols=128))
    assert b.profile.driver[OP_WRITE].count > a.profile.driver[OP_WRITE].count


def test_va_uses_parallel_transfers_only():
    """VA is the clean case: a handful of rank-level operations."""
    report = native_run(VectorAdd(nr_dpus=8, n_elements=1 << 14))
    assert report.profile.driver[OP_WRITE].count <= 8
    assert report.profile.driver[OP_READ].count <= 4


def test_nw_vs_va_op_size():
    """NW ops are tiny, VA ops are bulky: the contrast behind Takeaway 2."""
    nw = native_run(NeedlemanWunsch(nr_dpus=8, seq_len=256, block_size=32))
    va = native_run(VectorAdd(nr_dpus=8, n_elements=1 << 18))
    nw_writes = nw.profile.driver[OP_WRITE]
    va_writes = va.profile.driver[OP_WRITE]
    nw_avg = nw_writes.time / nw_writes.count
    va_avg = va_writes.time / va_writes.count
    assert nw_avg < va_avg / 10
