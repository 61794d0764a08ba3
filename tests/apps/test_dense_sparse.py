"""Per-app edge cases: VA, GEMV, SpMV, MLP (dense/sparse linear algebra)."""

import numpy as np

from repro.apps.prim.gemv import Gemv
from repro.apps.prim.mlp import MultilayerPerceptron
from repro.apps.prim.spmv import SpMV
from repro.apps.prim.va import VectorAdd
from repro.config import small_machine
from repro.core import VPim
from repro.workloads.generators import CsrMatrix


def native(app, dpus_per_rank=8, nr_ranks=1):
    vpim = VPim(small_machine(nr_ranks=nr_ranks, dpus_per_rank=dpus_per_rank))
    return vpim.native_session().run(app)


# -- VA ------------------------------------------------------------------------

def test_va_uneven_split():
    # 1000 elements over 7 DPUs: remainders must not be lost.
    rep = native(VectorAdd(nr_dpus=7, n_elements=1000), dpus_per_rank=7)
    assert rep.verified


def test_va_single_dpu():
    rep = native(VectorAdd(nr_dpus=1, n_elements=4096), dpus_per_rank=1)
    assert rep.verified


def test_va_more_dpus_than_elements_per_tasklet():
    rep = native(VectorAdd(nr_dpus=8, n_elements=40))
    assert rep.verified


def test_va_negative_values():
    app = VectorAdd(nr_dpus=4, n_elements=512)
    app.a = np.full(512, -(2 ** 30), dtype=np.int32)
    app.b = np.full(512, -(2 ** 30), dtype=np.int32)
    out = None
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=4))
    rep = vpim.native_session().run(app)
    assert rep.verified  # int32 wraparound must match numpy exactly


# -- GEMV ----------------------------------------------------------------------

def test_gemv_uneven_rows():
    rep = native(Gemv(nr_dpus=8, n_rows=130, n_cols=64))
    assert rep.verified


def test_gemv_single_row_per_dpu():
    rep = native(Gemv(nr_dpus=8, n_rows=8, n_cols=32))
    assert rep.verified


def test_gemv_fewer_rows_than_dpus():
    rep = native(Gemv(nr_dpus=8, n_rows=3, n_cols=16))
    assert rep.verified


def test_gemv_wide_matrix():
    rep = native(Gemv(nr_dpus=4, n_rows=16, n_cols=2048), dpus_per_rank=4)
    assert rep.verified


# -- SpMV ----------------------------------------------------------------------

def test_spmv_uneven_rows():
    rep = native(SpMV(nr_dpus=8, n_rows=100, n_cols=64))
    assert rep.verified


def test_spmv_dense_rows():
    rep = native(SpMV(nr_dpus=4, n_rows=64, n_cols=64, nnz_per_row=32),
                 dpus_per_rank=4)
    assert rep.verified


def test_spmv_very_sparse():
    rep = native(SpMV(nr_dpus=8, n_rows=256, n_cols=1024, nnz_per_row=1))
    assert rep.verified


def test_spmv_matches_dense_product():
    app = SpMV(nr_dpus=4, n_rows=64, n_cols=32, nnz_per_row=4)
    dense = app.csr.to_dense()
    expected = dense @ app.x.astype(np.int64)
    assert np.array_equal(app.expected(), expected)


def test_spmv_reference_keeps_empty_rows_zero():
    # Rows 0, 2, 5 and 6 are empty: the first, one between two full rows
    # and the last two, which a segmented sum must not read past.
    row_ptr = np.array([0, 0, 3, 3, 4, 7, 7, 7], dtype=np.int32)
    col_idx = np.array([0, 2, 5, 1, 5, 3, 4], dtype=np.int32)
    values = np.array([2, -3, 7, 11, -1, 5, 2**30], dtype=np.int32)
    app = SpMV(nr_dpus=2, n_rows=7, n_cols=6)
    app.csr = CsrMatrix(7, 6, row_ptr, col_idx, values)
    app.x = np.array([1, 4, -2, 9, 2**30, 3], dtype=np.int32)
    # The row loop the vectorised reference replaced, as the oracle.
    oracle = np.zeros(7, dtype=np.int64)
    for r in range(7):
        s, e = int(row_ptr[r]), int(row_ptr[r + 1])
        oracle[r] = (values[s:e].astype(np.int64)
                     * app.x[col_idx[s:e]].astype(np.int64)).sum()
    assert oracle.tolist() == [0, 29, 0, 44, -3 + 45 + 2**60, 0, 0]
    assert np.array_equal(app.expected(), oracle)


# -- MLP -----------------------------------------------------------------------

def test_mlp_small_layers():
    rep = native(MultilayerPerceptron(nr_dpus=8,
                                      layer_sizes=(64, 32, 32, 16)))
    assert rep.verified


def test_mlp_two_layers():
    rep = native(MultilayerPerceptron(nr_dpus=4, layer_sizes=(32, 32, 8)),
                 dpus_per_rank=4)
    assert rep.verified


def test_mlp_relu_clamps_negatives():
    app = MultilayerPerceptron(nr_dpus=4, layer_sizes=(16, 16, 8))
    # Force all-negative weights: the output must be ReLU-zeroed.
    app.weights = [np.full_like(w, -1) for w in app.weights]
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=4))
    rep = vpim.native_session().run(app)
    assert rep.verified
    assert (app.expected() == 0).all()


def test_mlp_layer_count_flexible():
    rep = native(MultilayerPerceptron(nr_dpus=4,
                                      layer_sizes=(32, 32, 32, 32, 8)),
                 dpus_per_rank=4)
    assert rep.verified
