"""Algorithmic property tests: vectorized kernels vs brute-force oracles.

Several kernels use non-obvious vectorizations (NW's prefix-max trick
for the in-row gap dependency, BS's searchsorted, TS's stride tricks).
These tests pin them against straightforward O(n^2)/O(n*m) references on
small random instances.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.prim.bfs import BfsProgram
from repro.apps.prim.nw import GAP, MATCH, MISMATCH, _dp_rows, nw_score
from repro.apps.prim.spmv import SpmvProgram
from repro.apps.prim.ts import _ssd_profile
from repro.hardware.dpu import Dpu
from repro.hardware.timing import DEFAULT_COST_MODEL
from repro.sdk.runtime import run_program
from tests.apps.reference_kernels import PerRowSpmv, PerTaskletBfs


def classic_nw(a: np.ndarray, b: np.ndarray) -> int:
    """Textbook O(n*m) Needleman-Wunsch, no vectorization."""
    n, m = len(a), len(b)
    H = np.zeros((n + 1, m + 1), dtype=np.int64)
    H[0, :] = -GAP * np.arange(m + 1)
    H[:, 0] = -GAP * np.arange(n + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = MATCH if a[i - 1] == b[j - 1] else MISMATCH
            H[i, j] = max(H[i - 1, j - 1] + sub,
                          H[i - 1, j] - GAP,
                          H[i, j - 1] - GAP)
    return int(H[n, m])


@given(
    a=st.lists(st.integers(0, 3), min_size=1, max_size=24),
    b=st.lists(st.integers(0, 3), min_size=1, max_size=24),
)
@settings(max_examples=60, deadline=None)
def test_nw_vectorized_matches_classic(a, b):
    a = np.array(a, dtype=np.int8)
    b = np.array(b, dtype=np.int8)
    assert nw_score(a, b) == classic_nw(a, b)


@given(
    a=st.lists(st.integers(0, 3), min_size=2, max_size=32).filter(
        lambda xs: len(xs) % 2 == 0),
)
@settings(max_examples=40, deadline=None)
def test_nw_blocked_equals_monolithic(a):
    """Splitting the DP into blocks along boundaries is exact."""
    seq = np.array(a, dtype=np.int8)
    half = seq.size // 2
    # Monolithic.
    top = -GAP * np.arange(seq.size + 1, dtype=np.int64)
    left = -GAP * np.arange(1, seq.size + 1, dtype=np.int64)
    mono_bottom, _ = _dp_rows(seq, seq, top, left)

    # Two block columns: compute [all rows] x [left half], then feed its
    # right column into [all rows] x [right half].
    top_l = -GAP * np.arange(half + 1, dtype=np.int64)
    bottom_l, right_l = _dp_rows(seq, seq[:half], top_l, left)
    top_r = np.concatenate([
        [-GAP * half],
        -GAP * (np.arange(1, half + 1, dtype=np.int64) + half),
    ])
    bottom_r, _ = _dp_rows(seq, seq[half:], top_r, right_l)
    assert int(bottom_r[-1]) == int(mono_bottom[-1])


@given(
    series=st.lists(st.integers(-20, 20), min_size=4, max_size=64),
    m=st.integers(2, 4),
)
@settings(max_examples=50, deadline=None)
def test_ts_ssd_matches_bruteforce(series, m):
    series = np.array(series, dtype=np.int32)
    if series.size < m:
        return
    query = series[:m].copy() + 1
    fast = _ssd_profile(series, query)
    for i in range(series.size - m + 1):
        window = series[i:i + m].astype(np.int64)
        brute = int(((window - query) ** 2).sum())
        assert int(fast[i]) == brute


@given(st.lists(st.integers(0, 1 << 30), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_checksum_is_sum_mod_2_32(values):
    from repro.apps.micro.checksum import Checksum
    app = Checksum(nr_dpus=2, file_mb=0.01)
    data = np.array([v % 256 for v in values], dtype=np.uint8)
    app.file = data
    assert app.expected() == int(data.astype(np.uint64).sum()) % (1 << 32)


@given(
    n=st.integers(2, 200),
    queries=st.lists(st.integers(0, 10_000), min_size=1, max_size=32),
)
@settings(max_examples=40, deadline=None)
def test_bs_expected_matches_linear_scan(n, queries):
    from repro.apps.prim.bs import BinarySearch
    app = BinarySearch(nr_dpus=2, n_elements=n, n_queries=len(queries))
    app.queries = np.array(queries, dtype=np.int64)
    expected = app.expected()
    for qi, q in enumerate(queries):
        matches = np.nonzero(app.data == q)[0]
        if matches.size:
            assert expected[qi] == matches[0]
        else:
            assert expected[qi] == -1


# -- rank-form kernels vs their tasklet-form references ------------------------
#
# BFS computes one frontier expansion per launch and SpMV one segmented
# sum per DPU.  ``tests/apps/reference_kernels.py`` keeps the bodies they
# replaced (one small expansion per tasklet, a Python loop over rows) as
# reference programs: same MRAM in, so same MRAM out, the same
# instruction count for every tasklet, the same DMA charges, and
# therefore bit-for-bit the same modeled launch time.
# ``tests/apps/test_kernel_equivalence.py`` draws from the same shapes
# for its wider comparison (symbols, dirty log, the DPU forms, launches
# of several DPUs) of all 16 programs.
def launch(program, args, mram, span):
    """Run ``program`` on a fresh DPU holding ``mram`` (offset -> array);
    returns what a launch leaves behind and what it is charged."""
    dpu = Dpu(0, 0)
    dpu.load_program(program, program.binary_size, program.symbols)
    dpu.write_symbol("args", 0, np.array(args, np.uint32).tobytes())
    for offset, data in mram.items():
        dpu.mram.write(offset, np.ascontiguousarray(data).view(np.uint8))
    stats = run_program(program, [dpu])
    seconds = DEFAULT_COST_MODEL.dpu_run_time(
        stats.tasklet_instructions, stats.dma_ops, stats.dma_bytes)
    return (dpu.mram.read(0, span).tobytes(), stats.tasklet_instructions,
            stats.dma_ops, stats.dma_bytes, seconds.hex())


@st.composite
def csr_slices(draw, max_rows, max_row_len):
    """Row pointers of one DPU's slice: empty rows are common, and an
    empty slice, one shorter than the 16 tasklets and one that does not
    divide by them all occur."""
    n_rows = draw(st.integers(0, max_rows))
    sizes = draw(st.lists(st.sampled_from([0, 0, 1, 2, max_row_len]),
                          min_size=n_rows, max_size=n_rows))
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)]).astype(
        np.int32)


@st.composite
def bfs_cases(draw):
    """One DPU's share of a BFS level: ``(args, mram, span)``."""
    row_ptr = draw(csr_slices(max_rows=70, max_row_len=5))
    first = draw(st.integers(0, 70))
    n_owned = row_ptr.size - 1
    nv = first + n_owned + draw(st.integers(1, 70))
    col_idx = np.array(draw(st.lists(
        st.integers(0, nv - 1),
        min_size=int(row_ptr[-1]), max_size=int(row_ptr[-1]))), np.int32)
    # Any mix of bits (all clear and all set included), or one vertex
    # only: at most one tasklet has work.
    frontier = np.array(draw(st.one_of(
        st.lists(st.integers(0, 1), min_size=nv, max_size=nv),
        st.integers(0, nv - 1).map(lambda v: np.arange(nv) == v),
    )), dtype=np.uint8)
    col_off = (n_owned + 1) * 4
    f_off = col_off + (col_idx.size + 1) // 2 * 8
    n_off = f_off + ((nv + 7) // 8 + 7) // 8 * 8
    args = [nv, first, n_owned, col_off, f_off, n_off]
    mram = {0: row_ptr, f_off: np.packbits(frontier)}
    if col_idx.size:
        mram[col_off] = col_idx
    return args, mram, n_off + (nv + 7) // 8


@given(case=bfs_cases())
@settings(max_examples=100, deadline=None)
def test_bfs_dpu_wide_expansion_matches_per_tasklet_kernel(case):
    assert launch(BfsProgram(), *case) == launch(PerTaskletBfs(), *case)


@st.composite
def spmv_cases(draw):
    """One DPU's rows of a sparse matrix: ``(args, mram, span)``."""
    row_ptr = draw(csr_slices(max_rows=70, max_row_len=6))
    n_cols = draw(st.integers(1, 40))
    n_rows, nnz = row_ptr.size - 1, int(row_ptr[-1])
    int32s = st.integers(-(1 << 31), (1 << 31) - 1)
    col_idx = np.array(draw(st.lists(
        st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)), np.int32)
    # Full-range values: six 2**62 products wrap int64, identically.
    values = np.array(draw(st.lists(int32s, min_size=nnz, max_size=nnz)),
                      np.int32)
    x = np.array(draw(st.lists(int32s, min_size=n_cols, max_size=n_cols)),
                 np.int32)
    col_off = (n_rows + 1) * 4
    val_off = col_off + nnz * 4
    x_off = val_off + nnz * 4
    y_off = (x_off + n_cols * 4 + 7) // 8 * 8
    args = [n_rows, nnz, n_cols, col_off, val_off, x_off, y_off]
    mram = {0: row_ptr, x_off: x}
    if nnz:
        mram.update({col_off: col_idx, val_off: values})
    return args, mram, y_off + n_rows * 8


@given(case=spmv_cases())
@settings(max_examples=80, deadline=None)
def test_spmv_segmented_sum_matches_per_row_kernel(case):
    assert launch(SpmvProgram(), *case) == launch(PerRowSpmv(), *case)
