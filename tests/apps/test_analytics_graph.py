"""Per-app edge cases: TS, BFS, NW (analytics / graph / bioinformatics)."""

import numpy as np
import pytest

from repro.apps.prim.bfs import BreadthFirstSearch, cpu_bfs
from repro.apps.prim.nw import GAP, MATCH, NeedlemanWunsch, nw_score
from repro.apps.prim.ts import TimeSeries, _ssd_profile
from repro.config import small_machine
from repro.core import VPim


def native(app, dpus_per_rank=8):
    vpim = VPim(small_machine(nr_ranks=1, dpus_per_rank=dpus_per_rank))
    return vpim.native_session().run(app)


# -- TS -----------------------------------------------------------------------

def test_ts_exact_match_found():
    app = TimeSeries(nr_dpus=4, n_points=2048, query_len=32)
    # Plant the query inside the series: distance 0 at that index.
    app.series[500:532] = app.query
    rep = native(app, dpus_per_rank=4)
    assert rep.verified
    dists = _ssd_profile(app.series, app.query)
    assert int(dists.min()) == 0


def test_ts_window_at_boundary():
    app = TimeSeries(nr_dpus=4, n_points=512, query_len=64)
    app.series[-64:] = app.query          # best window is the last one
    rep = native(app, dpus_per_rank=4)
    assert rep.verified


def test_ts_query_as_long_as_chunk():
    rep = native(TimeSeries(nr_dpus=4, n_points=256, query_len=64),
                 dpus_per_rank=4)
    assert rep.verified


def test_ts_ssd_profile_reference():
    series = np.array([1, 2, 3, 4], dtype=np.int32)
    query = np.array([2, 3], dtype=np.int32)
    dists = _ssd_profile(series, query)
    assert dists.tolist() == [2, 0, 2]


def test_ts_verify_rejects_an_index_outside_the_windows():
    app = TimeSeries(nr_dpus=4, n_points=1024, query_len=32)
    app.series[-32:] = app.query          # the last whole window matches
    # 993 is the first start whose window would run past the series.
    for index in (-1, 993, 1024, 10**6):
        assert app.verify(index) is False
    assert app.verify(992)


def _windowed_ssd(series, query):
    x, q = series.astype(np.int64), query.astype(np.int64)
    return np.array([int(((x[i:i + q.size] - q) ** 2).sum())
                     for i in range(x.size - q.size + 1)], dtype=np.int64)


@pytest.mark.parametrize("x_fill, q_fill", [
    (127, 127), (127, 0), (0, 127), (None, None)])
def test_ts_ssd_profile_exact_at_the_generator_maximum(x_fill, q_fill):
    rng = np.random.default_rng(7)

    def values(fill, n):        # None: a draw over the generator range
        if fill is None:
            return rng.integers(0, 128, size=n, dtype=np.int32)
        return np.full(n, fill, dtype=np.int32)

    series, query = values(x_fill, 4096), values(q_fill, 64)
    assert np.array_equal(_ssd_profile(series, query),
                          _windowed_ssd(series, query))


def test_ts_ssd_profile_past_the_float_bound_correlates_in_int64():
    # 3 * (2**26 + 1)**2 is past 2**53, and odd: float64 cannot hold the
    # window's cross term, so only the int64 branch gets it right.
    v = 2**26 + 1
    series = np.array([v, v, v, v - 2, 1], dtype=np.int64)
    query = np.array([v, v, v], dtype=np.int64)
    assert query.size * v * v >= 2**53
    floats = np.correlate(series.astype(np.float64),
                          query.astype(np.float64), mode="valid")
    assert int(floats[0]) != 3 * v * v
    assert np.array_equal(_ssd_profile(series, query),
                          _windowed_ssd(series, query))


# -- BFS -----------------------------------------------------------------------

def test_bfs_line_graph_levels():
    app = BreadthFirstSearch(nr_dpus=4, n_vertices=64, avg_degree=1)
    # avg_degree=1 keeps only the spine: level == vertex id.
    rep = native(app, dpus_per_rank=4)
    assert rep.verified
    assert app.expected().tolist() == list(range(64))


def test_bfs_unreachable_vertices():
    app = BreadthFirstSearch(nr_dpus=4, n_vertices=64, avg_degree=1,
                             source=32)
    rep = native(app, dpus_per_rank=4)
    assert rep.verified
    levels = app.expected()
    assert (levels[:32] == -1).all()       # the spine only goes forward


def test_bfs_source_level_zero():
    app = BreadthFirstSearch(nr_dpus=8, n_vertices=512)
    assert app.expected()[0] == 0
    rep = native(app)
    assert rep.verified


def test_bfs_cpu_reference_small():
    row_ptr = np.array([0, 2, 3, 3], dtype=np.int32)   # 0->1, 0->2, 1->2
    col_idx = np.array([1, 2, 2], dtype=np.int32)
    assert cpu_bfs(row_ptr, col_idx, 0).tolist() == [0, 1, 1]


# -- NW ------------------------------------------------------------------------

def test_nw_identical_sequences():
    app = NeedlemanWunsch(nr_dpus=4, seq_len=64, block_size=32)
    app.b = app.a.copy()
    rep = native(app, dpus_per_rank=4)
    assert rep.verified
    assert app.expected() == MATCH * 64    # all matches


def test_nw_completely_different():
    app = NeedlemanWunsch(nr_dpus=4, seq_len=64, block_size=32)
    app.a = np.zeros(64, dtype=np.int8)
    app.b = np.ones(64, dtype=np.int8)
    rep = native(app, dpus_per_rank=4)
    assert rep.verified
    # Mismatching everything (-1 each) beats gapping everything (-2 each).
    assert app.expected() == -64


def test_nw_score_matches_classic_dp():
    a = np.array([0, 1, 2, 3], dtype=np.int8)
    b = np.array([0, 9, 2, 3], dtype=np.int8)
    # 3 matches + 1 mismatch = 3*1 - 1 = 2.
    assert nw_score(a, b) == 2


def test_nw_single_block():
    rep = native(NeedlemanWunsch(nr_dpus=4, seq_len=32, block_size=32),
                 dpus_per_rank=4)
    assert rep.verified


def test_nw_more_blocks_than_dpus():
    rep = native(NeedlemanWunsch(nr_dpus=2, seq_len=256, block_size=32),
                 dpus_per_rank=2)
    assert rep.verified


def test_nw_rejects_bad_geometry():
    with pytest.raises(ValueError):
        NeedlemanWunsch(nr_dpus=4, seq_len=100, block_size=32)
    with pytest.raises(ValueError):
        NeedlemanWunsch(nr_dpus=4, seq_len=128, block_size=32, chunk_bytes=9)


def test_nw_gap_constant_sanity():
    # One gap must cost more than one mismatch (GAP=2 > |MISMATCH|=1).
    assert GAP > 1
