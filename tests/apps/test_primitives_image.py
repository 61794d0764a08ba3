"""Per-app edge cases: RED, SCAN-SSA/RSS, TRNS, HST-S/L (primitives/image)."""

import numpy as np
import pytest

from repro.apps.prim.hst_l import HistogramLong
from repro.apps.prim.hst_s import HistogramShort
from repro.apps.prim.red import Reduction
from repro.apps.prim.scan_rss import ScanRss
from repro.apps.prim.scan_ssa import ScanSsa
from repro.apps.prim.trns import Transpose
from tests.conftest import run_native


# -- RED -----------------------------------------------------------------------

def test_red_negative_values():
    app = Reduction(nr_dpus=4, n_elements=1024)
    app.data = np.full(1024, -3, dtype=np.int32)
    rep = run_native(app, dpus_per_rank=4)
    assert rep.verified
    assert app.expected() == -3072


def test_red_int64_accumulation():
    """Partial sums larger than int32 must not overflow."""
    app = Reduction(nr_dpus=4, n_elements=4096)
    app.data = np.full(4096, 2 ** 30, dtype=np.int32)
    rep = run_native(app, dpus_per_rank=4)
    assert rep.verified
    assert app.expected() == 4096 * 2 ** 30


def test_red_uneven_split():
    rep = run_native(Reduction(nr_dpus=7, n_elements=1000), dpus_per_rank=7)
    assert rep.verified


# -- SCAN ----------------------------------------------------------------------

@pytest.mark.parametrize("cls", [ScanSsa, ScanRss])
def test_scan_single_element(cls):
    rep = run_native(cls(nr_dpus=1, n_elements=1), dpus_per_rank=1)
    assert rep.verified


@pytest.mark.parametrize("cls", [ScanSsa, ScanRss])
def test_scan_uneven_split(cls):
    rep = run_native(cls(nr_dpus=7, n_elements=999), dpus_per_rank=7)
    assert rep.verified


@pytest.mark.parametrize("cls", [ScanSsa, ScanRss])
def test_scan_constant_input(cls):
    app = cls(nr_dpus=4, n_elements=512)
    app.data = np.ones(512, dtype=np.int32)
    rep = run_native(app, dpus_per_rank=4)
    assert rep.verified
    assert np.array_equal(app.expected(), np.arange(1, 513))


def test_scan_variants_agree():
    a = ScanSsa(nr_dpus=4, n_elements=2048, seed=3)
    b = ScanRss(nr_dpus=4, n_elements=2048, seed=3)
    assert np.array_equal(a.expected(), b.expected())


# -- TRNS ----------------------------------------------------------------------

def test_trns_square():
    rep = run_native(Transpose(nr_dpus=4, n_rows=64, n_cols=64, tile_dim=16),
                 dpus_per_rank=4)
    assert rep.verified


def test_trns_rectangular():
    rep = run_native(Transpose(nr_dpus=4, n_rows=32, n_cols=128, tile_dim=16),
                 dpus_per_rank=4)
    assert rep.verified


def test_trns_tile_equals_matrix():
    rep = run_native(Transpose(nr_dpus=1, n_rows=16, n_cols=16, tile_dim=16),
                 dpus_per_rank=1)
    assert rep.verified


def test_trns_rejects_non_divisible():
    with pytest.raises(ValueError):
        Transpose(nr_dpus=4, n_rows=100, n_cols=64, tile_dim=16)


def test_trns_involution():
    app = Transpose(nr_dpus=4, n_rows=32, n_cols=32, tile_dim=16)
    assert np.array_equal(app.expected().T, app.matrix)


# -- HST -----------------------------------------------------------------------

def test_hst_s_counts_sum_to_pixels():
    app = HistogramShort(nr_dpus=8, n_pixels=1 << 14)
    assert int(app.expected().sum()) == 1 << 14
    rep = run_native(app)
    assert rep.verified


def test_hst_l_counts_sum_to_pixels():
    app = HistogramLong(nr_dpus=8, n_pixels=1 << 14, n_bins=512)
    assert int(app.expected().sum()) == 1 << 14
    rep = run_native(app)
    assert rep.verified


def test_hst_l_large_bins_multi_pass():
    """Bin counts too large for per-tasklet WRAM trigger the multi-pass
    path but must stay correct."""
    rep = run_native(HistogramLong(nr_dpus=4, n_pixels=1 << 13, n_bins=4096),
                 dpus_per_rank=4)
    assert rep.verified


def test_hst_variants_agree_on_256_bins():
    s = HistogramShort(nr_dpus=4, n_pixels=1 << 13, seed=5)
    l = HistogramLong(nr_dpus=4, n_pixels=1 << 13, n_bins=256, seed=5)
    assert np.array_equal(s.expected(), l.expected())


def test_hst_single_intensity():
    app = HistogramShort(nr_dpus=4, n_pixels=1024)
    app.pixels = np.full(1024, 42, dtype=np.uint16)
    rep = run_native(app, dpus_per_rank=4)
    assert rep.verified
    assert app.expected()[42] == 1024
