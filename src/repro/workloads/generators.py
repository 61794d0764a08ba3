"""Deterministic synthetic workload generators.

Every generator takes a ``seed`` so experiments are reproducible and the
CPU references in the app modules verify against the exact same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_array(n: int, dtype=np.int32, lo: int = 0, hi: int = 1 << 16,
                 seed: int = 0) -> np.ndarray:
    """Uniform random integer array."""
    return _rng(seed).integers(lo, hi, size=n, dtype=dtype)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct keys of a 1-D integer array, as ``np.unique``
    returns them: sort, then keep each key that differs from its left
    neighbour.

    numpy 2.3+ answers ``np.unique`` on integers from a hash table and
    sorts the survivors afterwards; on half a million keys that is
    ~45x slower than one sort.
    """
    keys = np.sort(keys)
    if keys.size:
        keep = np.empty(keys.size, dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    return keys


def sorted_array(n: int, dtype=np.int64, seed: int = 0) -> np.ndarray:
    """Sorted array of distinct-ish values (binary-search input)."""
    arr = np.cumsum(_rng(seed).integers(1, 8, size=n, dtype=dtype))
    return arr.astype(dtype, copy=False)


def random_matrix(rows: int, cols: int, dtype=np.int32, lo: int = 0,
                  hi: int = 64, seed: int = 0) -> np.ndarray:
    """Dense random matrix (GEMV / TRNS input)."""
    return _rng(seed).integers(lo, hi, size=(rows, cols), dtype=dtype)


@dataclass
class CsrMatrix:
    """Compressed sparse row matrix with int32 values."""

    nr_rows: int
    nr_cols: int
    row_ptr: np.ndarray   #: int32, len nr_rows + 1
    col_idx: np.ndarray   #: int32
    values: np.ndarray    #: int32

    @property
    def nnz(self) -> int:
        return int(self.values.size)


def random_csr(rows: int, cols: int, nnz_per_row: int = 8,
               seed: int = 0) -> CsrMatrix:
    """Random CSR matrix with ~``nnz_per_row`` entries per row.

    Column indices are sampled with replacement and deduplicated per row
    (vectorized), so the effective count can be slightly below the draw;
    with nnz << cols collisions are rare.
    """
    rng = _rng(seed)
    counts = rng.integers(1, max(2, 2 * nnz_per_row), size=rows)
    counts = np.minimum(counts, cols).astype(np.int64)
    draw_ptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(counts, out=draw_ptr[1:])
    draws = rng.integers(0, cols, size=int(draw_ptr[-1]), dtype=np.int64)
    # Deduplicate per row without a Python loop: sort (row, col) pairs and
    # drop repeated pairs.
    row_of = np.repeat(np.arange(rows, dtype=np.int64), counts)
    keys = sorted_unique(row_of * cols + draws)
    row_final = keys // cols
    col_idx = (keys % cols).astype(np.int32)
    row_counts = np.bincount(row_final, minlength=rows)
    # Guarantee at least one entry per row.
    empty = np.nonzero(row_counts == 0)[0]
    if empty.size:
        extra_cols = rng.integers(0, cols, size=empty.size)
        keys = sorted_unique(np.concatenate([keys, empty * cols + extra_cols]))
        row_final = keys // cols
        col_idx = (keys % cols).astype(np.int32)
        row_counts = np.bincount(row_final, minlength=rows)
    row_ptr = np.zeros(rows + 1, dtype=np.int32)
    np.cumsum(row_counts, out=row_ptr[1:])
    values = rng.integers(1, 16, size=col_idx.size, dtype=np.int32)
    return CsrMatrix(rows, cols, row_ptr, col_idx, values)


def random_graph_csr(nr_vertices: int, avg_degree: int = 4,
                     seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Random directed graph in CSR form: (row_ptr, col_idx).

    Built to be mostly connected from vertex 0 (a spine plus random
    edges) so BFS reaches a meaningful fraction of the graph.
    """
    rng = _rng(seed)
    n = nr_vertices
    spine_src = np.arange(n - 1, dtype=np.int64)
    spine_dst = spine_src + 1
    extra = n * max(0, avg_degree - 1)
    src = rng.integers(0, n, size=extra)
    dst = rng.integers(0, n, size=extra)
    keep = src != dst
    all_src = np.concatenate([spine_src, src[keep]])
    all_dst = np.concatenate([spine_dst, dst[keep]])
    keys = sorted_unique(all_src * n + all_dst)
    srcs = keys // n
    col_idx = (keys % n).astype(np.int32)
    row_ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(srcs, minlength=n), out=row_ptr[1:])
    return row_ptr, col_idx


#: Normals per ``random_image`` draw.  One draw for a 16M-pixel image is
#: a 128 MB float64 array; ``Generator.normal`` continues one stream
#: across draws, so the pixels do not depend on the chunk.
IMAGE_CHUNK = 1 << 18


def random_image(nr_pixels: int, depth: int = 256, seed: int = 0,
                 ) -> np.ndarray:
    """Pixel stream with a skewed (roughly Gaussian) intensity histogram."""
    rng = _rng(seed)
    out = np.empty(nr_pixels, dtype=np.uint16)
    for start in range(0, nr_pixels, IMAGE_CHUNK):
        vals = rng.normal(loc=depth / 2, scale=depth / 6,
                          size=min(IMAGE_CHUNK, nr_pixels - start))
        out[start:start + vals.size] = np.clip(vals, 0, depth - 1, out=vals)
    return out
