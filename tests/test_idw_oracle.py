"""Vectorised IDW gridding against the per-centre loop, bit for bit.

`_loop_idw` is the original grid_idw, one grid centre at a time, kept
here only as an oracle. grid_idw gathers the centres with k neighbours
into one C-contiguous (m, k) array and reduces each row with np.sum, the
same pairwise summation the loop's 1-D np.sum does, so every cell must
carry the loop's float bits. The neighbour counts are chosen to cross
numpy's pairwise-sum thresholds (an 8-wide unrolled loop below 8 values,
blocks of 128 above), and _IDW_BLOCK / _IDW_PAIRS are shrunk so that
blocks and row chunks end inside a group of equal counts, _IDW_CANDIDATES
so that candidate batches end inside a block.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from aerosurvey import gridding
from aerosurvey.gridding import NODATA, grid_idw

# fixed, derandomized profile: the same examples on every run
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None,
                    database=None)

# samples around one centre; crosses the pairwise-sum thresholds
CLUSTER_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128, 129, 300, 517)


def _loop_idw(x, y, values, cell_size, search_radius, power=2.0):
    """(values, valid) of the original per-centre grid_idw loop."""
    origin = (float(x.min()) - cell_size / 2.0,
              float(y.min()) - cell_size / 2.0)
    nx = int(math.floor((x.max() - x.min()) / cell_size * (1 + 1e-12) + 1e-9)) + 1
    ny = int(math.floor((y.max() - y.min()) / cell_size * (1 + 1e-12) + 1e-9)) + 1
    xs = origin[0] + (np.arange(nx) + 0.5) * cell_size
    ys = origin[1] + (np.arange(ny) + 0.5) * cell_size
    cx, cy = np.meshgrid(xs, ys)
    centers = np.column_stack([cx.ravel(), cy.ravel()])
    tree = cKDTree(np.column_stack([x, y]))
    out = np.full(centers.shape[0], np.nan)
    for start in range(0, len(centers), 1024):
        block = centers[start:start + 1024]
        for i, idx in enumerate(tree.query_ball_point(block, r=search_radius),
                                start):
            if not idx:
                continue
            d = np.hypot(x[idx] - centers[i, 0], y[idx] - centers[i, 1])
            j = int(np.argmin(d))
            if d[j] < 1e-9:  # exactness at nodes
                out[i] = values[idx][j]
                continue
            w = d ** (-power)
            out[i] = float(np.sum(w * values[idx]) / np.sum(w))
    out = out.reshape(ny, nx)
    valid = np.isfinite(out)
    out[~valid] = NODATA
    return out, valid


def _assert_same_bits(x, y, v, cell, radius, **kw):
    want, valid = _loop_idw(x, y, v, cell, radius, **kw)
    got = grid_idw(x, y, v, cell, radius, **kw)
    assert got.values.shape == want.shape
    assert got.values.tobytes() == want.tobytes()
    assert np.array_equal(got.valid, valid)


@st.composite
def clustered_samples(draw):
    """Clusters of chosen sizes on the 1 m cell centres of a small grid.

    The far sample at the origin makes the centres the integer points,
    and the clusters sit on the centres 1..nx by 1..ny. A cluster within
    0.3 m of its centre is that centre's whole neighbourhood at a 0.45 m
    radius; centres without a cluster are empty. Some clusters put one or
    several samples exactly on the centre.
    """
    ny, nx = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    sizes = draw(st.lists(st.sampled_from(CLUSTER_SIZES), min_size=1,
                          max_size=4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    xs, ys = np.arange(nx) + 1.0, np.arange(ny) + 1.0
    cells = rng.choice(nx * ny, size=min(len(sizes), nx * ny), replace=False)
    x, y = [], []
    for n, cell in zip(sizes, cells):
        r, c = divmod(int(cell), nx)
        ang = rng.uniform(0.0, 2 * np.pi, n)
        rad = rng.uniform(0.0, 0.3, n)
        px, py = xs[c] + rad * np.cos(ang), ys[r] + rad * np.sin(ang)
        on_node = draw(st.integers(0, min(n, 3)))
        px[:on_node], py[:on_node] = xs[c], ys[r]
        x.append(px)
        y.append(py)
    # three far samples keep >= 3 samples and pin the extent
    x.append(np.array([0.0, nx + 5.0, 0.0]))
    y.append(np.array([0.0, 0.0, ny + 5.0]))
    x, y = np.concatenate(x), np.concatenate(y)
    order = rng.permutation(len(x))
    v = rng.normal(54000.0, 50.0, len(x))
    return x[order], y[order], v


@given(sample=clustered_samples(),
       power=st.sampled_from([2.0, 1.0, 0.5, 3.0, 2.7]),
       block=st.sampled_from([1, 2, 3, 7, 1024]),
       pairs=st.sampled_from([1, 5, 130, 600, 1 << 14]),
       cands=st.sampled_from([1, 300, 1 << 15]))
@PROPERTY
def test_grid_idw_matches_loop_on_clusters(sample, power, block, pairs, cands):
    x, y, v = sample
    with mock.patch.object(gridding, "_IDW_BLOCK", block), \
            mock.patch.object(gridding, "_IDW_PAIRS", pairs), \
            mock.patch.object(gridding, "_IDW_CANDIDATES", cands):
        _assert_same_bits(x, y, v, 1.0, 0.45, power=power)


@given(n=st.integers(3, 400), seed=st.integers(0, 2 ** 32 - 1),
       cell=st.sampled_from([0.5, 1.0, 2.5, 10.0]),
       reach=st.sampled_from([0.3, 1.0, 2.0, 4.0]),
       power=st.sampled_from([2.0, 1.5, 3.0]),
       block=st.sampled_from([5, 64, 1024]),
       pairs=st.sampled_from([7, 200, 1 << 14]),
       cands=st.sampled_from([1, 50, 1 << 15]))
@PROPERTY
def test_grid_idw_matches_loop_on_scattered_samples(n, seed, cell, reach,
                                                    power, block, pairs,
                                                    cands):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 40.0, n)
    y = rng.uniform(0.0, 25.0, n)
    v = rng.normal(size=n)
    with mock.patch.object(gridding, "_IDW_BLOCK", block), \
            mock.patch.object(gridding, "_IDW_PAIRS", pairs), \
            mock.patch.object(gridding, "_IDW_CANDIDATES", cands):
        _assert_same_bits(x, y, v, cell, reach * cell, power=power)


def test_grid_idw_matches_loop_on_a_dense_survey_grid():
    # lines 50 m apart sampled every 2 m at 10 m and 100 m cells: tens to
    # several thousand neighbours per centre, default block and pair sizes
    rng = np.random.default_rng(3)
    along = np.arange(0.0, 1000.0, 2.0)
    x = np.concatenate([along] * 6) + rng.normal(0.0, 0.5, 6 * along.size)
    y = np.repeat(np.arange(6) * 50.0, along.size) + rng.normal(0.0, 1.0, x.size)
    v = 54000.0 + np.cumsum(rng.normal(0.0, 0.3, x.size))
    for cell in (5.0, 10.0, 100.0):
        _assert_same_bits(x, y, v, cell, 4.0 * cell)
