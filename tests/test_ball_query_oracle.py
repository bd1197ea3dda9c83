"""grid_idw's binned neighbour query against scipy's k-d tree.

gridding._Bins.neighbours must give exactly the lists that
cKDTree.query_ball_point gives for a block of centres: the samples with
dx*dx + dy*dy <= r*r, each list in ascending index order. The cases aim
at the places a bucket query can go wrong: samples exactly at distance r
(integer coordinates make every distance exact), samples on bin edges,
duplicate samples, every sample in one bin, centres far outside the
samples' bins, and candidate budgets that end a batch inside a block or
leave one centre with more candidates than the budget.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from aerosurvey import gridding

# fixed, derandomized profile: the same examples on every run
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None,
                    database=None)
BUDGETS = st.sampled_from([1, 2, 7, 64, 1 << 15])


def _tree_lists(x, y, centres, r):
    lists = cKDTree(np.column_stack([x, y])).query_ball_point(centres, r=r)
    return [len(ix) for ix in lists], [i for ix in lists for i in ix]


def _assert_same_lists(x, y, centres, r, budget):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    centres = np.asarray(centres, dtype=float).reshape(-1, 2)
    with mock.patch.object(gridding, "_IDW_CANDIDATES", budget):
        counts, flat = gridding._Bins(x, y, float(r)).neighbours(centres)
    assert (counts.tolist(), flat.tolist()) == _tree_lists(x, y, centres, r)


@given(pts=st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                    min_size=3, max_size=60),
       centres=st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                        min_size=1, max_size=40),
       r=st.sampled_from([1, 2, 3, 5, 10, 13, 25]),
       budget=BUDGETS)
@PROPERTY
def test_integer_lattice_keeps_samples_exactly_at_r(pts, centres, r, budget):
    # (3, 4, 5), (5, 12, 13), (7, 24, 25): many samples sit exactly at r,
    # and duplicate lattice points are common
    x, y = zip(*pts)
    _assert_same_lists(x, y, centres, r, budget)


@given(ks=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                             st.sampled_from([-1, 0, 1])),
                   min_size=3, max_size=50),
       r=st.sampled_from([0.45, 1.0, 7.3, 40.0]),
       offset=st.sampled_from([0.0, 5e5, -3.25e3]),
       centres=st.lists(st.tuples(st.integers(-4, 10), st.integers(-4, 10)),
                        min_size=1, max_size=30),
       budget=BUDGETS)
@PROPERTY
def test_samples_on_bin_edges(ks, r, offset, centres, budget):
    # samples on the edges of the query's bins, or one ulp either side
    side = r * (1 + 1e-6)
    kx, ky, nudge = (np.array(a) for a in zip(*ks))
    x = offset + np.concatenate([[0.0], kx * side])
    y = offset + np.concatenate([[0.0], ky * side])
    x[1:] = np.where(nudge > 0, np.nextafter(x[1:], np.inf),
                     np.where(nudge < 0, np.nextafter(x[1:], -np.inf), x[1:]))
    c = offset + np.array(centres, dtype=float) * side
    # centres on bin edges, and at exactly r from the edge samples
    _assert_same_lists(x, y, np.vstack([c, c + [r, 0.0], c - [0.0, r]]), r,
                       budget)


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 200),
       dup=st.integers(1, 5), spread=st.sampled_from([0.0, 1e-9, 0.3, 50.0]),
       r=st.sampled_from([0.5, 2.0, 30.0]), budget=BUDGETS)
@PROPERTY
def test_duplicates_and_a_single_bin(seed, n, dup, spread, r, budget):
    # a spread below r puts every sample in one bin; a zero spread makes
    # every sample a duplicate of one point
    rng = np.random.default_rng(seed)
    x = np.repeat(rng.uniform(0.0, spread, n), dup)
    y = np.repeat(rng.uniform(0.0, spread, n), dup)
    order = rng.permutation(x.size)
    centres = rng.uniform(-r, spread + r, (25, 2))
    _assert_same_lists(x[order], y[order], centres, r, budget)


@given(seed=st.integers(0, 2 ** 32 - 1),
       shift=st.sampled_from([1.5, 2.0, 2.5, 3.0, 1e3, 1e9]),
       r=st.sampled_from([0.45, 3.0]), budget=BUDGETS)
@PROPERTY
def test_grid_centres_far_outside_the_samples(seed, shift, r, budget):
    # a custom origin and shape put the grid bins, or far, past the samples
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(0.0, 10.0, 80), rng.uniform(0.0, 10.0, 80)
    for sign in (-1.0, 1.0):
        origin = sign * shift * r * np.array([1.0, 0.3])
        xs = origin[0] + np.arange(-3, 15) * r
        ys = origin[1] + np.arange(-3, 15) * r
        cx, cy = np.meshgrid(xs, ys)
        _assert_same_lists(x, y, np.column_stack([cx.ravel(), cy.ravel()]),
                           r, budget)


@pytest.mark.parametrize("cell, radius", [(10.0, 40.0), (100.0, 400.0),
                                          (10.0, 75.0), (100.0, 200.0),
                                          (5.0, 20.0)])
def test_survey_lines_at_grid_idw_cell_sizes(cell, radius):
    # lines 50 m apart sampled every 2 m plus a tie line, on the centres
    # grid_idw makes; at 400 m a budget of 1000 is below one centre's
    # candidates
    rng = np.random.default_rng(7)
    along = np.arange(0.0, 1500.0, 2.0)
    x = np.concatenate([np.tile(along, 6), np.full(150, 700.0)])
    y = np.concatenate([np.repeat(np.arange(6) * 50.0, along.size),
                        np.linspace(0.0, 250.0, 150)])
    x += rng.normal(0.0, 0.5, x.size)
    y += rng.normal(0.0, 1.0, y.size)
    xs = x.min() - cell / 2 + (np.arange(int(np.ptp(x) / cell) + 1) + 0.5) * cell
    ys = y.min() - cell / 2 + (np.arange(int(np.ptp(y) / cell) + 1) + 0.5) * cell
    cx, cy = np.meshgrid(xs, ys)
    centres = np.column_stack([cx.ravel(), cy.ravel()])
    for budget in (gridding._IDW_CANDIDATES, 1000):
        _assert_same_lists(x, y, centres, radius, budget)
