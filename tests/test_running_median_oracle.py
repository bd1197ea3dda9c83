"""noise_amplitude's running median against scipy.ndimage.median_filter.

emi._running_median(x, k) must give exactly median_filter(x, size=k,
mode="nearest") for every odd k up to len(x): the window's middle order
statistic, with the end samples repeated past either end. Values drawn
from a few integers make ties common; the row block of the partition is
shrunk so that blocks end inside the trace.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import median_filter

from aerosurvey import emi
from aerosurvey.core import TimeSeries

# fixed, derandomized profile: the same examples on every run
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None,
                    database=None)
VALUES = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False))


def _assert_same_median(x: np.ndarray, k: int) -> None:
    got = emi._running_median(x, k)
    ref = median_filter(x, size=k, mode="nearest")
    assert got.dtype == ref.dtype == np.float64
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@given(data=st.data(), values=st.lists(VALUES, min_size=1, max_size=80),
       cells=st.sampled_from([1, 5, 64, 1 << 18]))
@PROPERTY
def test_running_median_matches_median_filter(data, values, cells):
    x = np.array(values, dtype=float)
    k = 2 * data.draw(st.integers(0, (len(x) - 1) // 2)) + 1
    with mock.patch.object(emi, "_MEDIAN_CELLS", cells):
        _assert_same_median(x, k)


@pytest.mark.parametrize("n, k", ((2700, 11), (10_000, 101), (3001, 3001)))
def test_running_median_matches_median_filter_on_long_traces(n, k):
    rng = np.random.default_rng(n)
    _assert_same_median(rng.normal(size=n), k)
    _assert_same_median(rng.integers(0, 4, n).astype(float), k)


def test_noise_amplitude_is_that_of_median_filter():
    # the estimator as it read with median_filter in place of the median
    rng = np.random.default_rng(7)
    t = np.arange(3000) / 50.0
    x = np.sin(0.3 * t) + rng.normal(0.0, 0.1, t.size)
    resid = x - median_filter(x, size=51, mode="nearest")
    lo, hi = np.percentile(resid, [2.5, 97.5])
    assert emi.noise_amplitude(TimeSeries(t, x, ("buzz_nT",))) == \
        float(hi - lo) / 2.0
