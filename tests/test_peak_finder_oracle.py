"""vibration._find_peaks against scipy.signal.find_peaks.

_find_peaks(x, p) must give exactly the indices find_peaks(x,
prominence=p)[0] gives: plateau midpoints, (left + right) // 2, no peak
at either end nor on a plateau that touches one, and a peak kept when
x[p] - max(left_min, right_min) >= p, each side scanned up to the first
strictly higher sample. Values drawn from a few integers make ties,
plateaus and peaks of equal height common; each array is tried at a
prominence of 0, at peaks' own prominences (the >= edge) and just
above every peak's. amplitude_spectrum must then give what it gave with
find_peaks in its place, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks, peak_prominences

from aerosurvey import vibration
from aerosurvey.core import TimeSeries, _median
from aerosurvey.vibration import _find_peaks, amplitude_spectrum

# fixed, derandomized profile: the same examples on every run
PROPERTY = settings(derandomize=True, max_examples=300, deadline=None,
                    database=None)


def _prominence_cases(x: np.ndarray) -> list[float]:
    """0, the peaks' own prominences (at most about 16 of them, spread
    over the peaks), and just above the largest."""
    prominences = peak_prominences(x, find_peaks(x)[0])[0]
    top = float(prominences.max(initial=0.0))
    own = prominences[::max(1, len(prominences) // 16)]
    return [0.0, *own.tolist(), np.nextafter(top, np.inf)]


def _assert_same_peaks(x: np.ndarray) -> None:
    for p in _prominence_cases(x):
        got = _find_peaks(x, p)
        ref = find_peaks(x, prominence=p)[0]
        assert got.tolist() == ref.tolist(), (x.tolist(), p)


@given(st.lists(st.integers(0, 3), min_size=3, max_size=60))
@PROPERTY
def test_find_peaks_matches_scipy_on_integer_values(values):
    _assert_same_peaks(np.array(values, dtype=float))


@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 4)),
                min_size=1, max_size=20))
@PROPERTY
def test_find_peaks_matches_scipy_on_plateaus(runs):
    # runs of 1-4 equal samples: odd and even plateaus, and plateaus at
    # either end
    x = np.repeat([float(v) for v, _ in runs], [k for _, k in runs])
    _assert_same_peaks(x)


@pytest.mark.parametrize("seed", range(12))
def test_find_peaks_matches_scipy_on_random_spectra(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 4098))
    x = np.abs(np.fft.rfft(rng.normal(size=2 * n - 2)))
    _assert_same_peaks(x)


@pytest.mark.parametrize("x, peaks", [
    ([0, 1, 0], [1]),
    ([0, 2, 2, 0], [1]),                 # even plateau: (1 + 2) // 2
    ([0, 2, 2, 2, 0], [2]),              # odd plateau: its middle sample
    ([0, 3, 3, 3, 3, 1], [2]),
    ([3, 3, 0, 1, 0], [3]),              # plateau at the start
    ([0, 1, 0, 3, 3], [1]),              # plateau at the end
    ([5, 1, 2, 1, 5], [2]),              # maxima at 0 and n - 1
    ([2, 0, 2, 0, 2, 0, 2], [2, 4]),     # equal heights
    ([4, 4, 4, 4], []),                  # flat
    ([0.0] * 9, []),                     # all zero
    ([1, 2], []),
    ([7], []),
])
def test_find_peaks_on_named_cases(x, peaks):
    x = np.array(x, dtype=float)
    assert _find_peaks(x, 0.0).tolist() == peaks
    _assert_same_peaks(x)


def test_prominence_is_scanned_to_the_first_strictly_higher_sample():
    # the peak at 5 (height 3) stops at x[2] = 4 on its left, never
    # reaching the 0 at index 1; its equal-height neighbour at 7 does not
    # stop the right scan
    x = np.array([9, 0, 4, 2, 2.5, 3, 1, 3, 0.5, 8], dtype=float)
    prominences = peak_prominences(x, find_peaks(x)[0])[0]
    assert find_peaks(x)[0].tolist() == [2, 5, 7]
    assert prominences.tolist() == [3.5, 1.0, 2.0]
    assert _find_peaks(x, 1.0).tolist() == [2, 5, 7]
    assert _find_peaks(x, np.nextafter(1.0, 2.0)).tolist() == [2, 7]
    _assert_same_peaks(x)


def _spectrum_with_scipy(series: TimeSeries, axis: str,
                         prominence_fraction: float) -> vibration.SpectrumResult:
    """amplitude_spectrum as it read with scipy's find_peaks."""
    x = vibration._axis_column(series, axis).astype(float)
    x = x - x.mean()
    n = len(x)
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    amps = 2.0 * np.abs(np.fft.rfft(x * w)) / w.sum()
    amps[0] *= 0.5
    if n % 2 == 0:
        amps[-1] *= 0.5
    freqs = np.fft.rfftfreq(n, d=_median(np.diff(series.t)))
    peaks: list[tuple[float, float]] = []
    top = float(amps.max())
    if top > 0:
        locs, _ = find_peaks(amps, prominence=prominence_fraction * top)
        peaks = [(float(freqs[i]), float(amps[i])) for i in locs]
        peaks.sort(key=lambda p: (-p[1], p[0]))
    return vibration.SpectrumResult(freqs, amps, tuple(peaks))


def _assert_same_spectrum(series: TimeSeries, fraction: float,
                          axis: str = "z") -> None:
    got = amplitude_spectrum(series, axis, fraction)
    ref = _spectrum_with_scipy(series, axis, fraction)
    assert np.array_equal(got.freqs.view(np.int64), ref.freqs.view(np.int64))
    assert np.array_equal(got.amplitudes.view(np.int64),
                          ref.amplitudes.view(np.int64))
    assert got.peaks == ref.peaks


def test_spectrum_is_that_of_find_peaks_on_random_traces():
    rng = np.random.default_rng(26)
    for trace in range(200):
        n = int(rng.integers(64, 8193))
        rate = float(rng.choice([50.0, 128.0, 256.0, 1000.0]))
        t = np.arange(n) / rate
        x = rng.normal(0.0, rng.uniform(0.0, 2.0), n)
        for _ in range(int(rng.integers(0, 4))):
            x += rng.uniform(0.1, 5.0) * np.sin(
                2 * np.pi * rng.uniform(0.0, rate / 2) * t + rng.uniform(0, 6))
        fraction = (0.0, 1.0)[trace] if trace < 2 else rng.uniform(0.0, 1.0)
        _assert_same_spectrum(TimeSeries(t, x, ("az_ms2",)), fraction)


@pytest.mark.parametrize("fraction", (0.0, 0.1, 0.5))
def test_spectrum_is_that_of_find_peaks_on_the_test_traces(fraction):
    t = np.arange(0.0, 8.0, 1.0 / 256.0)
    two_tone = 3.0 * np.sin(2 * np.pi * 33.0 * t) \
        + 1.2 * np.sin(2 * np.pi * 76.0 * t)
    for x in (two_tone, 9.81 + 0.5 * np.sin(2 * np.pi * 20 * t),
              np.zeros_like(t), np.full_like(t, 4.0)):
        _assert_same_spectrum(TimeSeries(t, x, ("az_ms2",)), fraction)
