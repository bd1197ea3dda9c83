import re

import numpy as np
import pytest

from aerosurvey import TimeSeries, UtmPoint, resample_uniform
from aerosurvey.core import LineRole, SurveyLine, _median, _percentiles


def test_utm_point_rejects_non_finite():
    with pytest.raises(ValueError):
        UtmPoint(float("nan"), 0.0)
    with pytest.raises(ValueError):
        UtmPoint(0.0, float("inf"))


def test_timeseries_requires_increasing_timestamps():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 2.0, 1.0]), np.zeros(3))


def test_timeseries_arrays_are_frozen_copies():
    t = np.array([0.0, 1.0])
    v = np.array([3.0, 4.0])
    ts = TimeSeries(t, v)
    t[0] = 99.0  # caller's buffer, not ours
    assert ts.t[0] == 0.0
    with pytest.raises(ValueError):
        ts.values[0] = -1.0


def test_timeseries_adopts_buffers_its_creator_drops():
    # the private path the simulator uses: no copy, frozen in place
    t = np.array([0.0, 1.0])
    v = np.array([[3.0, 4.0], [5.0, 6.0]])
    ts = TimeSeries._adopt(t, v, ("a", "b"))
    assert ts.t is t and ts.values is v
    assert not t.flags.writeable and not v.flags.writeable
    assert list(ts.column("b")) == [4.0, 6.0]


@pytest.mark.parametrize("t, v, fields", (
    (np.array([0.0, 1.0, 1.0]), np.zeros(3), ()),      # not increasing
    (np.array([0.0, 1.0]), np.zeros(3), ()),           # length mismatch
    (np.zeros((2, 1)), np.zeros(2), ()),               # t not 1-D
    (np.array([0.0, 1.0]), np.ones((2, 3)), ("a", "b")),
), ids=("increasing", "length", "ndim", "fields"))
def test_timeseries_adopt_runs_the_constructor_checks(t, v, fields):
    with pytest.raises(ValueError):
        TimeSeries(t, v, fields)
    with pytest.raises(ValueError):
        TimeSeries._adopt(t, v, fields)


def test_timeseries_adopts_only_float_arrays():
    # anything else would need a copy, which adopting is meant to avoid
    with pytest.raises(TypeError):
        TimeSeries._adopt(np.arange(2), np.zeros(2))
    with pytest.raises(TypeError):
        TimeSeries._adopt([0.0, 1.0], np.zeros(2))


def test_timeseries_column_and_scalar():
    ts = TimeSeries(np.array([0.0, 1.0]),
                    np.array([[1.0, 2.0], [3.0, 4.0]]),
                    ("a", "b"))
    assert list(ts.column("b")) == [2.0, 4.0]
    with pytest.raises(KeyError):
        ts.column("missing")
    # an unnamed scalar trace answers to any name, a named one to its own
    flat = TimeSeries(np.array([0.0, 1.0]), np.array([5.0, 6.0]))
    assert list(flat.column("tmi_nT")) == [5.0, 6.0]
    named = TimeSeries(flat.t, flat.values, ("tmi_nT",))
    assert list(named.column("tmi_nT")) == [5.0, 6.0]
    with pytest.raises(KeyError):
        named.column("k_pct")


def test_timeseries_field_count_must_match_columns():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0]), np.ones((2, 3)), ("a", "b"))


# an unnamed multi-column series could once only be read by position
def test_timeseries_names_every_column_of_a_multi_column_series():
    t = np.arange(3.0)
    with pytest.raises(ValueError, match="^a series of 2 columns needs as "
                       "many field names, got 0$"):
        TimeSeries(t, np.ones((3, 2)))
    with pytest.raises(ValueError, match="^a series of 1 columns needs as "
                       "many field names, got 2$"):
        TimeSeries(t, np.ones(3), ("a", "b"))
    assert TimeSeries(t, np.ones(3)).fields == ()


def test_with_column_replaces_one_channel():
    ts = TimeSeries(np.array([0.0, 1.0]),
                    np.array([[1.0, 2.0], [3.0, 4.0]]),
                    ("a", "b"))
    out = ts.with_column("a", np.array([-1.0, -3.0]))
    assert list(out.column("a")) == [-1.0, -3.0]
    assert list(out.column("b")) == [2.0, 4.0]
    assert list(ts.column("a")) == [1.0, 3.0]  # original untouched


def test_resample_uniform_exact_on_affine():
    # linear interpolation reproduces an affine signal exactly
    t = np.array([0.0, 0.3, 1.1, 2.0])
    v = 3.0 * t - 7.0
    out = resample_uniform(TimeSeries(t, v), 10.0)
    assert np.allclose(out.values, 3.0 * out.t - 7.0, rtol=0, atol=1e-12)
    assert np.allclose(np.diff(out.t), 0.1)
    assert out.t[0] == 0.0
    assert out.t[-1] <= 2.0 + 1e-12
    # span * rate is an integer: the final node lands on the last timestamp
    assert len(out) == 21


def test_resample_uniform_multichannel_keeps_fields():
    t = np.array([0.0, 1.0, 2.0])
    v = np.column_stack([t, 2 * t])
    out = resample_uniform(TimeSeries(t, v, ("p", "q")), 4.0)
    assert out.fields == ("p", "q")
    assert np.allclose(out.column("q"), 2 * out.column("p"))


def test_resample_uniform_errors():
    ts = TimeSeries(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="^resample needs >= 2 samples$"):
        resample_uniform(ts, 10.0)
    ts2 = TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        resample_uniform(ts2, 0.0)
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rate_hz must be finite and > 0"):
            resample_uniform(ts2, rate)


def test_resample_uniform_refuses_more_than_max_nodes():
    # 2**24 + 1 nodes over 1 s, and counts past the float range
    ts = TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    for rate in (2.0 ** 24, 1e300, 1e308):
        with pytest.raises(ValueError, match=re.escape(
                f"rate_hz {rate!r} gives more than 16777216 resample nodes")):
            resample_uniform(ts, rate)


def test_survey_line_needs_position_columns():
    ts = TimeSeries(np.array([0.0, 1.0]), np.ones((2, 2)), ("a", "b"))
    with pytest.raises(ValueError):
        SurveyLine("L1", LineRole.FLIGHT, ts)
    good = TimeSeries(np.array([0.0, 1.0]),
                      np.array([[0.0, 0.0, 1.0], [10.0, 5.0, 2.0]]),
                      ("easting_m", "northing_m", "tmi_nT"))
    line = SurveyLine("L1", LineRole.FLIGHT, good)
    assert line.positions().shape == (2, 2)
    assert list(line.series.column("tmi_nT")) == [1.0, 2.0]


def _samples(n: int, kind: int, rng) -> np.ndarray:
    """n values of one kind: normal, small integers, signed zeros and
    ones, normal with one nan, infinities, or magnitudes 1e-300..1e300."""
    if kind == 0:
        return rng.normal(size=n)
    if kind == 1:
        return rng.integers(-3, 3, n).astype(float)
    if kind == 2:
        return rng.choice([0.0, -0.0, 1.0, -1.0], n)
    if kind == 3:
        x = rng.normal(size=n)
        x[rng.integers(0, n)] = np.nan
        return x
    if kind == 4:
        return rng.choice([np.inf, -np.inf, 1.0, 6e307], n)
    return rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("kind", range(6))
def test_median_and_percentiles_are_numpys_bit_for_bit(kind):
    # the package's own median and percentiles, which keep numpy.ma out of
    # a process, give np.median's and np.percentile's bits, signed zeros
    # and nan included
    rng = np.random.default_rng(kind)
    for n in [*range(1, 40), 999, 1000]:
        for _ in range(5):
            x = _samples(n, kind, rng)
            with np.errstate(invalid="ignore"):   # inf - inf, as numpy
                assert _bits(_median(x)) == _bits(np.median(x))
                for q in ((2.5, 97.5), (0.0, 100.0), (50.0,), (2, 98),
                          (33.3, 66.7, 99.9)):
                    assert _bits(_percentiles(x, q)) \
                        == _bits(np.percentile(x, list(q)))
