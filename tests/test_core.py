import numpy as np
import pytest

from aerosurvey import TimeSeries, UtmPoint, resample_uniform
from aerosurvey.core import SurveyLine, LineRole
from aerosurvey.errors import TooFewSamplesError


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
    with pytest.raises(ValueError):
        ts.scalar()  # 2-D needs a channel name
    flat = TimeSeries(np.array([0.0, 1.0]), np.array([5.0, 6.0]))
    assert list(flat.scalar()) == [5.0, 6.0]


def test_timeseries_field_count_must_match_columns():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0]), np.ones((2, 3)), ("a", "b"))


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
    with pytest.raises(TooFewSamplesError):
        resample_uniform(ts, 10.0)
    ts2 = TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        resample_uniform(ts2, 0.0)
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rate_hz must be finite and > 0"):
            resample_uniform(ts2, rate)


def test_survey_line_needs_position_columns():
    ts = TimeSeries(np.array([0.0, 1.0]), np.ones((2, 2)), ("a", "b"))
    with pytest.raises(ValueError):
        SurveyLine("L1", LineRole.FLIGHT, ts)
    good = TimeSeries(np.array([0.0, 1.0]),
                      np.array([[0.0, 0.0, 1.0], [10.0, 5.0, 2.0]]),
                      ("easting_m", "northing_m", "tmi_nT"))
    line = SurveyLine("L1", LineRole.FLIGHT, good)
    assert line.positions().shape == (2, 2)
    assert list(line.field_values("tmi_nT")) == [1.0, 2.0]
