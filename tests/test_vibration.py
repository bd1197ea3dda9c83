import math
import warnings

import numpy as np
import pytest

from aerosurvey import (
    DampingInput,
    IsolatorConfig,
    IsolatorKind,
    TimeSeries,
    amplitude_spectrum,
    attenuation_db,
    damping_effectiveness,
    reduction_factor,
    resample_uniform,
    select_configuration,
)


def _sine_trace(freqs_amps, rate_hz=256.0, duration_s=8.0):
    t = np.arange(0.0, duration_s, 1.0 / rate_hz)
    x = np.zeros_like(t)
    for f, a in freqs_amps:
        x += a * np.sin(2.0 * np.pi * f * t)
    return TimeSeries(t, x)


# --- dB arithmetic ---

def test_attenuation_db_reference_values():
    assert attenuation_db(35.0) == pytest.approx(20.0 * math.log10(35.0), abs=1e-12)
    assert attenuation_db(35.0) == pytest.approx(30.881360887, abs=1e-6)
    assert attenuation_db(23.0) == pytest.approx(27.234557, abs=1e-5)
    assert attenuation_db(1.0) == 0.0
    assert attenuation_db(10.0) == pytest.approx(20.0, abs=1e-12)


def test_attenuation_db_rejects_non_positive():
    with pytest.raises(ValueError, match=r"^reduction must be finite and > 0, "
                       r"got 0\.0$"):
        attenuation_db(0.0)
    with pytest.raises(ValueError, match=r"^reduction must be finite and > 0, "
                       r"got -3\.0$"):
        attenuation_db(-3.0)


# --- damping figure of merit ---

def test_damping_effectiveness_formula():
    inp = DampingInput(intensity=2.0, damping_ratio=0.5, stiffness=3000.0,
                       mass=1.5, count=4, frequency=50.0)
    assert damping_effectiveness(inp) == pytest.approx(
        2.0 * 0.5 * 3000.0 / (1.5 * 4 * 50.0 ** 2), rel=1e-15)


def test_damping_effectiveness_scaling_laws():
    # linear in intensity, damping ratio, stiffness; inverse in mass,
    # count and frequency squared
    rng = np.random.default_rng(42)
    for _ in range(1000):
        eta, zeta, s, m, f = np.exp(rng.uniform(-3, 3, 5))
        n = int(rng.integers(1, 12))
        base = damping_effectiveness(DampingInput(eta, zeta, s, m, n, f))
        c = float(np.exp(rng.uniform(-1, 1)))
        assert damping_effectiveness(DampingInput(c * eta, zeta, s, m, n, f)) \
            == pytest.approx(c * base, rel=1e-12)
        assert damping_effectiveness(DampingInput(eta, c * zeta, s, m, n, f)) \
            == pytest.approx(c * base, rel=1e-12)
        assert damping_effectiveness(DampingInput(eta, zeta, c * s, m, n, f)) \
            == pytest.approx(c * base, rel=1e-12)
        assert damping_effectiveness(DampingInput(eta, zeta, s, c * m, n, f)) \
            == pytest.approx(base / c, rel=1e-12)
        assert damping_effectiveness(DampingInput(eta, zeta, s, m, 2 * n, f)) \
            == pytest.approx(base / 2.0, rel=1e-12)
        assert damping_effectiveness(DampingInput(eta, zeta, s, m, n, c * f)) \
            == pytest.approx(base / c ** 2, rel=1e-12)


def test_damping_input_requires_positive_parameters():
    with pytest.raises(ValueError, match=r"^intensity must be finite and > 0, "
                       r"got 0\.0$"):
        DampingInput(0.0, 0.5, 3000.0, 1.5, 4, 50.0)
    with pytest.raises(ValueError, match=r"^mass must be finite and > 0, "
                       r"got -1\.5$"):
        DampingInput(2.0, 0.5, 3000.0, -1.5, 4, 50.0)


# --- amplitude spectrum ---

def test_spectrum_recovers_on_bin_sine_amplitude_exactly():
    # 33 Hz and 76 Hz are on-bin for 8 s at 256 Hz; the Hann normalization
    # recovers on-bin amplitudes exactly
    res = amplitude_spectrum(_sine_trace([(33.0, 3.0), (76.0, 1.2)]))
    by_freq = {round(f, 6): a for f, a in res.peaks}
    assert by_freq[33.0] == pytest.approx(3.0, abs=1e-9)
    assert by_freq[76.0] == pytest.approx(1.2, abs=1e-9)
    # peaks sorted by amplitude, dominant first
    assert res.peaks[0][0] == pytest.approx(33.0)
    assert res.peaks[1][0] == pytest.approx(76.0)


@pytest.mark.parametrize("fraction", (float("nan"), float("inf"), -0.1, 1.5))
def test_spectrum_prominence_must_be_a_finite_fraction(fraction):
    with pytest.raises(ValueError, match=r"prominence_fraction must be finite "
                                         r"and >= 0 and <= 1"):
        amplitude_spectrum(_sine_trace([(33.0, 3.0)]),
                           prominence_fraction=fraction)


def test_spectrum_mean_removal_kills_dc():
    t = np.arange(0.0, 4.0, 1.0 / 128.0)
    res = amplitude_spectrum(TimeSeries(t, 9.81 + 0.5 * np.sin(2 * np.pi * 20 * t)))
    assert res.amplitudes[0] == pytest.approx(0.0, abs=1e-12)
    assert res.peaks[0][0] == pytest.approx(20.0)


def test_spectrum_axis_selection():
    t = np.arange(0.0, 2.0, 1.0 / 128.0)
    vals = np.column_stack([np.sin(2 * np.pi * 10 * t),
                            np.sin(2 * np.pi * 20 * t),
                            np.sin(2 * np.pi * 30 * t)])
    ts = TimeSeries(t, vals, ("ax_ms2", "ay_ms2", "az_ms2"))
    assert amplitude_spectrum(ts, axis="x").peaks[0][0] == pytest.approx(10.0)
    assert amplitude_spectrum(ts, axis="z").peaks[0][0] == pytest.approx(30.0)
    with pytest.raises(ValueError):
        amplitude_spectrum(ts, axis="w")


# a scalar trace named for another axis, and a multi-column series
# without the axis names, were once read anyway (the second by position)
@pytest.mark.parametrize("fields", (("ax_ms2",), ("u", "v", "w")),
                         ids=("x trace", "other names"))
def test_axis_is_read_by_its_column_name_only(fields):
    t = np.arange(0.0, 1.0, 1.0 / 128.0)
    x = np.sin(2 * np.pi * 16 * t)
    ts = TimeSeries(t, x if len(fields) == 1 else
                    np.column_stack([x] * len(fields)), fields)
    for call in (lambda: amplitude_spectrum(ts, axis="z"),
                 lambda: reduction_factor(ts, ts, axis="Z")):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == ("axis 'z' is the column az_ms2, not one "
                                   f"of the fields {fields}")


def test_spectrum_requires_uniform_sampling_and_length():
    t = np.concatenate([np.arange(0.0, 1.0, 0.01), [1.5, 2.5]])
    with pytest.raises(ValueError,
                       match="^spectrum requires uniform sampling$"):
        amplitude_spectrum(TimeSeries(t, np.zeros_like(t)))
    short = TimeSeries(np.arange(10) / 100.0, np.zeros(10))
    with pytest.raises(ValueError, match="^spectrum needs >= 64 samples$"):
        amplitude_spectrum(short)


def test_resample_then_spectrum_recovers_peak():
    # jittered timestamps: resample first, then analyze
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0.0, 4.0, 2000))
    t[0], t[-1] = 0.0, 4.0
    ts = TimeSeries(t, np.sin(2 * np.pi * 25.0 * t))
    res = amplitude_spectrum(resample_uniform(ts, 256.0))
    assert res.peaks[0][0] == pytest.approx(25.0, abs=0.5)


# --- reduction factor ---

def test_reduction_factor_rms_ratio():
    before = _sine_trace([(33.0, 39.33 * math.sqrt(2.0))])
    after = _sine_trace([(33.0, 1.71 * math.sqrt(2.0))])
    assert reduction_factor(before, after) == pytest.approx(23.0, rel=1e-12)


def test_reduction_factor_ignores_mean_offset():
    t = np.arange(0.0, 2.0, 1.0 / 128.0)
    before = TimeSeries(t, 5.0 + 2.0 * np.sin(2 * np.pi * 16 * t))
    after = TimeSeries(t, -3.0 + 1.0 * np.sin(2 * np.pi * 16 * t))
    assert reduction_factor(before, after) == pytest.approx(2.0, rel=1e-12)


def test_reduction_factor_zero_after_raises():
    t = np.arange(0.0, 2.0, 1.0 / 128.0)
    before = TimeSeries(t, np.sin(2 * np.pi * 16 * t))
    flat = TimeSeries(t, np.full_like(t, 7.0))
    with pytest.raises(ValueError, match="^'after' trace has zero RMS$"):
        reduction_factor(before, flat)


# a flat before trace once gave a reduction of 0.0, which vib compare
# then refused naming neither trace
def test_reduction_factor_zero_before_raises():
    t = np.arange(0.0, 2.0, 1.0 / 128.0)
    flat = TimeSeries(t, np.full_like(t, 9.8))
    after = TimeSeries(t, np.sin(2 * np.pi * 16 * t))
    with pytest.raises(ValueError, match="^'before' trace has zero RMS$"):
        reduction_factor(flat, after)


@pytest.mark.parametrize("name", ("before", "after"))
def test_reduction_factor_past_the_float_range_names_the_trace(name):
    # one 1e308 sample overflows x * x: refused, naming the trace, and
    # with no RuntimeWarning on the way
    traces = {"before": _sine_trace([(16.0, 2.0)], 128.0, 2.0),
              "after": _sine_trace([(16.0, 1.0)], 128.0, 2.0)}
    spiked = traces[name].values.copy()
    spiked[5] = 1e308
    traces[name] = TimeSeries(traces[name].t, spiked)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"'{name}' trace's RMS is past "
                                             "the float64 range"):
            reduction_factor(traces["before"], traces["after"])


# --- isolator selection ---

def test_select_configuration_ranks_by_effectiveness():
    a = IsolatorConfig(IsolatorKind.WIRE_ROPE, 4, 45.0,
                       intensity=2.0, damping_ratio=0.30, stiffness=5000.0)
    b = IsolatorConfig(IsolatorKind.RUBBER_BALL, 8, 0.0,
                       intensity=2.0, damping_ratio=0.10, stiffness=4000.0)
    ranked = select_configuration([b, a], payload_mass=1.2, dominant_freq=60.0)
    assert [c.kind for c, _ in ranked] == [IsolatorKind.WIRE_ROPE,
                                           IsolatorKind.RUBBER_BALL]
    assert ranked[0][1] > ranked[1][1]
    d = ranked[0][0].damping_input(1.2, 60.0)
    assert ranked[0][1] == pytest.approx(damping_effectiveness(d), rel=1e-15)


def test_rubber_ball_count_envelope():
    with pytest.raises(ValueError):
        IsolatorConfig(IsolatorKind.RUBBER_BALL, 3, 0.0, 1.0, 0.1, 1000.0)
    with pytest.raises(ValueError):
        IsolatorConfig(IsolatorKind.RUBBER_BALL, 13, 0.0, 1.0, 0.1, 1000.0)
    IsolatorConfig(IsolatorKind.RUBBER_BALL, 4, 0.0, 1.0, 0.1, 1000.0)
    IsolatorConfig(IsolatorKind.WIRE_ROPE, 2, 0.0, 1.0, 0.1, 1000.0)


def test_select_configuration_input_validation():
    cfg = IsolatorConfig(IsolatorKind.WIRE_ROPE, 4, 45.0, 1.0, 0.3, 5000.0)
    with pytest.raises(ValueError, match="^no isolator candidates$"):
        select_configuration([], 1.0, 60.0)
    with pytest.raises(ValueError, match=r"^payload_mass must be finite and "
                       r"> 0, got 0\.0$"):
        select_configuration([cfg], 0.0, 60.0)
