import warnings

import numpy as np
import pytest

from aerosurvey import (
    BuzzPass,
    EmiConfig,
    NoiseCurve,
    PassKind,
    TimeSeries,
    analyze_passes,
    build_noise_curve,
    interference_percent,
    noise_amplitude,
    threshold_separation,
)
from aerosurvey.emi import fit_power_law
from aerosurvey.errors import NeverBelowFloorError, NoFitAvailableError


def _gauss_trace(env_95, seed, duration_s=30.0, rate_hz=100.0):
    """White noise whose half 2.5-97.5 percentile span is env_95."""
    rng = np.random.default_rng(seed)
    t = np.arange(0.0, duration_s, 1.0 / rate_hz)
    return TimeSeries(t, rng.normal(0.0, env_95 / 1.96, t.size))


# --- noise amplitude estimator ---

def test_noise_amplitude_of_gaussian_matches_envelope():
    amp = noise_amplitude(_gauss_trace(1.0, seed=0, duration_s=120.0))
    assert amp == pytest.approx(1.0, rel=0.05)


def test_noise_amplitude_removes_slow_trend():
    # a 60 nT ramp must not register as noise
    t = np.arange(0.0, 30.0, 0.01)
    rng = np.random.default_rng(1)
    drift = 2.0 * t
    noise = rng.normal(0.0, 0.5 / 1.96, t.size)
    with_drift = noise_amplitude(TimeSeries(t, drift + noise))
    without = noise_amplitude(TimeSeries(t, noise))
    assert with_drift == pytest.approx(without, rel=0.05)


def test_noise_amplitude_refuses_a_multichannel_trace():
    t = np.arange(0.0, 10.0, 0.01)
    quiet = np.zeros_like(t)
    loud = np.sin(2 * np.pi * 7.0 * t)
    ts = TimeSeries(t, np.column_stack([loud, quiet]), ("other", "tmi_nT"))
    # no column is picked for the caller, tmi_nT or the last
    with pytest.raises(ValueError, match=r"^noise_amplitude takes a scalar "
                       r"trace, not the columns \['other', 'tmi_nT'\]$"):
        noise_amplitude(ts)
    assert noise_amplitude(TimeSeries(t, quiet, ("tmi_nT",))) == 0.0


def test_noise_amplitude_preconditions():
    short = TimeSeries(np.arange(0.0, 2.0, 0.01), np.zeros(200))
    with pytest.raises(ValueError,
                       match="^trace must span >= 3 detrend windows$"):
        noise_amplitude(short)  # < 3 detrend windows
    ok = TimeSeries(np.arange(0.0, 10.0, 0.01), np.zeros(1000))
    with pytest.raises(ValueError, match=r"^detrend_window_s must be finite "
                       r"and > 0, got 0\.0$"):
        noise_amplitude(ok, detrend_window_s=0.0)


# --- power-law fit ---

def test_fit_power_law_exact_on_noiseless_data():
    r = np.array([4.0, 6.0, 9.0, 12.0, 15.0])
    a = 145.8 * r ** -3.0
    a1, p = fit_power_law(r, a)
    assert a1 == pytest.approx(145.8, rel=1e-12)
    assert p == pytest.approx(3.0, rel=1e-12)


def test_fit_power_law_degenerate_returns_none():
    assert fit_power_law(np.array([4.0, 6.0]), np.array([0.0, 0.0])) is None
    assert fit_power_law(np.array([4.0, 4.0]), np.array([2.0, 1.0])) is None
    assert fit_power_law(np.array([4.0]), np.array([2.0])) is None


# --- noise curve assembly ---

def test_build_noise_curve_quadrature_floor_removal():
    # buzz and ambient are both Gaussian, so amplitudes add in power and
    # the quadrature correction recovers the platform part
    cfg = EmiConfig(noise_floor=0.2)
    passes = []
    for i, (r, buzz_amp) in enumerate([(4.0, 2.0), (8.0, 0.9), (12.0, 0.45)]):
        rng = np.random.default_rng(100 + i)
        t = np.arange(0.0, 60.0, 0.01)
        buzz = rng.normal(0.0, buzz_amp / 1.96, t.size)
        ambient = rng.normal(0.0, 0.2 / 1.96, t.size)
        passes.append(BuzzPass(r, TimeSeries(t, buzz + ambient)))
    curve = build_noise_curve(passes, cfg)
    for (sep, excess), want in zip(curve.points, (2.0, 0.9, 0.45)):
        assert excess == pytest.approx(want, rel=0.08)
    assert curve.fitted_decay is not None


def test_build_noise_curve_median_across_repeat_passes():
    cfg = EmiConfig(noise_floor=0.2)
    passes = []
    for r in (4.0, 8.0, 12.0):
        for rep in range(3):
            passes.append(BuzzPass(r, _gauss_trace(1.5, seed=int(r) * 10 + rep)))
    curve = build_noise_curve(passes, cfg)
    assert len(curve.points) == 3
    seps = [s for s, _ in curve.points]
    assert seps == sorted(seps)


def test_build_noise_curve_needs_three_separations():
    passes = [BuzzPass(r, _gauss_trace(1.0, seed=int(r))) for r in (4.0, 8.0)]
    with pytest.raises(ValueError, match="^need >= 3 distinct separations$"):
        build_noise_curve(passes, EmiConfig())


# amplitudes of 1e300 and 1e200 once squared to inf with two
# RuntimeWarnings, and the curve then never reached the floor
@pytest.mark.parametrize("action", ("default", "error"))
def test_build_noise_curve_amplitude_past_the_float_range_names_it(action):
    passes = [BuzzPass(r, _gauss_trace(amp, seed=int(r)))
              for r, amp in ((2.0, 1e300), (4.0, 1e200), (8.0, 1e100),
                             (16.0, 1.0))]
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(ValueError, match=r"^separation 2\.0: noise "
                           r"amplitude .+ is past the float64 range when "
                           r"squared$"):
            build_noise_curve(passes, EmiConfig())


# --- threshold ---

def test_threshold_from_fit_is_exact_inversion():
    curve = NoiseCurve(points=((4.0, 2.278), (8.0, 0.285)),
                       fitted_decay=(145.8, 3.0))
    # (145.8 / 0.2) ** (1/3) = 9.0 exactly, already on a half meter
    assert threshold_separation(curve, EmiConfig(noise_floor=0.2)) == 9.0


def test_threshold_rounds_up_to_half_meter():
    curve = NoiseCurve(points=((4.0, 2.0),), fitted_decay=(150.0, 3.0))
    # (150 / 0.2) ** (1/3) = 9.086 -> 9.5
    assert threshold_separation(curve, EmiConfig(noise_floor=0.2)) == 9.5


def test_threshold_scan_without_fit():
    cfg = EmiConfig(noise_floor=0.2)
    monotone = NoiseCurve(points=((5.0, 0.5), (7.0, 0.3), (9.0, 0.15)))
    assert threshold_separation(monotone, cfg) == 9.0
    bumpy = NoiseCurve(points=((5.0, 0.5), (7.0, 0.8), (9.0, 0.15)))
    with pytest.raises(ValueError):
        threshold_separation(bumpy, cfg)
    never = NoiseCurve(points=((5.0, 0.5), (7.0, 0.4), (9.0, 0.3)))
    with pytest.raises(NeverBelowFloorError):
        threshold_separation(never, cfg)


def test_threshold_first_point_already_quiet():
    curve = NoiseCurve(points=((4.0, 0.1), (8.0, 0.05)))
    assert threshold_separation(curve, EmiConfig(noise_floor=0.2)) == 4.0


@pytest.mark.parametrize("separation", (float("nan"), float("inf")))
def test_buzz_pass_separation_must_be_finite_and_positive(separation):
    # nan <= 0 is false, so a plain sign test lets nan through
    with pytest.raises(ValueError, match="separation"):
        BuzzPass(separation, _gauss_trace(1.0, seed=1))


# --- interference percent ---

def test_interference_percent_against_signal_scale():
    curve = NoiseCurve(points=((4.0, 2.278),), fitted_decay=(145.8, 3.0))
    pct = interference_percent(curve, 9.0, signal_scale=54000.0)
    assert pct == pytest.approx(100.0 * 0.2 / 54000.0, rel=1e-12)
    with pytest.raises(ValueError, match=r"^signal_scale must be finite "
                       r"and > 0, got 0\.0$"):
        interference_percent(curve, 9.0, signal_scale=0.0)


def test_amplitude_at_requires_fit():
    curve = NoiseCurve(points=((5.0, 0.5), (7.0, 0.3)))
    with pytest.raises(NoFitAvailableError):
        curve.amplitude_at(6.0)


# --- full report ---

def _buzz_passes(kind, seed0, scale=1.0):
    passes = []
    for i, r in enumerate(range(4, 16)):
        rng = np.random.default_rng(seed0 + i)
        t = np.arange(0.0, 30.0, 0.01)
        buzz = rng.normal(0.0, scale * 145.8 / r ** 3 / 1.96, t.size)
        ambient = rng.normal(0.0, 0.2 / 1.96, t.size)
        passes.append(BuzzPass(float(r), TimeSeries(t, buzz + ambient), kind=kind))
    return passes


def test_analyze_passes_reports_conservative_kind():
    # hover/yaw buzz is 60% louder, so its threshold must win
    passes = _buzz_passes(PassKind.OVERFLIGHT, 200) \
        + _buzz_passes(PassKind.HOVER_YAW, 300, scale=1.6)
    rep = analyze_passes(passes, EmiConfig(noise_floor=0.2),
                         interference_at=(9.0,), signal_scale=54000.0)
    thr_over = rep["per_kind"]["overflight"]["threshold_m"]
    thr_hover = rep["per_kind"]["hover_yaw"]["threshold_m"]
    assert thr_hover > thr_over
    assert rep["threshold_m"] == thr_hover
    assert rep["noise_floor"] == 0.2
    assert len(rep["interference_pct_at"]) == 1
    assert rep["interference_pct_at"][0]["r"] == 9.0


def test_analyze_passes_never_below_floor():
    # platform noise stuck far above ambient at every separation: the fit
    # extrapolates a crossing, so force fitless curves with flat loud noise
    passes = []
    for i, r in enumerate((4.0, 8.0, 12.0)):
        passes.append(BuzzPass(r, _gauss_trace(3.0, seed=500 + i)))
    rep = analyze_passes(passes, EmiConfig(noise_floor=0.2))
    # flat curve still fits a shallow decay; accept either a finite large
    # threshold or the error, depending on fit sign
    assert rep["threshold_m"] > 12.0 or rep["fit"] is None
