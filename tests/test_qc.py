from dataclasses import fields
from decimal import Decimal

import numpy as np
import pytest

from aerosurvey import (
    TimeSeries,
    crossover_analysis,
    crossover_row_stats,
    diurnal_correct,
    fourth_difference,
    fourth_difference_values,
    ingest_csv,
    nasvd_denoise,
    nasvd_energy_fraction,
)
from aerosurvey.core import LineRole, SurveyLine
from aerosurvey.qc import CrossoverRecord, _correction_stats
from aerosurvey.io_csv import SchemaKind, crossover_fixture_path
from aerosurvey.errors import NoIntersectionsError


# --- 4th difference ---

def test_d4_annihilates_cubics():
    t = np.linspace(0.0, 10.0, 800)
    x = 1e3 * ((2.0 * t - 3.0) * t + 5.0) * t - 7e3
    d4 = fourth_difference_values(x)
    assert np.max(np.abs(d4)) <= 1e-9 * np.max(np.abs(x))


def test_d4_unit_spike_pattern():
    x = np.zeros(11)
    x[5] = 1.0
    d4 = fourth_difference_values(x)
    assert np.array_equal(d4, [0.0, 1.0, -4.0, 6.0, -4.0, 1.0, 0.0])
    assert np.array_equal(np.abs(d4[1:6]), [1.0, 4.0, 6.0, 4.0, 1.0])


def test_d4_needs_five_samples():
    with pytest.raises(ValueError, match="^4th difference needs >= 5 samples$"):
        fourth_difference_values(np.ones(4))


def test_d4_auto_threshold_flags_only_the_spike():
    t = np.arange(2000) * 0.01
    x = np.sin(2.0 * np.pi * 1.0 * t)  # smooth background
    x[700] += 1.0                      # one bad sample
    report = fourth_difference(x)
    assert not report.passed
    # the spike contaminates exactly the 5 windows that include it
    assert report.flagged == (696, 697, 698, 699, 700)
    assert report.stats["flagged_count"] == 5

    clean = fourth_difference(np.sin(2.0 * np.pi * 1.0 * t))
    assert clean.passed
    assert clean.flagged == ()


def test_d4_explicit_threshold_and_named_field():
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    vals = np.column_stack([np.zeros(6), np.array([0, 0, 1.0, 0, 0, 0])])
    ts = TimeSeries(t, vals, ("easting_m", "tmi_nT"))
    rep = fourth_difference(ts.column("tmi_nT"), threshold=100.0)
    assert rep.passed
    assert rep.stats["max_abs_d4"] == 6.0


# --- diurnal correction ---

def test_diurnal_correct_exact_on_affine_base():
    rt = np.linspace(0.0, 100.0, 101)
    rover = TimeSeries(rt, 54000.0 + 0.5 * rt)
    bt = np.linspace(-10.0, 110.0, 25)
    base = TimeSeries(bt, 54000.0 + 2.0 * bt)  # drift 2 nT/s, datum 54000
    out = diurnal_correct(rover, base, datum=54000.0)
    # corrected = rover - drift; base interpolation is exact on a line
    assert np.allclose(out.values, 54000.0 + 0.5 * rt - 2.0 * rt, atol=1e-9)


def test_diurnal_correct_multichannel_rover():
    rt = np.array([0.0, 1.0, 2.0])
    vals = np.column_stack([rt, rt, np.full(3, 40.0), [54000.0, 54010.0, 54020.0]])
    rover = TimeSeries(rt, vals, ("easting_m", "northing_m", "alt_m", "tmi_nT"))
    base = TimeSeries(np.array([0.0, 2.0]), np.array([54005.0, 54005.0]))
    out = diurnal_correct(rover, base, datum=54000.0)
    assert np.allclose(out.column("tmi_nT"), [53995.0, 54005.0, 54015.0])
    assert np.array_equal(out.column("easting_m"), rt)  # untouched


@pytest.mark.parametrize("threshold", (float("nan"), float("inf"), 0.0, -1.0))
def test_d4_threshold_must_be_finite_and_positive(threshold):
    # a nan threshold flags nothing, so the gate would pass on anything
    with pytest.raises(ValueError, match="threshold must be finite and > 0"):
        fourth_difference(np.arange(10.0) ** 2, threshold=threshold)


@pytest.mark.parametrize("datum", (float("nan"), float("inf")))
def test_diurnal_correct_rejects_non_finite_datum(datum):
    rover = TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="datum must be finite"):
        diurnal_correct(rover, rover, datum=datum)


def test_correction_stats_past_the_float_range_are_refused():
    # each correction is finite, but its square is not
    t = np.array([0.0, 0.1, 0.2])
    rover = TimeSeries(t, np.full(3, 54000.0))
    base = TimeSeries(np.array([-0.1, 0.0, 0.3]), np.full(3, 1e300))
    corrected = diurnal_correct(rover, base, datum=54000.0)
    with pytest.raises(ValueError, match="past the float64 range"):
        _correction_stats(rover, corrected)


def test_diurnal_correct_requires_coverage():
    rover = TimeSeries(np.array([0.0, 10.0]), np.array([1.0, 2.0]))
    late_base = TimeSeries(np.array([5.0, 20.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError,
                       match="^base record does not span rover times$"):
        diurnal_correct(rover, late_base, datum=0.0)


# --- crossover analysis ---

def _line(line_id, role, xy, tmi):
    t = np.arange(len(xy), dtype=float)
    vals = np.column_stack([np.asarray(xy, float),
                            np.full(len(xy), 40.0),
                            np.asarray(tmi, float)])
    ts = TimeSeries(t, vals, ("easting_m", "northing_m", "alt_m", "tmi_nT"))
    return SurveyLine(line_id, role, ts)


def test_crossover_analysis_geometry_and_interpolation():
    # two N-S flight lines, field = northing; one E-W tie, field = easting
    f1 = _line("L1", LineRole.FLIGHT, [(100.0, 0.0), (100.0, 300.0)], [0.0, 300.0])
    f2 = _line("L2", LineRole.FLIGHT, [(200.0, 0.0), (200.0, 300.0)], [0.0, 300.0])
    tie = _line("T1", LineRole.TIE, [(0.0, 150.0), (300.0, 150.0)], [0.0, 300.0])
    records, report = crossover_analysis((f1, f2), (tie,), "TMI", tolerance=60.0)
    assert len(records) == 2
    # sorted by easting
    assert [r.location.easting for r in records] == [100.0, 200.0]
    assert records[0].flight_value == pytest.approx(150.0, abs=1e-9)
    assert records[0].tie_value == pytest.approx(100.0, abs=1e-9)
    assert records[0].difference == pytest.approx(50.0, abs=1e-9)
    assert records[1].difference == pytest.approx(-50.0, abs=1e-9)
    assert report.passed
    assert report.stats["max_abs_difference"] == pytest.approx(50.0, abs=1e-9)
    assert report.stats["mean_difference"] == pytest.approx(0.0, abs=1e-9)
    assert report.stats["rms_difference"] == pytest.approx(50.0, abs=1e-9)

    _, tight = crossover_analysis((f1, f2), (tie,), "TMI", tolerance=40.0)
    assert not tight.passed
    assert len(tight.flagged) == 2


def test_crossover_field_name_mapping():
    f = _line("L1", LineRole.FLIGHT, [(0.0, 0.0), (0.0, 10.0)], [2.5, 2.5])
    t = _line("T1", LineRole.TIE, [(-5.0, 5.0), (5.0, 5.0)], [2.6, 2.6])
    # "K" maps onto the k_pct column
    fk = SurveyLine("L1", LineRole.FLIGHT, TimeSeries(
        f.series.t, f.series.values,
        ("easting_m", "northing_m", "alt_m", "k_pct")))
    tk = SurveyLine("T1", LineRole.TIE, TimeSeries(
        t.series.t, t.series.values,
        ("easting_m", "northing_m", "alt_m", "k_pct")))
    records, _ = crossover_analysis((fk,), (tk,), "K", tolerance=1.0)
    assert records[0].difference == pytest.approx(-0.1, abs=1e-12)


def test_crossover_takes_field_keys_alone():
    f = _line("L1", LineRole.FLIGHT, [(0.0, 0.0), (0.0, 10.0)], [1.0, 2.0])
    t = _line("T1", LineRole.TIE, [(-5.0, 5.0), (5.0, 5.0)], [1.0, 1.0])
    # a column name is no key, though the lines hold that column
    with pytest.raises(ValueError, match=r"^field_name must be one of "
                       r"\['K', 'TMI', 'U'\], not 'tmi_nT'$"):
        crossover_analysis((f,), (t,), "tmi_nT", tolerance=1.0)
    # a record holds where the lines cross and their two values alone
    records, _ = crossover_analysis((f,), (t,), "TMI", tolerance=1.0)
    assert [fl.name for fl in fields(CrossoverRecord)] == [
        "location", "flight_value", "tie_value"]
    assert [fl.name for fl in fields(records[0].location)] == [
        "easting", "northing"]


@pytest.mark.parametrize("tolerance", (float("nan"), float("inf"), -1.0))
def test_crossover_tolerance_must_be_finite_and_non_negative(tolerance):
    flight = _line("L1", LineRole.FLIGHT, [(0.0, 0.0), (0.0, 10.0)], [1, 2])
    tie = _line("T1", LineRole.TIE, [(-5.0, 5.0), (5.0, 5.0)], [1, 2])
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        crossover_analysis((flight,), (tie,), "TMI", tolerance)
    assert crossover_analysis((flight,), (tie,), "TMI", 0.0)[1].stats[
        "tolerance"] == 0.0


def test_crossover_no_intersections_raises():
    f = _line("L1", LineRole.FLIGHT, [(0.0, 0.0), (0.0, 100.0)], [1.0, 1.0])
    t = _line("T1", LineRole.TIE, [(50.0, 0.0), (50.0, 100.0)], [1.0, 1.0])
    with pytest.raises(NoIntersectionsError):
        crossover_analysis((f,), (t,), "TMI", tolerance=1.0)


# at 1e300 the squares overflow, at 1e308 the differences themselves
@pytest.mark.parametrize("value", (1e300, 1e308))
def test_crossover_differences_past_the_float_range_are_refused(value):
    f = _line("L1", LineRole.FLIGHT, [(0.0, 0.0), (0.0, 10.0)], [value] * 2)
    t = _line("T1", LineRole.TIE, [(-5.0, 5.0), (5.0, 5.0)], [-value] * 2)
    with pytest.raises(ValueError, match=r"^the crossover differences are "
                       r"past the float64 range \(RMS inf\): the TMI values "
                       r"are too large$"):
        crossover_analysis((f,), (t,), "TMI", tolerance=100.0)


def test_crossover_collinear_overlap_uses_midpoint():
    f = _line("L1", LineRole.FLIGHT, [(0.0, 0.0), (100.0, 0.0)], [0.0, 100.0])
    t = _line("T1", LineRole.TIE, [(50.0, 0.0), (150.0, 0.0)], [100.0, 300.0])
    records, _ = crossover_analysis((f,), (t,), "TMI", tolerance=1000.0)
    assert len(records) == 1
    assert records[0].location.easting == pytest.approx(75.0, abs=1e-9)
    assert records[0].flight_value == pytest.approx(75.0, abs=1e-9)
    assert records[0].tie_value == pytest.approx(150.0, abs=1e-9)


# --- crossover deliverable rows ---

def test_crossover_row_stats_fixture_exact():
    rows = ingest_csv(crossover_fixture_path(), SchemaKind.CROSSOVER).data
    stats = crossover_row_stats(rows)
    assert stats["n"] == 16
    assert stats["max_abs_k"] == Decimal("0.15")
    assert stats["max_abs_u"] == Decimal("0.34")
    for r in rows:
        assert r.diff_k == r.flights_k - r.tie_k
        assert r.diff_u == r.flights_u - r.tie_u


def test_crossover_row_stats_empty():
    with pytest.raises(ValueError, match="^no crossover rows$"):
        crossover_row_stats(())


# --- NASVD ---

def test_nasvd_full_rank_is_identity():
    rng = np.random.default_rng(11)
    counts = rng.poisson(40.0, (50, 32)).astype(float)
    out = nasvd_denoise(counts, k=32)
    err = np.linalg.norm(out - counts) / np.linalg.norm(counts)
    assert err < 1e-8
    assert nasvd_energy_fraction(counts, 32) == pytest.approx(1.0, rel=1e-12)


def test_nasvd_rank1_data_recovered_at_k1():
    intensity = np.linspace(50.0, 150.0, 40)
    profile = np.exp(-np.arange(32) / 6.0)
    truth = np.outer(intensity, profile)
    out = nasvd_denoise(truth, k=1)
    assert np.allclose(out, truth, rtol=1e-10, atol=1e-8)
    assert nasvd_energy_fraction(truth, 1) == pytest.approx(1.0, rel=1e-10)


def test_nasvd_improves_poisson_noise():
    rng = np.random.default_rng(7)
    intensity = rng.uniform(50.0, 150.0, 50)
    profile = 0.2 + np.exp(-((np.arange(32) - 8.0) / 4.0) ** 2)
    truth = np.outer(intensity, profile)
    wins = 0
    for seed in range(5):
        noisy = np.random.default_rng(seed).poisson(truth).astype(float)
        den = nasvd_denoise(noisy, k=1)
        if np.linalg.norm(den - truth) < np.linalg.norm(noisy - truth):
            wins += 1
    assert wins >= 4


def test_nasvd_zero_channels_pass_through():
    rng = np.random.default_rng(2)
    counts = rng.poisson(30.0, (20, 8)).astype(float)
    counts[:, 3] = 0.0
    out = nasvd_denoise(counts, k=2)
    assert np.array_equal(out[:, 3], np.zeros(20))
    assert np.min(out) >= 0.0  # clamped


def test_nasvd_rank_bounds():
    counts = np.ones((10, 6))
    for bad in (0, 7, -1):
        with pytest.raises(ValueError, match=r"^k must be in 1\.\.6$"):
            nasvd_denoise(counts, bad)
        with pytest.raises(ValueError, match=r"^k must be in 1\.\.6$"):
            nasvd_energy_fraction(counts, bad)


def test_nasvd_rejects_negative_counts():
    counts = np.ones((10, 6))
    counts[3, 2] = -1.0
    for fn in (nasvd_denoise, nasvd_energy_fraction):
        with pytest.raises(ValueError, match="counts must be >= 0"):
            fn(counts, 2)


def test_nasvd_validates_spectra_matrix():
    for fn in (nasvd_denoise, nasvd_energy_fraction):
        with pytest.raises(ValueError, match="spectra matrix must be 2-D"):
            fn(np.array([1.0, 2.0]), 1)
        with pytest.raises(ValueError, match="counts must be >= 0"):
            fn(np.array([[1.0, -2.0]]), 1)


def test_nasvd_refuses_a_channel_mean_past_float64():
    # ch0 sums to 3.4e308: its mean is inf, which made the scale 0 and the
    # result nan, with an overflow warning from the mean
    counts = np.array([[1.7e308, 1e308], [1.7e308, 2e307], [3.0, 4.0]])
    for fn in (nasvd_denoise, nasvd_energy_fraction):
        with pytest.raises(ValueError, match="channel ch0 has a non-finite "
                                             "mean"):
            fn(counts, 1)


def test_nasvd_energy_refuses_singular_values_past_float64():
    # every channel mean is finite, but the one large count scales to
    # sqrt(4 * 1.5e308), whose square is past the float64 range
    counts = np.array([[1.5e308, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 4.0]])
    with pytest.raises(ValueError, match="singular-value energy"):
        nasvd_energy_fraction(counts, 1)
    assert np.isfinite(nasvd_denoise(counts, 1)).all()


@pytest.mark.parametrize("writeable", (True, False))
def test_nasvd_only_reads_the_callers_counts(writeable):
    counts = np.random.default_rng(4).poisson(30.0, (40, 8)).astype(float)
    counts[:, 5] = 0.0
    kept = counts.copy()
    counts.flags.writeable = writeable
    out = nasvd_denoise(counts, 3)
    energy = nasvd_energy_fraction(counts, 3)
    assert counts.tobytes() == kept.tobytes()
    assert out.flags.writeable and not np.shares_memory(out, counts)
    assert out.tobytes() == nasvd_denoise(kept, 3).tobytes()
    assert energy == nasvd_energy_fraction(kept, 3)
