"""Release gate: one test per shipped guarantee, tolerance and runtime.

Run with `pytest -v` to get one pass/fail line per guarantee. Each test
times the work it claims a budget for; numeric tolerances are asserted
exactly as stated, never loosened.
"""

from __future__ import annotations

import math
import time
from decimal import Decimal

import numpy as np
import pytest

from aerosurvey.core import TimeSeries
from aerosurvey.emi import (
    BuzzPass,
    EmiConfig,
    PassKind,
    build_noise_curve,
    noise_amplitude,
    threshold_separation,
)
from aerosurvey.gridding import Grid, grid_idw, intensity_stddev, to_grayscale
from aerosurvey.io_csv import SchemaKind, crossover_fixture_path, ingest_csv
from aerosurvey.pipeline import PipelineConfig, run_pipeline
from aerosurvey.qc import (
    crossover_row_stats,
    fourth_difference_values,
    nasvd_denoise,
)
from aerosurvey.suspension import (
    SuspensionGeometry,
    line_rows,
    line_series,
    simulate_survey,
)
from aerosurvey.vibration import (
    DampingInput,
    amplitude_spectrum,
    attenuation_db,
    damping_effectiveness,
    reduction_factor,
)


def _rel_close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * abs(b)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """Default end-to-end run, timed; reused by the determinism check."""
    out = tmp_path_factory.mktemp("gate_run_a")
    t0 = time.perf_counter()
    report = run_pipeline(PipelineConfig(out_dir=out))
    elapsed = time.perf_counter() - t0
    return {"out": out, "report": report, "elapsed": elapsed}


def test_c01_attenuation_of_35x_is_30_88_db():
    attenuation_db(35.0)   # warm up before timing
    t0 = time.perf_counter()
    value = attenuation_db(35.0)
    elapsed = time.perf_counter() - t0
    assert value == pytest.approx(30.88, abs=0.01)
    assert elapsed < 1e-3


def test_c02_effectiveness_scaling_laws_over_1000_draws():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(1000):
        eta, zeta, s, m, f = (float(v) for v in rng.uniform(0.1, 10.0, 5))
        n = int(rng.integers(1, 13))
        alpha = float(rng.uniform(0.1, 7.0))
        base = damping_effectiveness(DampingInput(eta, zeta, s, m, n, f))
        # linear in intensity, damping ratio and stiffness
        assert _rel_close(damping_effectiveness(
            DampingInput(alpha * eta, zeta, s, m, n, f)), alpha * base)
        assert _rel_close(damping_effectiveness(
            DampingInput(eta, alpha * zeta, s, m, n, f)), alpha * base)
        assert _rel_close(damping_effectiveness(
            DampingInput(eta, zeta, alpha * s, m, n, f)), alpha * base)
        # inverse in mass and count, inverse-square in frequency
        assert _rel_close(damping_effectiveness(
            DampingInput(eta, zeta, s, alpha * m, n, f)), base / alpha)
        assert _rel_close(damping_effectiveness(
            DampingInput(eta, zeta, s, m, 2 * n, f)), base / 2.0)
        assert _rel_close(damping_effectiveness(
            DampingInput(eta, zeta, s, m, n, alpha * f)), base / alpha ** 2)
    assert time.perf_counter() - t0 < 1.0


def test_c03_two_tone_spectrum_resolves_both_peaks_in_order():
    t0 = time.perf_counter()
    t = np.arange(0.0, 8.0, 1.0 / 256.0)
    az = (3.0 * np.sin(2 * np.pi * 33.0 * t)
          + 1.2 * np.sin(2 * np.pi * 76.0 * t))
    res = amplitude_spectrum(TimeSeries(t, az, ("az_ms2",)))
    elapsed = time.perf_counter() - t0
    assert len(res.peaks) >= 2
    (f1, a1), (f2, a2) = res.peaks[0], res.peaks[1]
    assert abs(f1 - 33.0) <= 0.5
    assert abs(f2 - 76.0) <= 0.5
    assert a1 > a2
    assert elapsed < 1.0


def test_c04_rms_reduction_23x_and_exact_35x_on_scaled_copy():
    t0 = time.perf_counter()
    t = np.arange(0.0, 2.0, 1.0 / 256.0)
    tone = np.sin(2 * np.pi * 16.0 * t)   # on-bin: RMS = amplitude / sqrt(2)
    before = TimeSeries(t, 39.33 * math.sqrt(2.0) * tone, ("az_ms2",))
    after = TimeSeries(t, 1.71 * math.sqrt(2.0) * tone, ("az_ms2",))
    assert reduction_factor(before, after) == pytest.approx(23.0, abs=0.1)
    scaled = TimeSeries(t, before.values / 35.0, ("az_ms2",))
    assert abs(reduction_factor(before, scaled) - 35.0) < 1e-9
    assert time.perf_counter() - t0 < 1.0


def test_c05_buzz_threshold_recovered_from_cubic_decay():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    t = np.arange(0.0, 30.0, 1.0 / 50.0)
    passes = []
    for sep in range(4, 16):
        envelope = 145.8 * float(sep) ** -3.0
        # 95% central band matches the stated +-envelope and +-0.2 ambient
        trace = (rng.normal(0.0, envelope / 1.96, t.size)
                 + rng.normal(0.0, 0.2 / 1.96, t.size))
        passes.append(BuzzPass(float(sep), TimeSeries(t, trace, ("buzz_nT",)),
                               PassKind.OVERFLIGHT))
    cfg = EmiConfig(noise_floor=0.2)
    curve = build_noise_curve(passes, cfg, detrend_window_s=1.0)
    threshold = threshold_separation(curve, cfg)
    elapsed = time.perf_counter() - t0
    assert curve.fitted_decay is not None
    assert abs(curve.fitted_decay[1] - 3.0) <= 0.15
    assert abs(threshold - 9.0) <= 0.5
    assert elapsed < 1.0


def test_c06_bundled_crossover_rows_give_exact_decimal_stats():
    t0 = time.perf_counter()
    rows = ingest_csv(crossover_fixture_path(), SchemaKind.CROSSOVER).data
    stats = crossover_row_stats(rows)
    elapsed = time.perf_counter() - t0
    assert stats["n"] == 16
    assert stats["max_abs_k"] == Decimal("0.15")
    assert stats["max_abs_u"] == Decimal("0.34")
    for row in rows:
        assert row.diff_k == row.flights_k - row.tie_k
        assert row.diff_u == row.flights_u - row.tie_u
    assert elapsed < 0.1


def test_c07_fourth_difference_kills_cubics_and_marks_spikes():
    t0 = time.perf_counter()
    t = np.arange(0.0, 20.0, 0.1)
    cubic = 2.0 - 0.5 * t + 0.25 * t ** 2 - 0.125 * t ** 3
    d4 = fourth_difference_values(cubic)
    assert np.max(np.abs(d4)) <= 1e-9 * np.max(np.abs(cubic))
    spike = np.zeros(11)
    spike[5] = 1.0
    d4s = fourth_difference_values(spike)
    assert d4s.tolist() == [0.0, 1.0, -4.0, 6.0, -4.0, 1.0, 0.0]
    assert np.abs(d4s[1:6]).tolist() == [1.0, 4.0, 6.0, 4.0, 1.0]
    assert time.perf_counter() - t0 < 0.1


def test_c08_nasvd_full_rank_identity_and_poisson_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    counts = rng.uniform(1.0, 50.0, (20, 8))
    rec = nasvd_denoise(counts, 8)
    assert np.max(np.abs(rec - counts)) <= 1e-8 * np.max(np.abs(counts))

    wins = 0
    for seed in range(100):
        srng = np.random.default_rng(seed)
        shape = srng.uniform(0.5, 4.0, 32)
        strength = srng.uniform(10.0, 60.0, 50)
        truth = np.outer(strength, shape)
        noisy = srng.poisson(truth).astype(float)
        denoised = nasvd_denoise(noisy, 1)
        rms_noisy = float(np.sqrt(np.mean((noisy - truth) ** 2)))
        rms_denoised = float(np.sqrt(np.mean((denoised - truth) ** 2)))
        wins += rms_denoised < rms_noisy
    assert wins >= 95
    assert time.perf_counter() - t0 < 30.0


def test_c09_default_pipeline_meets_attitude_and_noise_gates(pipeline_run):
    report = pipeline_run["report"]
    elapsed = pipeline_run["elapsed"]
    assert report.overall_pass

    # same seed, same defaults: re-simulating reproduces the run's motion
    t0 = time.perf_counter()
    res = simulate_survey()
    elapsed += time.perf_counter() - t0
    att = res.attitude
    straight = np.isin(np.asarray(att.segment),
                       [lid for lid, *_ in res.plan.legs()])
    assert np.all(np.abs(att.roll_deg[straight]) <= 5.0)
    assert np.all(np.abs(att.pitch_deg[straight]) <= 5.0)
    for line in line_series(res.vlf_full,
                            line_rows(res.segment_at_sensor, res.plan)):
        series = TimeSeries(line.series.t, line.series.column("outphase_pct"),
                            ("outphase_pct",))
        assert noise_amplitude(series) <= 4.0

    # post-turn free decay: consecutive swing peaks shrink by the damped
    # pendulum half-period factor exp(-zeta*omega*T_d/2)
    zeta = res.effective_damping_ratio
    omega = math.sqrt(9.80665 / SuspensionGeometry().cable_length)
    expected = math.exp(-zeta * omega * math.pi
                        / (omega * math.sqrt(1.0 - zeta ** 2)))
    seg = np.asarray(att.segment)
    is_turn = seg == "turn"
    ends = np.nonzero(is_turn[:-1] & ~is_turn[1:])[0]
    assert len(ends) >= 4
    checked = 0
    for e in ends:
        later = np.nonzero(is_turn[e + 1:])[0]
        stop = e + 1 + (later[0] if len(later) else len(att.swing_deg) - e - 1)
        w = np.abs(att.swing_deg[e + 1:stop])
        pk = np.nonzero((w[1:-1] >= w[:-2]) & (w[1:-1] >= w[2:]))[0] + 1
        amps = w[pk][w[pk] >= 0.5]
        for ratio in amps[1:] / amps[:-1]:
            assert abs(ratio / expected - 1.0) <= 0.05
            checked += 1
    assert checked >= 4
    assert elapsed < 60.0


def test_c10_fine_grid_keeps_at_least_the_coarse_contrast():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    xs = np.arange(0.0, 600.0, 4.0)
    ys = np.arange(0.0, 450.0, 4.0)
    xx, yy = np.meshgrid(xs, ys)
    x = (xx + rng.uniform(-1.5, 1.5, xx.shape)).ravel()
    y = (yy + rng.uniform(-1.5, 1.5, yy.shape)).ravel()
    v = 60.0 * np.sign(np.sin(2 * np.pi * x / 150.0)) + 0.02 * y
    fine = to_grayscale(grid_idw(x, y, v, 10.0, 20.0))
    coarse = to_grayscale(grid_idw(x, y, v, 100.0, 200.0))
    assert intensity_stddev(fine) >= intensity_stddev(coarse)

    flat = to_grayscale(Grid(0.0, 0.0, 10.0, np.full((4, 5), 7.5),
                             np.ones((4, 5), bool)))
    assert intensity_stddev(flat) == 0.0
    two = to_grayscale(Grid(0.0, 0.0, 10.0,
                            np.array([[1.0, 2.0], [2.0, 1.0]]),
                            np.ones((2, 2), bool)))
    assert intensity_stddev(two) == pytest.approx(127.5)
    assert time.perf_counter() - t0 < 10.0


def test_c11_same_seed_runs_are_byte_identical(pipeline_run, tmp_path):
    t0 = time.perf_counter()
    run_pipeline(PipelineConfig(out_dir=tmp_path / "b"))
    elapsed_b = time.perf_counter() - t0
    out_a, out_b = pipeline_run["out"], tmp_path / "b"
    rel_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*")
                   if p.is_file())
    rel_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*")
                   if p.is_file())
    assert rel_a == rel_b
    for rel in rel_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    assert pipeline_run["elapsed"] + elapsed_b < 2 * 60.0
