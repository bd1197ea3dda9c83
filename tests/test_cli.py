"""CLI behavior: subcommand output, artifacts on disk, stable exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from aerosurvey.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_QC,
    EXIT_USAGE,
    main,
    version_info,
)
from aerosurvey.core import TimeSeries
from aerosurvey.io_csv import write_series_csv, write_spectra_csv
from aerosurvey.suspension import FlightPlan, SimConfig


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_accel(path, t, az):
    zeros = np.zeros_like(t)
    write_series_csv(path, TimeSeries(
        t, np.column_stack([zeros, zeros, az]), ("ax_ms2", "ay_ms2", "az_ms2")))


def write_mag(path, t, easting, northing, tmi, alt=40.0):
    cols = np.column_stack([easting, northing, np.full_like(t, alt), tmi])
    write_series_csv(path, TimeSeries(
        t, cols, ("easting_m", "northing_m", "alt_m", "tmi_nT")))


# --- vib ---

def test_vib_spectrum_two_tone(tmp_path, capsys):
    t = np.arange(0, 4.0, 1.0 / 256.0)
    az = 3.0 * np.sin(2 * np.pi * 33.0 * t) + 1.2 * np.sin(2 * np.pi * 76.0 * t)
    infile = tmp_path / "accel.csv"
    write_accel(infile, t, az)
    out = tmp_path / "spectrum.csv"
    code, stdout, _ = run_cli(capsys, "vib", "spectrum", "--in", infile,
                              "--out", out)
    assert code == EXIT_OK
    payload = json.loads(stdout)
    peaks = payload["peaks"]
    assert abs(peaks[0]["freq_hz"] - 33.0) < 0.5
    assert peaks[0]["amplitude_ms2"] == pytest.approx(3.0, abs=1e-6)
    assert abs(peaks[1]["freq_hz"] - 76.0) < 0.5
    header = out.read_text().splitlines()[0]
    assert header == "freq_hz,amplitude_ms2"


def test_vib_compare_reduction(tmp_path, capsys):
    t = np.arange(0, 2.0, 1.0 / 256.0)
    write_accel(tmp_path / "before.csv", t, 10.0 * np.sin(2 * np.pi * 16 * t))
    write_accel(tmp_path / "after.csv", t, 0.5 * np.sin(2 * np.pi * 16 * t))
    code, stdout, _ = run_cli(capsys, "vib", "compare",
                              "--before", tmp_path / "before.csv",
                              "--after", tmp_path / "after.csv")
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["reduction_factor"] == pytest.approx(20.0, rel=1e-12)
    assert payload["attenuation_db"] == pytest.approx(26.0206, abs=1e-3)


def test_vib_rank_orders_by_effectiveness(tmp_path, capsys):
    config = tmp_path / "candidates.json"
    config.write_text(json.dumps([
        {"kind": "rubber_ball", "count": 8, "intensity": 1.0,
         "damping_ratio": 0.1, "stiffness": 1000.0},
        {"kind": "wire_rope", "count": 4, "intensity": 1.0,
         "damping_ratio": 0.3, "stiffness": 800.0},
    ]))
    code, stdout, _ = run_cli(capsys, "vib", "rank", "--config", config,
                              "--mass", 6.0, "--freq", 35.0)
    assert code == EXIT_OK
    ranking = json.loads(stdout)["ranking"]
    assert [r["kind"] for r in ranking] == ["wire_rope", "rubber_ball"]
    # eta * zeta * S / (m * n * f^2)
    assert ranking[0]["effectiveness"] == pytest.approx(
        1.0 * 0.3 * 800.0 / (6.0 * 4 * 35.0 ** 2), rel=1e-12)


# --- emi ---

def test_emi_buzz_end_to_end(tmp_path, capsys):
    rng = np.random.default_rng(1)
    t = np.arange(0, 20.0, 1.0 / 50.0)
    passes = []
    for sep in (4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 15.0):
        amp = 145.8 * sep ** -3.0
        trace = (rng.normal(0.0, amp / 1.96, t.size)
                 + rng.normal(0.0, 0.2 / 1.96, t.size))
        path = tmp_path / f"pass_{sep:g}.csv"
        # plain t_s,value traces exercise the generic two-column reader
        write_series_csv(path, TimeSeries(t, trace, ("buzz_nT",)))
        passes.append({"separation_m": sep, "kind": "overflight",
                       "csv_path": path.name})
    spec = tmp_path / "passes.json"
    spec.write_text(json.dumps(passes))
    out = tmp_path / "buzz.json"
    code, stdout, _ = run_cli(capsys, "emi", "buzz", "--passes", spec,
                              "--floor", 0.2, "--out", out)
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert json.loads(out.read_text()) == payload
    assert 2.5 <= payload["fit"]["p"] <= 3.5
    assert 7.5 <= payload["threshold_m"] <= 11.0
    assert [e["r"] for e in payload["interference_pct_at"]] == [8.0, 9.0, 10.0]
    assert "overflight" in payload["per_kind"]


def test_emi_buzz_ragged_row_is_io_error(tmp_path, capsys):
    # the blank line is skipped; the short row is data row 2
    (tmp_path / "pass.csv").write_text(
        "t_s,buzz_nT\n0.0,1.5\n\n0.02\n0.04,1.1\n")
    spec = tmp_path / "passes.json"
    spec.write_text(json.dumps([{"separation_m": 5.0, "csv_path": "pass.csv"}]))
    code, _, err = run_cli(capsys, "emi", "buzz", "--passes", spec,
                           "--out", tmp_path / "buzz.json")
    assert code == EXIT_IO
    assert "pass.csv: data row 2" in err and "Traceback" not in err


# --- sim ---

@pytest.fixture()
def small_plan(tmp_path):
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(
        FlightPlan(n_lines=2, line_length_m=150.0, tie_lines=1).to_dict()))
    return p


def test_sim_survey_writes_artifacts(tmp_path, small_plan, capsys):
    out_dir = tmp_path / "sim_out"
    code, stdout, _ = run_cli(capsys, "sim", "survey", "--plan", small_plan,
                              "--out-dir", out_dir)
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["seed"] == SimConfig().seed
    for name in ("attitude.csv", "mag.csv", "vlf.csv", "rad.csv", "base.csv",
                 "spectra.csv"):
        assert name in payload["artifacts"]
        assert (out_dir / name).is_file()


def test_sim_survey_seed_env(tmp_path, small_plan, capsys, monkeypatch):
    monkeypatch.setenv("AEROSURVEY_SEED", "77")
    code, stdout, _ = run_cli(capsys, "sim", "survey", "--plan", small_plan,
                              "--out-dir", tmp_path / "out")
    assert code == EXIT_OK
    assert json.loads(stdout)["seed"] == 77


@pytest.mark.parametrize("flag, content", (
    ("--plan", {"n_lines": 2, "no_such_key": 1}),
    ("--plan", [2, 150.0]),
    ("--geom", {"cable_lenght": 9.0}),
    ("--cfg", {"speeed": 6.0}),
))
def test_sim_survey_bad_config_is_io_error(tmp_path, capsys, flag, content):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(content))
    code, _, err = run_cli(capsys, "sim", "survey", flag, p,
                           "--out-dir", tmp_path / "out")
    assert code == EXIT_IO
    assert "error" in err and "Traceback" not in err


# --- qc ---

def test_qc_d4_flags_spike_and_exits_3(tmp_path, capsys):
    t = np.arange(0, 30.0, 0.1)
    tmi = 50000.0 + 0.5 * np.sin(2 * np.pi * t / 30.0)
    tmi[150] += 10.0
    write_mag(tmp_path / "mag.csv", t, t, np.zeros_like(t), tmi)
    out = tmp_path / "d4.json"
    code, stdout, _ = run_cli(capsys, "qc", "d4", "--in", tmp_path / "mag.csv",
                              "--threshold", 5.0, "--out", out)
    assert code == EXIT_QC
    payload = json.loads(stdout)
    assert payload["pass"] is False
    assert payload["stats"]["flagged_count"] >= 1
    assert json.loads(out.read_text()) == payload


def test_qc_d4_clean_exits_0(tmp_path, capsys):
    t = np.arange(0, 30.0, 0.1)
    tmi = 50000.0 + 0.5 * np.sin(2 * np.pi * t / 30.0)
    write_mag(tmp_path / "mag.csv", t, t, np.zeros_like(t), tmi)
    code, stdout, _ = run_cli(capsys, "qc", "d4", "--in", tmp_path / "mag.csv",
                              "--threshold", 5.0, "--out", tmp_path / "d4.json")
    assert code == EXIT_OK
    assert json.loads(stdout)["pass"] is True


def test_qc_diurnal_writes_corrected(tmp_path, capsys):
    t = np.arange(0, 60.0, 0.5)
    drift = 3.0 * np.sin(2 * np.pi * t / 60.0)
    write_mag(tmp_path / "rover.csv", t, t, t, 50000.0 + drift)
    tb = np.arange(-1.0, 62.0, 1.0)
    write_series_csv(tmp_path / "base.csv", TimeSeries(
        tb, 49900.0 + 3.0 * np.sin(2 * np.pi * tb / 60.0), ("tmi_nT",)))
    out = tmp_path / "corrected.csv"
    code, stdout, _ = run_cli(capsys, "qc", "diurnal",
                              "--rover", tmp_path / "rover.csv",
                              "--base", tmp_path / "base.csv",
                              "--datum", 49900.0, "--out", out)
    assert code == EXIT_OK
    assert out.is_file()
    assert json.loads(stdout)["rms_correction_nt"] == pytest.approx(
        np.sqrt(np.mean(drift ** 2)), rel=0.05)


def _write_tie_fixture(tmp_path, tie_value):
    flights = tmp_path / "flights"
    ties = tmp_path / "ties"
    flights.mkdir(parents=True)
    ties.mkdir(parents=True)
    t = np.arange(0, 10.0, 0.5)
    n = t.size
    north = np.linspace(0.0, 100.0, n)
    for i, x in enumerate((0.0, 50.0)):
        write_mag(flights / f"L{i + 1}.csv", t, np.full(n, x), north,
                  np.full(n, 50000.0))
    east = np.linspace(-10.0, 60.0, n)
    write_mag(ties / "T1.csv", t, east, np.full(n, 50.0),
              np.full(n, tie_value))
    return flights, ties


def test_qc_tie_pass_and_fail(tmp_path, capsys):
    flights, ties = _write_tie_fixture(tmp_path, 50000.0)
    out = tmp_path / "tie.json"
    code, stdout, _ = run_cli(capsys, "qc", "tie", "--flights", flights,
                              "--ties", ties, "--tol", 0.5, "--out", out)
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["stats"]["n"] == 2
    assert payload["stats"]["max_abs_difference"] == pytest.approx(0.0)

    flights, ties = _write_tie_fixture(tmp_path / "bad", 50001.0)
    code, stdout, _ = run_cli(capsys, "qc", "tie", "--flights", flights,
                              "--ties", ties, "--tol", 0.5,
                              "--out", tmp_path / "tie_bad.json")
    assert code == EXIT_QC
    assert json.loads(stdout)["pass"] is False


def test_qc_nasvd_roundtrip_and_bad_rank(tmp_path, capsys):
    rng = np.random.default_rng(3)
    shape = rng.uniform(1.0, 5.0, 8)
    strength = rng.uniform(20.0, 60.0, 20)
    counts = rng.poisson(np.outer(strength, shape)).astype(float)
    infile = tmp_path / "spectra.csv"
    write_spectra_csv(infile, counts)
    out = tmp_path / "denoised.csv"
    code, stdout, _ = run_cli(capsys, "qc", "nasvd", "--in", infile,
                              "--k", 2, "--out", out)
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["n_spectra"] == 20 and payload["n_channels"] == 8
    assert 0.0 < payload["energy_fraction"] <= 1.0
    assert out.is_file()

    code, _, err = run_cli(capsys, "qc", "nasvd", "--in", infile,
                           "--k", 99, "--out", tmp_path / "nope.csv")
    assert code == EXIT_IO
    assert "error" in err


def test_qc_nasvd_ragged_row_is_io_error(tmp_path, capsys):
    infile = tmp_path / "spectra.csv"
    infile.write_text("ch0,ch1,ch2\r\n1.0,2.0,3.0\r\n4.0,5.0\r\n")
    out = tmp_path / "denoised.csv"
    code, _, err = run_cli(capsys, "qc", "nasvd", "--in", infile,
                           "--k", 1, "--out", out)
    assert code == EXIT_IO
    assert "spectra.csv: data row 2" in err and "Traceback" not in err
    assert not out.exists()


def test_qc_nasvd_non_finite_cell_is_io_error(tmp_path, capsys):
    infile = tmp_path / "spectra.csv"
    infile.write_text("ch0,ch1,ch2\r\n1.0,2.0,3.0\r\n4.0,nan,6.0\r\n"
                      "7.0,8.0,9.0\r\n")
    out = tmp_path / "denoised.csv"
    code, _, err = run_cli(capsys, "qc", "nasvd", "--in", infile,
                           "--k", 1, "--out", out)
    assert code == EXIT_IO
    assert "spectra.csv: data row 2 has a non-finite value" in err
    assert "Traceback" not in err
    assert not out.exists()


# --- grid ---

def test_grid_make_and_compare(tmp_path, capsys):
    xx, yy = np.meshgrid(np.arange(0.0, 100.0, 10.0),
                         np.arange(0.0, 100.0, 10.0))
    x, y = xx.ravel(), yy.ravel()
    v = 50000.0 + 0.02 * x + 0.01 * y
    t = np.arange(x.size, dtype=float)
    write_mag(tmp_path / "mag.csv", t, x, y, v)
    a = tmp_path / "a.asc"
    code, stdout, _ = run_cli(capsys, "grid", "make", "--in",
                              tmp_path / "mag.csv", "--cell", 10.0,
                              "--out", a, "--pgm", tmp_path / "a.pgm")
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["valid_fraction"] > 0.9
    assert a.is_file() and (tmp_path / "a.pgm").is_file()

    b = tmp_path / "b.asc"
    code, _, _ = run_cli(capsys, "grid", "make", "--in", tmp_path / "mag.csv",
                         "--cell", 25.0, "--out", b)
    assert code == EXIT_OK
    out = tmp_path / "cmp.json"
    code, stdout, _ = run_cli(capsys, "grid", "compare", "--a", a, "--b", b,
                              "--out", out)
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert set(payload) == {"stddev_a", "stddev_b", "delta"}
    assert payload["delta"] == pytest.approx(
        payload["stddev_b"] - payload["stddev_a"], abs=1e-9)


# --- pipeline ---

def test_pipeline_cli_pass_and_tie_failure(tmp_path, small_plan, capsys):
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"plan_path": str(small_plan)}))
    out_dir = tmp_path / "run"
    code, stdout, _ = run_cli(capsys, "pipeline", "--config", config,
                              "--out-dir", out_dir)
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["pass"] is True
    assert (out_dir / "report.json").is_file()

    out_bad = tmp_path / "run_bad"
    code, stdout, _ = run_cli(capsys, "pipeline", "--config", config,
                              "--out-dir", out_bad,
                              "--tie-tolerance", 1e-12)
    assert code == EXIT_QC
    assert json.loads(stdout)["pass"] is False
    assert json.loads((out_bad / "report.json").read_text())["pass"] is False


# --- version and exit codes ---

@pytest.mark.parametrize("content", ({"tie_tolerance": 1.0, "no_such_key": 1},
                                     ["out_dir", "x"]))
def test_pipeline_cli_bad_config_is_io_error(tmp_path, capsys, content):
    p = tmp_path / "pipe.json"
    p.write_text(json.dumps(content))
    code, _, err = run_cli(capsys, "pipeline", "--config", p,
                           "--out-dir", tmp_path / "out")
    assert code == EXIT_IO
    assert "error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_pipeline_cli_plan_with_unknown_key_is_io_error(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"n_lines": 2, "no_such_key": 1}))
    cfg = tmp_path / "pipe.json"
    cfg.write_text(json.dumps({"plan_path": str(plan)}))
    code, _, err = run_cli(capsys, "pipeline", "--config", cfg,
                           "--out-dir", tmp_path / "out")
    assert code == EXIT_IO
    assert "no_such_key" in err


def test_version_text_and_json(capsys):
    code, stdout, _ = run_cli(capsys, "version")
    assert code == EXIT_OK
    assert stdout.startswith("aerosurvey ")
    code, stdout, _ = run_cli(capsys, "version", "--json")
    assert code == EXIT_OK
    assert json.loads(stdout) == version_info()


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_missing_required_argument_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "vib", "spectrum")
    assert code == EXIT_USAGE


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "vib", "compare",
                           "--before", tmp_path / "nope.csv",
                           "--after", tmp_path / "nada.csv")
    assert code == EXIT_IO
    assert "error" in err


def test_wrong_schema_is_io_error(tmp_path, capsys):
    # base CSV lacks position columns required by the d4 mag schema
    tb = np.arange(0.0, 10.0, 1.0)
    write_series_csv(tmp_path / "base.csv",
                     TimeSeries(tb, np.full(tb.size, 50000.0), ("tmi_nT",)))
    code, _, err = run_cli(capsys, "qc", "d4", "--in", tmp_path / "base.csv",
                           "--threshold", 5.0, "--out", tmp_path / "out.json")
    assert code == EXIT_IO
    assert "error" in err
