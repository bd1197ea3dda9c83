"""CLI behavior: subcommand output, artifacts on disk, stable exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerosurvey import pipeline
from aerosurvey.cli import (
    EXIT_INTERNAL,
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


def test_vib_spectrum_past_the_float_range_is_io_error(tmp_path, capsys):
    # a column scaled by 1e306: its spectrum overflows, and the command
    # refuses it before the output is written
    t = np.arange(2048) / 256.0
    infile = tmp_path / "accel.csv"
    write_accel(infile, t, 1e306 * np.sin(2 * np.pi * 33.0 * t))
    out = tmp_path / "spectrum.csv"
    code, _, err = run_cli(capsys, "vib", "spectrum", "--in", infile,
                           "--axis", "z", "--out", out)
    assert code == EXIT_IO
    assert "past the float64 range" in err
    assert not out.exists()


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


# a JSON object, a list of numbers and a list of strings: not candidates
NOT_A_LIST_OF_OBJECTS = (
    {"kind": "wire_rope", "count": 4, "csv_path": "pass.csv"},
    [1, 2],
    [["wire_rope", 4]],
)


@pytest.mark.parametrize("content", NOT_A_LIST_OF_OBJECTS)
def test_vib_rank_config_not_a_list_of_objects_is_io_error(tmp_path, capsys,
                                                           content):
    config = tmp_path / "candidates.json"
    config.write_text(json.dumps(content))
    code, _, err = run_cli(capsys, "vib", "rank", "--config", config,
                           "--mass", 6.0, "--freq", 35.0)
    assert code == EXIT_IO
    assert "candidates.json: expected a JSON list of objects" in err
    assert "Traceback" not in err


GOOD_CANDIDATE = {"kind": "wire_rope", "count": 4, "intensity": 1.0,
                  "damping_ratio": 0.3, "stiffness": 800.0}
# JSON values no candidate or pass field accepts: null, a list, an object
# and a non-numeric string
BAD_VALUES = (None, [4], {"n": 4}, "four")
# values float() takes that no numeric field accepts
NOT_A_FINITE_NUMBER = (True, "nan", "-inf")


@pytest.mark.parametrize("value", BAD_VALUES)
@pytest.mark.parametrize("key", ("kind", "count", "mount_angle_deg",
                                 "intensity", "damping_ratio", "stiffness"))
def test_vib_rank_bad_candidate_field_is_io_error(tmp_path, capsys, key,
                                                  value):
    config = tmp_path / "candidates.json"
    config.write_text(json.dumps([GOOD_CANDIDATE,
                                  {**GOOD_CANDIDATE, key: value}]))
    code, _, err = run_cli(capsys, "vib", "rank", "--config", config,
                           "--mass", 6.0, "--freq", 35.0)
    assert code == EXIT_IO
    assert (f"candidates.json: entry 1: IsolatorConfig: invalid {key!r}: "
            f"{value!r}" in err)
    assert "Traceback" not in err


# a whole float for a count and a numeric string were once read as numbers
@pytest.mark.parametrize("key, value", [
    ("count", True), ("count", 4.9), ("count", 4.0), ("intensity", "1.5")] + [
    (key, value) for key in ("mount_angle_deg", "intensity", "damping_ratio",
                             "stiffness") for value in NOT_A_FINITE_NUMBER])
def test_vib_rank_bool_fraction_or_non_finite_is_io_error(tmp_path, capsys,
                                                          key, value):
    config = tmp_path / "candidates.json"
    config.write_text(json.dumps([GOOD_CANDIDATE,
                                  {**GOOD_CANDIDATE, key: value}]))
    code, _, err = run_cli(capsys, "vib", "rank", "--config", config,
                           "--mass", 6.0, "--freq", 35.0)
    assert code == EXIT_IO
    assert (f"candidates.json: entry 1: IsolatorConfig: invalid {key!r}: "
            f"{value!r}" in err)


def test_vib_rank_missing_candidate_field_is_io_error(tmp_path, capsys):
    config = tmp_path / "candidates.json"
    config.write_text(json.dumps([{k: v for k, v in GOOD_CANDIDATE.items()
                                   if k != "stiffness"}]))
    code, _, err = run_cli(capsys, "vib", "rank", "--config", config,
                           "--mass", 6.0, "--freq", 35.0)
    assert code == EXIT_IO
    assert ("candidates.json: entry 0: IsolatorConfig: missing key "
            "'stiffness'" in err)


# a candidate whose own values overflow once blamed the shared mass and
# frequency, which are fine
def test_vib_rank_candidate_overflow_names_the_candidate(tmp_path, capsys):
    config = tmp_path / "candidates.json"
    config.write_text(json.dumps([GOOD_CANDIDATE, {
        **GOOD_CANDIDATE, "intensity": 1e300, "stiffness": 1e300}]))
    code, _, err = run_cli(capsys, "vib", "rank", "--config", config,
                           "--mass", 6.0, "--freq", 35.0)
    assert code == EXIT_IO
    assert ("error: candidate 1: intensity 1e+300 x damping_ratio 0.3 x "
            "stiffness 1e+300 is not finite" in err)
    assert "payload_mass" not in err and "Traceback" not in err


# mass x count x freq^2 once overflowed in `**` and exited 4 with a traceback
@pytest.mark.parametrize("freq", (1e160, 1e300))
def test_vib_rank_overflowing_frequency_is_io_error(tmp_path, capsys, freq):
    config = tmp_path / "candidates.json"
    config.write_text(json.dumps([GOOD_CANDIDATE]))
    code, stdout, err = run_cli(capsys, "vib", "rank", "--config", config,
                                "--mass", 6.0, "--freq", freq)
    assert code == EXIT_IO
    assert (f"error: mass 6.0 x count 4 x frequency {freq!r}^2 is past the "
            "float64 range" in err)
    assert stdout == "" and "Traceback" not in err


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


def _write_buzz_passes(tmp_path, amplitudes, column, name="passes.json"):
    """One 1,000-sample t_s,<column> trace of Gaussian noise per
    (separation, amplitude), and the --passes list naming them."""
    rng = np.random.default_rng(7)
    t = np.arange(1000) / 50.0
    passes = []
    for sep, amp in amplitudes:
        path = tmp_path / f"{column}_{sep:g}.csv"
        write_series_csv(path, TimeSeries(
            t, amp * rng.normal(0.0, 1.0, t.size), (column,)))
        passes.append({"separation_m": sep, "csv_path": path.name})
    spec = tmp_path / name
    spec.write_text(json.dumps(passes))
    return spec


# a t_s,tmi_nT header was once read as a mag CSV: exit 2, missing easting_m
def test_emi_buzz_reads_a_two_column_tmi_trace(tmp_path, capsys):
    amps = [(sep, 145.8 * sep ** -3.0) for sep in (2.0, 4.0, 8.0, 16.0)]
    results = []
    for column in ("tmi_nT", "buzz_nT"):
        spec = _write_buzz_passes(tmp_path, amps, column, f"{column}.json")
        code, stdout, err = run_cli(capsys, "emi", "buzz", "--passes", spec,
                                    "--out", tmp_path / f"{column}_out.json")
        assert code == EXIT_OK, err
        results.append(json.loads(stdout))
    assert results[0] == results[1]


# squaring an amplitude of 1e300 once overflowed with two RuntimeWarnings
# into a QC verdict (exit 3), or exit 4 with warnings as errors
@pytest.mark.parametrize("action", ("default", "error"))
def test_emi_buzz_amplitude_past_the_float_range_is_io_error(tmp_path, capsys,
                                                             action):
    spec = _write_buzz_passes(tmp_path, [(2.0, 1e300), (4.0, 1e200),
                                         (8.0, 1e100), (16.0, 1.0)], "buzz_nT")
    out = tmp_path / "buzz.json"
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        code, _, err = run_cli(capsys, "emi", "buzz", "--passes", spec,
                               "--out", out)
    assert code == EXIT_IO
    assert "error: separation 2.0: noise amplitude " in err
    assert "is past the float64 range when squared" in err
    assert "Traceback" not in err
    assert not out.exists()


# a decay from 1e153 at 10 m to 1 at 20 m fits an amplitude at 1 m of
# exp(1522): math.exp once overflowed into exit 4 with a traceback
@pytest.mark.parametrize("action", ("default", "error"))
def test_emi_buzz_fitted_amplitude_past_the_float_range_is_io_error(
        tmp_path, capsys, action):
    spec = _write_buzz_passes(tmp_path, [(10.0, 1e153), (20.0, 1.0),
                                         (40.0, 0.0)], "tmi_nT")
    out = tmp_path / "buzz.json"
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        code, _, err = run_cli(capsys, "emi", "buzz", "--passes", spec,
                               "--out", out)
    assert code == EXIT_IO
    assert "error: the fitted amplitude at 1 m, exp(1522." in err
    assert "is past the float64 range" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_emi_buzz_fit_with_exponent_near_zero_never_reaches_floor(
        tmp_path, capsys):
    # one trace at three separations: the fitted decay is flat, so
    # (a1 / floor) ** (1 / p) is beyond the float range
    t = np.arange(0, 6.0, 0.02)
    write_series_csv(tmp_path / "pass.csv", TimeSeries(
        t, np.arange(t.size) % 10 * 1.0, ("buzz_nT",)))
    spec = tmp_path / "passes.json"
    spec.write_text(json.dumps([{"separation_m": sep, "csv_path": "pass.csv"}
                                for sep in (3.0, 4.0, 5.0)]))
    code, _, err = run_cli(capsys, "emi", "buzz", "--passes", spec,
                           "--out", tmp_path / "buzz.json")
    assert code == EXIT_QC
    assert "amplitude above floor at all separations" in err
    assert "Traceback" not in err


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


def test_emi_buzz_absolute_csv_path(tmp_path, capsys):
    trace = tmp_path / "traces" / "pass.csv"
    trace.parent.mkdir()
    trace.write_text("t_s,buzz_nT\n0.0,1.5\n0.02\n")
    spec = tmp_path / "spec" / "passes.json"
    spec.parent.mkdir()
    spec.write_text(json.dumps([{"separation_m": 5.0, "csv_path": str(trace)}]))
    code, _, err = run_cli(capsys, "emi", "buzz", "--passes", spec,
                           "--out", tmp_path / "buzz.json")
    assert code == EXIT_IO
    assert f"{trace}: data row 2 has 1 cells" in err


@pytest.mark.parametrize("content", NOT_A_LIST_OF_OBJECTS)
def test_emi_buzz_passes_not_a_list_of_objects_is_io_error(tmp_path, capsys,
                                                           content):
    (tmp_path / "pass.csv").write_text("t_s,buzz_nT\n0.0,1.5\n0.02,1.1\n")
    spec = tmp_path / "passes.json"
    spec.write_text(json.dumps(content))
    code, _, err = run_cli(capsys, "emi", "buzz", "--passes", spec,
                           "--out", tmp_path / "buzz.json")
    assert code == EXIT_IO
    assert "passes.json: expected a JSON list of objects" in err
    assert "Traceback" not in err


# an empty list once ended in an AssertionError (exit 4)
def test_emi_buzz_empty_pass_list_is_io_error(tmp_path, capsys):
    spec = tmp_path / "passes.json"
    spec.write_text("[]")
    out = tmp_path / "buzz.json"
    code, _, err = run_cli(capsys, "emi", "buzz", "--passes", spec,
                           "--out", out)
    assert code == EXIT_IO
    assert "error: need >= 3 distinct separations" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("value", BAD_VALUES)
@pytest.mark.parametrize("key", ("separation_m", "csv_path", "kind"))
def test_emi_buzz_bad_pass_field_is_io_error(tmp_path, capsys, key, value):
    if key == "csv_path" and isinstance(value, str):
        value = 4.0           # any string is a path; a number is not
    (tmp_path / "pass.csv").write_text("t_s,buzz_nT\n0.0,1.5\n0.02,1.1\n")
    spec = tmp_path / "passes.json"
    spec.write_text(json.dumps([{"separation_m": 5.0, "csv_path": "pass.csv",
                                 key: value}]))
    code, _, err = run_cli(capsys, "emi", "buzz", "--passes", spec,
                           "--out", tmp_path / "buzz.json")
    assert code == EXIT_IO
    assert (f"passes.json: entry 0: _PassEntry: invalid {key!r}: {value!r}"
            in err)
    assert "Traceback" not in err


@pytest.mark.parametrize("value", NOT_A_FINITE_NUMBER)
def test_emi_buzz_bool_or_non_finite_separation_is_io_error(tmp_path, capsys,
                                                            value):
    (tmp_path / "pass.csv").write_text("t_s,buzz_nT\n0.0,1.5\n0.02,1.1\n")
    spec = tmp_path / "passes.json"
    spec.write_text(json.dumps([{"separation_m": value,
                                 "csv_path": "pass.csv"}]))
    code, _, err = run_cli(capsys, "emi", "buzz", "--passes", spec,
                           "--out", tmp_path / "buzz.json")
    assert code == EXIT_IO
    assert (f"passes.json: entry 0: _PassEntry: invalid 'separation_m': "
            f"{value!r}" in err)


# --- vib rank and emi buzz entries: any one value exits 0, 2 or 3 ---

# 10**400, an int beyond the floats, once overflowed in the score (exit 4)
ENTRY_VALUES = (0, -1, 1e-300, 1e300, True, "x", None, 4.0, "4", [], {},
                10 ** 400)
LEFT_OUT = object()


@pytest.mark.parametrize("command", ("vib", "emi"))
def test_one_entry_value_never_ends_in_exit_4(tmp_path, command):
    paths = _survey_inputs(tmp_path)
    if command == "vib":
        good, listing = GOOD_CANDIDATE, [GOOD_CANDIDATE]
        argv = ["vib", "rank", "--config", paths["candidates"], "--mass", "6",
                "--freq", "35"]
    else:
        listing = json.loads(paths["passes"].read_text())
        good = {**listing[0], "kind": "overflight"}
        argv = ["emi", "buzz", "--passes", paths["passes"], "--out",
                paths["out"]]
    spec = Path(argv[3])
    cases = [(key, value) for key in good for value in (*ENTRY_VALUES,
                                                        LEFT_OUT)]

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=2 * len(cases))
    @given(st.sampled_from(cases))
    def one_value(case):
        key, value = case
        entry = {k: v for k, v in good.items() if k != key}
        if value is not LEFT_OUT:
            entry[key] = value
        spec.write_text(json.dumps([entry, *listing[1:]]))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        assert code in (EXIT_OK, EXIT_IO, EXIT_QC), err.getvalue()
        assert "Traceback" not in err.getvalue()

    one_value()


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


def test_sim_survey_and_pipeline_fly_the_same_default_plan(tmp_path, capsys):
    # no plan: both fly default_plan of the sim config, spaced as it says
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"line_spacing": 30.0, "survey_altitude": 55.0}))
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"sim_path": str(sim)}))
    code, _, _ = run_cli(capsys, "sim", "survey", "--cfg", sim,
                         "--out-dir", tmp_path / "sim")
    assert code == EXIT_OK
    code, _, _ = run_cli(capsys, "pipeline", "--config", config,
                         "--out-dir", tmp_path / "pipe")
    assert code in (EXIT_OK, EXIT_QC)
    names = [p.relative_to(tmp_path / "sim").as_posix()
             for p in sorted((tmp_path / "sim").rglob("*.csv"))]
    assert {"attitude.csv", "mag.csv", "vlf.csv", "rad.csv", "base.csv",
            "spectra.csv", "flights/L2.csv", "ties/T1.csv"} <= set(names)
    for name in names:
        assert (tmp_path / "sim" / name).read_bytes() \
            == (tmp_path / "pipe" / name).read_bytes(), name
    # L2 starts 30 m east of the plan origin
    l2 = np.loadtxt(tmp_path / "sim" / "flights" / "L2.csv", delimiter=",",
                    skiprows=1, usecols=1)
    assert abs(np.median(l2) - (FlightPlan().origin_utm[0] + 30.0)) < 5.0


# the seed comes from --cfg alone: an exported AEROSURVEY_SEED sets nothing
def test_sim_survey_seed_env(tmp_path, small_plan, capsys, monkeypatch):
    monkeypatch.setenv("AEROSURVEY_SEED", "5")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 77}))
    code, stdout, _ = run_cli(capsys, "sim", "survey", "--plan", small_plan,
                              "--cfg", cfg, "--out-dir", tmp_path / "out")
    assert code == EXIT_OK
    assert json.loads(stdout)["seed"] == 77


def test_negative_seed_env_names_the_field(tmp_path, small_plan, capsys,
                                           monkeypatch):
    monkeypatch.setenv("AEROSURVEY_SEED", "-1")
    code, stdout, _ = run_cli(capsys, "sim", "survey", "--plan", small_plan,
                              "--out-dir", tmp_path / "out")
    assert code == EXIT_OK
    assert json.loads(stdout)["seed"] == SimConfig().seed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    code, _, err = run_cli(capsys, "sim", "survey", "--plan", small_plan,
                           "--cfg", cfg, "--out-dir", tmp_path / "bad")
    assert code == EXIT_IO
    assert f"error: {cfg}: seed must be finite and >= 0, got -1" in err
    assert "Traceback" not in err and not (tmp_path / "bad").exists()


# a zero-width anomaly once wrote a NaN TMI sample and exited 0, and one
# of 1e-300 m divides by 2 sigma**2 == 0
@pytest.mark.parametrize("sigma", (0, -60.0, 1e-300, 0.999))
def test_anomaly_sigma_below_1_m_is_refused(tmp_path, small_plan, capsys,
                                            sigma):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"anomalies": [[0, 0, 1, sigma]]}))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "sim", "survey", "--plan", small_plan,
                           "--cfg", cfg, "--out-dir", out)
    assert code == EXIT_IO
    assert f"error: {cfg}: anomalies: every sigma must be >= 1 m" in err
    assert not out.exists()


# an element once overflowed to inf TMI rows (exit 0), or to a NaN sample
# count (exit 2 naming no field)
@pytest.mark.parametrize("flag, content, key", (
    ("--cfg", {"regional_gradient": [1e307, 0]}, "regional_gradient"),
    ("--plan", {"origin_utm": [1e308, 0]}, "origin_utm"),
))
def test_tuple_element_out_of_range_names_the_field(tmp_path, small_plan,
                                                    capsys, flag, content,
                                                    key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(content))
    out = tmp_path / "out"
    argv = ["sim", "survey", flag, config, "--out-dir", out]
    if flag != "--plan":
        argv += ["--plan", small_plan]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_IO
    assert f"error: {config}: {key} must be finite and >= " in err
    assert "Traceback" not in err and not out.exists()


# a yaw lag of more steps than the track once built a lagged heading of
# the lag's length and exited 2 on a broadcast error
def test_yaw_lag_longer_than_the_track_is_flown(tmp_path, capsys):
    cfg, geom = tmp_path / "cfg.json", tmp_path / "geom.json"
    cfg.write_text(json.dumps({"speed": 0, "hover_duration_s": 0.5,
                               "yaw_lag_s": 2}))
    geom.write_text(json.dumps({"intermediate_platform": False}))
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "sim", "survey", "--cfg", cfg,
                                "--geom", geom, "--out-dir", out)
    assert code == EXIT_OK, err
    assert json.loads(stdout)["n_sensor_samples"] == 6
    heading = np.loadtxt(out / "attitude.csv", delimiter=",", skiprows=1,
                         usecols=3)
    assert len(heading) == 51 and np.all(heading == heading[0])


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


# a wrong-typed value or malformed JSON in any config file
@pytest.mark.parametrize("argv, text", (
    (["sim", "survey", "--plan"], '{"n_lines": "four"}'),
    (["sim", "survey", "--cfg"], '{"speed": null}'),
    (["sim", "survey", "--geom"], '{"intermediate_platform": 1}'),
    (["sim", "survey", "--plan"], '{"n_lines": 4'),
    (["pipeline", "--config"], '{"nasvd_k": "4"}'),
    (["pipeline", "--config"], '{"tie_tolerance": 1.0,'),
))
def test_bad_config_value_or_json_names_the_file(tmp_path, capsys, argv, text):
    p = tmp_path / "config.json"
    p.write_text(text)
    code, _, err = run_cli(capsys, *argv, p, "--out-dir", tmp_path / "out")
    assert code == EXIT_IO
    assert f"error: {p}: " in err and "Traceback" not in err


# JSON's NaN/Infinity in a float field, or a value the class rejects
@pytest.mark.parametrize("argv, text, message", (
    (["sim", "survey", "--cfg"], '{"noise_floor": Infinity}',
     "SimConfig: invalid 'noise_floor': inf"),
    (["sim", "survey", "--cfg"], '{"speed": NaN}',
     "SimConfig: invalid 'speed': nan"),
    (["sim", "survey", "--plan"], '{"line_length_m": -Infinity}',
     "FlightPlan: invalid 'line_length_m': -inf"),
    (["pipeline", "--config"], '{"cell_fine": NaN}',
     "PipelineConfig: invalid 'cell_fine': nan"),
    (["sim", "survey", "--plan"], '{"n_lines": 0}',
     "n_lines must be finite and >= 1 and <= 10000, got 0"),
))
def test_config_value_rejected_at_load_names_the_file(tmp_path, capsys, argv,
                                                      text, message):
    p = tmp_path / "config.json"
    p.write_text(text)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *argv, p, "--out-dir", out)
    assert code == EXIT_IO
    assert f"error: {p}: {message}" in err and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("tmi, message", [
    # one cell: max |d4| is inf
    (np.where(np.arange(300) == 150, 1e308, 50000.0), "max |d4| inf"),
    # every cell: max |d4| is 1.6e308, the robust threshold is past it
    (1e307 * (-1.0) ** np.arange(300), "threshold inf"),
], ids=["one_cell", "every_cell"])
def test_qc_d4_past_the_float_range_exits_2_writing_nothing(tmp_path, capsys,
                                                           tmi, message):
    t = np.arange(0, 30.0, 0.1)
    write_mag(tmp_path / "mag.csv", t, t, np.zeros_like(t), tmi)
    out = tmp_path / "d4.json"
    code, stdout, err = run_cli(capsys, "qc", "d4", "--in",
                                tmp_path / "mag.csv", "--out", out)
    assert code == EXIT_IO
    assert err.startswith("error: the 4th difference is past the float64 "
                          "range (") and message in err
    assert "Traceback" not in err and stdout == ""
    assert not out.exists()


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


def test_qc_diurnal_past_the_float_range_exits_2_writing_nothing(tmp_path,
                                                                 capsys):
    t = np.array([0.0, 0.1, 0.2])
    write_mag(tmp_path / "rover.csv", t, t, t, np.full(3, 54000.0))
    (tmp_path / "base.csv").write_text(
        "t_s,tmi_nT\n-0.1,1e300\n0.0,1e300\n0.3,1e300\n")
    out = tmp_path / "corrected.csv"
    code, stdout, err = run_cli(capsys, "qc", "diurnal",
                                "--rover", tmp_path / "rover.csv",
                                "--base", tmp_path / "base.csv",
                                "--datum", 54000.0, "--out", out)
    assert code == EXIT_IO
    assert "error: the diurnal correction is past the float64 range" in err
    assert "Traceback" not in err and stdout == ""
    assert not out.exists()


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


def test_qc_tie_past_the_float_range_exits_2_writing_nothing(tmp_path,
                                                             capsys):
    # one easting of 1e308 on L1 at 10.5 m north: its two segments reach
    # every tie segment, 40 m further north, and their cross products
    # overflow, which once dropped the pair's crossing unsaid
    flights, ties = _write_tie_fixture(tmp_path, 50000.0)
    t = np.arange(0, 10.0, 0.5)
    east = np.zeros(t.size)
    east[2] = 1e308
    write_mag(flights / "L1.csv", t, east, np.linspace(0.0, 100.0, t.size),
              np.full(t.size, 50000.0))
    out = tmp_path / "tie.json"
    code, stdout, err = run_cli(capsys, "qc", "tie", "--flights", flights,
                                "--ties", ties, "--tol", 0.5, "--out", out)
    assert code == EXIT_IO
    assert err == ("error: flight line L1 x tie line T1: the segment "
                   "crossing test is past the float64 range: the line "
                   "coordinates are too large\n")
    assert stdout == "" and not out.exists()


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
    assert err == "error: k must be in 1..8\n"


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


def test_qc_nasvd_repeated_column_is_io_error(tmp_path, capsys):
    infile = tmp_path / "spectra.csv"
    infile.write_text("ch0,ch1,ch0\r\n1.0,2.0,3.0\r\n4.0,5.0,6.0\r\n")
    out = tmp_path / "denoised.csv"
    code, _, err = run_cli(capsys, "qc", "nasvd", "--in", infile,
                           "--k", 1, "--out", out)
    assert code == EXIT_IO
    assert "spectra.csv: column 'ch0' appears twice in the header" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("rows, cause", (
    # ch0 sums to 3.4e308: its mean overflows
    ("1.7e308,1e308\r\n1.7e308,2e307\r\n3,4\r\n",
     "channel ch0 has a non-finite mean"),
    # finite means, but the squared singular values overflow
    ("1.5e308,1\r\n0,2\r\n0,3\r\n0,4\r\n", "singular-value energy"),
), ids=("mean", "energy"))
def test_qc_nasvd_counts_past_float64_are_io_error(tmp_path, capsys, rows,
                                                   cause):
    infile = tmp_path / "spectra.csv"
    infile.write_text("ch0,ch1\r\n" + rows)
    out = tmp_path / "denoised.csv"
    code, stdout, err = run_cli(capsys, "qc", "nasvd", "--in", infile,
                                "--k", 1, "--out", out)
    assert code == EXIT_IO
    assert cause in err and "Traceback" not in err
    assert stdout == "" and not out.exists()


# a cell past csv's field size limit (131072 characters), in a data row or
# in the header, through ingest_csv, read_spectra_csv and the buzz reader
LONG_CELL = "x" * 200_000


@pytest.mark.parametrize("name, text, argv", (
    ("mag.csv", f"t_s,tmi_nT\r\n0.0,{LONG_CELL}\r\n0.1,1.0\r\n",
     ["qc", "d4", "--in", "{file}", "--threshold", "6.72"]),
    ("mag.csv", f"t_s,{LONG_CELL}\r\n0.0,1.0\r\n",
     ["qc", "d4", "--in", "{file}", "--threshold", "6.72"]),
    ("spectra.csv", f"ch0,ch1\r\n1.0,{LONG_CELL}\r\n",
     ["qc", "nasvd", "--in", "{file}", "--k", "1"]),
    ("pass.csv", f"t_s,buzz_nT\r\n0.0,1.0\r\n0.1,{LONG_CELL}\r\n",
     ["emi", "buzz", "--passes", "{passes}"]),
), ids=("d4-row", "d4-header", "nasvd", "buzz"))
def test_cell_over_csv_field_limit_is_io_error(tmp_path, capsys, name, text,
                                                argv):
    infile = tmp_path / name
    infile.write_text(text)
    passes = tmp_path / "passes.json"
    passes.write_text(json.dumps([{"separation_m": s, "csv_path": name}
                                  for s in (4.0, 6.0, 8.0)]))
    out = tmp_path / "out.file"
    code, _, err = run_cli(capsys, *(a.format(file=infile, passes=passes)
                                     for a in argv), "--out", out)
    assert code == EXIT_IO
    assert f"error: {infile}: field larger than field limit" in err
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


@pytest.mark.parametrize("flag, value, name", (
    ("--radius", "nan", "search_radius"), ("--radius", "inf", "search_radius"),
    ("--power", "nan", "power"), ("--power", "inf", "power"),
    ("--cell", "nan", "cell_size"), ("--cell", "inf", "cell_size"),
))
def test_grid_make_non_finite_parameter_is_io_error(tmp_path, capsys, flag,
                                                    value, name):
    t = np.arange(20, dtype=float)
    write_mag(tmp_path / "mag.csv", t, 5.0 * t, 3.0 * (t % 4), 50000.0 + t)
    out = tmp_path / "g.asc"
    args = {"--cell": "10", "--radius": "40", "--power": "2", flag: value}
    code, _, err = run_cli(capsys, "grid", "make", "--in",
                           tmp_path / "mag.csv", "--out", out,
                           *(a for kv in args.items() for a in kv))
    assert code == EXIT_IO
    assert f"error: {name} must be finite and > 0" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("text", ("", "ncols 2\nnrows 2\nxllcorner 0\n"))
def test_grid_compare_truncated_asc_is_io_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.asc"
    bad.write_text(text)
    code, _, err = run_cli(capsys, "grid", "compare", "--a", bad, "--b", bad,
                           "--out", tmp_path / "cmp.json")
    assert code == EXIT_IO
    assert "bad.asc: not an ESRI ASCII grid" in err and "Traceback" not in err


_ASC_LINES = {"ncols": "2", "nrows": "2", "xllcorner": "0", "yllcorner": "0",
              "cellsize": "1", "NODATA_value": "-9999", "data": "1 2 3 4"}


# an infinite size once overflowed int() (exit 4), and 1.5 was cut to 1;
# a missing or misspelt key, a PGM, or text where a number goes once gave
# only a bare KeyError, float()'s message or a count of values
@pytest.mark.parametrize("key, value, message", (
    ("ncols", "inf", "must be finite and >= 1, got inf"),
    ("nrows", "inf", "must be finite and >= 1, got inf"),
    ("ncols", "nan", "must be finite and >= 1, got nan"),
    ("nrows", "0", "must be finite and >= 1, got 0.0"),
    ("ncols", "1.5", "must be a whole number, got 1.5"),
    ("nrows", "1.5", "must be a whole number, got 1.5"),
    pytest.param("ncols", "ncol 2\nnrows 2\nxllcorner 0\nyllcorner 0\n"
                 "cellsize 1\nNODATA_value -9999\n1 2 3 4\n",
                 "missing from the header", id="ncols-first key ncol"),
    pytest.param("ncols", "P2\n3 3\n255\n0 1 2\n3 4 5\n6 7 8\n",
                 "missing from the header", id="ncols-a PGM file"),
    ("cellsize", None, "missing from the header"),
    ("xllcorner", "abc", "must be a number, got 'abc'"),
    ("NODATA_value", "none", "must be a number, got 'none'"),
    ("data", "1 2 3 x", "row 2, column 2 must be a number, got 'x'"),
))
def test_grid_compare_bad_asc_size_names_file_and_key(tmp_path, capsys, key,
                                                      value, message):
    # `value` is the text of line `key` (None drops the line), or, when it
    # holds a newline, the whole file
    lines = {**_ASC_LINES, key: value}
    bad = tmp_path / "bad.asc"
    bad.write_text(value if value and "\n" in value else "".join(
        v + "\n" if k == "data" else f"{k} {v}\n"
        for k, v in lines.items() if v is not None))
    code, _, err = run_cli(capsys, "grid", "compare", "--a", bad, "--b", bad,
                           "--out", tmp_path / "cmp.json")
    assert code == EXIT_IO
    assert f"error: {bad}: {key} {message}" in err and "Traceback" not in err


# a grid spanning past the float64 range once warned three times and
# exited 2 naming neither file nor cause, or 4 under the warning filter
@pytest.mark.parametrize("action", ("error", "always"))
def test_grid_compare_span_past_float64_range_exits_2(tmp_path, capsys,
                                                      action):
    big = tmp_path / "big.asc"
    big.write_text("ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                   "NODATA_value -9999\n1e308 0 1\n-1e308 2 3\n")
    out = tmp_path / "cmp.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        code, _, err = run_cli(capsys, "grid", "compare", "--a", big,
                               "--b", big, "--out", out)
    assert code == EXIT_IO and not caught
    assert "error: grid values span [-1e+308, 1e+308], a range wider " \
        "than the float64 range" in err
    assert "Traceback" not in err and not out.exists()


# that refusal once named neither grid of the two
@pytest.mark.parametrize("flag", ("--a", "--b"))
def test_grid_compare_span_past_float64_range_names_the_grid(tmp_path, capsys,
                                                             flag):
    head = "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n" \
        "NODATA_value -9999\n"
    ok, big = tmp_path / "ok.asc", tmp_path / "big.asc"
    ok.write_text(head + "5 0 1\n-1 2 3\n")
    big.write_text(head + "1e308 0 1\n-1e308 2 3\n")
    grids = {"--a": ok, "--b": ok, flag: big}
    out = tmp_path / "cmp.json"
    code, _, err = run_cli(capsys, "grid", "compare", *(
        a for kv in grids.items() for a in kv), "--out", out)
    assert code == EXIT_IO
    assert err == "error: grid values span [-1e+308, 1e+308], a range " \
        f"wider than the float64 range: {flag} {big}\n"
    assert not out.exists()


# --- bad gates, parameters and input files: nan, inf, out of range exit 2 ---

def _survey_inputs(tmp_path):
    t = np.arange(0, 30.0, 0.1)
    write_mag(tmp_path / "mag.csv", t, t, np.zeros_like(t),
              50000.0 + 0.5 * np.sin(2 * np.pi * t / 30.0))
    write_series_csv(tmp_path / "base.csv", TimeSeries(
        np.arange(-1.0, 32.0), np.full(33, 49900.0), ("tmi_nT",)))
    t = np.arange(0, 4.0, 1.0 / 256.0)
    write_accel(tmp_path / "accel.csv", t, np.sin(2 * np.pi * 33.0 * t))
    flights, ties = _write_tie_fixture(tmp_path, 50000.0)
    (tmp_path / "candidates.json").write_text(json.dumps([GOOD_CANDIDATE]))
    # five buzz passes that the default analysis accepts
    rng = np.random.default_rng(1)
    t = np.arange(0, 20.0, 1.0 / 50.0)
    passes = []
    for sep in (4.0, 6.0, 8.0, 10.0, 12.0):
        trace = (rng.normal(0.0, 145.8 * sep ** -3.0 / 1.96, t.size)
                 + rng.normal(0.0, 0.2 / 1.96, t.size))
        write_series_csv(tmp_path / f"pass_{sep:g}.csv",
                         TimeSeries(t, trace, ("buzz_nT",)))
        passes.append({"separation_m": sep, "csv_path": f"pass_{sep:g}.csv"})
    (tmp_path / "passes.json").write_text(json.dumps(passes))
    # inputs that each fail one precondition of the analysis reading them
    t = np.arange(0, 4.0, 1.0 / 256.0)
    write_accel(tmp_path / "flat.csv", t, np.full_like(t, 9.8))
    write_accel(tmp_path / "short.csv", t[:63], np.sin(t[:63]))
    gap = np.concatenate([t[:100], t[100:] + 0.5])
    write_accel(tmp_path / "gap.csv", gap, np.sin(gap))
    write_accel(tmp_path / "one.csv", t[:1], t[:1])
    write_mag(tmp_path / "two.csv", t[:2], t[:2], t[:2], np.full(2, 5e4))
    _write_tie_fixture(tmp_path / "huge", -1e305)   # the squares overflow
    header = "t_s,easting_m,northing_m,alt_m,tmi_nT\n"
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "header.csv").write_text(header)
    (tmp_path / "rejected.csv").write_text(header + "0,0,0,40,nan\n")
    (tmp_path / "no_lines").mkdir()
    (tmp_path / "no_candidates.json").write_text("[]")
    (tmp_path / "two_seps.json").write_text(json.dumps(passes[:2]))
    asc = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n" \
        "NODATA_value -9999\n"
    (tmp_path / "nodata.asc").write_text(asc + "-9999 -9999\n-9999 -9999\n")
    (tmp_path / "one_cell.asc").write_text(asc + "1 -9999\n-9999 -9999\n")
    return {"mag": tmp_path / "mag.csv", "base": tmp_path / "base.csv",
            "accel": tmp_path / "accel.csv", "flights": flights, "ties": ties,
            "candidates": tmp_path / "candidates.json",
            "passes": tmp_path / "passes.json", "out": tmp_path / "out.file",
            "dir": tmp_path}


@pytest.mark.parametrize("argv, message", (
    *((["qc", "d4", "--in", "{mag}", "--threshold", v, "--out", "{out}"],
      "threshold must be finite and > 0") for v in ("nan", "inf", "0", "-1")),
    *((["qc", "tie", "--flights", "{flights}", "--ties", "{ties}", "--tol", v,
        "--out", "{out}"], "tolerance must be finite and >= 0")
      for v in ("nan", "inf", "-1")),
    *((["qc", "diurnal", "--rover", "{mag}", "--base", "{base}", "--datum", v,
        "--out", "{out}"], "datum must be finite") for v in ("nan", "inf")),
    *((["vib", "spectrum", "--in", "{accel}", "--prominence", v, "--out",
        "{out}"], "prominence_fraction must be finite and >= 0 and <= 1")
      for v in ("nan", "-1", "1.5")),
    *((["vib", "spectrum", "--in", "{accel}", "--rate", v, "--out", "{out}"],
      "rate_hz must be finite and > 0") for v in ("nan", "inf")),
    *((["vib", "rank", "--config", "{candidates}", "--mass", m, "--freq", f],
      f"{name} must be finite and > 0") for m, f, name in (
        ("nan", "35", "payload_mass"), ("inf", "35", "payload_mass"),
        ("6", "nan", "dominant_freq"), ("6", "inf", "dominant_freq"))),
    *((["emi", "buzz", "--passes", "{passes}", flag, v, "--out", "{out}"],
      f"{name} must be finite and > 0") for flag, name in (
        ("--floor", "noise_floor"), ("--window", "detrend_window_s"),
        ("--signal-scale", "signal_scale"), ("--at", "separation"))
      for v in ("nan", "inf")),
    (["grid", "make", "--in", "{mag}", "--cell", "1e-9", "--radius", "1e-9",
      "--out", "{out}"], "cell_size 1e-09 gives more than 67108864 grid cells"),
    # finite but tiny: the score or the fitted amplitude leaves the floats
    *((["vib", "rank", "--config", "{candidates}", "--mass", m, "--freq", f],
      f"payload_mass {m} and dominant_freq {f} give candidate 0 a non-finite "
      "effectiveness") for m, f in (("1e-320", "1e-200"), ("1e-300", "1e-10"))),
    (["emi", "buzz", "--passes", "{passes}", "--at", "1e-300", "--out",
      "{out}"], "separation 1e-300 gives a non-finite interference percent"),
    # an input file the analysis cannot take
    *((argv.split(), message) for argv, message in (
        ("qc diurnal --rover {mag} --base {dir}/two.csv --datum 0 --out {out}",
         "base record does not span rover times"),
        ("qc d4 --in {dir}/two.csv --threshold 1 --out {out}",
         "4th difference needs >= 5 samples"),
        ("qc tie --flights {dir}/no_lines --ties {ties} --tol 1 --out {out}",
         "{dir}/no_lines: no CSV files"),
        ("qc tie --flights {dir}/huge/flights --ties {dir}/huge/ties "
         "--tol 100 --out {out}", "the crossover differences are past the "
         "float64 range (RMS inf): the TMI values are too large"),
        ("qc d4 --in {dir}/empty.csv --threshold 1 --out {out}",
         "{dir}/empty.csv: empty file"),
        ("qc d4 --in {dir}/header.csv --threshold 1 --out {out}",
         "{dir}/header.csv: no data rows"),
        ("qc d4 --in {dir}/rejected.csv --threshold 1 --out {out}",
         "{dir}/rejected.csv: no usable data rows"),
        ("vib rank --config {dir}/no_candidates.json --mass 6 --freq 35",
         "no isolator candidates"),
        ("vib spectrum --in {dir}/short.csv --out {out}",
         "spectrum needs >= 64 samples"),
        ("vib spectrum --in {dir}/gap.csv --out {out}",
         "spectrum requires uniform sampling"),
        ("vib spectrum --in {dir}/one.csv --rate 100 --out {out}",
         "resample needs >= 2 samples"),
        ("vib compare --before {accel} --after {dir}/flat.csv",
         "'after' trace has zero RMS"),
        ("vib compare --before {dir}/flat.csv --after {accel}",
         "'before' trace has zero RMS"),
        ("emi buzz --passes {passes} --window 10 --out {out}",
         "trace must span >= 3 detrend windows"),
        ("emi buzz --passes {dir}/two_seps.json --out {out}",
         "need >= 3 distinct separations"),
        ("grid make --in {dir}/two.csv --cell 1 --out {out}",
         "gridding needs >= 3 samples"),
        ("grid compare --a {dir}/nodata.asc --b {dir}/nodata.asc --out {out}",
         "grid has no valid cells"),
        ("grid compare --a {dir}/one_cell.asc --b {dir}/one_cell.asc "
         "--out {out}", "need >= 2 valid pixels"))),
    # finite but past a size bound or the float range
    *((["vib", "spectrum", "--in", "{accel}", "--rate", v, "--out", "{out}"],
      f"rate_hz {v} gives more than 16777216 resample nodes")
      for v in ("1e+308", "1e+300")),
    (["emi", "buzz", "--passes", "{passes}", "--floor", "1e200", "--out",
      "{out}"], "noise_floor must be finite and > 0 and <= 1000, got 1e+200"),
    # cells 0.05 m off the samples: d ** -power overflows, or underflows
    *((["grid", "make", "--in", "{mag}", "--cell", "0.75", "--power", v,
        "--out", "{out}"], f"power {v} takes the IDW mean past the float64 "
      "range") for v in ("400.0", "1e+300")),
))
def test_bad_gate_or_parameter_exits_2_naming_it(tmp_path, capsys, argv,
                                                 message):
    paths = _survey_inputs(tmp_path)
    code, _, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == EXIT_IO
    assert f"error: {message.format(**paths)}" in err
    assert "Traceback" not in err and not paths["out"].exists()


# the tolerance as the config file holds it, and the refusal that names it
_BAD_TOLERANCE = {
    "nan": ("NaN", "PipelineConfig: invalid 'tie_tolerance': nan"),
    "inf": ("Infinity", "PipelineConfig: invalid 'tie_tolerance': inf"),
    "-1": ("-1", "tie_tolerance must be finite and >= 0, got -1"),
}


@pytest.mark.parametrize("tolerance", ("nan", "inf", "-1"))
def test_pipeline_bad_tie_tolerance_exits_2_before_simulating(
        tmp_path, small_plan, capsys, tolerance):
    text, message = _BAD_TOLERANCE[tolerance]
    config = tmp_path / "pipeline.json"
    config.write_text(f'{{"plan_path": {json.dumps(str(small_plan))}, '
                      f'"tie_tolerance": {text}}}')
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "pipeline", "--config", config,
                           "--out-dir", out_dir)
    assert code == EXIT_IO
    assert f"error: {config}: {message}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("content, message", (
    ({"tie_tolerance": -1.0}, "tie_tolerance must be finite and >= 0"),
    ({"d4_threshold": 0.0}, "d4_threshold must be finite and > 0"),
))
def test_pipeline_config_with_bad_gate_names_the_file(tmp_path, capsys,
                                                      content, message):
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps(content))
    code, _, err = run_cli(capsys, "pipeline", "--config", config,
                           "--out-dir", tmp_path / "run")
    assert code == EXIT_IO
    assert f"error: {config}: {message}" in err
    assert not (tmp_path / "run").exists()


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

    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps({"plan_path": str(small_plan),
                                  "tie_tolerance": 1e-12}))
    out_bad = tmp_path / "run_bad"
    code, stdout, _ = run_cli(capsys, "pipeline", "--config", strict,
                              "--out-dir", out_bad)
    assert code == EXIT_QC
    assert json.loads(stdout)["pass"] is False
    assert json.loads((out_bad / "report.json").read_text())["pass"] is False


# a stage failure writes the partial report and exits as its cause would
@pytest.mark.parametrize("error, exit_code", ((IndexError, EXIT_INTERNAL),
                                              (TypeError, EXIT_INTERNAL),
                                              (KeyError, EXIT_IO)))
def test_pipeline_cli_stage_failure_writes_partial_report(
        tmp_path, small_plan, capsys, monkeypatch, error, exit_code):
    def broken_grid(*args, **kwargs):
        raise error("broken grid")

    monkeypatch.setattr(pipeline, "grid_idw", broken_grid)
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"plan_path": str(small_plan)}))
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "pipeline", "--config", config,
                           "--out-dir", out_dir)
    assert code == exit_code
    assert "stage 'grid_make' failed" in err
    assert ("Traceback" in err) == (exit_code == EXIT_INTERNAL)
    partial = json.loads((out_dir / "report.json").read_text())
    assert [s["name"] for s in partial["stages"]] == [
        "simulate", "qc_d4", "qc_diurnal", "qc_tie", "qc_nasvd"]


def test_pipeline_with_no_tie_line_exits_3_and_its_report_fails(
        tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(FlightPlan(
        n_lines=2, line_length_m=200.0, tie_lines=0).to_dict()))
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"plan_path": str(plan)}))
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "pipeline", "--config", config,
                           "--out-dir", out_dir)
    assert code == EXIT_QC
    assert "stage 'qc_tie' failed: no flight/tie intersections" in err
    partial = json.loads((out_dir / "report.json").read_text())
    assert len(partial["stages"]) == 3
    assert partial["pass"] is False
    assert partial["failed_stage"] == "qc_tie"


# once flown whole and refused at qc_nasvd, leaving 12 entries behind
def test_pipeline_nasvd_rank_above_n_channels_writes_nothing(tmp_path,
                                                            capsys):
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"nasvd_k": 64}))
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "pipeline", "--config", config,
                           "--out-dir", out_dir)
    assert code == EXIT_IO
    assert ("error: nasvd_k (64) must be <= the sim config's n_channels "
            "(32)") in err
    assert not out_dir.exists()


def test_pipeline_diurnal_past_the_float_range_exits_2(tmp_path, small_plan,
                                                      capsys, monkeypatch):
    def huge_correction(rover, base, datum):
        corrected = rover.values.copy()
        corrected[:, rover.fields.index("tmi_nT")] = -1e300
        return TimeSeries(rover.t, corrected, rover.fields)

    monkeypatch.setattr(pipeline, "diurnal_correct", huge_correction)
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"plan_path": str(small_plan)}))
    out_dir = tmp_path / "run"
    code, _, err = run_cli(capsys, "pipeline", "--config", config,
                           "--out-dir", out_dir)
    assert code == EXIT_IO
    assert ("error: stage 'qc_diurnal' failed: the diurnal correction is "
            "past the float64 range" in err)
    assert "Traceback" not in err
    partial = json.loads((out_dir / "report.json").read_text())
    assert [s["name"] for s in partial["stages"]] == ["simulate", "qc_d4"]


# a hover once failed on "max() arg is an empty sequence"
def test_pipeline_hover_says_it_has_no_survey_line(tmp_path, capsys):
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"speed": 0}))
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"sim_path": str(sim)}))
    code, _, err = run_cli(capsys, "pipeline", "--config", config,
                           "--out-dir", tmp_path / "run")
    assert code == EXIT_IO
    assert ("error: stage 'simulate' failed: the flight has no survey line "
            "with 2 or more sensor samples" in err)
    assert "Traceback" not in err


def test_pipeline_hover_is_refused_before_any_survey_artifact(tmp_path,
                                                              capsys):
    # the flight's lines are known before it flies, so a run with none
    # leaves its partial report alone
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"speed": 0}))
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"sim_path": str(sim)}))
    run = tmp_path / "run"
    code, _, err = run_cli(capsys, "pipeline", "--config", config,
                           "--out-dir", run)
    assert code == EXIT_IO
    assert "the flight has no survey line with 2 or more sensor samples" in err
    assert [p.name for p in run.iterdir()] == ["report.json"]
    partial = json.loads((run / "report.json").read_text())
    assert partial["stages"] == []
    assert partial["failed_stage"] == "simulate"
    assert partial["pass"] is False


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


# argparse checks --field against the CLI's one field table
@pytest.mark.parametrize("argv", (
    ["qc", "d4", "--in", "{d}/mag.csv", "--out", "{d}/d4.json"],
    ["qc", "tie", "--flights", "{d}", "--ties", "{d}", "--tol", "1",
     "--out", "{d}/tie.json"],
    ["grid", "make", "--in", "{d}/mag.csv", "--cell", "10",
     "--out", "{d}/g.asc"],
), ids=("qc d4", "qc tie", "grid make"))
def test_unknown_field_is_usage_error(tmp_path, capsys, argv):
    code, _, err = run_cli(capsys, *(a.format(d=tmp_path) for a in argv),
                           "--field", "th_ppm")
    assert code == EXIT_USAGE
    assert "argument --field: invalid choice: 'th_ppm'" in err
    assert list(tmp_path.iterdir()) == []


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


# --- rows dropped at ingest are reported on stderr ---

def _mag_with_bad_row(tmp_path):
    """A clean mag file and a copy whose data row 5 has an unparsable cell."""
    t = np.arange(0, 30.0, 0.1)
    clean = tmp_path / "clean.csv"
    write_mag(clean, t, t, np.zeros_like(t), 50000.0 + np.sin(t))
    lines = clean.read_text().splitlines(keepends=True)
    lines[5] = lines[5].rsplit(",", 1)[0] + ",oops\r\n"
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines))
    return clean, bad


def test_rejected_rows_logged_as_one_warning(tmp_path, capsys, caplog):
    clean, bad = _mag_with_bad_row(tmp_path)
    with caplog.at_level(logging.WARNING, logger="aerosurvey"):
        code, stdout, err = run_cli(capsys, "qc", "d4", "--in", bad,
                                    "--threshold", 6.72,
                                    "--out", tmp_path / "d4.json")
    assert code == EXIT_OK and json.loads(stdout) and err == ""
    [record] = caplog.records
    assert record.name == "aerosurvey" and record.levelno == logging.WARNING
    assert record.getMessage() == (f"{bad}: 1 data rows rejected "
                                   "(row 5: unparsable field)")
    caplog.clear()
    code, _, _ = run_cli(capsys, "qc", "d4", "--in", clean, "--threshold",
                         6.72, "--out", tmp_path / "d4_clean.json")
    assert code == EXIT_OK and caplog.records == []


def test_rejected_rows_warning_reaches_stderr_without_logging_setup(tmp_path):
    _, bad = _mag_with_bad_row(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(pipeline.__file__).resolve().parent.parent),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "aerosurvey.cli", "qc", "d4", "--in", str(bad),
         "--threshold", "6.72", "--out", str(tmp_path / "d4.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK and json.loads(proc.stdout)
    assert proc.stderr == (f"{bad}: 1 data rows rejected "
                           "(row 5: unparsable field)\n")
