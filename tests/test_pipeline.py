"""Pipeline orchestration: stage order, artifacts, report, reproducibility."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aerosurvey import __version__, pipeline
from aerosurvey.errors import NoIntersectionsError, PipelineStageError
from aerosurvey.pipeline import (
    PipelineConfig,
    _load_survey,
    config_hash,
    run_pipeline,
)
from aerosurvey.suspension import (
    FlightPlan,
    SimConfig,
    SuspensionGeometry,
    _Flight,
    default_plan,
    simulate_survey,
)

STAGE_ORDER = ("simulate", "qc_d4", "qc_diurnal", "qc_tie", "qc_nasvd",
               "grid_make", "grid_compare")


def write_small_plan(tmp_path: Path) -> str:
    # two short lines + one tie keeps failure-path runs quick
    plan = FlightPlan(n_lines=2, line_length_m=150.0, tie_lines=1)
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(plan.to_dict()))
    return str(p)


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe_default")
    return out, run_pipeline(PipelineConfig(out_dir=out))


# --- default run ---

def test_default_run_passes_every_stage(default_run):
    _, report = default_run
    assert tuple(s.name for s in report.stages) == STAGE_ORDER
    assert all(s.passed for s in report.stages)
    assert report.overall_pass


def test_default_run_artifacts_exist(default_run):
    out, report = default_run
    for stage in report.stages:
        for art in stage.artifacts:
            assert (out / art).is_file(), f"{stage.name} missing {art}"
    # the line splits land in per-role subdirectories
    for name in ("flights/L1.csv", "flights/L4.csv", "ties/T1.csv"):
        assert (out / name).is_file()


def test_default_report_json_matches_returned_report(default_run):
    out, report = default_run
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == report.to_dict()
    assert on_disk["pass"] is True
    assert on_disk["schema_version"] == "1"
    assert on_disk["tool_version"] == __version__
    assert on_disk["seed"] == SimConfig().seed
    digest = on_disk["config_sha256"]
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    for stage in on_disk["stages"]:
        assert set(stage) == {"name", "pass", "stats", "artifacts"}


def test_default_run_stage_stats(default_run):
    _, report = default_run
    by_name = {s.name: s for s in report.stages}
    sim = by_name["simulate"].stats
    assert sim["n_flight_lines"] == 4
    assert sim["n_tie_lines"] == 1
    assert sim["max_straight_roll_deg"] <= 5.0
    assert sim["max_straight_pitch_deg"] <= 5.0
    d4 = by_name["qc_d4"].stats
    assert d4["flagged_count"] == 0
    assert d4["max_abs_d4"] < d4["threshold"]
    assert by_name["qc_nasvd"].stats["energy_fraction"] >= 0.8
    assert by_name["qc_tie"].stats["n"] >= 4   # one tie crossing per line
    assert by_name["grid_make"].stats["fine_valid_fraction"] > 0.5


# --- config hashing and seed override ---

def test_config_hash_ignores_output_location(tmp_path):
    plan, geo, sim = FlightPlan(), SuspensionGeometry(), SimConfig()
    a = config_hash(plan, geo, sim, PipelineConfig(out_dir=tmp_path / "a"))
    b = config_hash(plan, geo, sim, PipelineConfig(out_dir=tmp_path / "b"))
    assert a == b
    # anything that changes the outputs changes the digest
    assert config_hash(plan, geo, replace(sim, seed=1), PipelineConfig()) != a
    assert config_hash(plan, geo, sim,
                       PipelineConfig(tie_tolerance=2.0)) != a
    assert config_hash(FlightPlan(n_lines=2), geo, sim,
                       PipelineConfig()) != a


def test_load_survey_seed_override(tmp_path, monkeypatch):
    # only the sim file sets the seed: no environment variable overrides it
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"seed": 9}))
    assert _load_survey(None, None, None)[2] == SimConfig()
    assert _load_survey(None, None, sim)[2].seed == 9
    for raw in ("123", "not-a-seed"):
        monkeypatch.setenv("AEROSURVEY_SEED", raw)
        assert _load_survey(None, None, sim)[2] == SimConfig(seed=9)


def test_load_survey_reads_plan_geometry_sim_in_order(tmp_path):
    # the first bad file named is the first one read
    bad = {}
    for kind in ("plan", "geometry", "sim"):
        bad[kind] = tmp_path / f"{kind}.json"
        bad[kind].write_text('{"bogus": 1}')
    with pytest.raises(ValueError, match="plan.json: FlightPlan"):
        _load_survey(bad["plan"], bad["geometry"], bad["sim"])
    with pytest.raises(ValueError, match="geometry.json: SuspensionGeometry"):
        _load_survey(None, bad["geometry"], bad["sim"])
    with pytest.raises(ValueError, match="sim.json: SimConfig"):
        _load_survey(None, None, bad["sim"])


def test_load_survey_without_a_plan_flies_the_default_plan(tmp_path):
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"line_spacing": 30, "survey_altitude": 55}))
    plan, geometry, cfg = _load_survey(None, None, sim)
    assert plan == default_plan(cfg) == FlightPlan(spacing_m=30.0,
                                                   altitude_m=55.0)
    assert geometry == SuspensionGeometry()
    # integer defaults give the plan FlightPlan() hashes as
    sim.write_text(json.dumps({"line_spacing": 50, "survey_altitude": 40}))
    plan, _, cfg = _load_survey(None, None, sim)
    assert config_hash(plan, geometry, cfg, PipelineConfig()) == config_hash(
        FlightPlan(), geometry, cfg, PipelineConfig())


def test_sim_file_seed_reaches_report(tmp_path):
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"seed": 77}))
    report = run_pipeline(PipelineConfig(out_dir=tmp_path / "out",
                                         plan_path=write_small_plan(tmp_path),
                                         sim_path=str(sim)))
    assert report.seed == 77


# --- config files and validation ---

def test_plan_file_is_honored(tmp_path):
    report = run_pipeline(PipelineConfig(out_dir=tmp_path / "out",
                                         plan_path=write_small_plan(tmp_path)))
    sim = {s.name: s for s in report.stages}["simulate"].stats
    assert sim["n_flight_lines"] == 2
    assert sim["n_tie_lines"] == 1


def test_missing_config_file_rejected(tmp_path):
    with pytest.raises(FileNotFoundError):
        PipelineConfig(plan_path=str(tmp_path / "nope.json"))


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(tie_field="BOGUS")
    with pytest.raises(ValueError):
        PipelineConfig(cell_fine=0.0)


def test_pipeline_config_dict_round_trip(tmp_path):
    cfg = PipelineConfig(out_dir=str(tmp_path), tie_tolerance=2.5, nasvd_k=6)
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


# --- failure paths ---

def test_failing_gate_does_not_abort(tmp_path):
    # an unmeetable tie tolerance fails that stage but the run continues
    cfg = PipelineConfig(out_dir=tmp_path / "out",
                         plan_path=write_small_plan(tmp_path),
                         tie_tolerance=1e-12)
    report = run_pipeline(cfg)
    by_name = {s.name: s for s in report.stages}
    assert not by_name["qc_tie"].passed
    assert tuple(s.name for s in report.stages) == STAGE_ORDER
    assert not report.overall_pass
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk["pass"] is False


def test_raising_stage_wraps_with_partial_report(tmp_path, monkeypatch):
    # an analysis outcome raised mid-run: the tie stage finds no crossing
    def no_crossing(*args):
        raise NoIntersectionsError("no flight/tie intersections")

    monkeypatch.setattr(pipeline, "crossover_analysis", no_crossing)
    cfg = PipelineConfig(out_dir=tmp_path / "out",
                         plan_path=write_small_plan(tmp_path))
    with pytest.raises(PipelineStageError) as exc_info:
        run_pipeline(cfg)
    err = exc_info.value
    assert err.stage == "qc_tie"
    assert isinstance(err.cause, NoIntersectionsError)
    done = tuple(s.name for s in err.partial_report.stages)
    assert done == STAGE_ORDER[:3]


def test_refused_run_writes_the_partial_report_json(tmp_path):
    # a library caller gets the record the CLI writes: the stages that
    # completed before the refusal, and the one that failed; a coarse cell
    # wider than the survey leaves the comparison one valid pixel
    cfg = PipelineConfig(out_dir=tmp_path / "out", cell_coarse=1000.0,
                         plan_path=write_small_plan(tmp_path))
    with pytest.raises(PipelineStageError) as exc_info:
        run_pipeline(cfg)
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk == exc_info.value.partial_report.to_dict()
    assert [s["name"] for s in on_disk["stages"]] == list(STAGE_ORDER[:6])
    assert on_disk["seed"] == SimConfig().seed
    # every stage that completed passed, but the run did not finish
    assert all(s["pass"] for s in on_disk["stages"])
    assert on_disk["pass"] is False
    assert on_disk["failed_stage"] == "grid_compare"
    assert on_disk["error"] == "ValueError: need >= 2 valid pixels"


def test_flight_without_a_tie_line_is_refused_before_it_flies(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(FlightPlan(
        n_lines=2, line_length_m=150.0, tie_lines=0).to_dict()))
    out = tmp_path / "out"
    with pytest.raises(PipelineStageError) as exc_info:
        run_pipeline(PipelineConfig(out_dir=out, plan_path=str(plan)))
    err = exc_info.value
    assert err.stage == "simulate" and isinstance(err.cause, ValueError)
    assert str(err.cause) == ("qc_tie needs a flight line and a tie line of "
                              "2 or more sensor samples (tie_lines: 0)")
    assert [p.name for p in out.iterdir()] == ["report.json"]
    assert err.partial_report.stages == ()
    assert err.partial_report.failed_stage == "simulate"


def test_any_exception_in_a_stage_carries_partial_report(tmp_path,
                                                         monkeypatch):
    def broken_grid(*args, **kwargs):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(pipeline, "grid_idw", broken_grid)
    cfg = PipelineConfig(out_dir=tmp_path / "out",
                         plan_path=write_small_plan(tmp_path))
    with pytest.raises(PipelineStageError) as exc_info:
        run_pipeline(cfg)
    err = exc_info.value
    assert err.stage == "grid_make"
    assert isinstance(err.cause, IndexError)
    done = tuple(s.name for s in err.partial_report.stages)
    assert done == STAGE_ORDER[:5]


def test_grid_takes_the_rows_of_the_flights_lines(tmp_path, monkeypatch):
    # T4 of this plan has exactly 1 sensor sample: it is no line, so it is
    # neither tied nor gridded
    plan = FlightPlan(n_lines=3, line_length_m=200.0, spacing_m=2.0,
                      tie_lines=4)
    sim = SimConfig(sensor_rate_hz=2.0, lead_in_m=0.0, lead_out_m=0.0)
    codes, texts = simulate_survey(plan, None, sim).attitude.segment
    step = round(sim.sim_rate_hz / sim.sensor_rate_hz)
    assert np.count_nonzero(codes[::step] == texts.index("T4")) == 1
    lines = _Flight(plan, None, sim).lines
    assert "T4" not in [lid for lid, _, _ in lines]
    paths = []
    for name, obj in (("plan", plan), ("sim", sim)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(obj.to_dict()))
    gridded = []

    def counting_grid(x, *args, **kwargs):
        gridded.append(len(x))
        return grid_idw(x, *args, **kwargs)

    grid_idw = pipeline.grid_idw
    monkeypatch.setattr(pipeline, "grid_idw", counting_grid)
    run_pipeline(PipelineConfig(out_dir=tmp_path / "out",
                                plan_path=str(paths[0]),
                                sim_path=str(paths[1])))
    assert gridded == [sum(len(rows) for _, _, rows in lines)] * 2


@pytest.mark.parametrize("field, column", (("K", "k_pct"), ("U", "u_ppm")))
def test_radiometric_tie_field_ties_the_rad_record(tmp_path, field, column):
    out = tmp_path / "out"
    report = run_pipeline(PipelineConfig(
        out_dir=out, plan_path=write_small_plan(tmp_path), tie_field=field))
    assert tuple(s.name for s in report.stages) == STAGE_ORDER
    tie = {s.name: s for s in report.stages}["qc_tie"]
    assert tie.passed and tie.stats["n"] == 2   # two lines, one tie
    # both values of every crossing lie in the rad record's range of it
    header = (out / "rad.csv").read_text().split("\n", 1)[0].split(",")
    values = np.loadtxt(out / "rad.csv", delimiter=",", skiprows=1,
                        usecols=header.index(column))
    crossings = json.loads((out / "crossings.json").read_text())["crossings"]
    assert len(crossings) == 2
    for r in crossings:
        for side in ("flight", "tie"):
            assert values.min() <= r[side] <= values.max()


def test_refused_diurnal_correction_writes_no_corrected_csv(tmp_path,
                                                            monkeypatch):
    # a correction past the float64 range is refused before corrected.csv
    # is written, as the qc diurnal command refuses it
    def huge_correction(rover, base, datum):
        return rover.with_column("tmi_nT", np.full(len(rover), -1e300))

    monkeypatch.setattr(pipeline, "diurnal_correct", huge_correction)
    cfg = PipelineConfig(out_dir=tmp_path / "out",
                         plan_path=write_small_plan(tmp_path))
    with pytest.raises(PipelineStageError) as exc_info:
        run_pipeline(cfg)
    assert exc_info.value.stage == "qc_diurnal"
    assert isinstance(exc_info.value.cause, ValueError)
    assert not (tmp_path / "out" / "corrected.csv").exists()


# --- reproducibility ---

def test_same_config_same_bytes(tmp_path):
    plan = write_small_plan(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        run_pipeline(PipelineConfig(out_dir=out, plan_path=plan))
        outs.append(out)
    files_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                     if p.is_file())
    files_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*")
                     if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel
