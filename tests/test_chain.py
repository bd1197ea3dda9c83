"""One QC chain, two entry points.

`aerosurvey pipeline` runs d4 -> diurnal -> tie -> NASVD -> grid x2 ->
compare in one process; the qc and grid commands run the same stages one
file at a time. These tests run the pipeline, then the CLI chain on the
pipeline's own survey files (mag.csv, base.csv, spectra.csv, flights/ and
ties/), as the README's "Reprocess a survey with the CLI" section says:

    qc d4 --threshold <the pipeline's auto threshold> on mag.csv
    qc diurnal --datum 54000 on mag.csv and on every line file
    qc tie --tol 1 on the corrected line files
    qc nasvd --k 4 on spectra.csv
    grid make, fine and coarse, on the corrected line files joined in
        plan-leg order, --radius max(2 cell, 0.75 spacing)
    grid compare coarse against fine

Every command must exit 0, write the bytes of the pipeline's artifact of
the same name, and print the numbers of the matching report.json stage.
So the two paths cannot drift apart unnoticed.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from aerosurvey.cli import EXIT_OK, EXIT_QC, main
from aerosurvey.core import LineRole
from aerosurvey.pipeline import (
    PipelineConfig,
    _d4_auto_threshold,
    run_pipeline,
)
from aerosurvey.qc import FIELD_COLUMNS
from aerosurvey.suspension import FlightPlan, SimConfig, SuspensionGeometry

# the plan of perfbench's survey_large workload: 17.2 line-km
LARGE_PLAN = {"n_lines": 8, "line_length_m": 2000.0, "spacing_m": 50.0,
              "tie_lines": 3}

# the QC and grid artifacts both paths write
ARTIFACTS = ("d4_report.json", "corrected.csv", "crossings.json",
             "denoised.csv", "tmi_fine.asc", "tmi_fine.pgm",
             "tmi_coarse.asc", "tmi_coarse.pgm", "cmp.json")


def _cli(argv) -> tuple[int, dict | None]:
    """Exit code and parsed JSON stdout of one aerosurvey command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def _join(files: list[Path], out: Path) -> None:
    """CSV files with one header, the first file's, then every data row."""
    parts = [f.read_bytes().split(b"\r\n", 1) for f in files]
    head = parts[0][0] + b"\r\n"
    out.write_bytes(head + b"".join(body for _, body in parts))


def _chain(pipe: Path, cli: Path, plan: FlightPlan, cfg: PipelineConfig
           ) -> dict[str, tuple[int, dict | None]]:
    """Run the CLI chain on the survey files in `pipe`, writing into `cli`;
    {step: (exit code, stdout)}."""
    sim, geometry = SimConfig(), SuspensionGeometry()
    datum = repr(sim.base_datum_nt)
    runs = {}
    runs["d4"] = _cli(["qc", "d4", "--in", pipe / "mag.csv", "--threshold",
                       repr(_d4_auto_threshold(sim, geometry)),
                       "--out", cli / "d4_report.json"])
    runs["diurnal"] = _cli(["qc", "diurnal", "--rover", pipe / "mag.csv",
                            "--base", pipe / "base.csv", "--datum", datum,
                            "--out", cli / "corrected.csv"])
    # diurnal-correct each line file before the tie and the grids
    for sub in ("flights", "ties"):
        (cli / sub).mkdir()
        for f in sorted((pipe / sub).glob("*.csv")):
            runs[f"diurnal {sub}/{f.name}"] = _cli(
                ["qc", "diurnal", "--rover", f, "--base", pipe / "base.csv",
                 "--datum", datum, "--out", cli / sub / f.name])
    runs["tie"] = _cli(["qc", "tie", "--flights", cli / "flights",
                        "--ties", cli / "ties",
                        "--field", FIELD_COLUMNS[cfg.tie_field],
                        "--tol", repr(cfg.tie_tolerance),
                        "--out", cli / "crossings.json"])
    runs["nasvd"] = _cli(["qc", "nasvd", "--in", pipe / "spectra.csv",
                          "--k", cfg.nasvd_k, "--out", cli / "denoised.csv"])
    # only the line samples are gridded, in the order the plan flies them
    legs = [cli / ("flights" if role is LineRole.FLIGHT else "ties")
            / f"{lid}.csv" for lid, role, *_ in plan.legs()]
    _join([f for f in legs if f.exists()], cli / "lines.csv")
    for tag, cell in (("fine", cfg.cell_fine), ("coarse", cfg.cell_coarse)):
        radius = max(2.0 * cell, 0.75 * plan.spacing_m)
        runs[f"grid {tag}"] = _cli(
            ["grid", "make", "--in", cli / "lines.csv", "--cell", repr(cell),
             "--radius", repr(radius), "--pgm", cli / f"tmi_{tag}.pgm",
             "--out", cli / f"tmi_{tag}.asc"])
    runs["compare"] = _cli(["grid", "compare", "--a", cli / "tmi_coarse.asc",
                            "--b", cli / "tmi_fine.asc",
                            "--out", cli / "cmp.json"])
    return runs


@pytest.fixture(scope="module", params=["default", "large"])
def chained(request, tmp_path_factory):
    """(pipeline dir, CLI dir, report.json stages by name, chain runs)."""
    root = tmp_path_factory.mktemp(f"chain_{request.param}")
    plan_path = None
    if request.param == "large":
        plan_path = root / "plan.json"
        plan_path.write_text(json.dumps(LARGE_PLAN))
    pipe, cli = root / "pipeline", root / "cli"
    cli.mkdir()
    cfg = PipelineConfig(out_dir=pipe, plan_path=plan_path)
    run_pipeline(cfg)
    plan = FlightPlan(**LARGE_PLAN) if plan_path else FlightPlan()
    report = json.loads((pipe / "report.json").read_text())
    stages = {s["name"]: s for s in report["stages"]}
    return pipe, cli, stages, _chain(pipe, cli, plan, cfg)


def test_every_chain_command_exits_ok(chained):
    _, _, stages, runs = chained
    assert {step: code for step, (code, _) in runs.items()} \
        == dict.fromkeys(runs, EXIT_OK)
    assert all(s["pass"] for s in stages.values())


def test_chain_writes_the_pipelines_artifacts_byte_for_byte(chained):
    pipe, cli, stages, _ = chained
    written = {a for s in stages.values() for a in s["artifacts"]}
    assert set(ARTIFACTS) <= written
    assert [a for a in ARTIFACTS
            if (cli / a).read_bytes() != (pipe / a).read_bytes()] == []


def test_chain_prints_the_pipelines_stage_stats(chained):
    _, _, stages, runs = chained
    stats = {name: s["stats"] for name, s in stages.items()}
    assert runs["d4"][1]["stats"] == stats["qc_d4"]
    diurnal = runs["diurnal"][1]
    assert (diurnal["datum_nt"], diurnal["rms_correction_nt"]) == (
        stats["qc_diurnal"]["datum_nt"],
        stats["qc_diurnal"]["rms_correction_nt"])
    assert runs["tie"][1]["stats"] == stats["qc_tie"]
    keys = ("k", "energy_fraction", "n_spectra", "n_channels")
    assert [runs["nasvd"][1][k] for k in keys] \
        == [stats["qc_nasvd"][k] for k in keys]
    for tag in ("fine", "coarse"):
        grid = runs[f"grid {tag}"][1]
        assert (grid["shape"], grid["valid_fraction"]) == (
            stats["grid_make"][f"{tag}_shape"],
            stats["grid_make"][f"{tag}_valid_fraction"])
    cmp = stats["grid_compare"]
    assert runs["compare"][1] == {"stddev_a": cmp["stddev_coarse"],
                                  "stddev_b": cmp["stddev_fine"],
                                  "delta": cmp["delta"]}


def test_tie_on_raw_lines_fails_the_tolerance(chained, tmp_path):
    # the diurnal drift between a line and the ties that cross it is over
    # the 1 nT tolerance (1.2 nT at the default plan, 10.7 nT at the large
    # one), so the tie check needs the diurnal-corrected line files
    pipe, _, _, _ = chained
    code, out = _cli(["qc", "tie", "--flights", pipe / "flights",
                      "--ties", pipe / "ties", "--tol", "1",
                      "--out", tmp_path / "crossings.json"])
    assert code == EXIT_QC
    assert out["stats"]["max_abs_difference"] > 1.0
