"""Golden digests: the bytes the simulator and the pipeline write, pinned.

Gate c11 compares two runs of the same code, and tests/test_chain.py the
CLI chain with the pipeline, so a change that moves the output of both
sides at once passes them. These tests hold, for five fixed runs, the
sha256 of

* every artifact and report.json that run_pipeline writes (the hover
  run has no survey line, so it has no pipeline run);
* every artifact that `aerosurvey sim survey` writes, and the same files
  written by write_survey_artifacts from a simulate_survey result;
* every array and label tuple of the simulate_survey result,

to the digests in tests/data/golden_digests.json.

After a deliberate change of output, re-record them with

    PYTHONPATH=src python tests/test_golden_artifacts.py

which rewrites that file; review its diff and say in CHANGES.md why the
bytes moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from aerosurvey.cli import EXIT_OK, main
from aerosurvey.pipeline import (
    PipelineConfig,
    run_pipeline,
    write_survey_artifacts,
)
from aerosurvey.suspension import (
    FlightPlan,
    SimConfig,
    SuspensionGeometry,
    simulate_survey,
)

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"

# name -> (plan, geometry, simulator config) as JSON objects; an absent
# plan is the default one
CASES = {
    "default": (None, {}, {}),
    "mid_4x1000m_2ties": ({"n_lines": 4, "line_length_m": 1000.0,
                           "tie_lines": 2}, {}, {"seed": 3}),
    "hover": (None, {}, {"speed": 0.0}),
    "yaw_lag": (None, {"intermediate_platform": False}, {}),
    "zero_lead": (None, {}, {"lead_in_m": 0.0, "lead_out_m": 0.0}),
}
PIPELINE_CASES = [name for name in CASES if name != "hover"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree(root: Path) -> dict[str, str]:
    """sha256 of every file under `root`, by its path relative to it."""
    return {p.relative_to(root).as_posix(): _sha(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def _config_files(name: str, where: Path) -> dict[str, Path]:
    """The case's JSON objects as files in `where`, by config kind."""
    where.mkdir(parents=True, exist_ok=True)
    files = {}
    for kind, obj in zip(("plan", "geometry", "sim"), CASES[name]):
        if obj is not None:
            files[kind] = where / f"{kind}.json"
            files[kind].write_text(json.dumps(obj))
    return files


def _simulated(name: str):
    plan, geometry, sim = CASES[name]
    return simulate_survey(None if plan is None else FlightPlan(**plan),
                           SuspensionGeometry(**geometry), SimConfig(**sim))


def _array_digests(name: str) -> dict[str, str]:
    """sha256 of each array (dtype, shape and bytes) and label tuple of
    the case's simulate_survey result."""
    res = _simulated(name)

    def arr(a) -> str:
        a = np.ascontiguousarray(a)
        return _sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())

    def labels(seq) -> str:
        return _sha("\n".join(seq).encode())

    att = res.attitude
    out = {f"attitude.{f}": arr(getattr(att, f))
           for f in ("t", "roll_deg", "pitch_deg", "heading_deg",
                     "swing_deg", "easting_m", "northing_m")}
    out["attitude.segment"] = labels(att.segment)
    for stream in ("mag_full", "vlf_full", "rad_full", "base"):
        series = getattr(res, stream)
        out[f"{stream}.t"] = arr(series.t)
        out[f"{stream}.values"] = arr(series.values)
        out[f"{stream}.fields"] = labels(series.fields)
    out["segment_at_sensor"] = labels(res.segment_at_sensor)
    return out


def _pipeline_digests(name: str, where: Path) -> dict[str, str]:
    files = _config_files(name, where)
    out = where / "out"
    run_pipeline(PipelineConfig(
        out_dir=out, plan_path=files.get("plan") and str(files["plan"]),
        geometry_path=str(files["geometry"]), sim_path=str(files["sim"])))
    return _tree(out)


def _sim_survey_digests(name: str, where: Path) -> dict[str, str]:
    files = _config_files(name, where)
    argv = ["sim", "survey", "--out-dir", str(where / "out"),
            "--geom", str(files["geometry"]), "--cfg", str(files["sim"])]
    if "plan" in files:
        argv += ["--plan", str(files["plan"])]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
    return _tree(where / "out")


def _record() -> dict:
    golden: dict = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[name] = {"simulate_survey": _array_digests(name),
                            "sim_survey": _sim_survey_digests(
                                name, Path(tmp) / "sim")}
            if name in PIPELINE_CASES:
                golden[name]["pipeline"] = _pipeline_digests(
                    name, Path(tmp) / "pipeline")
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", PIPELINE_CASES)
def test_pipeline_artifacts_match_golden(golden, name, tmp_path):
    assert _pipeline_digests(name, tmp_path) == golden[name]["pipeline"]


@pytest.mark.parametrize("name", list(CASES))
def test_sim_survey_artifacts_match_golden(golden, name, tmp_path):
    assert _sim_survey_digests(name, tmp_path) == golden[name]["sim_survey"]


@pytest.mark.parametrize("name", list(CASES))
def test_write_survey_artifacts_match_golden(golden, name, tmp_path):
    write_survey_artifacts(_simulated(name), tmp_path)
    assert _tree(tmp_path) == golden[name]["sim_survey"]


@pytest.mark.parametrize("name", list(CASES))
def test_simulate_survey_arrays_match_golden(golden, name):
    assert _array_digests(name) == golden[name]["simulate_survey"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
