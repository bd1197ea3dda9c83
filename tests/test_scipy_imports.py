"""Each command loads only the package modules it runs, and none of them
needs scipy.

Each check runs in a fresh interpreter and reads sys.modules afterwards.
Importing the package loads none of its modules (a submodule still
resolves as an attribute), and the qc and grid commands load none of the
simulator, pipeline, EMI or vibration modules; `vib` loads neither the
simulator, the pipeline nor EMI, and `emi buzz` neither the simulator,
the pipeline nor vibration.

Nor do the qc, grid and `emi buzz` commands load numpy.ma, which numpy's
np.median, np.percentile and flagless np.unique import (10-16 ms a
process).

The functions that once imported scipy on their first call (lfilter,
median_filter, find_peaks) must give in a fresh process the same result
as in this one, with no scipy module loaded, and `vib
spectrum` must write the same bytes with scipy blocked from importing.
That no module of the package imports scipy is an AST guard in
test_single_paths.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aerosurvey
from aerosurvey.cli import main
from aerosurvey.core import TimeSeries
from aerosurvey.gridding import grid_idw, write_asc
from aerosurvey.io_csv import write_series_csv
from aerosurvey.pipeline import write_survey_artifacts
from aerosurvey.suspension import FlightPlan, SimConfig, _Flight

PACKAGE_ROOT = str(Path(aerosurvey.__file__).resolve().parent.parent)
# printed last by every probe: the package's own modules the process has
# loaded, as their names after "aerosurvey."
REPORT = ("\nimport json, sys\nprint(json.dumps(sorted(m.partition('.')[2]"
          " for m in sys.modules if m.startswith('aerosurvey.'))))\n")
# the modules the qc and grid commands do not run
NOT_QC_OR_GRID = {"suspension", "pipeline", "emi", "vibration"}


def _fresh(code: str) -> list[str]:
    """stdout lines of `code` run in a new interpreter, the package's own
    modules it loaded last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code + REPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _cli(argvs: list[list[str]]) -> tuple[list[int], set[str]]:
    """Exit codes of cli.main over `argvs` in one fresh process, and the
    package's own modules loaded by then."""
    lines = _fresh("import json\nfrom aerosurvey.cli import main\n"
                   f"print(json.dumps([main(a) for a in {argvs!r}]))")
    return json.loads(lines[-2]), set(json.loads(lines[-1]))


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    """A small simulated survey plus two grids of its magnetic data."""
    out = tmp_path_factory.mktemp("survey")
    plan = FlightPlan(n_lines=2, line_length_m=200.0, tie_lines=1)
    flight = _Flight(plan, None, SimConfig(seed=5))
    write_survey_artifacts(flight, out)
    mag = flight.mag_full
    for name, cell in (("fine", 10.0), ("coarse", 50.0)):
        write_asc(grid_idw(mag.column("easting_m"), mag.column("northing_m"),
                           mag.column("tmi_nT"), cell, 4.0 * cell),
                  out / f"{name}.asc")
    return out


def test_importing_the_package_loads_none_of_its_modules():
    assert json.loads(_fresh("import aerosurvey")[-1]) == []


def test_a_submodule_resolves_after_a_bare_import():
    lines = _fresh("import aerosurvey\nprint(aerosurvey.suspension.__name__,"
                   " aerosurvey.SimConfig.__name__)")
    assert lines[-2].split() == ["aerosurvey.suspension", "SimConfig"]


def test_importing_the_cli_loads_only_the_qc_and_grid_modules():
    assert json.loads(_fresh("import aerosurvey.cli")[-1]) \
        == ["cli", "core", "errors", "gridding", "io_csv", "qc"]


def test_qc_and_grid_compare_load_no_simulator_pipeline_emi_or_vibration(
        survey):
    s, o = str(survey), str(survey / "out")
    codes, ours = _cli([
        ["qc", "d4", "--in", f"{s}/mag.csv", "--threshold", "6.72",
         "--out", f"{o}-d4.json"],
        ["qc", "diurnal", "--rover", f"{s}/mag.csv", "--base",
         f"{s}/base.csv", "--datum", "54000", "--out", f"{o}-corrected.csv"],
        ["qc", "tie", "--flights", f"{s}/flights", "--ties", f"{s}/ties",
         "--tol", "100", "--out", f"{o}-tie.json"],
        ["qc", "nasvd", "--in", f"{s}/spectra.csv", "--k", "4",
         "--out", f"{o}-denoised.csv"],
        ["grid", "compare", "--a", f"{s}/coarse.asc", "--b", f"{s}/fine.asc",
         "--out", f"{o}-cmp.json"],
    ])
    assert codes == [0, 0, 0, 0, 0]
    assert ours.isdisjoint(NOT_QC_OR_GRID), ours


def test_grid_make_loads_no_simulator_pipeline_emi_or_vibration(survey):
    codes, ours = _cli([["grid", "make", "--in", f"{survey}/mag.csv",
                              "--cell", "10", "--pgm", f"{survey}/make.pgm",
                              "--out", f"{survey}/make.asc"]])
    assert codes == [0]
    assert ours.isdisjoint(NOT_QC_OR_GRID), ours


def test_qc_grid_and_emi_commands_load_no_numpy_ma(survey, tmp_path):
    s, o = str(survey), str(tmp_path)
    argvs = [
        ["qc", "d4", "--in", f"{s}/mag.csv", "--threshold", "6.72",
         "--out", f"{o}/d4.json"],
        ["qc", "d4", "--in", f"{s}/mag.csv", "--out", f"{o}/d4-mad.json"],
        ["qc", "diurnal", "--rover", f"{s}/mag.csv", "--base",
         f"{s}/base.csv", "--datum", "54000", "--out", f"{o}/corrected.csv"],
        ["qc", "tie", "--flights", f"{s}/flights", "--ties", f"{s}/ties",
         "--tol", "100", "--out", f"{o}/tie.json"],
        ["qc", "nasvd", "--in", f"{s}/spectra.csv", "--k", "4",
         "--out", f"{o}/denoised.csv"],
        ["grid", "make", "--in", f"{o}/corrected.csv", "--cell", "10",
         "--pgm", f"{o}/fine.pgm", "--out", f"{o}/fine.asc"],
        ["grid", "make", "--in", f"{o}/corrected.csv", "--cell", "50",
         "--out", f"{o}/coarse.asc"],
        ["grid", "compare", "--a", f"{o}/coarse.asc", "--b", f"{o}/fine.asc",
         "--out", f"{o}/cmp.json"],
        ["emi", "buzz", "--passes", str(_buzz_passes(tmp_path)),
         "--out", f"{o}/buzz.json"],
    ]
    # after each command: its exit code, and whether numpy.ma is loaded
    lines = _fresh("import json, sys\nfrom aerosurvey.cli import main\n"
                   f"print(json.dumps([[main(a), 'numpy.ma' in sys.modules]"
                   f" for a in {argvs!r}]))")
    assert json.loads(lines[-2]) == [[0, False]] * len(argvs)


def _buzz_passes(folder: Path) -> Path:
    """passes.json of five buzz passes that the default analysis accepts."""
    rng = np.random.default_rng(1)
    t = np.arange(0, 20.0, 1.0 / 50.0)
    passes = []
    for sep in (4.0, 6.0, 8.0, 10.0, 12.0):
        trace = (rng.normal(0.0, 145.8 * sep ** -3.0 / 1.96, t.size)
                 + rng.normal(0.0, 0.2 / 1.96, t.size))
        pass_csv = folder / f"pass_{sep:g}.csv"
        write_series_csv(pass_csv, TimeSeries(t, trace, ("buzz_nT",)))
        passes.append({"separation_m": sep, "csv_path": pass_csv.name})
    (folder / "passes.json").write_text(json.dumps(passes))
    return folder / "passes.json"


def test_emi_buzz_loads_no_simulator_pipeline_or_vibration(tmp_path):
    codes, ours = _cli([["emi", "buzz", "--passes",
                         str(_buzz_passes(tmp_path)),
                         "--out", f"{tmp_path}/buzz.json"]])
    assert codes == [0]
    assert ours.isdisjoint({"suspension", "pipeline", "vibration"}), ours


def test_vib_rank_and_compare_load_no_simulator_pipeline_or_emi(tmp_path):
    t = np.arange(0, 4.0, 1.0 / 256.0)
    for name, amplitude in (("before", 3.0), ("after", 1.0)):
        az = amplitude * np.sin(2 * np.pi * 33.0 * t)
        write_series_csv(tmp_path / f"{name}.csv", TimeSeries(
            t, np.column_stack([0 * t, 0 * t, az]),
            ("ax_ms2", "ay_ms2", "az_ms2")))
    (tmp_path / "candidates.json").write_text(json.dumps([
        {"kind": "wire_rope", "count": 4, "intensity": 1.0,
         "damping_ratio": 0.3, "stiffness": 800.0}]))
    codes, ours = _cli([
        ["vib", "rank", "--config", f"{tmp_path}/candidates.json",
         "--mass", "6", "--freq", "35"],
        ["vib", "compare", "--before", f"{tmp_path}/before.csv",
         "--after", f"{tmp_path}/after.csv"],
    ])
    assert codes == [0, 0]
    assert ours.isdisjoint({"suspension", "pipeline", "emi"}), ours


# each function that imported scipy on its first call before the package
# had its own code for it, as an expression whose value is JSON; the fresh
# process must compute the same value, and load no scipy module
FIRST_USE = {
    "lfilter": ("import numpy as np\n"
                "from aerosurvey.suspension import _Swing",
                "_Swing(0.01, (9.80665 / 9.0) ** 0.5, 0.05, 9.0, 0.2).feed("
                "np.zeros(501), np.zeros(500)).tolist()"),
    "find_peaks": ("import numpy as np\n"
                   "from aerosurvey.core import TimeSeries\n"
                   "from aerosurvey.vibration import amplitude_spectrum\n"
                   "t = np.arange(512) / 256.0",
                   "amplitude_spectrum(TimeSeries(t, np.column_stack(["
                   "0 * t, 0 * t, 3 * np.sin(2 * np.pi * 33 * t)]), "
                   "('ax_ms2', 'ay_ms2', 'az_ms2'))).peaks"),
    "median_filter": ("import numpy as np\n"
                      "from aerosurvey.core import TimeSeries\n"
                      "from aerosurvey.emi import noise_amplitude\n"
                      "t = np.arange(1000) / 50.0",
                      "noise_amplitude(TimeSeries(t, np.sin(7 * t) "
                      "+ np.cos(31 * t), ('buzz_nT',)))"),
}


@pytest.mark.parametrize("name", sorted(FIRST_USE))
def test_first_use_import_gives_the_same_result(name):
    setup, expr = FIRST_USE[name]
    lines = _fresh(f"import json, sys\n{setup}\nprint(json.dumps({expr}))\n"
                   "print(json.dumps([m for m in sys.modules"
                   " if m.partition('.')[0] == 'scipy']))")
    scope: dict = {}
    exec(setup, scope)
    assert lines[-3] == json.dumps(eval(expr, scope))
    assert np.isfinite(np.asarray(json.loads(lines[-3]), dtype=float)).all()
    assert json.loads(lines[-2]) == []


# put first on sys.meta_path, a finder that fails every scipy import
BLOCK_SCIPY = """import sys
class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition('.')[0] == 'scipy':
            raise ModuleNotFoundError(f'{name} is blocked')
sys.meta_path.insert(0, _NoScipy())
try:
    import scipy
except ModuleNotFoundError:
    pass
else:
    raise SystemExit('scipy was not blocked')
"""


def test_vib_spectrum_runs_with_scipy_blocked(tmp_path, capsys):
    t = np.arange(2048) / 256.0
    noise = np.random.default_rng(3).normal(0.0, 0.1, t.size)
    az = (3.0 * np.sin(2 * np.pi * 33.0 * t)
          + 1.2 * np.sin(2 * np.pi * 76.0 * t) + noise)
    write_series_csv(tmp_path / "accel.csv", TimeSeries(
        t, np.column_stack([0 * t, 0 * t, az]),
        ("ax_ms2", "ay_ms2", "az_ms2")))
    argv = ["vib", "spectrum", "--in", str(tmp_path / "accel.csv"), "--out"]
    blocked = argv + [str(tmp_path / "blocked.csv")]
    lines = _fresh(BLOCK_SCIPY + "from aerosurvey.cli import main\n"
                   f"print(main({blocked!r}))")
    assert lines[-2] == "0"
    assert main(argv + [str(tmp_path / "here.csv")]) == 0
    here = json.loads(capsys.readouterr().out)
    assert (tmp_path / "blocked.csv").read_bytes() \
        == (tmp_path / "here.csv").read_bytes()
    assert json.loads("\n".join(lines[:-2]))["peaks"] == here["peaks"]
    assert len(here["peaks"]) >= 2
