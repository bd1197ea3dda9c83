"""Peak traced memory of the survey kernels at survey_large size, the
memory a simulated survey holds once it is built, and what
run_pipeline keeps alive from one stage to the next.

Each bound sits between the figure before its intermediates or stored
copies were cut (in brackets) and the figure now, so putting back a
whole-run transient or a stored copy fails the test. For write_table
the bracket is its peak with one chunk for the whole table. tracemalloc
counts numpy's data buffers.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import aerosurvey
from aerosurvey import pipeline
from aerosurvey.cli import main
from aerosurvey.core import TimeSeries
from aerosurvey.errors import MissingColumnError
from aerosurvey.emi import noise_amplitude
from aerosurvey.gridding import grid_idw
from aerosurvey.io_csv import (
    SchemaKind,
    ingest_csv,
    read_spectra_csv,
    write_series_csv,
    write_spectra_csv,
    write_table,
)
from aerosurvey.qc import nasvd_denoise
from aerosurvey.suspension import (
    AttitudeTrack,
    FlightPlan,
    SimConfig,
    SimResult,
    SuspensionGeometry,
    simulate_survey,
)

MB = 2 ** 20


def _peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def test_simulate_survey_peak_at_survey_large_size():
    # 8 x 2000 m lines and 3 ties: 267k steps, 26.7k sensor samples
    plan = FlightPlan(n_lines=8, line_length_m=2000.0, spacing_m=50.0,
                      tie_lines=3)
    assert _peak_mb(simulate_survey, plan, None, SimConfig(seed=4)) < 35.0  # [38]


def test_sim_result_holds_each_sample_once_at_survey_large_size():
    # what the result keeps after simulate_survey returns: the attitude
    # track and the full traces, without per-line copies of the traces
    plan = FlightPlan(n_lines=8, line_length_m=2000.0, spacing_m=50.0,
                      tie_lines=3)
    tracemalloc.start()
    try:
        result = simulate_survey(plan, None, SimConfig(seed=4))
        held = tracemalloc.get_traced_memory()[0] / MB
    finally:
        tracemalloc.stop()
    assert len(result.mag_full) == 26_695
    assert held < 32.0  # [36.8]


def test_nasvd_denoise_peak_at_survey_large_size():
    rng = np.random.default_rng(0)
    counts = rng.poisson(rng.uniform(5.0, 80.0, 32), (26_695, 32)).astype(float)
    assert _peak_mb(nasvd_denoise, counts, 4) < 30.0  # [40]


# a fresh interpreter that imports the CLI, reads a spectra file and then,
# unless told "read", runs `qc nasvd` on it; it prints its max RSS in KiB.
# That is VmHWM, the high-water mark of the process's own memory map:
# ru_maxrss also counts the memory of the process that started it, which
# for a test run is the test runner's
MAX_RSS_PROBE = """
import contextlib, io, sys
from aerosurvey.cli import main
from aerosurvey.io_csv import read_spectra_csv
infile, out = sys.argv[1], sys.argv[2]
if out == "read":
    counts = read_spectra_csv(infile)
else:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["qc", "nasvd", "--in", infile, "--k", "4",
                     "--out", out]) == 0
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")))
"""


def _max_rss_kib(infile: Path, out: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(aerosurvey.__file__).parent.parent),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", MAX_RSS_PROBE, str(infile),
                           out], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-2])


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="reads VmHWM from /proc (Linux)")
def test_qc_nasvd_max_rss_at_survey_large_size(tmp_path):
    # the command's max RSS above a process that only reads the file, in
    # spectra-sized arrays: the counts are freed once noise-adjusted, so
    # the SVD runs beside the scaled counts, the gufunc's input copy and U
    # buffer, and the returned U; the counts alive beside them read 4.1
    rng = np.random.default_rng(0)
    counts = rng.poisson(rng.uniform(5.0, 80.0, 32), (26_695, 32)).astype(float)
    infile = tmp_path / "spectra.csv"
    write_spectra_csv(infile, counts)
    excess = (_max_rss_kib(infile, str(tmp_path / "denoised.csv"))
              - _max_rss_kib(infile, "read")) * 1024
    assert excess / counts.nbytes < 3.5  # [4.1]


def test_read_spectra_csv_peak_at_survey_large_size(tmp_path):
    # the row reader held every cell as a Python str; numpy's C parser
    # keeps little besides the matrix (6.5 MiB)
    rng = np.random.default_rng(0)
    counts = rng.poisson(rng.uniform(5.0, 80.0, 32), (26_695, 32)).astype(float)
    path = tmp_path / "spectra.csv"
    write_spectra_csv(path, counts)
    assert _peak_mb(read_spectra_csv, path) < 20.0  # [59]


def _mag_text(tmp_path, fields) -> str:
    """The text of a 20,000-row, 1.7 MB mag file with header `fields`."""
    n = 20_000
    rng = np.random.default_rng(5)
    values = np.column_stack([rng.uniform(0.0, 500.0, (n, 2)),
                              rng.uniform(40.0, 50.0, n),
                              rng.normal(54_000.0, 3.0, n)])
    path = tmp_path / "mag.csv"
    write_series_csv(path, TimeSeries(np.arange(n) * 0.1, values, fields))
    return path.read_text()


def test_refused_header_is_judged_without_reading_the_rows(tmp_path):
    # the row reader read every row before it named the missing column
    path = tmp_path / "mag.csv"
    path.write_text(_mag_text(tmp_path, ("easting_m", "northing_m", "alt_m",
                                         "tmi")))

    def refused():
        with pytest.raises(MissingColumnError, match="missing column 'tmi_nT'"):
            ingest_csv(path, SchemaKind.MAG)

    assert _peak_mb(refused) < 1.0  # [8.7]


def test_one_unparsable_cell_keeps_the_row_route_near_its_values(tmp_path):
    # one bad cell sends the file to the row route, which parses the rows
    # as csv splits them: about 4.1 x the 0.8 MB of values (2-core VM),
    # where holding every row as Python strs took 13.6 x
    text = _mag_text(tmp_path, ("easting_m", "northing_m", "alt_m",
                                "tmi_nT")).splitlines(True)
    text[10_000] = "x" + text[10_000]
    path = tmp_path / "mag.csv"
    path.write_text("".join(text))
    tracemalloc.start()
    try:
        got = ingest_csv(path, SchemaKind.MAG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.rejected_rows == ((10_000, "unparsable field"),)
    assert peak / (20_000 * 5 * 8) < 6.0  # [13.6]


def _write_plan(tmp_path, seed: int, **plan) -> pipeline.PipelineConfig:
    plan_path, sim_path = tmp_path / "plan.json", tmp_path / "sim.json"
    plan_path.write_text(json.dumps(plan))
    sim_path.write_text(json.dumps({"seed": seed}))
    return pipeline.PipelineConfig(out_dir=tmp_path / "out",
                                   plan_path=str(plan_path),
                                   sim_path=str(sim_path))


def test_run_pipeline_peak_at_mid_size(tmp_path):
    # 4 x 1000 m lines and 2 ties: the simulate stage set the peak while
    # it held the whole attitude track
    cfg = _write_plan(tmp_path, 4, n_lines=4, line_length_m=1000.0,
                      tie_lines=2)
    assert _peak_mb(pipeline.run_pipeline, cfg) < 13.5  # [15.5]


def _stage_transient_mb(tmp_path, n_lines: int) -> float:
    """The simulate stage's traced peak beyond the 10 Hz records it holds:
    those it returns, and the VLF record it writes to vlf.csv (10 float
    columns) and drops."""
    plan = FlightPlan(n_lines=n_lines, line_length_m=1000.0, tie_lines=2)
    tracemalloc.start()
    try:
        result = pipeline._simulate_stage(plan, SuspensionGeometry(),
                                          SimConfig(seed=4), tmp_path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    vlf = len(result[1]) * 10 * 8
    return (peak - held - vlf) / MB


def test_simulate_stage_transient_does_not_grow_with_lines(tmp_path):
    # the survey is flown a chunk of steps at a time into the artifacts,
    # so the 100 Hz attitude track and its intermediates never exist
    # whole: 4 and 16 lines of 1000 m (7.9k and 28.7k sensor samples)
    # leave the same transient, about 5.3 MiB [10.2 and 27.0 MiB]
    _stage_transient_mb(tmp_path / "warm", 1)   # imports and caches
    small = _stage_transient_mb(tmp_path / "small", 4)
    large = _stage_transient_mb(tmp_path / "large", 16)
    assert large < small + 0.5
    assert large < 7.0


def test_sim_survey_peak_at_survey_large_size(tmp_path):
    # `aerosurvey sim survey` writes the attitude track as it is flown:
    # what it holds is the 10 Hz records and one chunk's working set
    plan, sim = tmp_path / "plan.json", tmp_path / "sim.json"
    plan.write_text(json.dumps({"n_lines": 8, "line_length_m": 2000.0,
                                "spacing_m": 50.0, "tie_lines": 3}))
    sim.write_text(json.dumps({"seed": 4}))
    argv = ["sim", "survey", "--plan", str(plan), "--cfg", str(sim),
            "--out-dir", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert _peak_mb(main, argv) < 20.0  # [36.6]


def test_no_attitude_track_alive_during_nasvd(tmp_path, monkeypatch):
    # after the simulate stage only its traces live on: the SimResult, its
    # attitude track and VLF stream are gone by the time NASVD runs
    def survey_objects():
        return [o for o in gc.get_objects()
                if isinstance(o, (AttitudeTrack, SimResult))]

    before = survey_objects()   # held, so their ids stay unique
    known = {id(o) for o in before}
    alive = []     # one list per call

    def nasvd_denoise(*args):
        alive.append([type(o).__name__ for o in survey_objects()
                      if id(o) not in known])
        return denoise(*args)

    denoise = pipeline.nasvd_denoise
    monkeypatch.setattr(pipeline, "nasvd_denoise", nasvd_denoise)
    pipeline.run_pipeline(pipeline.PipelineConfig(out_dir=tmp_path / "out"))
    assert alive == [[]]


def test_noise_amplitude_peak_with_a_1001_sample_median():
    # a 1e5-sample trace and a 10 s window at 100 Hz: the (n, k) window
    # matrix would be 764 MiB; the median partitions it in row blocks
    t = np.arange(100_000) / 100.0
    x = np.random.default_rng(0).normal(size=t.size)
    trace = TimeSeries(t, x, ("buzz_nT",))
    assert _peak_mb(noise_amplitude, trace, 10.0) < 16.0  # [770]


def test_grid_idw_peak_over_22k_centres():
    # 256 clusters of 400 samples on a 151 x 151 grid of 1 m cells: one
    # cell centre sees each cluster, so the neighbour lists hold 102k ints
    rng = np.random.default_rng(0)
    cx, cy = np.meshgrid(np.arange(0.0, 160.0, 10.0), np.arange(0.0, 160.0, 10.0))
    x = np.repeat(cx.ravel(), 400) + rng.uniform(-0.1, 0.1, cx.size * 400)
    y = np.repeat(cy.ravel(), 400) + rng.uniform(-0.1, 0.1, cx.size * 400)
    v = rng.normal(size=x.size)
    assert _peak_mb(grid_idw, x, y, v, 1.0, 0.45) < 6.0  # [8.7]


def test_grid_idw_peak_with_few_centres_and_many_pairs():
    # 8 x 2000 m lines 50 m apart and 3 ties, one sample per 0.64 m: 26.6k
    # samples. 100 m cells and a 400 m radius leave 84 centres with 1.1M
    # candidate pairs in their 3 x 3 bins (708k within the radius), which
    # grid_idw tests _IDW_CANDIDATES at a time
    rng = np.random.default_rng(1)
    along = np.arange(0.0, 2000.0, 0.64)
    tie = np.linspace(0.0, 350.0, 547)
    x = np.concatenate([np.tile(along, 8)]
                       + [np.full(tie.size, e) for e in (0.0, 1000.0, 2000.0)])
    y = np.concatenate([np.repeat(np.arange(8) * 50.0, along.size)] + [tie] * 3)
    x += rng.normal(0.0, 1.0, x.size)
    y += rng.normal(0.0, 1.0, y.size)
    v = 54000.0 + np.cumsum(rng.normal(0.0, 0.3, x.size))
    assert _peak_mb(grid_idw, x, y, v, 100.0, 400.0) < 20.0  # [32.9]


def test_grid_idw_peak_at_a_radius_that_reaches_every_sample():
    # 4,000 samples on 4 lines and 1,271 centres of 10 m cells, each
    # within the 2000 m radius of every sample: a whole block's lists
    # held 4.1M indices, and a cut holds about _IDW_HELD (2**20), freed
    # before the next is found (16.4 MiB)
    rng = np.random.default_rng(2)
    x = np.tile(np.linspace(0.0, 400.0, 1000), 4) + rng.normal(0.0, 1.0, 4000)
    y = np.repeat(np.arange(4) * 100.0, 1000) + rng.normal(0.0, 1.0, 4000)
    v = 54000.0 + np.cumsum(rng.normal(0.0, 0.3, 4000))
    assert _peak_mb(grid_idw, x, y, v, 10.0, 2000.0) < 20.0  # [63]


def test_write_table_peak_for_a_denoised_spectra_table(tmp_path):
    # 26,695 samples x 32 channels, the size of survey_large's denoised.csv
    counts = np.random.default_rng(2).normal(20.0, 5.0, (26_695, 32))
    head = [tuple(f"ch{j}" for j in range(32))]
    assert _peak_mb(write_table, tmp_path / "d.csv", head,
                    list(counts.T.copy())) < 5.5  # [241]


def test_write_table_peak_for_an_attitude_table(tmp_path):
    # survey_large's attitude track: 266,948 rows of 7 floats and a label
    rng = np.random.default_rng(3)
    n = 266_948
    floats = [np.cumsum(rng.normal(0.0, 1.0, n)) for _ in range(7)]
    labels = (np.arange(n) % 5, ("turn", "L1", "transit", "T1", "L2"))
    assert _peak_mb(write_table, tmp_path / "a.csv", [tuple("abcdefgh")],
                    floats + [labels]) < 8.0  # [634]


def test_write_series_csv_peak_with_parts_at_survey_large_size(tmp_path):
    # spectra.csv and the line files are cut from rad.csv's and mag.csv's
    # text as it streams out; holding rad's 32 channel columns as a slot
    # canvas instead would take 26,695 x 32 x 48 bytes (41 MiB, computed)
    plan = FlightPlan(n_lines=8, line_length_m=2000.0, spacing_m=50.0,
                      tie_lines=3)
    sim = simulate_survey(plan, None, SimConfig(seed=4))
    lines = [(tmp_path / f"{lid}.csv", 0, rows)
             for lid, _, rows in sim.lines]
    spectra = [(tmp_path / "spectra.csv",
                1 + sim.rad_full.fields.index("ch0"), None)]

    def write():
        write_series_csv(tmp_path / "mag.csv", sim.mag_full, lines)
        write_series_csv(tmp_path / "rad.csv", sim.rad_full, spectra)

    assert _peak_mb(write) < 10.0  # [41]
