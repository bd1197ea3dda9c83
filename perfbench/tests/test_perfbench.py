"""Tests of the benchmark itself. Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(sid, name, start, end, parent=None, op="op0"):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "op": op}


# ---------------------------------------------------------------------------
# self time and per-layer arithmetic on a synthetic span tree


def test_self_time_subtracts_the_union_of_children():
    root = _span("r", "pipeline.run_pipeline", 0.0, 10.0)
    kids = [_span("a", "x", 1.0, 3.0, "r"), _span("b", "y", 2.0, 4.0, "r"),
            _span("c", "z", 8.0, 12.0, "r"),    # clipped at the parent's end
            _span("d", "w", 5.0, 5.0, "r")]     # empty
    assert tracing.self_time(root, kids) == pytest.approx(10.0 - 3.0 - 2.0)
    assert tracing.self_time(root, []) == pytest.approx(10.0)


def test_op_metrics_on_a_synthetic_tree():
    spans = [
        _span("r", "pipeline.run_pipeline", 0.0, 10.0),
        _span("s", "suspension.simulate_survey", 0.5, 2.5, "r"),
        _span("w", "pipeline.write_survey_artifacts", 2.5, 5.5, "r"),
        _span("w1", "io_csv.write_series_csv", 3.0, 4.0, "w"),
        _span("d", "io_csv.write_series_csv", 6.0, 7.0, "r"),
        _span("t", "qc.crossover_analysis", 7.0, 9.0, "r"),
        _span("p", "cli.process", 20.0, 24.0, op="op1"),
        _span("i", "cli.import", 20.5, 21.5, "p", op="op1"),
        _span("c", "cli.cmd.qc_tie", 21.5, 23.0, "p", op="op1"),
    ]
    counts = [("op0", "suspension.sim_steps", 1000),
              ("op0", "qc.crossings", 4), ("op0", "qc.crossings", 2)]
    m = tracing.op_metrics(spans, counts)
    op0, op1 = m["op0"], m["op1"]
    assert op0["pipeline.run_pipeline.s"] == pytest.approx(10.0)
    # nested and top-level calls both count as busy time of the function
    assert op0["io_csv.write_series_csv.s"] == pytest.approx(2.0)
    # children of run_pipeline cover 0.5..5.5, 6..9: 8 s of 10
    assert op0["pipeline.self.s"] == pytest.approx(2.0)
    assert op0["pipeline.stage.simulate.s"] == pytest.approx(5.0)
    assert op0["pipeline.stage.qc_diurnal.s"] == pytest.approx(1.0)
    assert op0["pipeline.stage.qc_tie.s"] == pytest.approx(2.0)
    assert op0["qc.crossings"] == 6
    assert op0["suspension.sim_steps_per_s"] == pytest.approx(500.0)
    assert op1["cli.process.s"] == pytest.approx(4.0)
    assert op1["cli.self.s"] == pytest.approx(1.5)
    assert tracing.median_metrics([op0, {"qc.crossings": 2}, {}])[
        "qc.crossings"] == 2


def test_tail_needs_ten_operations_beyond_it():
    assert run.tail([1.0] * 10)["value"] is None
    t = run.tail([float(i) for i in range(1, 21)])
    assert (t["value"], t["percentile"], t["ops"]) == (10.0, 50.0, 20)
    assert run.tail([float(i) for i in range(1, 101)])["value"] == 90.0


# ---------------------------------------------------------------------------
# the output check


def test_common_keeps_only_what_all_records_agree_on():
    a = {"n": 4, "x": 1.5, "flags": [], "pass": True}
    b = {"n": 4, "x": 2.5, "flags": [3], "pass": True}
    c = checks.common([a, b])
    assert c == {"n": 4, "x": checks.ANY, "flags": checks.ANY, "pass": True}
    assert checks.mismatches(c, {"n": 4, "x": 9.0, "flags": [1, 2],
                                 "pass": True}) == []
    assert checks.mismatches(c, {"n": 5, "x": 9.0, "flags": [],
                                 "pass": True}) == ["$.n: 5 != 4"]


def test_float_tolerance_and_exact_counts():
    exp = {"energy": 0.9877715422020557, "n": 1470, "pass": True}
    assert checks.mismatches(exp, {**exp, "energy": exp["energy"] * (1 + 1e-12)}) == []
    assert checks.mismatches(exp, {**exp, "energy": exp["energy"] * (1 + 1e-4)})
    assert checks.mismatches(exp, {**exp, "n": 1471})
    assert checks.mismatches(exp, {**exp, "pass": 1})       # bool is not int


def test_perturbed_result_is_counted_as_a_failed_operation(tmp_path, monkeypatch):
    """A wrapper that alters one value in the second operation fails it."""
    import stub
    from aerosurvey import pipeline

    original = pipeline.nasvd_energy_fraction
    calls = []

    def perturbed(*args, **kwargs):
        calls.append(1)
        value = original(*args, **kwargs)
        return value * (1 + 1e-3) if len(calls) >= 3 else value  # 3rd: op 1

    monkeypatch.setattr(pipeline, "nasvd_energy_fraction", perturbed)
    inputs = run.write_inputs(tmp_path, run.PLANS["tiny"], 1)
    job = tmp_path / "job.json"
    # a traced job runs at least two operations: warm-up, op 0, op 1
    job.write_text(json.dumps({**inputs, "workdir": str(tmp_path),
                               "worker": 0, "seconds": 0, "trace": True}))
    stub.run_survey(str(tmp_path / "record.json"), str(job))
    ops = json.loads((tmp_path / "record.json").read_text())["ops"]
    assert len(ops) == 2

    expected = checks.expected_result(
        checks.load_reference("survey_small", "tiny"), 1)
    failed = checks.failures(ops, expected)
    assert list(failed) == [ops[1]["id"]]
    assert "energy_fraction" in failed[ops[1]["id"]]
    # without a reference, the run's first operation still catches it
    assert list(checks.failures(ops, None)) == [ops[1]["id"]]


# ---------------------------------------------------------------------------
# smoke: every workload at a tiny size, through the command line


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_runs_at_tiny_size(workload):
    proc = _bench(["--workload", workload, "--seed", "1", "--seconds", "0",
                   "--trace", "0", "--scale", "tiny"])
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert detail["checked_against"] == "recorded seed"
    assert detail["metrics"]["ops_failed_frac"] == 0.0
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["survey_small", "reprocess_cli"])
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = _bench(["--workload", workload, "--seed", "1", "--seconds", "0",
                   "--trace", "1", "--scale", "tiny"])
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(result["metrics"])
    for name, metric in result["metrics"].items():
        if name != "trace.overhead_s":
            assert metric["value"] > 0, name
    layers = {k.split(".")[0] for k in detail["metrics"]}
    if workload == "reprocess_cli":
        assert {"cli", "io_csv", "qc", "gridding"} <= layers
        assert detail["metrics"]["cli.cmd.qc_tie.s"] > 0
    else:
        assert {"suspension", "pipeline", "io_csv", "qc", "gridding"} <= layers
        assert detail["metrics"]["pipeline.stage.simulate.s"] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(["--workload", "survey_small", "--seed", "1",
                   "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
