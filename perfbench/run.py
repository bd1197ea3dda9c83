"""aerosurvey benchmark: run one workload, check its outputs, print metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload survey_small --seed 1 --seconds 30 --trace 0

Workloads (one caller, one operation at a time; see perfbench/README.md):

    survey_small   in-process run_pipeline on the default 4 x 500 m plan
    survey_large   in-process run_pipeline on 8 x 2000 m lines, 3 tie lines
    reprocess_cli  seven aerosurvey CLI commands, each in a fresh interpreter,
                   on survey files of the survey_large plan

The seed reaches the program only as the ``seed`` of a simulator-config
JSON file. With ``--trace 0`` the last line of standard output holds the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics; the line before it holds every metric measured, the op count
behind each statistic and the environment. Exit status is 0 when every
operation passed the output check, 1 when one did not, and 2 when the
benchmark could not run at all (for example outside a checkout).

``--scale tiny`` runs the same workloads on a 2 x 200 m plan (tests).
``--record-reference`` stores the first operation's result in
reference.json as the expected result for this workload, scale and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

STUB = HERE / "stub.py"
WORK_DIR = Path(".perfbench_work")
CHILD_TIMEOUT_S = 170

PLANS = {
    "small": {"n_lines": 4, "line_length_m": 500.0, "spacing_m": 50.0,
              "tie_lines": 1},
    "large": {"n_lines": 8, "line_length_m": 2000.0, "spacing_m": 50.0,
              "tie_lines": 3},
    "tiny": {"n_lines": 2, "line_length_m": 200.0, "spacing_m": 50.0,
             "tie_lines": 1},
}
WORKLOAD_PLAN = {"survey_small": "small", "survey_large": "large",
                 "reprocess_cli": "large"}
# set-up runs this many fresh survey workers, each measuring its share of
# --seconds, so set-up time is a median of several
SURVEY_WORKERS = 3

# the field-reprocessing chain: {survey} is the generated survey directory,
# {op} the operation's output directory. qc d4 gets the pipeline's threshold
# for the simulator's bounded noise, 16 * (0.2 + 0.2 nT) * 1.05: the default
# 4-sigma threshold is statistical and comes within 5% of flagging clean
# survey_large data on some seeds.
CHAIN = (
    ("qc_d4", ["qc", "d4", "--in", "{survey}/mag.csv", "--threshold", "6.72",
               "--out", "{op}/d4.json"]),
    ("qc_diurnal", ["qc", "diurnal", "--rover", "{survey}/mag.csv",
                    "--base", "{survey}/base.csv", "--datum", "54000",
                    "--out", "{op}/corrected.csv"]),
    ("qc_tie", ["qc", "tie", "--flights", "{survey}/flights",
                "--ties", "{survey}/ties", "--tol", "1",
                "--out", "{op}/tie.json"]),
    ("qc_nasvd", ["qc", "nasvd", "--in", "{survey}/spectra.csv", "--k", "4",
                  "--out", "{op}/denoised.csv"]),
    ("grid_make_10m", ["grid", "make", "--in", "{op}/corrected.csv",
                       "--cell", "10", "--pgm", "{op}/tmi_fine.pgm",
                       "--out", "{op}/tmi_fine.asc"]),
    ("grid_make_100m", ["grid", "make", "--in", "{op}/corrected.csv",
                        "--cell", "100", "--out", "{op}/tmi_coarse.asc"]),
    ("grid_compare", ["grid", "compare", "--a", "{op}/tmi_coarse.asc",
                      "--b", "{op}/tmi_fine.asc", "--out", "{op}/cmp.json"]),
)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def line_km(plan: dict) -> float:
    """Flight plus tie line length; a tie spans n_lines * spacing."""
    return (plan["n_lines"] * plan["line_length_m"]
            + plan["tie_lines"] * plan["n_lines"] * plan["spacing_m"]) / 1000.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("AEROSURVEY_SEED", None)   # the seed comes from the config file
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(STUB), *args], env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def write_inputs(work: Path, plan: dict, seed: int) -> dict[str, str]:
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    files = {"plan": plan, "warm_plan": PLANS["tiny"], "sim": {"seed": seed}}
    for name, content in files.items():
        (inputs / f"{name}.json").write_text(json.dumps(content))
    return {name: str(inputs / f"{name}.json") for name in files}


# ---------------------------------------------------------------------------
# survey workloads: run_pipeline in a fresh worker process


def run_survey(work: Path, plan: dict, seed: int, seconds: float,
               trace: bool) -> dict:
    inputs = write_inputs(work, plan, seed)
    workers = 1 if trace else SURVEY_WORKERS
    out = {"ops": [], "setup_s": [], "import_s": [], "peak_rss_mb": [],
           "spans": [], "counts": []}
    for k in range(workers):
        job = work / f"job-{k}.json"
        rec = work / f"record-{k}.json"
        job.write_text(json.dumps({**inputs, "workdir": str(work), "worker": k,
                                   "seconds": seconds / workers,
                                   "trace": trace}))
        spawned = tracing.clock()
        proc = run_child(["survey", str(rec), str(job)])
        if proc.returncode != 0 or not rec.exists():
            raise BenchError(f"survey worker failed:\n{proc.stderr[-2000:]}")
        r = json.loads(rec.read_text())
        out["ops"] += r["ops"]
        out["setup_s"].append(r["ready"] - spawned)
        out["import_s"].append(r["import_s"])
        out["peak_rss_mb"].append(r["peak_rss_mb"])
        out["spans"] += r["spans"]
        out["counts"] += r["counts"]
        out["env"] = r["env"]
    return out


# ---------------------------------------------------------------------------
# reprocess_cli: the CLI chain, one fresh interpreter per command


def run_reprocess(work: Path, plan: dict, seed: int, seconds: float,
                  trace: bool) -> dict:
    inputs = write_inputs(work, plan, seed)
    survey = work / "survey"
    spawned = tracing.clock()
    rec = work / "record-setup.json"
    proc = run_child(["cli", str(rec), "sim_survey", "setup", "-", "0",
                      "sim", "survey", "--plan", inputs["plan"],
                      "--cfg", inputs["sim"], "--out-dir", str(survey)])
    if proc.returncode != 0:
        raise BenchError(f"input generation failed:\n{proc.stderr[-2000:]}")
    out = {"setup_s": [tracing.clock() - spawned], "ops": [], "import_s": [],
           "peak_rss_mb": [], "spans": [], "counts": [],
           "env": json.loads(rec.read_text())["env"]}

    tracer = tracing.Tracer()

    def operation(i: int, traced: bool) -> dict:
        op_id = f"chain-{i}"
        op_dir = work / f"op-{i}"
        op_dir.mkdir()
        tracer.op = op_id
        result = []
        error = None
        t0 = tracing.clock()
        for name, argv in CHAIN:
            argv = [a.format(survey=survey, op=op_dir) for a in argv]
            rec = work / f"record-{i}-{name}.json"
            with tracer.span("cli.process") as sid:
                proc = run_child(["cli", str(rec), name, op_id, sid,
                                  "1" if traced else "0", *argv])
            if not rec.exists():
                error = f"{name} exited {proc.returncode} without a record:" \
                        f" {proc.stderr[-500:]}"
                break
            r = json.loads(rec.read_text())
            out["import_s"].append(r["import_s"])
            out["peak_rss_mb"].append(r["peak_rss_mb"])
            out["spans"] += r["spans"]
            out["counts"] += r["counts"]
            try:
                emitted = json.loads(proc.stdout)
            except ValueError:
                emitted = proc.stdout
            result.append({"name": name, "exit": proc.returncode,
                           "output": _relative(emitted, {str(op_dir): "{op}",
                                                         str(survey): "{survey}"})})
        seconds_op = tracing.clock() - t0
        digest, nbytes = checks.artifact_digest(op_dir)
        shutil.rmtree(op_dir)
        return {"id": op_id, "seconds": seconds_op, "traced": traced,
                "error": error, "result": result, "digest": digest,
                "bytes": nbytes}

    out["ops"] = tracing.closed_loop(seconds, trace, operation)
    if trace:
        out["spans"] += tracer.spans
    return out


def _relative(obj, prefixes: dict[str, str]):
    if isinstance(obj, str):
        for prefix, tag in prefixes.items():
            if obj.startswith(prefix):
                return tag + obj[len(prefix):]
        return obj
    if isinstance(obj, list):
        return [_relative(v, prefixes) for v in obj]
    if isinstance(obj, dict):
        return {k: _relative(v, prefixes) for k, v in obj.items()}
    return obj


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> dict:
    """Highest percentile with at least ten operations beyond it."""
    n = len(values)
    if n < 11:
        return {"value": None, "percentile": None, "ops": n}
    rank = n - 10                          # nearest rank: ten values above it
    return {"value": sorted(values)[rank - 1], "percentile": 100.0 * rank / n,
            "ops": n}


def end_to_end(run: dict, plan: dict, failed: int) -> dict:
    plain = [op["seconds"] for op in run["ops"] if not op["traced"]]
    return {
        "line_km_per_s": line_km(plan) * len(plain) / sum(plain),
        "run_s.p50": statistics.median(plain),
        "peak_rss_mb": max(run["peak_rss_mb"]),
        "setup_s": statistics.median(run["setup_s"]),
        "run_s.tail": tail(plain),
        "ops_failed_frac": failed / len(run["ops"]),
        "ops": len(plain),
        "setups": len(run["setup_s"]),
    }


def per_layer(run: dict) -> dict:
    by_op = tracing.op_metrics(run["spans"], run["counts"])
    traced = [by_op.get(op["id"], {}) for op in run["ops"] if op["traced"]]
    metrics = tracing.median_metrics(traced)
    if "cli.import.s" not in metrics:      # survey: once per worker process
        metrics["cli.import.s"] = statistics.median(run["import_s"])
    plain = [op["seconds"] for op in run["ops"] if not op["traced"]]
    with_trace = [op["seconds"] for op in run["ops"] if op["traced"]]
    metrics["trace.overhead_s"] = (statistics.median(with_trace)
                                   - statistics.median(plain))
    metrics["traced_ops"] = len(with_trace)
    return metrics


def environment(child_env_info: dict) -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)),
           **child_env_info,
           "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
           "git_commit": None,
           "src_lines": sum(len(p.read_text().splitlines())
                            for p in sorted(Path("src").rglob("*.py")))}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(Path.cwd().parent)})
        if proc.returncode == 0:
            env["git_commit"] = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass                                # no git: the commit stays null
    return env


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOAD_PLAN))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--record-reference", action="store_true")
    return p.parse_args(argv)


def bench(args: argparse.Namespace) -> tuple[dict, dict]:
    """Run the workload; returns (detail, result) as printed."""
    if not (Path("src/aerosurvey/cli.py").is_file()
            and Path("BENCHMARK.json").is_file()):
        raise BenchError("run from the root of an aerosurvey checkout "
                         "(src/aerosurvey and BENCHMARK.json not found)")
    spec = json.loads(Path("BENCHMARK.json").read_text())
    plan = PLANS["tiny" if args.scale == "tiny" else WORKLOAD_PLAN[args.workload]]
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run_reprocess if args.workload == "reprocess_cli" else run_survey
        run = runner(work.resolve(), plan, args.seed, args.seconds,
                     bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_reference:
        first = run["ops"][0]
        if first["error"] is not None:
            raise BenchError(f"cannot record a failed operation: {first['error']}")
        checks.record(args.workload, args.scale, args.seed, first["result"])
    recorded = checks.load_reference(args.workload, args.scale)
    expected = checks.expected_result(recorded, args.seed)
    failed = checks.failures(run["ops"], expected)

    if args.trace:
        measured = per_layer(run)
        wanted = spec["per_layer"]
        trace_file = WORK_DIR / "traces" / f"{args.workload}-{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({"spans": run["spans"],
                                          "counts": run["counts"]}))
    else:
        measured = end_to_end(run, plan, len(failed))
        wanted = spec["end_to_end"]
    detail = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "plan": plan, "line_km": line_km(plan),
        "checked_against": ("recorded seed" if str(args.seed) in recorded
                            else "recorded invariants" if recorded
                            else "first operation only"),
        "metrics": measured,
        "failed_ops": failed,
        "op_seconds": [round(op["seconds"], 4) for op in run["ops"]],
        "env": environment(run["env"]),
    }
    result = {
        "correct": not failed,
        "attempted": len(run["ops"]),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        detail, result = bench(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
