"""Fresh-process launcher: times ``import aerosurvey.cli``, then runs one job.

run.py starts every process of a workload through this file, from the root
of a checkout, so each one imports the checkout's ``src/aerosurvey``:

    python3 perfbench/stub.py cli RECORD NAME OP PARENT TRACE ARGV...
        run one aerosurvey CLI command, as a shell user would; exits with
        its exit code. OP "setup" marks the command that makes the inputs;
        its record also holds the library versions
    python3 perfbench/stub.py survey RECORD JOB
        set up and run the in-process run_pipeline loop described by the
        JSON file JOB

Either way the process writes a JSON record to RECORD when it is done: its
import time, spans, counts, peak RSS and, for ``survey``, one observation
per operation.
"""

import json
import os
import resource
import shutil
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

_t = tracing.clock()
import aerosurvey.cli as cli  # noqa: E402
IMPORTED = tracing.clock()
IMPORT_S = IMPORTED - _t


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def write_record(path: str, record: dict) -> None:
    record.update(import_s=IMPORT_S, peak_rss_mb=peak_rss_mb())
    Path(path).write_text(json.dumps(record))


def run_cli(record: str, name: str, op: str, parent: str, trace: bool,
            argv: list[str]) -> int:
    from aerosurvey import io_csv
    tracer = tracing.Tracer()
    tracer.op, tracer.root = op, parent
    main = cli.main
    ctx = tracer.installed([cli, io_csv]) if trace else nullcontext()
    with ctx, tracer.span(f"cli.cmd.{name}"):
        rc = main(argv)
    if trace:
        tracer.spans.append({"id": f"{os.getpid()}-import",
                             "name": "cli.import", "start": _t,
                             "end": IMPORTED, "parent": parent, "op": op})
    extra = {"env": environment()} if op == "setup" else {}
    write_record(record, {"spans": tracer.spans if trace else [],
                          "counts": tracer.counts, **extra})
    return rc


def run_survey(record: str, job_path: str) -> int:
    """Warm up, then run_pipeline back to back for job['seconds'] seconds."""
    from aerosurvey import io_csv, pipeline

    job = json.loads(Path(job_path).read_text())
    work = Path(job["workdir"])
    warm_out = work / f"warm-{job['worker']}"
    pipeline.run_pipeline(pipeline.PipelineConfig(
        out_dir=warm_out, plan_path=job["warm_plan"], sim_path=job["sim"]))
    shutil.rmtree(warm_out)
    ready = tracing.clock()

    tracer = tracing.Tracer()

    def operation(i: int, traced: bool) -> dict:
        op_id = f"w{job['worker']}-{i}"
        out = work / f"op-{op_id}"
        cfg = pipeline.PipelineConfig(out_dir=out, plan_path=job["plan"],
                                      sim_path=job["sim"])
        tracer.op = op_id
        error = result = None
        with tracer.installed([pipeline, io_csv]) if traced else nullcontext():
            t0 = tracing.clock()
            try:
                result = pipeline.run_pipeline(cfg).to_dict()
            except Exception as exc:  # counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"
            seconds = tracing.clock() - t0
        digest, nbytes = checks.artifact_digest(out) if out.exists() else (None, 0)
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            tracer.count("pipeline.artifact_bytes", nbytes)
        return {"id": op_id, "seconds": seconds, "traced": traced,
                "error": error, "result": result, "digest": digest,
                "bytes": nbytes}

    ops = tracing.closed_loop(job["seconds"], job["trace"], operation)
    write_record(record, {"ready": ready, "ops": ops,
                          "spans": tracer.spans, "counts": tracer.counts,
                          "env": environment()})
    return 0


def main(argv: list[str]) -> int:
    mode, record = argv[0], argv[1]
    if mode == "cli":
        name, op, parent, trace = argv[2:6]
        return run_cli(record, name, op, parent, trace == "1", argv[6:])
    if mode == "survey":
        return run_survey(record, argv[2])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
