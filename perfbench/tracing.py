"""Spans around calls into aerosurvey, and the per-layer metrics built from them.

A span is a dict with ``id``, ``name``, ``start``, ``end``, ``parent`` and
``op`` (the operation it belongs to). Spans are kept in memory and written
out when the benchmark ends. Times come from ``time.monotonic``, which on
Linux is CLOCK_MONOTONIC and therefore comparable across the benchmark's
processes: a span recorded in a CLI child nests inside the parent's span
for that child.

Stdlib only: the orchestrating process never imports numpy.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from contextlib import contextmanager

clock = time.monotonic

# pipeline.run_pipeline's direct callees, mapped to the stage that calls them
STAGE_OF = {
    "suspension.simulate_survey": "simulate",
    "pipeline.write_survey_artifacts": "simulate",
    "emi.noise_amplitude": "simulate",
    "qc.fourth_difference": "qc_d4",
    "qc.diurnal_correct": "qc_diurnal",
    "io_csv.write_series_csv": "qc_diurnal",
    "qc.crossover_analysis": "qc_tie",
    "qc.nasvd_denoise": "qc_nasvd",
    "io_csv.write_spectra_csv": "qc_nasvd",
    "qc.nasvd_energy_fraction": "qc_nasvd",
    "gridding.grid_idw": "grid_make",
    "gridding.write_asc": "grid_make",
    "gridding.to_grayscale": "grid_make",
    "gridding.write_pgm": "grid_make",
    "gridding.compare_grids": "grid_compare",
}


def _segment_pairs(args, kwargs, result):
    flights = kwargs.get("flight_lines", args[0] if args else ())
    ties = kwargs.get("tie_lines", args[1] if len(args) > 1 else ())
    return sum((len(f.series) - 1) * (len(t.series) - 1)
               for f in flights for t in ties)


# span name -> [(counter name, fn(args, kwargs, result) -> number)]
COUNTERS = {
    "suspension.simulate_survey": [
        ("suspension.sim_steps", lambda a, k, r: len(r.attitude))],
    "qc.crossover_analysis": [
        ("qc.crossings", lambda a, k, r: len(r[0])),
        ("qc.crossover.segment_pairs", _segment_pairs)],
    "gridding.grid_idw": [
        ("gridding.grid_cells", lambda a, k, r: r.shape[0] * r.shape[1])],
    "io_csv.ingest_csv": [
        ("io_csv.rows_ingested", lambda a, k, r: len(r.data)),
        ("io_csv.rows_rejected", lambda a, k, r: len(r.rejected_rows))],
}


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[tuple[str, str, float]] = []   # (op, name, value)
        self.op: str | None = None
        self.root: str | None = None    # parent of top-level spans
        self._stack: list[str] = []
        self._ids = itertools.count()
        self._prefix = f"{os.getpid()}-"

    @contextmanager
    def span(self, name: str):
        sid = self._prefix + str(next(self._ids))
        parent = self._stack[-1] if self._stack else self.root
        self._stack.append(sid)
        start = clock()
        try:
            yield sid
        finally:
            end = clock()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "start": start,
                               "end": end, "parent": parent, "op": self.op})

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.op, name, value))

    def wrapper(self, fn, name: str):
        counters = COUNTERS.get(name, ())

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            for cname, extract in counters:
                self.count(cname, extract(args, kwargs, result))
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, modules):
        """Replace every public function attribute of `modules` by a wrapper.

        The span name is ``<defining module>.<function>``, so a function
        imported into several modules gets one name. Originals are put back
        on exit.
        """
        saved = []
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(fn)
                        or isinstance(fn, type)
                        or not getattr(fn, "__module__", "").startswith("aerosurvey.")):
                    continue
                name = fn.__module__.rsplit(".", 1)[1] + "." + fn.__name__
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrapper(fn, name))
        try:
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it that its children's union covers."""
    lo, hi = span["start"], span["end"]
    covered = 0.0
    cur_lo = cur_hi = None
    for c in sorted(children, key=lambda c: c["start"]):
        a, b = max(c["start"], lo), min(c["end"], hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (hi - lo) - covered


def op_metrics(spans: list[dict], counts: list[tuple]) -> dict[str, dict]:
    """Per-layer metrics of each traced operation: {op: {metric: value}}."""
    by_op: dict[str, dict] = {}
    children: dict[str, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    for s in spans:
        m = by_op.setdefault(s["op"], {})
        dur = s["end"] - s["start"]
        _add(m, s["name"] + ".s", dur)
        if s["name"] == "pipeline.run_pipeline":
            kids = children.get(s["id"], [])
            _add(m, "pipeline.self.s", self_time(s, kids))
            for k in kids:
                stage = STAGE_OF.get(k["name"])
                if stage:
                    _add(m, f"pipeline.stage.{stage}.s", k["end"] - k["start"])
        elif s["name"] == "cli.process":
            _add(m, "cli.self.s", self_time(s, children.get(s["id"], [])))
    for op, name, value in counts:
        _add(by_op.setdefault(op, {}), name, value)
    for m in by_op.values():
        if m.get("suspension.simulate_survey.s"):
            m["suspension.sim_steps_per_s"] = (
                m.get("suspension.sim_steps", 0) / m["suspension.simulate_survey.s"])
        if m.get("io_csv.ingest_csv.s"):
            m["io_csv.ingest_rows_per_s"] = (
                m.get("io_csv.rows_ingested", 0) / m["io_csv.ingest_csv.s"])
    return by_op


def closed_loop(seconds: float, trace: bool, run_op) -> list[dict]:
    """Call run_op(i, traced) back to back until `seconds` have passed.

    At least one operation runs. With `trace`, operations alternate traced
    and plain, traced first, and the loop runs until it has one of each.
    """
    ops: list[dict] = []
    end = clock() + seconds
    while True:
        ops.append(run_op(len(ops), trace and len(ops) % 2 == 0))
        if clock() >= end and (not trace or len(ops) >= 2):
            return ops


def _add(m: dict, key: str, value: float) -> None:
    m[key] = m.get(key, 0) + value


def median_metrics(per_op: list[dict]) -> dict[str, float]:
    """Median over operations of each metric; absent means 0 for that op."""
    names = sorted({k for m in per_op for k in m})
    return {k: statistics.median(m.get(k, 0) for m in per_op) for k in names}
