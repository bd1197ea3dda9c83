"""End-to-end survey pipeline: simulate, QC, grid, compare, report.

Chains the library stages in data-dependency order and writes every
intermediate artifact plus a consolidated JSON report. Reports carry the
seed, a config hash and the tool version so any run can be reproduced
bit-for-bit; nothing in an artifact depends on wall-clock time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import LineRole, TimeSeries, _DictCodec, _decode_at, ranged
from .emi import noise_amplitude
from .errors import PipelineStageError
from .gridding import (
    compare_grids,
    grid_idw,
    to_grayscale,
    write_asc,
    write_pgm,
)
from .io_csv import (
    _read_json,
    _write_crossings,
    _write_json,
    write_series_csv,
    write_spectra_csv,
)
from .qc import (
    FIELD_COLUMNS,
    _correction_stats,
    crossover_analysis,
    diurnal_correct,
    fourth_difference,
    nasvd_denoise,
    nasvd_energy_fraction,
)
from .suspension import (
    FlightPlan,
    SimConfig,
    SuspensionGeometry,
    _Flight,
    _write_attitude,
    default_plan,
    line_series,
)

REPORT_SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class PipelineConfig(_DictCodec):
    """Pipeline run parameters; None paths fall back to bundled defaults,
    and a None d4_threshold to one derived from the sim noise bound."""

    out_dir: str | Path = "pipeline_out"
    plan_path: str | None = None
    geometry_path: str | None = None
    sim_path: str | None = None
    d4_threshold: float | None = ranged(None, 0, above=True)
    tie_field: str = "TMI"
    tie_tolerance: float = ranged(1.0, 0)  # nT TMI, % K or ppm U
    nasvd_k: int = ranged(4, 1, 1024)
    nasvd_energy_min: float = ranged(0.8, 0, 1)
    cell_fine: float = ranged(10.0, 0, 100_000, above=True)      # m
    cell_coarse: float = ranged(100.0, 0, 100_000, above=True)   # m

    def __post_init__(self):
        super().__post_init__()
        for p in (self.plan_path, self.geometry_path, self.sim_path):
            if p is not None and not Path(p).is_file():
                raise FileNotFoundError(f"config file not found: {p}")
        if self.tie_field not in FIELD_COLUMNS:
            raise ValueError(f"tie_field must be one of {sorted(FIELD_COLUMNS)}")


@dataclass(frozen=True)
class StageResult:
    name: str
    passed: bool
    stats: dict
    artifacts: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "stats": self.stats,
                "artifacts": list(self.artifacts)}


@dataclass(frozen=True)
class RunReport:
    """Consolidated pipeline result. overall == all stage passes, and a
    run that a stage aborted (`failed_stage` set, with its `error`) fails
    whatever the stages before it gave."""

    stages: tuple[StageResult, ...]
    seed: int
    config_sha256: str
    tool_version: str = __version__
    schema_version: str = REPORT_SCHEMA_VERSION
    failed_stage: str | None = None
    error: str | None = None

    @property
    def overall_pass(self) -> bool:
        return self.failed_stage is None and all(s.passed for s in self.stages)

    def to_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "seed": self.seed,
            "config_sha256": self.config_sha256,
            "stages": [s.to_dict() for s in self.stages],
            "pass": self.overall_pass,
        }
        if self.failed_stage is not None:
            # only a partial report has these keys, so a complete one
            # keeps every byte
            out.update(failed_stage=self.failed_stage, error=self.error)
        return out


def _load_config(cls, path):
    """`cls` from the JSON object in file `path`, every error naming the
    file (malformed JSON too); `cls()` when path is None."""
    return cls() if path is None else _decode_at(cls, _read_json(path), path)


def _load_survey(plan_path, geometry_path, sim_path):
    """(plan, geometry, sim config) of a simulated run, read from their
    files in that order and from nothing else; with no plan file the run
    flies default_plan(sim config)."""
    plan = None if plan_path is None else _load_config(FlightPlan, plan_path)
    geometry = _load_config(SuspensionGeometry, geometry_path)
    sim_cfg = _load_config(SimConfig, sim_path)
    return plan or default_plan(sim_cfg), geometry, sim_cfg


def config_hash(plan: FlightPlan, geometry: SuspensionGeometry,
                sim: SimConfig, pipe: PipelineConfig | None = None) -> str:
    """Digest of everything that determines the run's outputs.

    Output location and config file paths are excluded: two runs of the
    same parameters into different directories are the same run.
    """
    payload = {"plan": plan.to_dict(), "geometry": geometry.to_dict(),
               "sim": sim.to_dict()}
    if pipe is not None:
        params = pipe.to_dict()
        for key in ("out_dir", "plan_path", "geometry_path", "sim_path"):
            params.pop(key, None)
        payload["pipeline"] = params
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# artifact writers


def write_survey_artifacts(flight: _Flight, out_dir: str | Path) -> dict:
    """Fly `flight` and write its outputs; returns {artifact name: path}.

    Each block it flies is appended to attitude.csv as it comes, so the
    track never exists whole, and its sensor streams are written once
    they are done. spectra.csv is the gamma channel columns of rad.csv,
    and each flights/ or ties/ file the rows of mag.csv on one line, so
    their text is cut from those tables as they are written, not made
    again.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"attitude.csv": out / "attitude.csv"}
    _write_attitude(paths["attitude.csv"], flight.blocks())
    lines = []
    for lid, role, rows in flight.lines:
        name = f"{'flights' if role is LineRole.FLIGHT else 'ties'}/{lid}.csv"
        lines.append((out / name, 0, rows))
        paths[name] = out / name
    for sub in ("flights", "ties"):
        (out / sub).mkdir(exist_ok=True)
    rad = flight.rad_full
    # t_s is column 0 of a series table
    spectra = [(out / "spectra.csv", 1 + rad.fields.index("ch0"), None)]
    for name, series, parts in (("mag.csv", flight.mag_full, lines),
                                ("vlf.csv", flight.vlf_full, ()),
                                ("rad.csv", rad, spectra),
                                ("base.csv", flight.base, ())):
        write_series_csv(out / name, series, parts)
        paths[name] = out / name
    paths["spectra.csv"] = out / "spectra.csv"
    return paths


def _d4_auto_threshold(sim: SimConfig, geometry: SuspensionGeometry) -> float:
    """Spike threshold from the simulator's bounded high-frequency noise.

    The 4th difference of bounded noise |n| <= b is bounded by 16 b; the
    regional field and diurnal drift contribute negligibly at 10 Hz. A 5%
    margin keeps the clean default run flag-free.
    """
    return 16.0 * (sim.emi_amplitude(geometry) + sim.noise_floor) * 1.05


# ---------------------------------------------------------------------------
# the pipeline


def _simulate_stage(plan: FlightPlan, geometry: SuspensionGeometry,
                    sim_cfg: SimConfig, out: Path):
    """Simulate, write the survey artifacts and judge the flight.

    Returns the stage's StageResult and the four things later stages read:
    the magnetometer and base traces, the radiometric record and the
    flight's lines, known before it flies. The survey is written as it is
    flown, so its attitude track never exists whole; the VLF stream dies
    when this returns.
    """
    sim = _Flight(plan, geometry, sim_cfg)
    lines = sim.lines
    if not lines:
        raise ValueError("the flight has no survey line with 2 or more "
                         "sensor samples")
    paths = write_survey_artifacts(sim, out)
    max_roll, max_pitch = map(float, np.max(sim.straight_peaks, axis=0))
    # robust out-of-phase amplitude on the (first) longest line
    _, _, rows = max(lines, key=lambda line: len(line[2]))
    vlf = sim.vlf_full
    out_amp = noise_amplitude(TimeSeries(
        vlf.t[rows], vlf.column("outphase_pct")[rows], ("outphase_pct",)))
    passed = (max_roll <= 5.0 and max_pitch <= 5.0
              and out_amp <= sim_cfg.outphase_noise_pct)
    result = StageResult("simulate", passed, {
        "n_sim_samples": sim.n_steps,
        "n_sensor_samples": len(sim.mag_full),
        "n_flight_lines": sum(role is LineRole.FLIGHT for _, role, _ in lines),
        "n_tie_lines": sum(role is LineRole.TIE for _, role, _ in lines),
        "effective_damping_ratio": sim_cfg.effective_damping(geometry),
        "max_straight_roll_deg": max_roll,
        "max_straight_pitch_deg": max_pitch,
        "straight_outphase_amplitude_pct": out_amp,
    }, tuple(sorted(paths)))
    return result, sim.mag_full, sim.base, sim.rad_full, lines


def run_pipeline(cfg: PipelineConfig) -> RunReport:
    """simulate -> d4 -> diurnal -> tie -> nasvd -> grid x2 -> compare.

    Writes all intermediate artifacts under cfg.out_dir and returns the
    consolidated report (also written as report.json). A `nasvd_k` above
    the sim config's `n_channels` is refused with ValueError before the
    flight, writing nothing. Any stage raising aborts with
    PipelineStageError carrying the stage name, the cause and the report
    of the stages that did complete, written as report.json with the
    failed stage, its error and "pass": false.
    """
    plan, geometry, sim_cfg = _load_survey(cfg.plan_path, cfg.geometry_path,
                                           cfg.sim_path)
    # refused before the flight, so nothing is written
    if cfg.nasvd_k > sim_cfg.n_channels:
        raise ValueError(f"nasvd_k ({cfg.nasvd_k}) must be <= the sim "
                         f"config's n_channels ({sim_cfg.n_channels})")
    digest = config_hash(plan, geometry, sim_cfg, cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stages: list[StageResult] = []

    def record(failed: str | None = None,
               error: str | None = None) -> RunReport:
        report = RunReport(tuple(stages), sim_cfg.seed, digest,
                           failed_stage=failed, error=error)
        _write_json(out / "report.json", report.to_dict())
        return report

    stage = "simulate"
    try:
        result, mag, base, rad, flown = _simulate_stage(
            plan, geometry, sim_cfg, out)
        stages.append(result)

        stage = "qc_d4"
        thr = cfg.d4_threshold if cfg.d4_threshold is not None \
            else _d4_auto_threshold(sim_cfg, geometry)
        d4 = fourth_difference(mag.column("tmi_nT"), threshold=thr)
        _write_json(out / "d4_report.json", d4.to_dict())
        stages.append(StageResult(stage, d4.passed, d4.stats,
                                  ("d4_report.json",)))

        stage = "qc_diurnal"
        corrected = diurnal_correct(mag, base, sim_cfg.base_datum_nt)
        # refused before anything is written, as the qc diurnal command is
        correction = _correction_stats(mag, corrected)
        write_series_csv(out / "corrected.csv", corrected)
        stages.append(StageResult(stage, True, {
            "datum_nt": sim_cfg.base_datum_nt, **correction,
        }, ("corrected.csv",)))

        stage = "qc_tie"
        # TMI is tied on the corrected trace, K and U on the rad record
        lines = line_series(corrected if cfg.tie_field == "TMI" else rad,
                             flown)
        records, tie = crossover_analysis(
            [l for l in lines if l.role is LineRole.FLIGHT],
            [l for l in lines if l.role is LineRole.TIE],
            cfg.tie_field, cfg.tie_tolerance)
        _write_crossings(out / "crossings.json", records, tie)
        stages.append(StageResult(stage, tie.passed, tie.stats,
                                  ("crossings.json",)))

        stage = "qc_nasvd"
        counts = rad.values[:, rad.fields.index("ch0"):]   # a view
        write_spectra_csv(out / "denoised.csv",
                          nasvd_denoise(counts, cfg.nasvd_k))
        energy = nasvd_energy_fraction(counts, cfg.nasvd_k)
        stages.append(StageResult(stage, energy >= cfg.nasvd_energy_min, {
            "k": cfg.nasvd_k,
            "energy_fraction": energy,
            "energy_min": cfg.nasvd_energy_min,
            "n_spectra": counts.shape[0],
            "n_channels": counts.shape[1],
        }, ("denoised.csv",)))

        stage = "grid_make"
        online = np.concatenate([rows for _, _, rows in flown])
        x = corrected.column("easting_m")[online]
        y = corrected.column("northing_m")[online]
        v = corrected.column("tmi_nT")[online]
        grids, stats, arts = {}, {}, []
        for tag, cell in (("fine", cfg.cell_fine), ("coarse", cfg.cell_coarse)):
            radius = max(2.0 * cell, 0.75 * plan.spacing_m)
            g = grids[tag] = grid_idw(x, y, v, cell, radius)
            write_asc(g, out / f"tmi_{tag}.asc")
            write_pgm(to_grayscale(g), out / f"tmi_{tag}.pgm")
            arts += [f"tmi_{tag}.asc", f"tmi_{tag}.pgm"]
            stats[f"{tag}_shape"] = list(g.shape)
            stats[f"{tag}_valid_fraction"] = float(np.mean(g.valid))
        stages.append(StageResult(stage, all(
            stats[f"{tag}_valid_fraction"] > 0.5 for tag in grids),
            stats, tuple(arts)))

        stage = "grid_compare"
        cmp = compare_grids(grids["coarse"], grids["fine"])
        _write_json(out / "cmp.json", cmp)
        # the delta is a finding, not a gate: with a handful of coarse
        # pixels the min-max stretch dominates the std, so the stage passes
        # when both grids are comparable (non-degenerate stretch ranges)
        stages.append(StageResult(stage, bool(np.isfinite(cmp["delta"])), {
            "stddev_coarse": cmp["stddev_a"],
            "stddev_fine": cmp["stddev_b"],
            "delta": cmp["delta"],
        }, ("cmp.json",)))
    except Exception as exc:
        # the completed stages and the one that failed go on record
        # before the run aborts
        raise PipelineStageError(stage, exc, record(
            stage, f"{type(exc).__name__}: {exc}")) from exc
    return record()
