"""Command-line interface: every module as a subcommand plus the pipeline.

Exit codes are stable per failure class: 0 success (and overall QC pass),
1 usage, 2 unreadable/invalid input, 3 QC or analysis failure (the data
was fine, the answer is "no"), 4 internal error.

Only the modules of the qc and grid commands are imported here; every
other command imports its own module when it runs, so a qc or grid
process loads no simulator, pipeline, EMI or vibration code.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import LineRole, _decode_at, resample_uniform
from .errors import (
    AerosurveyError,
    NeverBelowFloorError,
    NeverSettlesError,
    NoFitAvailableError,
    NoIntersectionsError,
    PipelineStageError,
)
from .gridding import (
    compare_grids,
    grid_idw,
    read_asc,
    to_grayscale,
    write_asc,
    write_pgm,
)
from .io_csv import (
    CSV_SCHEMA_VERSION,
    SchemaKind,
    _json_text,
    _read_buzz_trace,
    _read_json,
    _write_crossings,
    _write_json,
    ingest_csv,
    read_spectra_csv,
    read_survey_lines,
    write_series_csv,
    write_spectra_csv,
    write_table,
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

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_QC = 3
EXIT_INTERNAL = 4

# exception -> exit code, first match wins; anything else is a bug (exit 4)
_EXIT_CODES = (
    # analysis outcomes: the inputs were valid, the analysis says no
    ((NeverBelowFloorError, NoFitAvailableError, NeverSettlesError,
      NoIntersectionsError), EXIT_QC),
    ((AerosurveyError, OSError, ValueError, KeyError), EXIT_IO),
)

# --field column -> (its crossover_analysis field key, the schema of its
# files); argparse allows only these columns
_FIELDS = {FIELD_COLUMNS[key]: (key, schema) for key, schema in (
    ("K", SchemaKind.RAD), ("U", SchemaKind.RAD), ("TMI", SchemaKind.MAG))}


def _emit(obj) -> None:
    sys.stdout.write(_json_text(obj))


def _entries(cls, path, defaults=None) -> list:
    """`cls` from each object of the JSON list in file `path` (--config,
    --passes), over `defaults`; errors name the file and the entry."""
    raw = _read_json(path)
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise ValueError(f"{path}: expected a JSON list of objects")
    return [_decode_at(cls, {**(defaults or {}), **e}, f"{path}: entry {i}")
            for i, e in enumerate(raw)]


# ---------------------------------------------------------------------------
# vib


def _cmd_vib_spectrum(args) -> int:
    from .vibration import amplitude_spectrum
    series = ingest_csv(args.infile, SchemaKind.ACCEL).data
    if args.rate is not None:
        series = resample_uniform(series, args.rate)
    res = amplitude_spectrum(series, axis=args.axis,
                             prominence_fraction=args.prominence)
    write_table(args.out, [("freq_hz", "amplitude_ms2")],
                [res.freqs, res.amplitudes])
    _emit({"out": str(args.out), "n_bins": len(res.freqs),
           "peaks": [{"freq_hz": f, "amplitude_ms2": a} for f, a in res.peaks]})
    return EXIT_OK


def _cmd_vib_compare(args) -> int:
    from .vibration import attenuation_db, reduction_factor
    before = ingest_csv(args.before, SchemaKind.ACCEL).data
    after = ingest_csv(args.after, SchemaKind.ACCEL).data
    r = reduction_factor(before, after, axis=args.axis)
    _emit({"reduction_factor": r, "attenuation_db": attenuation_db(r)})
    return EXIT_OK


def _cmd_vib_rank(args) -> int:
    from .vibration import IsolatorConfig, select_configuration
    candidates = _entries(IsolatorConfig, args.config,
                          {"mount_angle_deg": 0.0})
    ranked = select_configuration(candidates, args.mass, args.freq)
    _emit({"payload_mass_kg": args.mass, "frequency_hz": args.freq,
           "ranking": [{"rank": i + 1, "kind": c.kind.value, "count": c.count,
                        "mount_angle_deg": c.mount_angle_deg,
                        "effectiveness": d}
                       for i, (c, d) in enumerate(ranked)]})
    return EXIT_OK


# ---------------------------------------------------------------------------
# emi


def _cmd_emi_buzz(args) -> int:
    from .emi import BuzzPass, EmiConfig, _PassEntry, analyze_passes
    passes = [BuzzPass(e.separation_m,
                       _read_buzz_trace(Path(args.passes).parent / e.csv_path),
                       e.kind)
              for e in _entries(_PassEntry, args.passes)]
    cfg = EmiConfig(noise_floor=args.floor)
    anchors = tuple(args.at) if args.at else (8.0, 9.0, 10.0)
    result = analyze_passes(passes, cfg, detrend_window_s=args.window,
                            interference_at=anchors,
                            signal_scale=args.signal_scale)
    _write_json(args.out, result)
    _emit(result)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sim


def _cmd_sim_survey(args) -> int:
    from .pipeline import (_load_config, apply_seed_override,
                           write_survey_artifacts)
    from .suspension import FlightPlan, SimConfig, SuspensionGeometry, _Flight
    # no --plan: the flight's default_plan, spaced and flown as cfg says
    plan = _load_config(FlightPlan, args.plan)
    geometry = _load_config(SuspensionGeometry, args.geom)
    cfg = apply_seed_override(_load_config(SimConfig, args.cfg, SimConfig()))
    flight = _Flight(plan, geometry, cfg)
    paths = write_survey_artifacts(flight, args.out_dir)
    _emit({"out_dir": str(args.out_dir),
           "artifacts": sorted(paths),
           "seed": cfg.seed,
           "n_sensor_samples": len(flight.mag_full),
           "effective_damping_ratio":
               cfg.effective_damping(flight.geometry)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# qc


def _cmd_qc_d4(args) -> int:
    data = ingest_csv(args.infile, _FIELDS[args.field][1]).data
    report = fourth_difference(data, threshold=args.threshold,
                               field_name=args.field)
    _write_json(args.out, report.to_dict())
    _emit(report.to_dict())
    return EXIT_OK if report.passed else EXIT_QC


def _cmd_qc_diurnal(args) -> int:
    rover = ingest_csv(args.rover, SchemaKind.MAG).data
    base = ingest_csv(args.base, SchemaKind.BASE).data
    corrected = diurnal_correct(rover, base, args.datum)
    write_series_csv(args.out, corrected)
    rms = _correction_stats(rover, corrected)["rms_correction_nt"]
    _emit({"out": str(args.out), "datum_nt": args.datum,
           "rms_correction_nt": rms})
    return EXIT_OK


def _cmd_qc_tie(args) -> int:
    key, schema = _FIELDS[args.field]
    flights = read_survey_lines(args.flights, schema, LineRole.FLIGHT)
    ties = read_survey_lines(args.ties, schema, LineRole.TIE)
    records, report = crossover_analysis(list(flights), list(ties), key,
                                         args.tol)
    _write_crossings(args.out, records, report)
    _emit(report.to_dict())
    return EXIT_OK if report.passed else EXIT_QC


def _cmd_qc_nasvd(args) -> int:
    counts = read_spectra_csv(args.infile)
    write_spectra_csv(args.out, nasvd_denoise(counts, args.k))
    _emit({"out": str(args.out), "k": args.k,
           "energy_fraction": nasvd_energy_fraction(counts, args.k),
           "n_spectra": int(counts.shape[0]),
           "n_channels": int(counts.shape[1])})
    return EXIT_OK


# ---------------------------------------------------------------------------
# grid


def _cmd_grid_make(args) -> int:
    data = ingest_csv(args.infile, _FIELDS[args.field][1]).data
    x = data.column("easting_m")
    y = data.column("northing_m")
    v = data.column(args.field)
    radius = args.radius if args.radius is not None else 4.0 * args.cell
    g = grid_idw(x, y, v, args.cell, radius, power=args.power)
    write_asc(g, args.out)
    arts = [str(args.out)]
    if args.pgm:
        write_pgm(to_grayscale(g), args.pgm)
        arts.append(str(args.pgm))
    _emit({"out": arts, "shape": list(g.shape),
           "cell_size": args.cell, "search_radius": radius,
           "valid_fraction": float(np.mean(g.valid))})
    return EXIT_OK


def _cmd_grid_compare(args) -> int:
    a = read_asc(args.a)
    b = read_asc(args.b)
    result = compare_grids(a, b)
    _write_json(args.out, result)
    _emit({k: result[k] for k in ("stddev_a", "stddev_b", "delta")})
    return EXIT_OK


# ---------------------------------------------------------------------------
# pipeline / version


def _cmd_pipeline(args) -> int:
    from .pipeline import PipelineConfig, _load_config, run_pipeline
    cfg = _load_config(PipelineConfig, args.config, PipelineConfig())
    if args.out_dir is not None:
        cfg = replace(cfg, out_dir=args.out_dir)
    if args.tie_tolerance is not None:
        cfg = replace(cfg, tie_tolerance=args.tie_tolerance)
    try:
        report = run_pipeline(cfg)
    except PipelineStageError as exc:
        # the completed stages go on record; main exits as the cause says
        _write_json(Path(cfg.out_dir) / "report.json",
                    exc.partial_report.to_dict())
        raise
    _emit(report.to_dict())
    return EXIT_OK if report.overall_pass else EXIT_QC


def version_info() -> dict:
    from .pipeline import REPORT_SCHEMA_VERSION
    return {"version": __version__,
            "csv_schema_version": CSV_SCHEMA_VERSION,
            "report_schema_version": REPORT_SCHEMA_VERSION}


def _cmd_version(args) -> int:
    info = version_info()
    if args.json:
        _emit(info)
    else:
        print(f"aerosurvey {info['version']} "
              f"(csv schema {info['csv_schema_version']}, "
              f"report schema {info['report_schema_version']})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="aerosurvey",
                                description="UAV aerogeophysical survey toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    vib = sub.add_parser("vib", help="vibration analysis").add_subparsers(
        dest="subcommand", required=True)
    sp = vib.add_parser("spectrum", help="FFT amplitude spectrum of an axis")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--axis", default="z", choices=("x", "y", "z"))
    sp.add_argument("--rate", type=float, default=None,
                    help="resample to this rate (Hz) before the FFT")
    sp.add_argument("--prominence", type=float, default=0.10,
                    help="peak prominence as a fraction of the max bin")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_vib_spectrum)
    vc = vib.add_parser("compare", help="before/after RMS reduction")
    vc.add_argument("--before", required=True)
    vc.add_argument("--after", required=True)
    vc.add_argument("--axis", default="z", choices=("x", "y", "z"))
    vc.set_defaults(func=_cmd_vib_compare)
    vr = vib.add_parser("rank", help="rank isolator configurations")
    vr.add_argument("--config", required=True, help="JSON list of candidates")
    vr.add_argument("--mass", type=float, required=True, help="payload kg")
    vr.add_argument("--freq", type=float, required=True, help="excitation Hz")
    vr.set_defaults(func=_cmd_vib_rank)

    emi = sub.add_parser("emi", help="EMI buzz test").add_subparsers(
        dest="subcommand", required=True)
    eb = emi.add_parser("buzz", help="noise-vs-separation analysis")
    eb.add_argument("--passes", required=True,
                    help="JSON list of {separation_m, kind, csv_path}")
    eb.add_argument("--floor", type=float, default=0.2, help="ambient nT")
    eb.add_argument("--window", type=float, default=1.0,
                    help="detrend window seconds")
    eb.add_argument("--at", type=float, action="append",
                    help="report interference percent at these separations")
    eb.add_argument("--signal-scale", type=float, default=54000.0,
                    help="signal scale for interference percent (nT)")
    eb.add_argument("--out", required=True)
    eb.set_defaults(func=_cmd_emi_buzz)

    sim = sub.add_parser("sim", help="survey simulator").add_subparsers(
        dest="subcommand", required=True)
    ss = sim.add_parser("survey", help="fly a plan, write sensor traces")
    ss.add_argument("--plan", default=None, help="plan JSON (default bundled)")
    ss.add_argument("--geom", default=None, help="geometry JSON")
    ss.add_argument("--cfg", default=None, help="simulator config JSON")
    ss.add_argument("--out-dir", required=True)
    ss.set_defaults(func=_cmd_sim_survey)

    qc = sub.add_parser("qc", help="data quality control").add_subparsers(
        dest="subcommand", required=True)
    d4 = qc.add_parser("d4", help="4th-difference spike test")
    d4.add_argument("--in", dest="infile", required=True)
    d4.add_argument("--field", default="tmi_nT", choices=sorted(_FIELDS))
    d4.add_argument("--threshold", type=float, default=None)
    d4.add_argument("--out", required=True)
    d4.set_defaults(func=_cmd_qc_d4)
    di = qc.add_parser("diurnal", help="base-station diurnal correction")
    di.add_argument("--rover", required=True)
    di.add_argument("--base", required=True)
    di.add_argument("--datum", type=float, required=True)
    di.add_argument("--out", required=True)
    di.set_defaults(func=_cmd_qc_diurnal)
    tie = qc.add_parser("tie", help="tie-line crossover differences")
    tie.add_argument("--flights", required=True, help="directory of line CSVs")
    tie.add_argument("--ties", required=True, help="directory of tie CSVs")
    tie.add_argument("--field", default="tmi_nT", choices=sorted(_FIELDS))
    tie.add_argument("--tol", type=float, required=True)
    tie.add_argument("--out", required=True)
    tie.set_defaults(func=_cmd_qc_tie)
    nv = qc.add_parser("nasvd", help="low-rank spectral denoising")
    nv.add_argument("--in", dest="infile", required=True)
    nv.add_argument("--k", type=int, required=True)
    nv.add_argument("--out", required=True)
    nv.set_defaults(func=_cmd_qc_nasvd)

    grid = sub.add_parser("grid", help="gridding and comparison").add_subparsers(
        dest="subcommand", required=True)
    gm = grid.add_parser("make", help="IDW grid from scattered samples")
    gm.add_argument("--in", dest="infile", required=True)
    gm.add_argument("--field", default="tmi_nT", choices=sorted(_FIELDS))
    gm.add_argument("--cell", type=float, required=True, help="cell size m")
    gm.add_argument("--radius", type=float, default=None,
                    help="search radius m (default 4x cell)")
    gm.add_argument("--power", type=float, default=2.0)
    gm.add_argument("--pgm", default=None, help="also write grayscale PGM")
    gm.add_argument("--out", required=True)
    gm.set_defaults(func=_cmd_grid_make)
    gc = grid.add_parser("compare", help="grayscale spread of two grids")
    gc.add_argument("--a", required=True)
    gc.add_argument("--b", required=True)
    gc.add_argument("--out", required=True)
    gc.set_defaults(func=_cmd_grid_compare)

    pl = sub.add_parser("pipeline", help="simulate -> QC -> grid -> compare")
    pl.add_argument("--config", default=None, help="pipeline config JSON")
    pl.add_argument("--out-dir", default=None)
    pl.add_argument("--tie-tolerance", type=float, default=None)
    pl.set_defaults(func=_cmd_pipeline)

    ver = sub.add_parser("version", help="tool and schema versions")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=_cmd_version)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except Exception as exc:
        cause = exc.cause if isinstance(exc, PipelineStageError) else exc
        for types, code in _EXIT_CODES:
            if isinstance(cause, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
