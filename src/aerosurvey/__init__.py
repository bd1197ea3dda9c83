"""UAV aerogeophysical survey toolkit.

Engineering analyses for suspended-payload survey platforms (vibration
isolation, EMI separation thresholds, slung-sensor swing simulation) and
the survey data QC chain (4th difference, diurnal correction, tie-line
crossovers, NASVD denoising, IDW gridding, grid-intensity comparison).

Importing the package loads none of its modules: each public name below
is imported from its module on first access (PEP 562), so a command pays
only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "core": ("CrossoverRow", "LineRole", "SurveyLine", "TimeSeries",
             "UtmPoint", "resample_uniform"),
    "emi": ("BuzzPass", "EmiConfig", "NoiseCurve", "PassKind",
            "analyze_passes", "build_noise_curve", "fit_power_law",
            "interference_percent", "noise_amplitude", "threshold_separation"),
    "errors": ("AerosurveyError", "PipelineStageError"),
    "gridding": ("NODATA", "GrayImage", "Grid", "compare_grids", "grid_idw",
                 "histogram256", "intensity_stddev", "read_asc",
                 "to_grayscale", "write_asc", "write_pgm"),
    "io_csv": ("CSV_SCHEMA_VERSION", "Ingested", "SchemaKind",
               "crossover_fixture_path", "ingest_csv", "read_spectra_csv",
               "read_survey_lines", "write_series_csv", "write_spectra_csv"),
    "qc": ("CrossoverRecord", "QcReport", "crossover_analysis",
           "crossover_row_stats", "diurnal_correct", "fourth_difference",
           "fourth_difference_values", "nasvd_denoise",
           "nasvd_energy_fraction"),
    "suspension": ("AttitudeTrack", "FlightPlan", "SettlingMetrics",
                   "SimConfig", "SimResult", "SuspensionGeometry",
                   "default_plan", "settling_metrics", "simulate_survey"),
    "pipeline": ("REPORT_SCHEMA_VERSION", "PipelineConfig", "RunReport",
                 "StageResult", "run_pipeline", "write_survey_artifacts"),
    "vibration": ("DampingInput", "IsolatorConfig", "IsolatorKind",
                  "SpectrumResult", "amplitude_spectrum", "attenuation_db",
                  "damping_effectiveness", "reduction_factor",
                  "select_configuration"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}
_MODULES = {*_EXPORTS, "cli", "numtext"}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
