"""UAV aerogeophysical survey toolkit.

Engineering analyses for suspended-payload survey platforms (vibration
isolation, EMI separation thresholds, slung-sensor swing simulation) and
the survey data QC chain (4th difference, diurnal correction, tie-line
crossovers, NASVD denoising, IDW gridding, grid-intensity comparison).
"""

__version__ = "0.1.0"

from .core import (
    LineRole,
    SurveyLine,
    TimeSeries,
    UtmPoint,
    resample_uniform,
)
from .emi import (
    BuzzPass,
    EmiConfig,
    NoiseCurve,
    PassKind,
    analyze_passes,
    build_noise_curve,
    fit_power_law,
    interference_percent,
    noise_amplitude,
    threshold_separation,
)
from .errors import AerosurveyError, PipelineStageError
from .gridding import (
    NODATA,
    GrayImage,
    Grid,
    Stretch,
    compare_grids,
    grid_idw,
    histogram256,
    intensity_stddev,
    read_asc,
    read_pgm,
    to_grayscale,
    write_asc,
    write_pgm,
)
from .io_csv import (
    CSV_SCHEMA_VERSION,
    Ingested,
    SchemaKind,
    crossover_fixture_path,
    ingest_csv,
    read_spectra_csv,
    read_survey_lines,
    write_series_csv,
    write_spectra_csv,
)
from .qc import (
    CrossoverRecord,
    CrossoverRow,
    QcReport,
    crossover_analysis,
    crossover_row_stats,
    diurnal_correct,
    fourth_difference,
    fourth_difference_values,
    nasvd_denoise,
    nasvd_energy_fraction,
)
from .suspension import (
    AttitudeTrack,
    FlightPlan,
    PayloadPose,
    SettlingMetrics,
    SimConfig,
    SimResult,
    SuspensionGeometry,
    default_plan,
    payload_pose,
    pendulum_ring_down,
    read_attitude_csv,
    settling_metrics,
    simulate_survey,
    write_attitude_csv,
)
from .pipeline import (
    REPORT_SCHEMA_VERSION,
    PipelineConfig,
    RunReport,
    StageResult,
    run_pipeline,
    write_survey_artifacts,
)
from .vibration import (
    DampingInput,
    IsolatorConfig,
    IsolatorKind,
    SpectrumResult,
    amplitude_spectrum,
    attenuation_db,
    damping_effectiveness,
    reduction_factor,
    select_configuration,
)

__all__ = [
    "AerosurveyError", "AttitudeTrack", "BuzzPass",
    "CSV_SCHEMA_VERSION", "CrossoverRecord", "CrossoverRow", "DampingInput",
    "EmiConfig", "FlightPlan", "GrayImage", "Grid", "Ingested",
    "IsolatorConfig", "IsolatorKind", "LineRole", "NODATA",
    "NoiseCurve", "PassKind", "PayloadPose", "PipelineConfig",
    "PipelineStageError", "QcReport",
    "REPORT_SCHEMA_VERSION", "RunReport", "SchemaKind", "SettlingMetrics",
    "SimConfig", "SimResult", "SpectrumResult",
    "StageResult", "Stretch", "SurveyLine", "SuspensionGeometry",
    "TimeSeries", "UtmPoint", "amplitude_spectrum",
    "analyze_passes", "attenuation_db", "build_noise_curve",
    "compare_grids", "crossover_analysis", "crossover_fixture_path",
    "crossover_row_stats", "damping_effectiveness", "default_plan",
    "diurnal_correct", "fit_power_law", "fourth_difference",
    "fourth_difference_values", "grid_idw", "histogram256", "ingest_csv",
    "intensity_stddev", "interference_percent", "nasvd_denoise",
    "nasvd_energy_fraction", "noise_amplitude", "payload_pose",
    "pendulum_ring_down", "read_asc", "read_attitude_csv", "read_pgm",
    "read_spectra_csv", "read_survey_lines", "reduction_factor",
    "resample_uniform", "run_pipeline", "select_configuration",
    "settling_metrics", "simulate_survey", "threshold_separation",
    "to_grayscale", "write_asc", "write_attitude_csv", "write_pgm",
    "write_series_csv", "write_spectra_csv", "write_survey_artifacts",
]
