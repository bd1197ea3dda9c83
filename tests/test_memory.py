"""Peak traced memory of the survey kernels at survey_large size.

Each bound sits between the peak of the kernel before its intermediates
were cut (in brackets) and its peak now, so putting back a whole-run
transient fails the test. tracemalloc counts numpy's data buffers.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
# the package imports these at first use; loading them here keeps their
# import out of the kernels' traced peaks
import scipy.signal  # noqa: F401
import scipy.spatial  # noqa: F401

from aerosurvey.gridding import grid_idw
from aerosurvey.qc import nasvd_denoise
from aerosurvey.suspension import FlightPlan, SimConfig, simulate_survey

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
    assert _peak_mb(simulate_survey, plan, None, SimConfig(seed=4)) < 72.0  # [90]


def test_nasvd_denoise_peak_at_survey_large_size():
    rng = np.random.default_rng(0)
    counts = rng.poisson(rng.uniform(5.0, 80.0, 32), (26_695, 32)).astype(float)
    assert _peak_mb(nasvd_denoise, counts, 4) < 30.0  # [40]


def test_grid_idw_peak_over_22k_centres():
    # 256 clusters of 400 samples on a 151 x 151 grid of 1 m cells: one
    # cell centre sees each cluster, so the neighbour lists hold 102k ints
    rng = np.random.default_rng(0)
    cx, cy = np.meshgrid(np.arange(0.0, 160.0, 10.0), np.arange(0.0, 160.0, 10.0))
    x = np.repeat(cx.ravel(), 400) + rng.uniform(-0.1, 0.1, cx.size * 400)
    y = np.repeat(cy.ravel(), 400) + rng.uniform(-0.1, 0.1, cx.size * 400)
    v = rng.normal(size=x.size)
    assert _peak_mb(grid_idw, x, y, v, 1.0, 0.45) < 6.0  # [8.7]
