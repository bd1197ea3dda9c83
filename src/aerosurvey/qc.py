"""Survey data-quality battery.

Four tests commonly run on airborne geophysical data: the 4th-difference
high-frequency noise test, diurnal correction against a base-station
record, tie-line crossover repeatability, and noise-adjusted SVD
denoising of gamma-ray spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CrossoverRow,
    SurveyLine,
    TimeSeries,
    UtmPoint,
    _median,
    check_range,
)
from .errors import NoIntersectionsError

# crossover field name -> series column
FIELD_COLUMNS = {"K": "k_pct", "U": "u_ppm", "TMI": "tmi_nT"}


@dataclass(frozen=True)
class QcReport:
    """Outcome of one QC test: pass/fail, flagged locations, statistics."""

    test: str
    passed: bool
    flagged: tuple[int, ...] = ()
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"test": self.test, "pass": self.passed,
                "flags": list(self.flagged), "stats": dict(self.stats)}


@dataclass(frozen=True)
class CrossoverRecord:
    """One flight x tie intersection for a single field.

    `difference` is a property computed as flight - tie, so the record
    cannot carry an inconsistent value.
    """

    location: UtmPoint
    flight_value: float
    tie_value: float
    field_name: str = ""

    @property
    def difference(self) -> float:
        return self.flight_value - self.tie_value


def crossover_row_stats(rows: tuple[CrossoverRow, ...]) -> dict:
    """Repeatability statistics of pre-computed crossover rows (exact)."""
    if not rows:
        raise ValueError("no crossover rows")
    return {
        "n": len(rows),
        "max_abs_k": max(abs(r.diff_k) for r in rows),
        "max_abs_u": max(abs(r.diff_u) for r in rows),
    }


def fourth_difference_values(x: np.ndarray) -> np.ndarray:
    """d4[i] = x[i] - 4x[i+1] + 6x[i+2] - 4x[i+3] + x[i+4].

    Annihilates any cubic, so what remains is short-wavelength content.
    Output has length n-4; index i refers to the window starting at i.
    Where the sum is past the float64 range it is inf or nan, silently.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < 5:
        raise ValueError("4th difference needs >= 5 samples")
    with np.errstate(over="ignore", invalid="ignore"):
        return x[:-4] - 4.0 * x[1:-3] + 6.0 * x[2:-2] - 4.0 * x[3:-1] + x[4:]


def fourth_difference(x: np.ndarray,
                      threshold: float | None = None) -> QcReport:
    """4th-difference noise test of the 1-D trace `x`.

    With no explicit threshold, 4x the robust standard deviation
    (1.4826 * median absolute deviation) of d4 is used. Flags are window
    start indices where |d4| exceeds the threshold; the test passes when
    nothing is flagged. An explicit threshold must be finite and > 0.
    A max |d4| or threshold past the float64 range raises ValueError.
    """
    if threshold is not None:
        check_range("threshold", threshold, 0, above=True)
    d4 = fourth_difference_values(x)
    max_abs = float(np.max(np.abs(d4)))
    if threshold is None:
        with np.errstate(over="ignore", invalid="ignore"):
            threshold = 4.0 * 1.4826 * _median(np.abs(d4 - _median(d4)))
    if not (math.isfinite(max_abs) and math.isfinite(threshold)):
        raise ValueError("the 4th difference is past the float64 range "
                         f"(max |d4| {max_abs:g}, threshold {threshold:g}): "
                         "the trace values are too large")
    flagged = tuple(int(i) for i in np.nonzero(np.abs(d4) > threshold)[0])
    stats = {
        "n": int(len(d4)),
        "max_abs_d4": max_abs,
        "threshold": float(threshold),
        "flagged_count": len(flagged),
    }
    return QcReport("fourth_difference", not flagged, flagged, stats)


def diurnal_correct(rover: TimeSeries, base: TimeSeries,
                    datum: float) -> TimeSeries:
    """Remove time-varying field changes recorded at a base station.

    corrected(t) = rover(t) - (base(t) - datum), with the base record
    linearly interpolated to rover timestamps. The base record must cover
    the rover's full time range. The datum must be finite.
    """
    check_range("datum", datum, -math.inf)
    slack = 1e-9
    if base.t[0] > rover.t[0] + slack or base.t[-1] < rover.t[-1] - slack:
        raise ValueError("base record does not span rover times")
    drift = np.interp(rover.t, base.t, base.column("tmi_nT")) - datum
    if rover.values.ndim == 1:
        return TimeSeries(rover.t, rover.values - drift, rover.fields)
    return rover.with_column("tmi_nT", rover.column("tmi_nT") - drift)


def _correction_stats(rover: TimeSeries, corrected: TimeSeries) -> dict:
    """RMS and largest size of the correction diurnal_correct applied, nT;
    a ValueError when they are past the float64 range."""
    with np.errstate(over="ignore"):
        correction = rover.column("tmi_nT") - corrected.column("tmi_nT")
        rms = float(np.sqrt(np.mean(correction ** 2)))
    if not math.isfinite(rms):   # as it is whenever the largest is not
        raise ValueError("the diurnal correction is past the float64 range "
                         f"(RMS {rms:g} nT): the base-station values less "
                         "the datum are too large")
    return {"rms_correction_nt": rms,
            "max_abs_correction_nt": float(np.max(np.abs(correction)))}


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _segment_intersections(pa: np.ndarray, pb: np.ndarray,
                           eps: float = 1e-9) -> list[tuple[float, float]]:
    """All intersections of two polylines.

    Returns (ua, ub): global fractional sample indices along each line
    (segment index + in-segment parameter). Collinear overlapping
    segments contribute their overlap midpoint only. Transversal hits
    come first, then collinear ones, each in row-major (i, j) order.

    Candidate pairs come from a sort-and-sweep over bounding boxes
    (Bentley & Ottmann 1979): B's boxes are sorted by xmin; for each A
    segment two searchsorted calls find the B segments whose xmin lies
    in [a.xmin - widest B box, a.xmax], and those are kept when the y
    ranges overlap too. The segment test runs on those candidate index
    arrays with the same elementwise formulas as a dense (na, nb) test,
    so the hits are bit-identical to it. Boxes are grown so that no pair
    the eps test accepts is missed: u, v in [-eps, 1 + eps] reach
    eps * length past a segment's ends, and a collinear partner
    (|q - p x r| <= eps) lies within 2 eps / |r| of segment a; both
    margins are doubled for rounding. Cost follows the candidates, a
    few per segment for survey lines.

    Coordinates near the float64 limit raise ValueError rather than drop
    a crossing: a cross product that overflows, or a segment whose box
    overflows and so reaches every other, leaves a candidate's sums not
    finite.
    """
    a0, a1 = pa[:-1], pa[1:]
    b0, b1 = pb[:-1], pb[1:]
    r = a1 - a0                              # (na, 2)
    s = b1 - b0                              # (nb, 2)
    if len(r) == 0 or len(s) == 0:
        return []
    len_a = np.hypot(r[:, 0], r[:, 1])[:, None]
    # segments with |r|^2 < eps never make a collinear hit
    pad_a = 2.0 * eps * (len_a + 2.0 / np.maximum(len_a, 0.5 * np.sqrt(eps)))
    pad_b = 2.0 * eps * np.hypot(s[:, 0], s[:, 1])[:, None]
    lo_a, hi_a = np.minimum(a0, a1) - pad_a, np.maximum(a0, a1) + pad_a
    lo_b, hi_b = np.minimum(b0, b1) - pad_b, np.maximum(b0, b1) + pad_b

    order = np.argsort(lo_b[:, 0], kind="stable")
    xmin_b = lo_b[order, 0]
    # nanmax and the clamp let a NaN vertex match nothing, not everything
    width = np.nanmax(hi_b[:, 0] - lo_b[:, 0])
    first = np.searchsorted(xmin_b, lo_a[:, 0] - width, side="left")
    stop = np.searchsorted(xmin_b, hi_a[:, 0], side="right")
    counts = np.maximum(stop - first, 0)
    ii = np.repeat(np.arange(len(r)), counts)
    # position of each candidate within its A segment's run of B segments
    within = np.arange(len(ii)) - np.repeat(np.cumsum(counts) - counts,
                                             counts)
    jj = order[np.repeat(first, counts) + within]
    keep = (hi_b[jj, 0] >= lo_a[ii, 0]) & (lo_b[jj, 1] <= hi_a[ii, 1]) \
        & (hi_b[jj, 1] >= lo_a[ii, 1])
    ii, jj = ii[keep], jj[keep]
    rank = np.lexsort((jj, ii))              # row-major (i, j)
    ii, jj = ii[rank], jj[rank]

    ri, sj = r[ii], s[jj]
    denom = ri[:, 0] * sj[:, 1] - ri[:, 1] * sj[:, 0]
    qp = b0[jj] - a0[ii]
    qpxr = qp[:, 0] * ri[:, 1] - qp[:, 1] * ri[:, 0]
    qpxs = qp[:, 0] * sj[:, 1] - qp[:, 1] * sj[:, 0]
    if not np.isfinite(np.concatenate([denom, qpxr, qpxs])).all():
        raise ValueError("the segment crossing test is past the float64 "
                         "range: the line coordinates are too large")
    u = qpxs / denom
    v = qpxr / denom
    crossing = (np.abs(denom) > eps) & (u >= -eps) & (u <= 1 + eps) \
        & (v >= -eps) & (v <= 1 + eps)
    hits: list[tuple[float, float]] = []
    for k in np.flatnonzero(crossing):
        hits.append((ii[k] + float(np.clip(u[k], 0, 1)),
                     jj[k] + float(np.clip(v[k], 0, 1))))
    # coincident-overlap case: parallel and collinear segments
    collinear = (np.abs(denom) <= eps) & (np.abs(qpxr) <= eps)
    for k in np.flatnonzero(collinear):
        i, j = ii[k], jj[k]
        rr = float(r[i] @ r[i])
        if rr < eps:
            continue
        t0 = float(qp[k] @ r[i]) / rr
        t1 = t0 + float(s[j] @ r[i]) / rr
        lo, hi = max(0.0, min(t0, t1)), min(1.0, max(t0, t1))
        if lo <= hi:
            mid_a = 0.5 * (lo + hi)
            span = t1 - t0
            mid_b = 0.5 if abs(span) < eps else (mid_a - t0) / span
            hits.append((i + mid_a, j + float(np.clip(mid_b, 0, 1))))
    return hits


def _interp_along(vals: np.ndarray, u: float) -> float:
    i = min(int(u), len(vals) - 2)
    f = u - i
    return float(vals[i] * (1 - f) + vals[i + 1] * f)


def crossover_analysis(flight_lines: tuple[SurveyLine, ...],
                       tie_lines: tuple[SurveyLine, ...],
                       field_name: str, tolerance: float
                       ) -> tuple[list[CrossoverRecord], QcReport]:
    """Tie-line repeatability check.

    Every geometric flight x tie intersection (2-D segment-segment test)
    yields a record with both line values linearly interpolated between
    the bracketing samples; difference = flight - tie. The report passes
    when max |difference| <= tolerance, which must be finite and >= 0.
    Records are ordered by ascending easting then northing so results
    never depend on evaluation order.
    """
    check_range("tolerance", tolerance, 0)
    col = FIELD_COLUMNS.get(field_name, field_name)
    records: list[CrossoverRecord] = []
    for fl in flight_lines:
        pf = fl.positions()
        vf = fl.series.column(col)
        af = fl.series.column("alt_m") if "alt_m" in fl.series.fields else None
        for tl in tie_lines:
            pt = tl.positions()
            vt = tl.series.column(col)
            try:
                hits = _segment_intersections(pf, pt)
            except ValueError as exc:
                raise ValueError(f"flight line {fl.line_id} x tie line "
                                 f"{tl.line_id}: {exc}") from None
            for ua, ub in hits:
                x = _interp_along(pf[:, 0], ua)
                y = _interp_along(pf[:, 1], ua)
                alt = _interp_along(af, ua) if af is not None else 0.0
                records.append(CrossoverRecord(
                    UtmPoint(x, y, alt),
                    _interp_along(vf, ua), _interp_along(vt, ub), field_name))
    if not records:
        raise NoIntersectionsError("no flight/tie intersections")
    records.sort(key=lambda r: (r.location.easting, r.location.northing))
    diffs = np.array([r.difference for r in records])
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(diffs ** 2)))
    # finite RMS bounds every |difference| and the mean, so they are too
    if not math.isfinite(rms):
        raise ValueError("the crossover differences are past the float64 "
                         f"range (RMS {rms:g}): the {field_name} values are "
                         "too large")
    stats = {
        "field": field_name,
        "n": len(records),
        "max_abs_difference": float(np.max(np.abs(diffs))),
        "mean_difference": float(np.mean(diffs)),
        "rms_difference": rms,
        "tolerance": float(tolerance),
    }
    flagged = tuple(int(i) for i in np.nonzero(np.abs(diffs) > tolerance)[0])
    return records, QcReport("crossover", not flagged, flagged, stats)


def _nasvd_scaled(spectra: np.ndarray, k: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noise-adjusted counts, the per-channel scale that made them, and the
    mask of channels with a non-zero mean.

    A channel with a non-zero mean is scaled by 1/sqrt(that mean); the
    others keep scale 1.0, so their columns are the counts bit for bit. A
    channel mean past the float64 range is refused: it would make the
    scale 0 and the result nan.
    """
    m = np.asarray(spectra, dtype=float)
    if m.ndim != 2:
        raise ValueError("spectra matrix must be 2-D")
    if np.any(m < 0):
        raise ValueError("counts must be >= 0")
    if not 1 <= k <= min(m.shape):
        raise ValueError(f"k must be in 1..{min(m.shape)}")
    with np.errstate(over="ignore"):
        mean_spec = m.mean(axis=0)
    bad = np.flatnonzero(~np.isfinite(mean_spec))
    if len(bad):
        raise ValueError(f"channel ch{bad[0]} has a non-finite mean: its "
                         "counts sum past the float64 range")
    scale = np.ones(m.shape[1])
    nz = mean_spec > 0
    scale[nz] = 1.0 / np.sqrt(mean_spec[nz])
    return m * scale, scale, nz


def nasvd_denoise(spectra: np.ndarray, k: int) -> np.ndarray:
    """Noise-adjusted SVD denoising of a spectra matrix.

    `spectra` is a 2-D array of counts >= 0, rows samples and columns
    energy channels; it is only read. Counting noise scales with
    sqrt(counts), so each channel is scaled by 1/sqrt(mean spectrum) to
    equalize noise before the rank-k truncated SVD; the reconstruction is
    scaled back and negative values clamped to zero. Channels whose mean
    is zero carry no information and pass through untouched. Returns the
    clamped reconstruction, a new array of the same shape. Raises
    ValueError when a channel mean is past the float64 range.

    Memory: four spectra-sized arrays are alive at the SVD: the scaled
    counts, the input copy and U buffer that numpy's linalg gufunc
    allocates itself (tracemalloc does not see them), and the returned U.
    The function drops its own reference to `spectra` once the scaled
    counts exist, so a caller that hands over its last reference (as
    `aerosurvey qc nasvd` does) has the counts freed before the SVD; a
    caller that keeps its array holds a fifth.
    """
    scaled, scale, nz = _nasvd_scaled(spectra, k)
    del spectra
    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    out = (u[:, :k] * s[:k]) @ vt[:k]
    del u   # rebuilt in place: one spectra-sized array alive, not four
    out /= scale
    out[:, ~nz] = scaled[:, ~nz]    # scale 1.0: the counts themselves
    return np.maximum(out, 0.0, out=out)


def nasvd_energy_fraction(spectra: np.ndarray, k: int) -> float:
    """Fraction of total variance captured by the top-k scaled components.

    `spectra` is only read. Raises ValueError when a channel mean or the
    sum of squared singular values is past the float64 range.

    Memory: two spectra-sized arrays beside the caller's: the scaled
    counts and the gufunc's input copy, which tracemalloc does not see.
    """
    scaled, _, _ = _nasvd_scaled(spectra, k)
    del spectra
    s = np.linalg.svd(scaled, compute_uv=False)
    with np.errstate(over="ignore"):
        energy = s ** 2
        total = float(np.sum(energy))
    if not math.isfinite(total):
        raise ValueError("the singular-value energy is past the float64 "
                         "range: the counts are too large")
    return 1.0 if total == 0 else float(np.sum(energy[:k]) / total)
