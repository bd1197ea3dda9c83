"""Buzz-test analysis: platform EMI noise versus UAV-sensor separation.

A buzz test flies the UAV over (or hovers/yaws above) a stationary sensor
at a series of separations. Each pass yields a noise amplitude; amplitudes
versus separation are fitted with a power-law decay, and the minimum
acceptable separation is where the decay falls to the ambient noise floor.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass
from enum import Enum

import numpy as np

from .core import (
    TimeSeries,
    _DictCodec,
    _median,
    _percentiles,
    check_range,
    ranged,
)
from .errors import NeverBelowFloorError, NoFitAvailableError


# cells of the window matrix _running_median partitions at a time (2 MiB)
_MEDIAN_CELLS = 1 << 18


class PassKind(Enum):
    OVERFLIGHT = "overflight"
    HOVER_YAW = "hover_yaw"


@dataclass(frozen=True)
class BuzzPass:
    """One buzz-test pass: a sensor trace recorded at a fixed separation."""

    separation: float          # m between UAV and sensor
    trace: TimeSeries          # scalar trace (nT or percent channel)
    kind: PassKind = PassKind.OVERFLIGHT

    def __post_init__(self):
        check_range("separation", self.separation, 0, above=True)
        if len(self.trace) == 0:
            raise ValueError("trace must be non-empty")


@dataclass(frozen=True)
class _PassEntry(_DictCodec):
    """One `emi buzz --passes` entry; a relative csv_path starts at the
    file's folder."""

    separation_m: float = ranged(MISSING, 0, above=True)
    csv_path: str
    kind: PassKind = PassKind.OVERFLIGHT


@dataclass(frozen=True)
class EmiConfig(_DictCodec):
    noise_floor: float = ranged(0.2, 0, 1000, above=True)  # ambient level, nT


@dataclass(frozen=True)
class NoiseCurve:
    """Ambient-corrected noise amplitude per separation, plus optional fit.

    `points` are (separation m, amplitude) with separations strictly
    increasing; amplitudes are the platform's contribution after the
    ambient floor has been removed in quadrature. `fitted_decay` is
    (amplitude_at_1m, exponent) for A(r) = A1 * r**-p, or None when no
    usable points existed (flagged curve).
    """

    points: tuple[tuple[float, float], ...]
    fitted_decay: tuple[float, float] | None = None

    def __post_init__(self):
        seps = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(seps, seps[1:])):
            raise ValueError("separations must be strictly increasing")
        if any(p[1] < 0 for p in self.points):
            raise ValueError("amplitudes must be >= 0")

    def amplitude_at(self, r: float) -> float:
        if self.fitted_decay is None:
            raise NoFitAvailableError("curve has no fitted decay")
        a1, p = self.fitted_decay
        return a1 * r ** (-p)


def noise_amplitude(trace: TimeSeries, detrend_window_s: float = 1.0) -> float:
    """Robust noise amplitude of a trace.

    A moving median over `detrend_window_s` removes the slow signal
    (regional field, pass geometry); the amplitude is half the
    97.5th-2.5th percentile span of the residual, so isolated spikes do
    not dominate. The window must be finite and > 0, and the trace must
    span at least 3 of them.

    The median (_running_median) is exact and equals
    scipy.ndimage.median_filter(x, k, mode="nearest"), but costs O(n k)
    for n samples and a k-sample window. On a 2-core VM that is a few ms
    at survey sizes (k = 11) and about 1 s at n = 3e4, k = 9999, where
    median_filter takes 0.005 s.
    """
    check_range("detrend_window_s", detrend_window_s, 0, above=True)
    if trace.duration < 3.0 * detrend_window_s:
        raise ValueError("trace must span >= 3 detrend windows")
    if trace.values.ndim == 1:
        x = trace.values
    elif "tmi_nT" in trace.fields:
        x = trace.column("tmi_nT")
    else:
        x = trace.values[:, -1]
    dt = _median(np.diff(trace.t))
    k = max(3, int(round(detrend_window_s / dt)) | 1)  # odd sample count
    k = min(k, len(x) if len(x) % 2 else len(x) - 1)
    resid = x - _running_median(x.astype(float), k)
    lo, hi = _percentiles(resid, (2.5, 97.5))
    return float(hi - lo) / 2.0


def _running_median(x: np.ndarray, k: int) -> np.ndarray:
    """Median of the k samples centred on each sample, for odd k <= len(x).

    Windows past either end repeat the end sample (median_filter's
    mode="nearest"). Each window's middle order statistic is taken with
    np.partition over a block of rows of the (n, k) window view, a block
    being at most _MEDIAN_CELLS cells, so the working memory stays fixed
    while the time grows as n k.
    """
    h = k // 2
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, h, mode="edge"), k)
    out = np.empty(len(x))
    rows = max(1, _MEDIAN_CELLS // k)
    for lo in range(0, len(x), rows):
        out[lo:lo + rows] = np.partition(windows[lo:lo + rows], h, axis=1)[:, h]
    return out


def fit_power_law(separations: np.ndarray,
                  amplitudes: np.ndarray) -> tuple[float, float] | None:
    """Least-squares fit of A(r) = A1 * r**-p in log-log space.

    Only strictly positive amplitudes participate. Returns (A1, p), or
    None when fewer than two usable distinct separations remain. An A1
    past the float64 range raises ValueError naming it.
    """
    r = np.asarray(separations, dtype=float)
    a = np.asarray(amplitudes, dtype=float)
    keep = a > 0
    if keep.sum() < 2:
        return None
    # fewer than two distinct separations, as np.unique counts them (nans
    # as one), without np.unique: it imports numpy.ma. nan sorts last
    lo, hi = np.sort(r[keep])[[0, -1]]
    if lo == hi or math.isnan(lo):
        return None
    lx = np.log(r[keep])
    ly = np.log(a[keep])
    mx, my = lx.mean(), ly.mean()
    slope = float(np.sum((lx - mx) * (ly - my)) / np.sum((lx - mx) ** 2))
    intercept = float(my - slope * mx)
    try:
        return math.exp(intercept), -slope
    except OverflowError:
        raise ValueError(f"the fitted amplitude at 1 m, exp({intercept!r}), "
                         "is past the float64 range") from None


def build_noise_curve(passes: list[BuzzPass], cfg: EmiConfig,
                      detrend_window_s: float = 1.0) -> NoiseCurve:
    """Aggregate buzz passes into an ambient-corrected noise curve.

    Per separation, the amplitude is the median across passes. The ambient
    floor is then removed in quadrature (incoherent noise adds in power):
    excess = sqrt(max(amp^2 - floor^2, 0)). The power law is fitted over
    points whose excess exceeds the floor itself (signal-to-ambient >= 1);
    points at or below ambient measure the site, not the platform, and
    would otherwise flatten the fitted decay. An amplitude whose square is
    past the float64 range raises ValueError naming its separation.
    """
    groups: dict[float, list[float]] = {}
    for p in passes:
        groups.setdefault(p.separation, []).append(
            noise_amplitude(p.trace, detrend_window_s))
    if len(groups) < 3:
        raise ValueError("need >= 3 distinct separations")
    seps = np.array(sorted(groups))
    med = np.array([_median(groups[s]) for s in seps])
    with np.errstate(over="ignore", invalid="ignore"):
        excess = np.sqrt(np.maximum(med ** 2 - cfg.noise_floor ** 2, 0.0))
    bad = np.flatnonzero(~np.isfinite(excess))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"separation {float(seps[i])!r}: noise amplitude "
                         f"{float(med[i])!r} is past the float64 range when "
                         "squared")
    fit_mask = excess > cfg.noise_floor
    fit = fit_power_law(seps[fit_mask], excess[fit_mask])
    points = tuple((float(s), float(e)) for s, e in zip(seps, excess))
    return NoiseCurve(points, fit)


def _round_up_half_meter(r: float) -> float:
    return math.ceil(r / 0.5 - 1e-9) * 0.5


def threshold_separation(curve: NoiseCurve, cfg: EmiConfig) -> float:
    """Smallest separation at which platform noise is at or below the floor.

    Uses the fitted decay when available (continuous inversion), otherwise
    scans the measured points, which must then be monotone non-increasing.
    The result is rounded UP to the next 0.5 m: separation is a safety
    margin, never rounded toward the platform.
    """
    if not curve.points:
        raise ValueError("empty noise curve")
    floor = cfg.noise_floor
    if curve.points[0][1] <= floor:
        return curve.points[0][0]
    if curve.fitted_decay is not None and curve.fitted_decay[1] > 0:
        a1, p = curve.fitted_decay
        try:
            return _round_up_half_meter((a1 / floor) ** (1.0 / p))
        except OverflowError:       # too flat a decay: beyond any float
            raise NeverBelowFloorError("amplitude above floor at all "
                                       "separations") from None
    amps = [a for _, a in curve.points]
    if any(b > a for a, b in zip(amps, amps[1:])):
        raise ValueError("no fit and points not monotone non-increasing")
    for sep, amp in curve.points:
        if amp <= floor:
            return _round_up_half_meter(sep)
    raise NeverBelowFloorError("amplitude above floor at all separations")


def interference_percent(curve: NoiseCurve, separation: float,
                         signal_scale: float) -> float:
    """Fitted platform amplitude at `separation` as a percent of a signal
    scale; both must be finite and > 0, and the percent finite."""
    for name, val in (("separation", separation),
                      ("signal_scale", signal_scale)):
        check_range(name, val, 0, above=True)
    try:
        pct = 100.0 * curve.amplitude_at(separation) / signal_scale
    except OverflowError:               # r ** -p beyond the float range
        pct = math.inf
    if not math.isfinite(pct):
        raise ValueError(f"separation {separation!r} gives a non-finite "
                         "interference percent")
    return pct


def analyze_passes(passes: list[BuzzPass], cfg: EmiConfig,
                   detrend_window_s: float = 1.0,
                   interference_at: tuple[float, ...] = (),
                   signal_scale: float | None = None) -> dict:
    """Full buzz-test report used by the CLI.

    Overflight and hover/yaw passes are analyzed separately and the
    conservative (larger) threshold is reported; the top-level curve and
    fit are the ones that produced it. Separations merge in ascending
    order, then pass kind, so the report is deterministic.
    """
    if not passes:
        raise ValueError("need >= 3 distinct separations")
    by_kind: dict[PassKind, list[BuzzPass]] = {}
    for p in sorted(passes, key=lambda p: (p.separation, p.kind.value)):
        by_kind.setdefault(p.kind, []).append(p)

    per_kind: dict[str, dict] = {}
    curves: dict[str, NoiseCurve] = {}
    for kind in sorted(by_kind, key=lambda k: k.value):
        curve = curves[kind.value] = build_noise_curve(
            by_kind[kind], cfg, detrend_window_s)
        try:
            thr = threshold_separation(curve, cfg)
        except NeverBelowFloorError:
            thr = math.inf
        per_kind[kind.value] = {
            "points": [list(pt) for pt in curve.points],
            "fit": (None if curve.fitted_decay is None
                    else {"a1": curve.fitted_decay[0], "p": curve.fitted_decay[1]}),
            "threshold_m": thr,
        }

    # the first kind with the largest threshold
    worst = max(per_kind, key=lambda k: per_kind[k]["threshold_m"])
    if math.isinf(per_kind[worst]["threshold_m"]):
        raise NeverBelowFloorError("amplitude above floor at all separations")
    interference = [] if signal_scale is None else [
        {"r": r, "pct": interference_percent(curves[worst], r, signal_scale)}
        for r in interference_at]
    return {
        **per_kind[worst],
        "interference_pct_at": interference,
        "per_kind": per_kind,
        "noise_floor": cfg.noise_floor,
    }
