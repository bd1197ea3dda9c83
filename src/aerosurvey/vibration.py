"""Vibration analysis for sensor mounts on small UAVs.

Covers amplitude spectra of accelerometer traces, a damping-effectiveness
figure of merit for isolator selection, and attenuation accounting in dB
and reduction factors.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass
from enum import Enum
import math

import numpy as np

from .core import TimeSeries, _DictCodec, _median, check_range, ranged


def _positive():
    return ranged(MISSING, 0, above=True)


@dataclass(frozen=True)
class DampingInput(_DictCodec):
    """Parameters of the damping-effectiveness figure of merit.

    The figure is dimensionally inconsistent if read as physics; it is a
    ranking score for comparing isolator configurations, never a
    transmissibility. All parameters must be finite and strictly positive.
    """

    intensity: float = _positive()      # initial vibrational intensity, m/s^2
    damping_ratio: float = _positive()  # dimensionless
    stiffness: float = _positive()      # N/m
    mass: float = _positive()           # supported mass, kg
    count: int = _positive()            # number of isolators sharing the load
    frequency: float = _positive()      # excitation frequency, Hz


class IsolatorKind(Enum):
    WIRE_ROPE = "wire_rope"
    RUBBER_BALL = "rubber_ball"


@dataclass(frozen=True)
class IsolatorConfig(_DictCodec):
    """A candidate isolator arrangement.

    Per-isolator parameters (intensity, damping_ratio, stiffness) combine
    with a payload mass and excitation frequency at ranking time. Rubber
    ball counts outside 4..12 are outside the design envelope and rejected.
    """

    kind: IsolatorKind
    count: int = ranged(MISSING, 1)
    mount_angle_deg: float = ranged(MISSING, -math.inf)
    intensity: float = _positive()
    damping_ratio: float = _positive()
    stiffness: float = _positive()

    def __post_init__(self):
        super().__post_init__()
        if self.kind is IsolatorKind.RUBBER_BALL and not 4 <= self.count <= 12:
            raise ValueError("rubber ball count must be within 4..12")

    def damping_input(self, payload_mass: float, freq_hz: float) -> DampingInput:
        return DampingInput(self.intensity, self.damping_ratio, self.stiffness,
                            payload_mass, self.count, freq_hz)


@dataclass(frozen=True)
class SpectrumResult:
    """Single-sided amplitude spectrum with detected peaks.

    `peaks` is (frequency Hz, amplitude) sorted by amplitude descending;
    a peak is a local maximum whose prominence is at least the configured
    fraction of the largest bin.
    """

    freqs: np.ndarray       # Hz, ascending
    amplitudes: np.ndarray  # same units as the input signal
    peaks: tuple[tuple[float, float], ...]


_AXIS_FIELD = {"x": "ax_ms2", "y": "ay_ms2", "z": "az_ms2"}


def _axis_column(series: TimeSeries, axis: str) -> np.ndarray:
    axis = axis.lower()
    if axis not in _AXIS_FIELD:
        raise ValueError("axis must be one of x, y, z")
    if series.values.ndim == 1:
        return series.values
    name = _AXIS_FIELD[axis]
    if name in series.fields:
        return series.column(name)
    return series.values[:, "xyz".index(axis)]


def amplitude_spectrum(series: TimeSeries, axis: str = "z",
                       prominence_fraction: float = 0.10) -> SpectrumResult:
    """Single-sided amplitude spectrum of one accelerometer axis.

    Parameters
    ----------
    series : TimeSeries
        Uniformly sampled acceleration, at least 64 samples.
    axis : str
        Body axis to analyze: 'x', 'y' or 'z'.
    prominence_fraction : float
        Peak prominence threshold as a fraction of the maximum bin; finite
        and in [0, 1].

    Notes
    -----
    The trace is mean-removed and tapered with a periodic Hann window.
    Amplitudes are normalized by 2/sum(window), which reduces to the
    plain 2/N single-sided rule for a boxcar and recovers the amplitude
    of an on-bin sine exactly; DC and Nyquist bins are not doubled.
    Peaks are the bins scipy.signal.find_peaks(amplitudes, prominence=
    prominence_fraction * max) returns, found by the package's own
    _find_peaks. A column whose mean or amplitudes are past the float64
    range is refused with a ValueError.
    """
    check_range("prominence_fraction", prominence_fraction, 0, 1)
    t = series.t
    if len(t) < 64:
        raise ValueError("spectrum needs >= 64 samples")
    dt = np.diff(t)
    dt0 = _median(dt)
    if dt0 <= 0 or np.max(np.abs(dt - dt0)) > 1e-6 * dt0:
        raise ValueError("spectrum requires uniform sampling")

    x = _axis_column(series, axis).astype(float)
    n = len(x)
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))  # periodic Hann
    with np.errstate(over="ignore", invalid="ignore"):
        x = x - x.mean()
        spec = np.fft.rfft(x * w)
        amps = 2.0 * np.abs(spec) / w.sum()
    if not np.isfinite(amps).all():     # as they are when the mean is not
        raise ValueError(f"axis {axis!r}: the mean or the amplitude spectrum "
                         "is past the float64 range")
    amps[0] *= 0.5
    if n % 2 == 0:
        amps[-1] *= 0.5
    freqs = np.fft.rfftfreq(n, d=dt0)

    locs = _find_peaks(amps, prominence_fraction * float(amps.max()))
    peaks = sorted(((float(freqs[i]), float(amps[i])) for i in locs),
                   key=lambda p: (-p[1], p[0]))
    return SpectrumResult(freqs, amps, tuple(peaks))


def _find_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """scipy.signal.find_peaks(x, prominence=prominence)[0], index for index.

    A peak is a plateau, one sample or more, whose both neighbours are
    lower (so none touches an end), at its midpoint (left + right) // 2.
    It is kept when x[p] - max(left_min, right_min) >= prominence, each
    side's minimum taken up to the first strictly higher sample (scipy's
    wlen=None). That sample lies past the nearest strictly higher peak,
    with nothing lower between, so a monotonic stack over the peaks and
    the valleys between them finds each minimum. x must be finite.
    """
    step = np.diff(x)
    moves = np.flatnonzero(step)                # x[i + 1] != x[i]
    up = step[moves] > 0
    k = np.flatnonzero(up[:-1] & ~up[1:])       # a rise, a plateau, a fall
    peaks = (moves[k] + 1 + moves[k + 1]) // 2
    heights = x[peaks]
    # valleys[i]: least sample between peaks i - 1 and i, the array's ends
    # standing in for peaks -1 and len(peaks)
    valleys = np.minimum.reduceat(x, np.concatenate(([0], peaks))).tolist()
    left = _side_mins(heights.tolist(), valleys[:-1])
    right = _side_mins(heights[::-1].tolist(), valleys[:0:-1])[::-1]
    return peaks[heights - np.maximum(left, right) >= prominence]


def _side_mins(heights: list, valleys: list) -> list:
    """For each peak i, the least valleys[j] with j from just after the
    nearest earlier peak strictly higher than i (from 0 if none) to i."""
    mins, stack = [], []    # (height, least valley since the one below it)
    for h, low in zip(heights, valleys):
        while stack and stack[-1][0] <= h:
            low = min(low, stack.pop()[1])
        stack.append((h, low))
        mins.append(low)
    return mins


def damping_effectiveness(inp: DampingInput) -> float:
    """Figure of merit: intensity * damping_ratio * stiffness / (mass * count * f^2).

    A denominator past the float64 range raises ValueError naming the
    mass and the frequency; f ** 2 would raise OverflowError first.
    """
    f = inp.frequency
    den = inp.mass * inp.count * (f * f)
    if not math.isfinite(den):
        raise ValueError(f"mass {inp.mass!r} x count {inp.count!r} x "
                         f"frequency {f!r}^2 is past the float64 range")
    return inp.intensity * inp.damping_ratio * inp.stiffness / den


def attenuation_db(reduction: float) -> float:
    """Amplitude ratio, finite and > 0, in decibels: 20*log10(reduction)."""
    check_range("reduction", reduction, 0, above=True)
    return 20.0 * math.log10(reduction)


def _rms(x: np.ndarray, name: str) -> float:
    """Mean-removed RMS of trace `name`; a ValueError when it is past the
    float64 range."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = x - x.mean()
        rms = float(np.sqrt(np.mean(x * x)))
    if not math.isfinite(rms):
        raise ValueError(f"{name!r} trace's RMS is past the float64 range")
    return rms


def reduction_factor(before: TimeSeries, after: TimeSeries,
                     axis: str = "z") -> float:
    """Ratio of mean-removed RMS amplitudes, before/after, per axis."""
    if len(before) == 0 or len(after) == 0:
        raise ValueError("both series must be non-empty")
    rms_after = _rms(_axis_column(after, axis), "after")
    if rms_after == 0.0:
        raise ValueError("'after' trace has zero RMS")
    rms_before = _rms(_axis_column(before, axis), "before")
    if rms_before == 0.0:
        raise ValueError("'before' trace has zero RMS")
    return rms_before / rms_after


def select_configuration(candidates: list[IsolatorConfig], payload_mass: float,
                         dominant_freq: float) -> list[tuple[IsolatorConfig, float]]:
    """Rank isolator configurations by damping effectiveness.

    Evaluated at the dominant excitation frequency with the shared payload
    mass; both must be finite and > 0 and give every candidate a finite
    score, and each candidate's intensity x damping_ratio x stiffness must
    be finite. Returns (config, score) best first. Ties break
    deterministically by (kind, count).
    """
    if not candidates:
        raise ValueError("no isolator candidates")
    for name, val in (("payload_mass", payload_mass),
                      ("dominant_freq", dominant_freq)):
        check_range(name, val, 0, above=True)
    scored = []
    for i, c in enumerate(candidates):
        try:
            score = damping_effectiveness(c.damping_input(payload_mass,
                                                          dominant_freq))
        except ZeroDivisionError:       # mass * count * f**2 underflows
            score = math.inf
        if not math.isfinite(c.intensity * c.damping_ratio * c.stiffness):
            raise ValueError(
                f"candidate {i}: intensity {c.intensity!r} x damping_ratio "
                f"{c.damping_ratio!r} x stiffness {c.stiffness!r} is not "
                f"finite")
        if not math.isfinite(score):
            raise ValueError(
                f"payload_mass {payload_mass!r} and dominant_freq "
                f"{dominant_freq!r} give candidate {i} a non-finite "
                f"effectiveness")
        scored.append((c, score))
    scored.sort(key=lambda cs: (-cs[1], cs[0].kind.value, cs[0].count))
    return scored
