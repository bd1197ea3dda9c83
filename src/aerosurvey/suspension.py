"""Four-point suspension geometry and the survey flight simulator.

The payload hangs from four cables anchored under the motors, with a
platform mount that keeps it level and heading-locked (a 4-bar linkage in
each vertical plane). In-flight swing is a damped planar pendulum per
horizontal axis, forced by turn accelerations along a lawnmower flight
path. The simulator is the package's synthetic data source: it emits
attitude, magnetometer, VLF and radiometric traces with turn-point swing
noise and platform EMI contamination, fully deterministic under a fixed
seed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import (LineRole, SurveyLine, TimeSeries, _DictCodec, check_range,
                   ranged)
from .errors import NeverSettlesError
from .io_csv import _REQUIRED, SchemaKind, write_table

G = 9.80665  # m/s^2
# the most steps a flight simulates (survey_large's 17.2 line-km is 267k)
# and the most cells of its sensor records, 268 MB: a row of t_s, 4 mag,
# 10 VLF and 5 + n_channels radiometric cells per sim_rate_hz /
# sensor_rate_hz steps. At the default 10 steps a row and 32 channels a
# step-capped flight needs 21.8 M cells, and the traced peak is about 112
# bytes a step for simulate_survey, which adds 64 of attitude track and
# codes, 470 MB at the cap, and 65 flying into the artifacts
_MAX_SIM_STEPS = 1 << 22
_MAX_SIM_CELLS = 1 << 25
# the most steps _Flight flies at once, and the most sensor rows whose
# gamma counts it draws at once, so its working set does not grow with
# the survey
_CHUNK_STEPS = 1 << 14
_COUNT_ROWS = 1 << 11


# ---------------------------------------------------------------------------
# geometry


def _square_anchors(side: float) -> tuple[tuple[float, float, float], ...]:
    h = side / 2.0
    return ((h, h, 0.0), (-h, h, 0.0), (-h, -h, 0.0), (h, -h, 0.0))


@dataclass(frozen=True)
class SuspensionGeometry(_DictCodec):
    """Cable suspension layout in the UAV body frame (x fwd, y left, z up).

    `platform_offsets` are the distances of the payload-mount attachment
    points from the payload center, one per anchor, taken along the
    anchor's horizontal direction; equal anchor and platform footprints
    give the classic parallel linkage. The simulator flies a pendulum of
    `cable_length`, so `motor_anchor_points` and `platform_offsets` feed
    only a run's `config_sha256`, which hashes this dict.
    """

    motor_anchor_points: tuple[tuple[float, float, float], ...] = ranged(
        _square_anchors(1.0), -100, 100)  # m
    cable_length: float = ranged(9.0, 0.1, 1000)   # m
    platform_offsets: tuple[float, ...] = ranged(
        (0.7071067811865476,) * 4, 0, 100)  # m
    intermediate_platform: bool = True
    payload_separation: float = ranged(1.0, 0, 1000)  # mag-to-VLF, m

    def __post_init__(self):
        super().__post_init__()
        if len(self.motor_anchor_points) != 4 or len(self.platform_offsets) != 4:
            raise ValueError("exactly 4 anchors and 4 platform offsets required")


# ---------------------------------------------------------------------------
# flight plan and path construction


@dataclass(frozen=True)
class FlightPlan(_DictCodec):
    """Lawnmower plan: parallel lines plus perpendicular tie lines.

    heading_deg is a compass course (0 = north, clockwise positive); lines
    are laid out to the right of the heading, spacing_m apart. Tie lines
    cross at evenly spaced fractions of the line length.
    """

    origin_utm: tuple[float, float] = ranged((327400.0, 5030600.0), 0, 1e7)
    n_lines: int = ranged(4, 1, 10_000)
    line_length_m: float = ranged(500.0, 1, 100_000)
    spacing_m: float = ranged(50.0, 1, 100_000)
    heading_deg: float = ranged(0.0, -360, 360)
    altitude_m: float = ranged(40.0, 0, 10_000)
    tie_lines: int = ranged(1, 0, 10_000)

    def direction(self) -> np.ndarray:
        h = math.radians(self.heading_deg)
        return np.array([math.sin(h), math.cos(h)])

    def legs(self) -> list[tuple[str, LineRole, np.ndarray, np.ndarray]]:
        """(id, role, start, end) for every flight and tie line."""
        d = self.direction()
        perp = np.array([d[1], -d[0]])  # to the right of travel
        origin = np.asarray(self.origin_utm, dtype=float)
        out = []
        for i in range(self.n_lines):
            start = origin + i * self.spacing_m * perp
            out.append((f"L{i + 1}", LineRole.FLIGHT, start,
                        start + self.line_length_m * d))
        width = (self.n_lines - 1) * self.spacing_m
        margin = self.spacing_m / 2.0
        for j in range(self.tie_lines):
            frac = (j + 1) / (self.tie_lines + 1)
            mid = origin + frac * self.line_length_m * d
            out.append((f"T{j + 1}", LineRole.TIE, mid - margin * perp,
                        mid + (width + margin) * perp))
        return out


@dataclass(frozen=True)
class _Straight:
    p0: np.ndarray
    p1: np.ndarray

    @property
    def length(self) -> float:
        return float(np.hypot(*(self.p1 - self.p0)))

    def sample(self, s: np.ndarray, v: float):
        d = (self.p1 - self.p0) / self.length
        pos = self.p0[None, :] + s[:, None] * d[None, :]
        course = np.full(len(s), math.atan2(d[1], d[0]))
        return pos, course, np.zeros((len(s), 2))


@dataclass(frozen=True)
class _Arc:
    center: np.ndarray
    radius: float
    a0: float     # angle of entry point about center, rad
    sweep: float  # signed, CCW positive

    @property
    def length(self) -> float:
        return self.radius * abs(self.sweep)

    def sample(self, s: np.ndarray, v: float):
        sgn = 1.0 if self.sweep >= 0 else -1.0
        ang = self.a0 + sgn * s / self.radius
        radial = np.column_stack([np.cos(ang), np.sin(ang)])
        pos = self.center[None, :] + self.radius * radial
        course = ang + sgn * math.pi / 2.0
        acc = -(v ** 2 / self.radius) * radial  # centripetal, toward center
        return pos, course, acc


def _mod2pi(a: float) -> float:
    return a % (2.0 * math.pi)


def _dubins_csc(p0, psi0, p1, psi1, radius: float) -> list:
    """Shortest curve-straight-curve path between two poses.

    Standard four-word construction (LSL/RSR/LSR/RSL) for equal turn
    radii; enough for lawnmower geometry, where U-turns degenerate to the
    half-circle case.
    """
    r = radius
    left0 = p0 + r * np.array([-math.sin(psi0), math.cos(psi0)])
    right0 = p0 + r * np.array([math.sin(psi0), -math.cos(psi0)])
    left1 = p1 + r * np.array([-math.sin(psi1), math.cos(psi1)])
    right1 = p1 + r * np.array([math.sin(psi1), -math.cos(psi1)])

    # a candidate: (length, first centre, first sweep, rest of the path)
    def outer(c0, c1, turn):  # LSL (turn=+1) / RSR (turn=-1)
        dv = c1 - c0
        dist = float(np.hypot(*dv))
        if dist < 1e-12:
            a1 = _mod2pi(turn * (psi1 - psi0))
            return (r * a1, c0, turn * a1, None)
        theta = math.atan2(dv[1], dv[0])
        a1 = _mod2pi(turn * (theta - psi0))
        a2 = _mod2pi(turn * (psi1 - theta))
        return (r * (a1 + a2) + dist, c0, turn * a1,
                (theta, dist, c1, turn * a2))

    def inner(c0, c1, turn):  # LSR (turn=+1) / RSL (turn=-1)
        dv = c1 - c0
        dist = float(np.hypot(*dv))
        if dist < 2.0 * r:
            return None
        theta = math.atan2(dv[1], dv[0]) + turn * math.asin(2.0 * r / dist)
        straight = math.sqrt(dist ** 2 - 4.0 * r ** 2)
        a1 = _mod2pi(turn * (theta - psi0))
        a2 = _mod2pi(-turn * (psi1 - theta))
        return (r * (a1 + a2) + straight, c0, turn * a1,
                (theta, straight, c1, -turn * a2))

    candidates = [c for c in (outer(left0, left1, 1.0),
                              outer(right0, right1, -1.0),
                              inner(left0, right1, 1.0),
                              inner(right0, left1, -1.0)) if c is not None]
    if not candidates:
        raise ValueError("no feasible turn between legs")
    total, c0, sweep1, rest = min(candidates, key=lambda c: c[0])

    segs: list = []
    a0 = math.atan2(p0[1] - c0[1], p0[0] - c0[0])
    if abs(sweep1) > 1e-12:
        segs.append(_Arc(c0, r, a0, sweep1))
    if rest is not None:
        theta, dist, c1, sweep2 = rest
        # entry point of the second arc: end of the straight
        end1 = c0 + r * np.array([math.cos(a0 + sweep1), math.sin(a0 + sweep1)])
        start2 = end1 + dist * np.array([math.cos(theta), math.sin(theta)])
        if dist > 1e-12:
            segs.append(_Straight(end1, start2))
        if abs(sweep2) > 1e-12:
            a02 = math.atan2(start2[1] - c1[1], start2[0] - c1[0])
            segs.append(_Arc(c1, r, a02, sweep2))
    return segs


# ---------------------------------------------------------------------------
# pendulum dynamics


class _Swing:
    """The RK4 recurrence of theta'' = -2 zeta w theta' - w^2 theta - a(t)/L,
    run one block of steps at a time.

    For this linear ODE one fixed RK4 step is exactly the linear map
    x[n+1] = M x[n] + b0 a[n] + bh a_half[n] + b1 a[n+1] on the state
    x = (theta, theta_dot). M, b0, bh and b1 are read off by applying the
    RK4 step formulas below to the five unit inputs, so the scheme is the
    same RK4 scheme step for step, not an exact exponential. With the
    initial state as the input at n = 0, Cayley-Hamilton turns the
    recurrence into one 2nd-order IIR filter on theta with denominator
    [1, -tr M, det M] and input w[n] + (M - tr M I) w[n-1], where w[n] is
    what enters x[n]. It matches the per-step loop to rounding (about
    1e-12 relative).

    _iir2 runs that filter on each column in a Python float loop that
    repeats the rounding of scipy.signal.lfilter([1], [1, -tr M, det M],
    u, axis=0) step for step, so theta is bit-identical to lfilter's,
    signed zeros included, and no scipy module is loaded. On a 2-core VM
    the loop takes about 0.1 s at survey_large size (267k steps x 2
    axes), against 0.005 s in lfilter's C loop plus 1.3 s and 69 MB to
    import scipy.signal.

    feed() takes the forcing of the next steps and returns their theta.
    Across a block edge each axis carries what the next step reads of the
    last one: its forcing a[n], its shifted input row w[1] and the
    filter's two-value state. So the blocks give, bit for bit, the theta
    of one run over all steps.
    """

    def __init__(self, dt: float, omega: float, zeta: float, length: float,
                 theta0: float = 0.0, rate0: float = 0.0):
        c1, c2 = 2.0 * zeta * omega, omega * omega
        # rows of the identity: unit theta, theta_dot, a[n], a_half[n], a[n+1]
        t0, w0, a0, ah, a1 = np.eye(5)
        k1t, k1w = w0, -c1 * w0 - c2 * t0 - a0 / length
        k2t = w0 + 0.5 * dt * k1w
        k2w = -c1 * k2t - c2 * (t0 + 0.5 * dt * k1t) - ah / length
        k3t = w0 + 0.5 * dt * k2w
        k3w = -c1 * k3t - c2 * (t0 + 0.5 * dt * k2t) - ah / length
        k4t = w0 + dt * k3w
        k4w = -c1 * k4t - c2 * (t0 + dt * k3t) - a1 / length
        step = np.stack([t0 + dt / 6.0 * (k1t + 2 * k2t + 2 * k3t + k4t),
                         w0 + dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)])
        self._m, self._b0, self._bh, self._b1 = (
            step[:, :2], step[:, 2], step[:, 3], step[:, 4])
        m = self._m
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        self._a1, self._a2 = float(-tr), float(det)
        self._start = (theta0, rate0)
        # per axis (a[n], w[1, n], filter state) at the last step fed
        self._carry: list | None = None

    def feed(self, acc: np.ndarray, acc_half: np.ndarray) -> np.ndarray:
        """theta, (steps, axes), of the next len(acc) steps.

        `acc` is the forcing at those steps, time along axis 0. The first
        feed starts at step 0, the initial state, so its `acc_half` holds
        one midpoint fewer; a later feed's holds the midpoint before each
        of its steps.
        """
        m, b0, bh, b1 = self._m, self._b0, self._bh, self._b1
        n = len(acc)
        forcing = acc.reshape(n, -1)
        forcing_half = acc_half.reshape(len(acc_half), forcing.shape[1])
        first = self._carry is None
        if first:
            self._carry = [(None, None, (0.0, 0.0))] * forcing.shape[1]
        # w[:, 0] is the last step fed before these, or step 0 on the first
        # feed; w[:, s] is what enters (theta, theta_dot) at step s
        lo = 0 if first else 1
        theta = np.empty(forcing.shape)
        w = np.empty((2, n + lo))
        for j in range(forcing.shape[1]):
            f, fh = forcing[:, j], forcing_half[:, j]
            last, w1, state = self._carry[j]
            if first:
                w[0, 0], w[1, 0] = self._start
            else:
                f = np.concatenate(([last], f))
                w[1, 0] = w1
            # b0 a[n] + bh a_half[n] + b1 a[n+1], summed in place in that order
            for i in range(2):
                np.multiply(b0[i], f[:-1], out=w[i, 1:])
                w[i, 1:] += bh[i] * fh
                w[i, 1:] += b1[i] * f[1:]
            # the filter input w[0] + (M - tr M I) w shifted by one step,
            # whose first row is (-M[1, 1], M[0, 1]), built in w's own rows
            w[1, lo:] *= m[0, 1]
            w[1, lo:] -= m[1, 1] * w[0, lo:]
            w[0, 1:] += w[1, :-1]
            # a memoryview hands out one Python float at a time, cheaper
            # than a list of them all
            theta[:, j], state = _iir2(memoryview(w[0, lo:]), self._a1,
                                       self._a2, state)
            self._carry[j] = (f[-1], w[1, -1], state)
        return theta


def _iir2(u: memoryview, a1: float, a2: float, zi) -> tuple[np.ndarray, tuple]:
    """y[n] = u[n] - a1 y[n-1] - a2 y[n-2] from the state `zi`, as
    lfilter([1], [1, a1, a2], u, zi=zi) runs it; returns y and the final
    state, lfilter's zf. (0.0, 0.0) is rest.

    lfilter's direct form II transposed step for b = [1, 0, 0] and
    a = [1, a1, a2] is y = z0 + b0 x; z0 = z1 + b1 x - a1 y;
    z1 = b2 x - a2 y. This is that step with the products by b0 = 1, b1 = 0
    and b2 = 0 left out, which for finite x can only flip the sign of a
    zero state. No such sign reaches y while a1 <= -1 (here a1 = -tr M,
    about -2): y * a1 is then zero only for y = +0, so z0 = ... - y * a1
    is +0 whenever it is zero and y = z0 + x is never -0, in lfilter as
    here.
    """
    out = np.empty(len(u))
    # stored through a memoryview, one float at a time: a list of them all
    # would hold a Python float object per step
    put = memoryview(out)
    z, w = zi
    for i, x in enumerate(u):
        y = z + x
        put[i] = y
        z = w - y * a1
        w = 0.0 - y * a2
    return out, (z, w)


# ---------------------------------------------------------------------------
# simulator configuration


@dataclass(frozen=True)
class SimConfig(_DictCodec):
    """Everything the survey simulator needs besides plan and geometry.

    damping_ratio is the bare pendulum value; the intermediate platform
    multiplies it by platform_damping_boost (and zeroes the yaw lag).
    EMI at the payload follows a1 * r^-p of the cable length, so default
    geometry puts 145.8 * 9^-3 = 0.2 nT of buzz on the magnetometer.
    """

    speed: float = ranged(8.0, 0, 100)                 # m/s; 0 = hover
    line_spacing: float = ranged(50.0, 1, 100_000)     # m, for default_plan
    survey_altitude: float = ranged(40.0, 0, 10_000)   # m AGL
    damping_ratio: float = ranged(0.30, 0, 0.99, above=True)
    noise_floor: float = ranged(0.2, 0, 1000)          # nT, ambient white band
    outphase_noise_pct: float = ranged(4.0, 0, 100)    # straight-segment VLF
    seed: int = ranged(20240601, 0)

    sim_rate_hz: float = ranged(100.0, 1, 10_000)
    sensor_rate_hz: float = ranged(10.0, 0.1, 1000)
    lead_in_m: float = ranged(60.0, 0, 100_000)
    lead_out_m: float = ranged(40.0, 0, 100_000)
    turn_radius_m: float | None = ranged(None, 1, 100_000)  # None: spacing / 2
    hover_duration_s: float = ranged(60.0, 0, 86_400, above=True)

    platform_damping_boost: float = ranged(1.5, 1, 100)
    yaw_lag_s: float = ranged(1.0, 0, 60)
    yaw_lag_cap_deg: float = ranged(10.0, 0, 180)
    wobble_roll_deg: float = ranged(2.0, 0, 45)  # bounded attitude jitter
    wobble_pitch_deg: float = ranged(1.5, 0, 45)

    emi_a1: float = ranged(145.8, 0, 1e6)              # nT at 1 m
    emi_exponent: float = ranged(3.0, 0, 10)

    base_datum_nt: float = ranged(54000.0, 0, 100_000)
    diurnal_amp_nt: float = ranged(6.0, 0, 1000)
    diurnal_period_s: float = ranged(1800.0, 1, 1e7)
    regional_base_nt: float = ranged(54200.0, 0, 100_000)
    regional_gradient: tuple[float, float] = ranged(   # nT/m east,north
        (0.03, 0.06), -1000, 1000)
    # (dx, dy, amplitude nT, sigma m) Gaussian anomalies, plan-origin relative
    anomalies: tuple[tuple[float, float, float, float], ...] = ranged((
        (40.0, 180.0, 12.0, 60.0),
        (110.0, 330.0, -10.0, 80.0),
        (75.0, 255.0, 8.0, 50.0),
    ), -1e6, 1e6)

    swing_noise_gain: float = ranged(0.4, 0, 100)  # VLF pct per swing degree
    pt_base_nt: float = ranged(35.0, 0, 100_000)
    k_base_pct: float = ranged(2.5, 0, 100)
    k_gradient: tuple[float, float] = ranged((4e-4, 3e-4), -1, 1)  # pct/m
    k_noise_pct: float = ranged(0.02, 0, 100)
    u_base_ppm: float = ranged(2.9, 0, 1e6)
    u_gradient: tuple[float, float] = ranged((-3e-4, 5e-4), -1, 1)  # ppm/m
    u_noise_ppm: float = ranged(0.03, 0, 1e6)
    n_channels: int = ranged(32, 1, 1024)
    spectrum_scale: float = ranged(40.0, 0, 1e6)  # counts / unit concentration

    def __post_init__(self):
        super().__post_init__()
        step = self.sim_rate_hz / self.sensor_rate_hz
        if abs(step - round(step)) > 1e-9 or round(step) < 1:
            raise ValueError("sim_rate_hz must be an integer multiple of sensor_rate_hz")
        if any(not sigma >= 1 for *_, sigma in self.anomalies):
            raise ValueError("anomalies: every sigma must be >= 1 m")
        if self.turn_radius_m is not None:
            # config hashes are taken over to_dict, so 30 and 30.0 must agree
            object.__setattr__(self, "turn_radius_m", float(self.turn_radius_m))

    def effective_damping(self, geometry: SuspensionGeometry) -> float:
        if geometry.intermediate_platform:
            return min(0.95, self.damping_ratio * self.platform_damping_boost)
        return self.damping_ratio

    def emi_amplitude(self, geometry: SuspensionGeometry) -> float:
        """Platform EMI at the payload, nT: emi_a1 * r^-emi_exponent at the
        cable length r."""
        return self.emi_a1 * geometry.cable_length ** (-self.emi_exponent)


def default_plan(cfg: SimConfig) -> FlightPlan:
    return FlightPlan(spacing_m=float(cfg.line_spacing),
                      altitude_m=float(cfg.survey_altitude))


def regional_field(cfg: SimConfig, easting: np.ndarray, northing: np.ndarray,
                   origin: tuple[float, float]) -> np.ndarray:
    """Smooth crustal TMI: linear ramp plus fixed Gaussian anomalies, nT."""
    dx = np.asarray(easting, dtype=float) - origin[0]
    dy = np.asarray(northing, dtype=float) - origin[1]
    gx, gy = cfg.regional_gradient
    out = cfg.regional_base_nt + gx * dx + gy * dy
    for ax, ay, amp, sigma in cfg.anomalies:
        out = out + amp * np.exp(-((dx - ax) ** 2 + (dy - ay) ** 2)
                                 / (2.0 * sigma ** 2))
    return out


def diurnal_variation(cfg: SimConfig, t: np.ndarray) -> np.ndarray:
    """Slow geomagnetic drift shared by base and rover, nT."""
    w = 2.0 * math.pi / cfg.diurnal_period_s
    return cfg.diurnal_amp_nt * np.sin(w * np.asarray(t, dtype=float) + 0.7) \
        + 0.3 * cfg.diurnal_amp_nt * np.sin(0.37 * w * t + 2.1)


# ---------------------------------------------------------------------------
# attitude track


@dataclass(frozen=True)
class AttitudeTrack:
    """Payload attitude and position at the simulation rate."""

    t: np.ndarray
    roll_deg: np.ndarray
    pitch_deg: np.ndarray
    heading_deg: np.ndarray
    swing_deg: np.ndarray
    easting_m: np.ndarray
    northing_m: np.ndarray
    # each step's path segment label as the pair (codes, texts) write_table
    # takes: texts[codes[i]] is step i's
    segment: tuple
    speed_mps: float | None = None

    def __len__(self) -> int:
        return len(self.t)


ATTITUDE_COLUMNS = ("t_s", "roll_deg", "pitch_deg", "heading_deg",
                    "swing_deg", "easting_m", "northing_m", "segment")


def _attitude_columns(track: AttitudeTrack) -> list:
    """The columns of ATTITUDE_COLUMNS: seven float arrays and the segment."""
    numeric = (track.t, track.roll_deg, track.pitch_deg, track.heading_deg,
               track.swing_deg, track.easting_m, track.northing_m)
    return [np.asarray(c, dtype=float) for c in numeric] + [track.segment]


def _write_attitude(path, blocks) -> None:
    """The attitude table at `path`, each AttitudeTrack of `blocks`
    appended as it comes, so a track flown a chunk at a time is never
    held whole."""
    with open(path, "wb") as fh:
        head = [ATTITUDE_COLUMNS]
        for block in blocks:
            write_table(fh, head, _attitude_columns(block))
            head = []


# ---------------------------------------------------------------------------
# survey simulation


@dataclass(frozen=True)
class SimResult:
    """Synthetic survey: payload attitude plus all sensor traces.

    Full traces run gate to gate (turns included), each sample stored
    once. `lines` holds (line id, role, sensor rows) of each flight and
    tie line, so line_series(full, result.lines) gives the on-line
    samples of a trace, one SurveyLine per line.
    """

    attitude: AttitudeTrack
    mag_full: TimeSeries
    vlf_full: TimeSeries
    rad_full: TimeSeries
    base: TimeSeries
    plan: FlightPlan
    geometry: SuspensionGeometry
    cfg: SimConfig
    lines: tuple[tuple[str, LineRole, np.ndarray], ...]

    @property
    def effective_damping_ratio(self) -> float:
        return self.cfg.effective_damping(self.geometry)


def _build_path(plan: FlightPlan, cfg: SimConfig):
    """Flown segment list [(segment, label, block)] in lawnmower order."""
    radius = cfg.turn_radius_m if cfg.turn_radius_m is not None \
        else plan.spacing_m / 2.0
    flown = []
    fi = 0
    for lid, role, start, end in plan.legs():
        if role is LineRole.FLIGHT:
            if fi % 2 == 1:
                start, end = end, start
            fi += 1
        flown.append((lid, np.asarray(start, float), np.asarray(end, float)))

    segs: list[tuple[object, str, int]] = []
    pose_pos = pose_psi = None
    for block, (lid, start, end) in enumerate(flown):
        d = end - start
        leg_len = float(np.hypot(*d))
        u = d / leg_len
        psi = math.atan2(u[1], u[0])
        ext0 = start - cfg.lead_in_m * u
        ext1 = end + cfg.lead_out_m * u
        if pose_pos is not None:
            for s in _dubins_csc(pose_pos, pose_psi, ext0, psi, radius):
                segs.append((s, "turn", block))
        if cfg.lead_in_m > 0:
            segs.append((_Straight(ext0, start), "transit", block))
        segs.append((_Straight(start, end), lid, block))
        if cfg.lead_out_m > 0:
            segs.append((_Straight(end, ext1), "transit", block))
        pose_pos, pose_psi = ext1, psi
    return segs


def _segment_spans(cum: np.ndarray, s: np.ndarray):
    """(i, lo, hi, offsets) per path segment that holds samples of `s`:
    s[lo:hi] lie on segment i, at `offsets` from its start offset cum[i].

    `s` must be non-decreasing (offsets of increasing times), so the
    samples of each segment form one contiguous slice.
    """
    m = len(cum) - 1
    s = np.clip(s, 0.0, cum[-1] - 1e-9)
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, m - 1)
    bounds = np.searchsorted(idx, np.arange(m + 1)).tolist()
    for i in range(m):
        lo, hi = bounds[i], bounds[i + 1]
        if lo < hi:
            yield i, lo, hi, s[lo:hi] - cum[i]


def _sample_path(segs, cum: np.ndarray, s: np.ndarray, v: float):
    """Evaluate position/course/accel at path offsets `s`."""
    n = len(s)
    pos = np.empty((n, 2))
    course = np.empty(n)
    acc = np.empty((n, 2))
    for i, lo, hi, offsets in _segment_spans(cum, s):
        pos[lo:hi], course[lo:hi], acc[lo:hi] = segs[i][0].sample(offsets, v)
    return pos, course, acc


def _wobble(phases: np.ndarray, t: np.ndarray, amp: float) -> np.ndarray:
    """Bounded multi-tone attitude jitter, |w| <= amp by construction."""
    freqs = (0.073, 0.19, 0.412)
    weights = (0.5, 0.3, 0.2)
    out = np.zeros_like(t)
    for f, w, ph in zip(freqs, weights, phases):
        out += amp * w * np.sin(2.0 * math.pi * f * t + ph)
    return out


def _spectral_profiles(n_channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit K and U window shapes over the channel axis."""
    ch = np.arange(n_channels, dtype=float)
    c = float(n_channels)
    cont = np.exp(-ch / (0.30 * c))
    prof_k = np.exp(-((ch - 0.85 * c) ** 2) / (2.0 * (0.06 * c) ** 2)) + 0.4 * cont
    prof_u = np.exp(-((ch - 0.60 * c) ** 2) / (2.0 * (0.08 * c) ** 2)) + 0.5 * cont
    return prof_k, prof_u


def _refuse_steps(steps: float, fields: str) -> None:
    if steps > _MAX_SIM_STEPS:
        raise ValueError(f"{fields} gives {steps:.4g} simulator steps, more "
                         f"than _MAX_SIM_STEPS ({_MAX_SIM_STEPS})")


def _segment_starts(cum, n: int, v: float, dt: float) -> list[int]:
    """The first step of each path segment, as _segment_spans places step
    i at path offset v * (i * dt), clipped into the path: the first whose
    offset reaches the segment's start cum[i] (n when none does)."""
    top = cum[-1] - 1e-9

    def offset(i: int) -> float:
        return min(max(v * (i * dt), 0.0), top)

    return [bisect_left(range(n), c, key=offset) for c in cum[:-1].tolist()]


# the sensor records' columns after t_s: io_csv's schemas, in their order
_MAG_FIELDS, _VLF_FIELDS, _RAD_FIELDS, _BASE_FIELDS = (
    _REQUIRED[kind][1:] for kind in (SchemaKind.MAG, SchemaKind.VLF,
                                     SchemaKind.RAD, SchemaKind.BASE))


class _Flight:
    """A survey flown a chunk of steps at a time: the one simulator.

    A block is one plan leg with the turn and transits leading into it (a
    hover is one block); each draws its sensor noise from its own
    substream, default_rng((seed, 100 + block)), once the block is flown.
    Blocks are flown in chunks of at most _CHUNK_STEPS steps: the transit
    into the first tie line grows with the survey's width. blocks() yields
    each chunk's AttitudeTrack at sim_rate_hz and fills its rows of the
    sensor records at sensor_rate_hz, allocated here (at most
    _MAX_SIM_CELLS cells), for the step count is known before flying. So
    is each path segment's step span, from the path's offset table `_cum`
    that every path sample is placed by, and from it the `lines`: (line
    id, role, sensor rows) of each plan leg with at least 2 sensor samples
    on its segment, in plan.legs() order. A chunk's segment is coded: the
    indices of its steps' path segments, filled a span at a time, and
    `texts`, each path segment's label. Once blocks() is exhausted,
    mag_full, vlf_full, rad_full and base hold the sensor streams, as a
    SimResult's do, adopting the records uncopied, and straight_peaks the
    largest |roll| and |pitch| on the survey and tie lines' segments, one
    row per chunk that has steps there (none for a hover).

    Each value is the one a single pass over all steps gives, bit for
    bit: each step's path sample, wobble and sensor value is worked out
    element by element, the wobble phases are drawn up front, and each
    chunk edge carries the swing recurrence's state (_Swing), the last
    course with the running sum of np.unwrap's phase corrections and,
    with a yaw lag of k steps, the last k unlagged headings.
    """

    def __init__(self, plan: FlightPlan | None = None,
                 geometry: SuspensionGeometry | None = None,
                 cfg: SimConfig | None = None):
        cfg = self.cfg = cfg or SimConfig()
        plan = self.plan = plan or default_plan(cfg)
        geometry = self.geometry = geometry or SuspensionGeometry()
        dt = 1.0 / cfg.sim_rate_hz
        # the sensor samples are steps 0, step, 2 step, ...
        step = self._step = int(round(cfg.sim_rate_hz / cfg.sensor_rate_hz))
        if cfg.speed == 0.0:
            n = int(round(cfg.hover_duration_s * cfg.sim_rate_hz)) + 1
            _refuse_steps(n, "hover_duration_s x sim_rate_hz")
            self._segs, self.texts, self.lines = None, ("hover",), ()
            first, starts, legs = [0], [0], [(0, 0)]
        else:
            segs = self._segs = _build_path(plan, cfg)
            # the path's offset table: each segment's start, then the length
            cum = self._cum = np.concatenate(
                [[0.0], np.cumsum([sg.length for sg, _, _ in segs])])
            duration = float(cum[-1]) / cfg.speed
            _refuse_steps(duration * cfg.sim_rate_hz, "path / speed x sim_rate_hz")
            n = int(math.floor(duration * cfg.sim_rate_hz)) + 1
            first = _segment_starts(cum, n, cfg.speed, dt)
            self.texts = tuple(label for _, label, _ in segs)
            roles = {lid: role for lid, role, _, _ in plan.legs()}
            # each block's first step, and the step span of its one leg
            starts, legs, lines = [], [], []
            for (_, label, blk), lo, hi in zip(segs, first, first[1:] + [n]):
                if blk == len(starts):   # the block's first segment
                    starts.append(lo)
                if label in roles:
                    legs.append((lo, hi))
                    k0, k1 = -(-lo // step), -(-hi // step)
                    if k1 - k0 >= 2:
                        lines.append((label, roles[label], np.arange(k0, k1)))
            self.lines = tuple(lines)
        self.n_steps = n
        self._edges = np.array(first + [n])
        self._spans = list(zip(starts, starts[1:] + [n]))
        self._legs = legs
        rng0 = np.random.default_rng((cfg.seed, 0))
        self._phases = [rng0.uniform(0.0, 2.0 * math.pi, size=3)
                        for _ in ("roll", "pitch")]
        # what a chunk edge carries
        length = geometry.cable_length
        self._swing = _Swing(dt, math.sqrt(G / length),
                             cfg.effective_damping(geometry), length)
        self._course = self._correction = self._lagged = None
        self._lag = 0
        if not (geometry.intermediate_platform or cfg.yaw_lag_s == 0.0):
            self._lag = min(n, max(1, int(round(cfg.yaw_lag_s
                                                * cfg.sim_rate_hz))))
        ns = len(range(0, n, step))
        width = 1 + len(_MAG_FIELDS) + len(_VLF_FIELDS) + len(_RAD_FIELDS) \
            + cfg.n_channels
        if ns * width > _MAX_SIM_CELLS:
            raise ValueError(
                f"sensor_rate_hz, sim_rate_hz and n_channels give {ns} x "
                f"{width} sensor record cells, more than _MAX_SIM_CELLS "
                f"({_MAX_SIM_CELLS})")
        self._ts = np.empty(ns)
        self._mag = np.empty((ns, len(_MAG_FIELDS)))
        self._vlf = np.empty((ns, len(_VLF_FIELDS)))
        self._rad = np.empty((ns, len(_RAD_FIELDS) + cfg.n_channels))
        self._peaks: list[tuple[float, float]] = []

    def blocks(self):
        """Fly the survey: yield each chunk's AttitudeTrack in turn."""
        step = self._step
        for blk, ((lo, hi), leg) in enumerate(zip(self._spans, self._legs)):
            # the block's sensor rows, and its swing there for its noise
            k0, k1 = -(-lo // step), -(-hi // step)
            swing = np.empty(k1 - k0)
            for c0 in range(lo, hi, _CHUNK_STEPS):
                c1 = min(c0 + _CHUNK_STEPS, hi)
                track = self._fly(c0, c1)
                at, sw = self._decimate(track, c0)
                swing[at - k0:at - k0 + len(sw)] = sw
                # the chunk's steps on the block's leg
                on = slice(max(leg[0], c0) - c0, min(leg[1], c1) - c0)
                if on.start < on.stop:
                    self._peaks.append((np.max(np.abs(track.roll_deg[on])),
                                        np.max(np.abs(track.pitch_deg[on]))))
                yield track
                del track   # gone before the next chunk is flown
            if k1 > k0:
                self._noise(blk, k0, k1, swing)
        self._finish()

    def _fly(self, lo: int, hi: int) -> AttitudeTrack:
        """The payload attitude at steps [lo, hi), the next ones."""
        cfg, geometry = self.cfg, self.geometry
        length = geometry.cable_length
        t = np.arange(lo, hi) * (1.0 / cfg.sim_rate_hz)
        pos, course, theta = self._path(t, lo, hi)
        th_e, th_n = theta.T

        # project swing onto the track frame for recorded roll/pitch:
        # degrees(th_e tx + th_n ty) + wob_p and
        # degrees(th_e ty - th_n tx) + wob_r
        tx, ty = np.cos(course), np.sin(course)
        pitch = th_e * tx
        pitch += th_n * ty
        np.degrees(pitch, out=pitch)
        pitch += _wobble(self._phases[1], t, cfg.wobble_pitch_deg)
        roll = th_e * ty
        roll -= th_n * tx
        np.degrees(roll, out=roll)
        roll += _wobble(self._phases[0], t, cfg.wobble_roll_deg)
        del tx, ty
        swing = np.hypot(th_e, th_n)
        np.degrees(swing, out=swing)

        # payload position: cable tilt displaces sensors from the UAV
        # track, pos + length sin(th)
        pay_e = np.sin(th_e)
        pay_e *= length
        pay_e += pos[:, 0]
        pay_n = np.sin(th_n)
        pay_n *= length
        pay_n += pos[:, 1]
        del pos, theta, th_e, th_n

        # compass heading cw = 90 - degrees(np.unwrap(course)), the unwrap
        # continued from the last chunk's course
        path = course if self._course is None \
            else np.concatenate(([self._course], course))
        self._course = course[-1]
        dd = np.diff(path)
        fix = np.mod(dd + math.pi, 2.0 * math.pi) - math.pi
        np.copyto(fix, math.pi, where=(fix == -math.pi) & (dd > 0))
        fix -= dd
        np.copyto(fix, 0, where=abs(dd) < math.pi)
        del dd
        if self._correction is not None and len(fix):
            fix[0] += self._correction
        fix = np.cumsum(fix)
        if len(fix):
            self._correction = fix[-1]
        heading = np.array(course)
        heading[len(heading) - len(fix):] = path[1:] + fix
        del path, fix, course
        np.degrees(heading, out=heading)
        np.subtract(90.0, heading, out=heading)
        # the payload lags the UAV unless the platform locks it; a locked
        # heading adds no error: cw is never -0, so cw + 0 would be cw
        if self._lag:
            if self._lagged is None:
                self._lagged = np.full(self._lag, heading[0])
            held = np.concatenate([self._lagged, heading])
            self._lagged = held[-self._lag:].copy()
            err = held[:hi - lo] - heading
            del held
            np.clip(err, -cfg.yaw_lag_cap_deg, cfg.yaw_lag_cap_deg, out=err)
            heading += err
            del err
        np.mod(heading, 360.0, out=heading)
        # each path segment's index repeated over its steps in [lo, hi)
        codes = np.repeat(np.arange(len(self.texts)),
                          np.diff(np.clip(self._edges, lo, hi)))
        return AttitudeTrack(t, roll, pitch, heading, swing, pay_e, pay_n,
                             (codes, self.texts), cfg.speed)

    def _path(self, t: np.ndarray, lo: int, hi: int):
        """UAV position and course and swing (rad, one column per
        horizontal axis) at steps [lo, hi), times `t`."""
        cfg, plan = self.cfg, self.plan
        n = hi - lo
        if self._segs is None:  # hover: no swing forcing
            pos = np.tile(np.asarray(plan.origin_utm, dtype=float), (n, 1))
            course = np.full(n, math.radians(90.0 - plan.heading_deg))
            return pos, course, np.zeros((n, 2))
        dt = 1.0 / cfg.sim_rate_hz
        # the midpoint before each step, but for step 0
        mid = np.arange(max(lo - 1, 0), hi - 1) * dt + dt / 2.0
        segs, cum, v = self._segs, self._cum, cfg.speed
        acc_h = _sample_path(segs, cum, v * mid, v)[2]
        pos, course, acc = _sample_path(segs, cum, v * t, v)
        return pos, course, self._swing.feed(acc, acc_h)

    def _decimate(self, track: AttitudeTrack, lo: int
                  ) -> tuple[int, np.ndarray]:
        """Fill the sensor records' noise-free columns from the sensor
        samples of `track`, flown from step `lo`; returns the first one's
        row and their swing."""
        geometry = self.geometry
        # the first sensor sample at or after step lo, and its record row
        k0 = -(-lo // self._step)
        rows = slice(k0 * self._step - lo, None, self._step)
        ts = track.t[rows]
        k1 = k0 + len(ts)
        se, sn = track.easting_m[rows], track.northing_m[rows]
        swing = track.swing_deg[rows]
        # VLF sensor altitude: altitude - length cos(radians(min(swing, 89)))
        vlf_alt = np.minimum(swing, 89.0)
        np.radians(vlf_alt, out=vlf_alt)
        np.cos(vlf_alt, out=vlf_alt)
        vlf_alt *= geometry.cable_length
        np.subtract(self.plan.altitude_m, vlf_alt, out=vlf_alt)
        mag_alt = vlf_alt + geometry.payload_separation
        self._ts[k0:k1] = ts
        # columns in _REQUIRED's order: 0-2 the position, VLF 8-9 attitude
        for record, alt in ((self._mag, mag_alt), (self._vlf, vlf_alt),
                            (self._rad, mag_alt)):
            record[k0:k1, 0] = se
            record[k0:k1, 1] = sn
            record[k0:k1, 2] = alt
        self._vlf[k0:k1, 8] = track.roll_deg[rows]
        self._vlf[k0:k1, 9] = track.pitch_deg[rows]
        return k0, swing

    def _noise(self, blk: int, k0: int, k1: int, sw: np.ndarray) -> None:
        """Fill the sensor rows [k0, k1) of block `blk`, with swing `sw`
        there, from the block's noise substream."""
        cfg, geometry = self.cfg, self.geometry
        origin = tuple(self.plan.origin_utm)
        ns = k1 - k0
        se, sn = self._mag[k0:k1, 0], self._mag[k0:k1, 1]
        rng = np.random.default_rng((cfg.seed, 100 + blk))
        uni = lambda: rng.uniform(-1.0, 1.0, size=ns)  # noqa: E731
        # columns in _REQUIRED's order: mag 3 TMI, VLF 3-7 and rad 3-4
        mag_noise = cfg.emi_amplitude(geometry) * uni() + cfg.noise_floor * uni()
        self._mag[k0:k1, 3] = regional_field(cfg, se, sn, origin) \
            + diurnal_variation(cfg, self._ts[k0:k1]) + mag_noise
        del mag_noise
        # baseline scaled so the robust amplitude estimator (percentile span
        # of a median-detrended trace, which inflates white noise by ~10%)
        # reads just inside outphase_noise_pct on straight segments
        base_out = 0.85 * cfg.outphase_noise_pct
        vlf = self._vlf[k0:k1]
        vlf[:, 4] = base_out * uni() + cfg.swing_noise_gain * sw * uni()
        vlf[:, 3] = 0.6 * base_out * uni() \
            + 0.5 * cfg.swing_noise_gain * sw * uni()
        vlf[:, 5] = 1.5 * uni()
        vlf[:, 6] = 1.0 * uni()
        vlf[:, 7] = cfg.pt_base_nt + 1.0 * uni() + 0.1 * sw * uni()
        dx = se - origin[0]
        dy = sn - origin[1]
        rad = self._rad[k0:k1]
        # k_pct and u_ppm, then the gamma counts
        rad[:, 3] = np.maximum(0.0, np.maximum(
            0.0, cfg.k_base_pct + cfg.k_gradient[0] * dx
            + cfg.k_gradient[1] * dy) + cfg.k_noise_pct * uni())
        rad[:, 4] = np.maximum(0.0, np.maximum(
            0.0, cfg.u_base_ppm + cfg.u_gradient[0] * dx
            + cfg.u_gradient[1] * dy) + cfg.u_noise_ppm * uni())
        del dx, dy
        prof_k, prof_u = _spectral_profiles(cfg.n_channels)
        # a row's counts draw after the rows before it, so a few rows at a
        # time draw the numbers all of them at once would
        for r0 in range(0, ns, _COUNT_ROWS):
            r1 = min(r0 + _COUNT_ROWS, ns)
            rad[r0:r1, 5:] = rng.poisson(cfg.spectrum_scale * (
                np.outer(rad[r0:r1, 3], prof_k)
                + np.outer(rad[r0:r1, 4], prof_u)))

    def _finish(self) -> None:
        """The sensor streams, once every block is flown."""
        cfg, ts = self.cfg, self._ts
        self.rad_full = TimeSeries._adopt(ts, self._rad, _RAD_FIELDS + tuple(
            f"ch{j}" for j in range(cfg.n_channels)))
        self.mag_full = TimeSeries._adopt(ts, self._mag, _MAG_FIELDS)
        self.vlf_full = TimeSeries._adopt(ts, self._vlf, _VLF_FIELDS)
        # base station covers the rover window with a sample to spare each
        # side
        bt = np.arange(-1, len(ts) + 1) / cfg.sensor_rate_hz
        self.base = TimeSeries._adopt(
            bt, cfg.base_datum_nt + diurnal_variation(cfg, bt), _BASE_FIELDS)
        self.straight_peaks = np.reshape(self._peaks, (-1, 2))
        del self._ts, self._mag, self._vlf, self._rad, self._peaks


def simulate_survey(plan: FlightPlan | None = None,
                    geometry: SuspensionGeometry | None = None,
                    cfg: SimConfig | None = None) -> SimResult:
    """Fly the plan and synthesize every sensor stream.

    The pendulum is forced by the path's centripetal acceleration per
    horizontal axis and integrated with fixed-step RK4 at sim_rate_hz.
    Each axis goes through a 2nd-order IIR filter that runs the RK4 step
    as the linear recurrence it is for this ODE (see _Swing), so the swing
    matches a per-step RK4 loop to rounding. The filter is a Python float
    loop, bit-identical to scipy.signal.lfilter's, so the simulator loads
    no scipy module. Sensor streams are decimated to sensor_rate_hz; each
    line (with its approach and the turn leading into it) draws noise from
    its own seeded substream, so single lines are reproducible in
    isolation. speed == 0 is a stationary hover: zero swing forcing,
    baseline noise only.

    Memory: the survey is flown a chunk of steps at a time (_Flight), each
    chunk's attitude copied into the whole track, allocated up front, and
    its intermediates dropped; the sensor records are filled in place and
    adopted by the result's series. The pipeline and `sim survey` fly into
    the artifacts instead and never hold the track.
    """
    flight = _Flight(plan, geometry, cfg)
    track = np.empty((7, flight.n_steps))
    lo = 0
    for block in flight.blocks():
        hi = lo + len(block)
        for row, column in zip(track, _attitude_columns(block)[:7]):
            row[lo:hi] = column
        lo = hi
    # each path segment's index repeated over its steps
    codes = np.repeat(np.arange(len(flight.texts)), np.diff(flight._edges))
    cfg = flight.cfg
    return SimResult(AttitudeTrack(*track, (codes, flight.texts), cfg.speed),
                     flight.mag_full, flight.vlf_full, flight.rad_full,
                     flight.base, flight.plan, flight.geometry, cfg,
                     flight.lines)


def line_series(series: TimeSeries, lines) -> tuple[SurveyLine, ...]:
    """One SurveyLine per (line id, role, rows) of `lines`, each holding a
    copy of its rows of `series`."""
    return tuple(SurveyLine(lid, role, TimeSeries(
        series.t[rows], series.values[rows], series.fields))
        for lid, role, rows in lines)


# ---------------------------------------------------------------------------
# settling metrics


@dataclass(frozen=True)
class SettlingMetrics:
    """Post-turn swing decay summary for a simulated or logged flight."""

    n_turns: int
    settling_time_s: float        # worst turn
    mean_settling_time_s: float
    lead_in_distance_m: float     # settling_time * speed
    threshold_deg: float


def settling_metrics(track: AttitudeTrack,
                     threshold_deg: float = 1.0) -> SettlingMetrics:
    """Per-turn time for |swing| to drop below threshold and stay there.

    Each settling window runs from the end of a turn run to the start of
    the next (or the track's end); if the swing still violates the
    threshold at the end of any window, or the track ends in a turn, the
    flight never settles and NeverSettlesError is raised. The lead-in
    distance is the worst time at the track's speed (0 when it has none).
    """
    check_range("threshold_deg", threshold_deg, 0, above=True)
    nt = len(track)
    # the turn runs are [edges[0], edges[1]), [edges[2], edges[3]), ...
    codes, texts = track.segment
    turn = np.isin(codes, [i for i, s in enumerate(texts) if s == "turn"])
    edges = np.flatnonzero(np.diff(turn, prepend=False,
                                   append=False)).tolist()
    # the last sample at or before each index whose swing breaks the threshold
    bad = np.abs(track.swing_deg) >= threshold_deg
    last_bad = np.maximum.accumulate(np.where(bad, np.arange(nt), -1))
    times: list[float] = []
    for lo, hi in zip(edges[1::2], edges[2::2] + [nt]):
        if lo == nt:
            raise NeverSettlesError("track ends inside a turn")
        last = int(last_bad[hi - 1])
        if last == hi - 1:
            raise NeverSettlesError(
                f"swing still >= {threshold_deg} deg at end of window after t="
                f"{track.t[lo - 1]:.1f}s")
        times.append(0.0 if last < lo
                     else float(track.t[last + 1] - track.t[lo - 1]))
    if not times:
        return SettlingMetrics(0, 0.0, 0.0, 0.0, threshold_deg)
    worst = max(times)
    return SettlingMetrics(len(times), worst, float(np.mean(times)),
                           worst * (track.speed_mps or 0.0), threshold_deg)
