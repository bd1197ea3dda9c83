"""Four-point suspension geometry and the survey flight simulator.

The payload hangs from four cables anchored under the motors, with a
platform mount that keeps it level and heading-locked (a 4-bar linkage in
each vertical plane). Quasi-statics are solved exactly; in-flight swing is
a damped planar pendulum per horizontal axis, forced by turn accelerations
along a lawnmower flight path. The simulator is the package's synthetic
data source: it emits attitude, magnetometer, VLF and radiometric traces
with turn-point swing noise and platform EMI contamination, fully
deterministic under a fixed seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter

from .core import (
    LineRole,
    SurveyLine,
    TimeSeries,
    config_from_dict,
    config_to_dict,
)
from .errors import (
    DegeneratePlanError,
    NeverSettlesError,
    SlackCableError,
    TooShortError,
)
from .io_csv import write_table

G = 9.80665  # m/s^2


# ---------------------------------------------------------------------------
# geometry and quasi-static pose


def _square_anchors(side: float) -> tuple[tuple[float, float, float], ...]:
    h = side / 2.0
    return ((h, h, 0.0), (-h, h, 0.0), (-h, -h, 0.0), (h, -h, 0.0))


@dataclass(frozen=True)
class SuspensionGeometry:
    """Cable suspension layout in the UAV body frame (x fwd, y left, z up).

    `platform_offsets` are the distances of the payload-mount attachment
    points from the payload center, one per anchor, taken along the
    anchor's horizontal direction; equal anchor and platform footprints
    give the classic parallel linkage.
    """

    motor_anchor_points: tuple[tuple[float, float, float], ...] = _square_anchors(1.0)
    cable_length: float = 9.0          # m
    platform_offsets: tuple[float, ...] = (0.7071067811865476,) * 4  # m
    intermediate_platform: bool = True
    payload_separation: float = 1.0    # magnetometer-to-VLF spacing, m

    def __post_init__(self):
        if len(self.motor_anchor_points) != 4 or len(self.platform_offsets) != 4:
            raise ValueError("exactly 4 anchors and 4 platform offsets required")
        if self.cable_length <= 0:
            raise ValueError("cable_length must be > 0")
        if self.payload_separation < 0:
            raise ValueError("payload_separation must be >= 0")

    def platform_points(self) -> np.ndarray:
        """Attachment points on the payload mount, payload frame, (4, 3)."""
        anchors = np.asarray(self.motor_anchor_points, dtype=float)
        pts = np.zeros((4, 3))
        for i, (a, r) in enumerate(zip(anchors, self.platform_offsets)):
            horiz = np.hypot(a[0], a[1])
            if horiz < 1e-12:
                raise ValueError("anchor directly above payload center")
            pts[i, 0] = a[0] / horiz * r
            pts[i, 1] = a[1] / horiz * r
        return pts

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SuspensionGeometry":
        return config_from_dict(cls, d)


@dataclass(frozen=True)
class PayloadPose:
    """Quasi-static payload pose relative to the UAV center (world ENU)."""

    offset: tuple[float, float, float]  # m, east/north/up
    roll: float      # deg, 0 by linkage
    pitch: float     # deg, 0 by linkage
    heading: float   # deg, locked to UAV heading

    @property
    def depth(self) -> float:
        return -self.offset[2]


def _rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def payload_pose(geometry: SuspensionGeometry, roll_deg: float,
                 pitch_deg: float, yaw_deg: float) -> PayloadPose:
    """Quasi-static payload pose for a given UAV attitude.

    The linkage keeps the payload level and heading-locked, so the only
    unknown is its position: the minimum-potential-energy point subject to
    each cable not exceeding its length,

        minimize z  s.t.  ||x - b_i|| <= cable_length,
        b_i = R_uav a_i - R_yaw p_i,

    a convex program. For fixed (x, y) the lowest feasible z is set by the
    tightest cable, z*(x, y) = max_i (b_iz - sqrt(L^2 - |xy - b_ixy|^2)),
    so the solve reduces to an unconstrained 2-D minimization of that
    piecewise-smooth function (Nelder-Mead; the constraint vertex where
    all four cables bind defeats gradient-based solvers). Tilt is limited
    to 45 degrees, beyond which the taut-cable assumption (and the linkage
    itself) stops being credible.
    """
    if max(abs(roll_deg), abs(pitch_deg)) >= 45.0:
        raise SlackCableError("tilt beyond taut-cable model validity (45 deg)")
    roll, pitch, yaw = (math.radians(a) for a in (roll_deg, pitch_deg, yaw_deg))
    r_uav = _rot_z(yaw) @ _rot_y(pitch) @ _rot_x(roll)
    r_yaw = _rot_z(yaw)
    anchors = np.asarray(geometry.motor_anchor_points, dtype=float)
    plat = geometry.platform_points()
    b = (r_uav @ anchors.T).T - (r_yaw @ plat.T).T   # (4, 3)
    length = geometry.cable_length
    bxy, bz = b[:, :2], b[:, 2]

    # all effective anchors coincide horizontally (parallel linkage at
    # matching footprints): payload hangs straight below, exactly
    if float(np.ptp(bxy, axis=0).max()) < 1e-12:
        x, y = bxy[0]
        z = float(bz.max()) - length
        return PayloadPose((float(x), float(y), z), 0.0, 0.0, yaw_deg)

    lsq = length * length

    def lowest_z(xy: np.ndarray) -> float:
        d2 = np.sum((bxy - xy) ** 2, axis=1)
        worst = float(d2.max())
        if worst >= lsq:
            return 1e6 + worst    # outside some cable's reach
        return float(np.max(bz - np.sqrt(lsq - d2)))

    # explicit simplex sized to the anchor spread: scipy's default builds
    # the start simplex by relative perturbation, which degenerates to a
    # line when a coordinate of the start point is ~0 and pins the search
    # there. Restart from the optimum with a fresh simplex until the
    # objective stops improving, curing premature simplex collapse.
    span = max(float(np.ptp(bxy, axis=0).max()), 1e-6)
    opts = {"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000}
    x0, best = bxy.mean(axis=0), None
    for _ in range(4):
        simplex = np.array([x0, x0 + (span, 0.0), x0 + (0.0, span)])
        res = minimize(lowest_z, x0, method="Nelder-Mead",
                       options={**opts, "initial_simplex": simplex})
        if best is not None and res.fun >= best.fun - 1e-13:
            break
        best, x0 = res, res.x
    if not best.success or best.fun > 1e5:
        raise SlackCableError(f"pose solve failed: {best.message}")
    x, y = best.x
    return PayloadPose((float(x), float(y), float(best.fun)), 0.0, 0.0, yaw_deg)


# ---------------------------------------------------------------------------
# flight plan and path construction


@dataclass(frozen=True)
class FlightPlan:
    """Lawnmower plan: parallel lines plus perpendicular tie lines.

    heading_deg is a compass course (0 = north, clockwise positive); lines
    are laid out to the right of the heading, spacing_m apart. Tie lines
    cross at evenly spaced fractions of the line length.
    """

    origin_utm: tuple[float, float] = (327400.0, 5030600.0)
    n_lines: int = 4
    line_length_m: float = 500.0
    spacing_m: float = 50.0
    heading_deg: float = 0.0
    altitude_m: float = 40.0
    tie_lines: int = 1

    def __post_init__(self):
        if self.n_lines < 1 or self.tie_lines < 0:
            raise DegeneratePlanError("plan needs >= 1 line")
        if self.line_length_m <= 0 or self.spacing_m <= 0:
            raise DegeneratePlanError("line length and spacing must be > 0")

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

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FlightPlan":
        return config_from_dict(cls, d)


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
        acc = np.zeros((len(s), 2))
        return pos, course, acc


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

    candidates = []

    def outer(c0, c1, turn):  # LSL (turn=+1) / RSR (turn=-1)
        dv = c1 - c0
        dist = float(np.hypot(*dv))
        if dist < 1e-12:
            a1 = _mod2pi(turn * (psi1 - psi0))
            return (r * a1, [(c0, psi0, turn * a1)], None)
        theta = math.atan2(dv[1], dv[0])
        a1 = _mod2pi(turn * (theta - psi0))
        a2 = _mod2pi(turn * (psi1 - theta))
        return (r * (a1 + a2) + dist,
                [(c0, psi0, turn * a1)], (theta, dist, c1, turn * a2))

    def inner(c0, c1, turn):  # LSR (turn=+1) / RSL (turn=-1)
        dv = c1 - c0
        dist = float(np.hypot(*dv))
        if dist < 2.0 * r:
            return None
        theta = math.atan2(dv[1], dv[0]) + turn * math.asin(2.0 * r / dist)
        straight = math.sqrt(dist ** 2 - 4.0 * r ** 2)
        a1 = _mod2pi(turn * (theta - psi0))
        a2 = _mod2pi(-turn * (psi1 - theta))
        return (r * (a1 + a2) + straight,
                [(c0, psi0, turn * a1)], (theta, straight, c1, -turn * a2))

    for cand in (outer(left0, left1, 1.0), outer(right0, right1, -1.0),
                 inner(left0, right1, 1.0), inner(right0, left1, -1.0)):
        if cand is not None:
            candidates.append(cand)
    if not candidates:
        raise DegeneratePlanError("no feasible turn between legs")
    total, first_arc, rest = min(candidates, key=lambda c: c[0])

    segs: list = []
    (c0, psi_in, sweep1) = first_arc[0]
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


@dataclass(frozen=True)
class PendulumState:
    """Snapshot of the suspended payload's swing state.

    heading_error is payload-minus-UAV heading; it is clipped to the
    configured yaw-lag cap (zero when the intermediate platform is
    fitted, which is what makes the heading lock exact).
    """

    swing_angle: float   # deg, along-track
    swing_rate: float    # deg/s
    roll: float          # deg
    pitch: float         # deg
    heading_error: float  # deg


def _integrate_pendulum(acc: np.ndarray, acc_half: np.ndarray, dt: float,
                        omega: float, zeta: float, length: float,
                        theta0: float = 0.0, rate0: float = 0.0) -> np.ndarray:
    """RK4 integration of theta'' = -2 zeta w theta' - w^2 theta - a(t)/L.

    `acc` holds the forcing at step times, `acc_half` at midpoints, with
    time along axis 0; further axes (such as the two horizontal axes) are
    integrated together. Returns theta in rad, shaped like `acc`.

    For this linear ODE one fixed RK4 step is exactly the linear map
    x[n+1] = M x[n] + b0 a[n] + bh a_half[n] + b1 a[n+1] on the state
    x = (theta, theta_dot). M, b0, bh and b1 are read off by applying the
    RK4 step formulas below to the five unit inputs, so the scheme is the
    same RK4 scheme step for step, not an exact exponential. With the
    initial state as the input at n = 0, Cayley-Hamilton turns the
    recurrence into one 2nd-order IIR filter on theta with denominator
    [1, -tr M, det M] and input w[n] + (M - tr M I) w[n-1], where w[n] is
    what enters x[n]; scipy.signal.lfilter runs it. It matches the
    per-step loop to rounding (about 1e-12 relative).
    """
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
    m, b0, bh, b1 = step[:, :2], step[:, 2], step[:, 3], step[:, 4]

    # w[:, n]: what enters (theta, theta_dot) at step n
    w = np.empty((2,) + acc.shape)
    w[0, 0], w[1, 0] = theta0, rate0
    w[:, 1:] = (np.multiply.outer(b0, acc[:-1]) + np.multiply.outer(bh, acc_half)
                + np.multiply.outer(b1, acc[1:]))
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    # first row of (M - tr M I) is (-M[1, 1], M[0, 1])
    u = w[0].copy()
    u[1:] += m[0, 1] * w[1, :-1] - m[1, 1] * w[0, :-1]
    return lfilter([1.0], [1.0, -tr, det], u, axis=0)


def pendulum_ring_down(theta0_deg: float, damping_ratio: float,
                       cable_length: float, duration_s: float,
                       rate_hz: float = 100.0) -> TimeSeries:
    """Free decay from an initial swing angle; scalar series in degrees."""
    n = int(round(duration_s * rate_hz)) + 1
    omega = math.sqrt(G / cable_length)
    th = _integrate_pendulum(np.zeros(n), np.zeros(n - 1), 1.0 / rate_hz,
                             omega, damping_ratio, cable_length,
                             theta0=math.radians(theta0_deg))
    t = np.arange(n) / rate_hz
    return TimeSeries(t, np.degrees(th), ("swing_deg",))


# ---------------------------------------------------------------------------
# simulator configuration


@dataclass(frozen=True)
class SimConfig:
    """Everything the survey simulator needs besides plan and geometry.

    damping_ratio is the bare pendulum value; the intermediate platform
    multiplies it by platform_damping_boost (and zeroes the yaw lag).
    EMI at the payload follows a1 * r^-p of the cable length, so default
    geometry puts 145.8 * 9^-3 = 0.2 nT of buzz on the magnetometer.
    """

    speed: float = 8.0                 # m/s; 0 = hover
    line_spacing: float = 50.0         # m, used by default_plan
    survey_altitude: float = 40.0      # m AGL
    damping_ratio: float = 0.30
    noise_floor: float = 0.2           # nT, ambient white band
    outphase_noise_pct: float = 4.0    # straight-segment VLF band
    seed: int = 20240601

    sim_rate_hz: float = 100.0
    sensor_rate_hz: float = 10.0
    lead_in_m: float = 60.0
    lead_out_m: float = 40.0
    turn_radius_m: float | None = None  # default: spacing / 2
    hover_duration_s: float = 60.0

    platform_damping_boost: float = 1.5
    yaw_lag_s: float = 1.0
    yaw_lag_cap_deg: float = 10.0
    wobble_roll_deg: float = 2.0       # bounded attitude jitter amplitude
    wobble_pitch_deg: float = 1.5

    emi_a1: float = 145.8              # nT at 1 m
    emi_exponent: float = 3.0

    base_datum_nt: float = 54000.0
    diurnal_amp_nt: float = 6.0
    diurnal_period_s: float = 1800.0
    regional_base_nt: float = 54200.0
    regional_gradient: tuple[float, float] = (0.03, 0.06)   # nT/m east,north
    # (dx, dy, amplitude nT, sigma m) Gaussian anomalies, plan-origin relative
    anomalies: tuple[tuple[float, float, float, float], ...] = (
        (40.0, 180.0, 12.0, 60.0),
        (110.0, 330.0, -10.0, 80.0),
        (75.0, 255.0, 8.0, 50.0),
    )

    swing_noise_gain: float = 0.4      # VLF pct per degree of swing
    pt_base_nt: float = 35.0
    k_base_pct: float = 2.5
    k_gradient: tuple[float, float] = (4e-4, 3e-4)
    k_noise_pct: float = 0.02
    u_base_ppm: float = 2.9
    u_gradient: tuple[float, float] = (-3e-4, 5e-4)
    u_noise_ppm: float = 0.03
    n_channels: int = 32
    spectrum_scale: float = 40.0       # counts per unit concentration

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError("speed must be >= 0")
        if self.sim_rate_hz <= 0 or self.sensor_rate_hz <= 0:
            raise ValueError("rates must be > 0")
        step = self.sim_rate_hz / self.sensor_rate_hz
        if abs(step - round(step)) > 1e-9 or round(step) < 1:
            raise ValueError("sim_rate_hz must be an integer multiple of sensor_rate_hz")
        if self.damping_ratio <= 0 or self.damping_ratio >= 1:
            raise ValueError("damping_ratio must be in (0, 1)")

    def effective_damping(self, geometry: SuspensionGeometry) -> float:
        if geometry.intermediate_platform:
            return min(0.95, self.damping_ratio * self.platform_damping_boost)
        return self.damping_ratio

    def to_dict(self) -> dict:
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        cfg = config_from_dict(cls, d)
        if cfg.turn_radius_m is None:
            return cfg
        # config hashes are taken over to_dict, so 30 and 30.0 must agree
        return replace(cfg, turn_radius_m=float(cfg.turn_radius_m))


def default_plan(cfg: SimConfig) -> FlightPlan:
    return FlightPlan(spacing_m=cfg.line_spacing, altitude_m=cfg.survey_altitude)


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
    segment: tuple[str, ...]
    speed_mps: float | None = None

    def __len__(self) -> int:
        return len(self.t)

    def straight_mask(self) -> np.ndarray:
        """True on survey/tie lines (settled flight), False on turns etc."""
        seg = np.asarray(self.segment)
        return ~np.isin(seg, ("turn", "transit"))


ATTITUDE_COLUMNS = ("t_s", "roll_deg", "pitch_deg", "heading_deg",
                    "swing_deg", "easting_m", "northing_m", "segment")


def write_attitude_csv(track: AttitudeTrack, path) -> None:
    numeric = (track.t, track.roll_deg, track.pitch_deg, track.heading_deg,
               track.swing_deg, track.easting_m, track.northing_m)
    write_table(path, [ATTITUDE_COLUMNS],
                [np.asarray(c, dtype=float) for c in numeric] + [track.segment])


def read_attitude_csv(path) -> AttitudeTrack:
    path = Path(path)
    cols = {name: [] for name in ATTITUDE_COLUMNS}
    with path.open(newline="") as fh:
        rd = csv.DictReader(fh)
        missing = set(ATTITUDE_COLUMNS) - set(rd.fieldnames or ())
        if missing:
            raise ValueError(f"attitude csv missing columns: {sorted(missing)}")
        for row in rd:
            for name in ATTITUDE_COLUMNS:
                cols[name].append(row[name])
    if not cols["t_s"]:
        raise TooShortError("attitude csv has no rows")
    arr = {k: np.array([float(v) for v in cols[k]])
           for k in ATTITUDE_COLUMNS[:-1]}
    return AttitudeTrack(arr["t_s"], arr["roll_deg"], arr["pitch_deg"],
                         arr["heading_deg"], arr["swing_deg"],
                         arr["easting_m"], arr["northing_m"],
                         tuple(cols["segment"]))


# ---------------------------------------------------------------------------
# survey simulation


@dataclass(frozen=True)
class SimResult:
    """Synthetic survey: payload attitude plus all sensor traces.

    Full traces run gate to gate (turns included); the per-line tuples
    carry only on-line samples, one SurveyLine per flight or tie line.
    """

    attitude: AttitudeTrack
    mag_lines: tuple[SurveyLine, ...]
    vlf_lines: tuple[SurveyLine, ...]
    rad_lines: tuple[SurveyLine, ...]
    mag_full: TimeSeries
    vlf_full: TimeSeries
    rad_full: TimeSeries
    base: TimeSeries
    plan: FlightPlan
    geometry: SuspensionGeometry
    cfg: SimConfig
    effective_damping_ratio: float
    segment_at_sensor: tuple[str, ...] = ()


def _build_path(plan: FlightPlan, cfg: SimConfig):
    """Flown segment list [(segment, label, block)] in lawnmower order."""
    radius = cfg.turn_radius_m if cfg.turn_radius_m is not None \
        else plan.spacing_m / 2.0
    if radius <= 0:
        raise DegeneratePlanError("turn radius must be > 0")
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


def _sample_path(segs, s: np.ndarray, v: float):
    """Evaluate position/course/accel/label/block at path offsets `s`.

    `s` must be non-decreasing (offsets of increasing times), so the
    samples of each segment form one contiguous slice.
    """
    lengths = np.array([sg.length for sg, _, _ in segs])
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    s = np.clip(s, 0.0, cum[-1] - 1e-9)
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(segs) - 1)
    bounds = np.searchsorted(idx, np.arange(len(segs) + 1)).tolist()
    n = len(s)
    pos = np.empty((n, 2))
    course = np.empty(n)
    acc = np.empty((n, 2))
    labels = np.empty(n, dtype=object)
    blocks = np.empty(n, dtype=int)
    for i, (sg, lab, blk) in enumerate(segs):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            continue
        p, c, a = sg.sample(s[lo:hi] - cum[i], v)
        pos[lo:hi] = p
        course[lo:hi] = c
        acc[lo:hi] = a
        labels[lo:hi] = lab
        blocks[lo:hi] = blk
    return pos, course, acc, labels, blocks, cum[-1]


def _wobble(rng: np.random.Generator, t: np.ndarray, amp: float) -> np.ndarray:
    """Bounded multi-tone attitude jitter, |w| <= amp by construction."""
    freqs = (0.073, 0.19, 0.412)
    weights = (0.5, 0.3, 0.2)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
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


def _fly(plan: FlightPlan, geometry: SuspensionGeometry, cfg: SimConfig,
         zeta: float) -> tuple[AttitudeTrack, np.ndarray, np.ndarray]:
    """Payload attitude at sim_rate_hz, with each step's block and VLF
    sensor altitude."""
    length = geometry.cable_length
    omega = math.sqrt(G / length)
    dt = 1.0 / cfg.sim_rate_hz
    origin = tuple(plan.origin_utm)

    if cfg.speed == 0.0:
        n = int(round(cfg.hover_duration_s * cfg.sim_rate_hz)) + 1
        t = np.arange(n) * dt
        pos = np.tile(np.asarray(origin), (n, 1))
        psi = math.radians(90.0 - plan.heading_deg)
        course = np.full(n, psi)
        th_e = np.zeros(n)
        th_n = np.zeros(n)
        labels = np.full(n, "hover", dtype=object)
        blocks = np.zeros(n, dtype=int)
    else:
        segs = _build_path(plan, cfg)
        lengths_total = sum(sg.length for sg, _, _ in segs)
        duration = lengths_total / cfg.speed
        n = int(math.floor(duration * cfg.sim_rate_hz)) + 1
        t = np.arange(n) * dt
        pos, course, acc, labels, blocks, _ = _sample_path(
            segs, cfg.speed * t, cfg.speed)
        _, _, acc_h, _, _, _ = _sample_path(
            segs, cfg.speed * (t[:-1] + dt / 2.0), cfg.speed)
        th_e, th_n = _integrate_pendulum(acc, acc_h, dt, omega, zeta,
                                         length).T

    rng0 = np.random.default_rng((cfg.seed, 0))
    wob_r = _wobble(rng0, t, cfg.wobble_roll_deg)
    wob_p = _wobble(rng0, t, cfg.wobble_pitch_deg)

    # project swing onto the track frame for recorded roll/pitch
    tx, ty = np.cos(course), np.sin(course)
    pitch = np.degrees(th_e * tx + th_n * ty) + wob_p
    roll = np.degrees(th_e * ty - th_n * tx) + wob_r
    swing = np.degrees(np.hypot(th_e, th_n))

    # compass heading; payload lags the UAV unless the platform locks it
    cw = 90.0 - np.degrees(np.unwrap(course))
    if geometry.intermediate_platform or cfg.yaw_lag_s == 0.0:
        err = np.zeros(n)
    else:
        k = max(1, int(round(cfg.yaw_lag_s * cfg.sim_rate_hz)))
        lagged = np.concatenate([np.full(k, cw[0]), cw[:-k]])
        err = np.clip(lagged - cw, -cfg.yaw_lag_cap_deg, cfg.yaw_lag_cap_deg)
    heading = np.mod(cw + err, 360.0)

    # payload position: cable tilt displaces sensors from the UAV track
    pay_e = pos[:, 0] + length * np.sin(th_e)
    pay_n = pos[:, 1] + length * np.sin(th_n)
    depth = length * np.cos(np.radians(np.minimum(swing, 89.0)))
    vlf_alt = plan.altitude_m - depth

    return (AttitudeTrack(t, roll, pitch, heading, swing, pay_e, pay_n,
                          tuple(labels.tolist()), cfg.speed), blocks, vlf_alt)


def simulate_survey(plan: FlightPlan | None = None,
                    geometry: SuspensionGeometry | None = None,
                    cfg: SimConfig | None = None) -> SimResult:
    """Fly the plan and synthesize every sensor stream.

    The pendulum is forced by the path's centripetal acceleration per
    horizontal axis and integrated with fixed-step RK4 at sim_rate_hz.
    Both axes go through one IIR filter call that runs the RK4 step as
    the linear recurrence it is for this ODE (see _integrate_pendulum),
    so the swing matches a per-step RK4 loop to rounding. Sensor streams
    are decimated to sensor_rate_hz; each line (with its approach and
    the turn leading into it) draws noise from its own seeded substream,
    so single lines are reproducible in isolation.
    speed == 0 is a stationary hover: zero swing forcing, baseline noise
    only.
    """
    cfg = cfg or SimConfig()
    plan = plan or default_plan(cfg)
    geometry = geometry or SuspensionGeometry()
    zeta = cfg.effective_damping(geometry)
    length = geometry.cable_length
    origin = tuple(plan.origin_utm)
    # the attitude-rate intermediates die inside _fly, before the sensor
    # streams are built
    attitude, blocks, vlf_alt = _fly(plan, geometry, cfg, zeta)

    # --- sensor streams at sensor_rate_hz -------------------------------
    step = int(round(cfg.sim_rate_hz / cfg.sensor_rate_hz))
    si = np.arange(0, len(attitude), step)
    ns = len(si)
    ts = attitude.t[si]
    se, sn = attitude.easting_m[si], attitude.northing_m[si]
    s_vlf_alt = vlf_alt[si]
    s_mag_alt = s_vlf_alt + geometry.payload_separation
    s_swing = attitude.swing_deg[si]
    s_roll, s_pitch = attitude.roll_deg[si], attitude.pitch_deg[si]
    s_block = blocks[si]
    s_label = tuple(attitude.segment[j] for j in si.tolist())

    emi_amp = cfg.emi_a1 * length ** (-cfg.emi_exponent)
    prof_k, prof_u = _spectral_profiles(cfg.n_channels)

    mag_noise = np.empty(ns)
    out_pct = np.empty(ns)
    in_pct = np.empty(ns)
    h1 = np.empty(ns)
    h2 = np.empty(ns)
    pt = np.empty(ns)
    k_pct = np.empty(ns)
    u_ppm = np.empty(ns)
    spectra = np.empty((ns, cfg.n_channels))

    dx = se - origin[0]
    dy = sn - origin[1]
    k_clean = np.maximum(0.0, cfg.k_base_pct + cfg.k_gradient[0] * dx
                         + cfg.k_gradient[1] * dy)
    u_clean = np.maximum(0.0, cfg.u_base_ppm + cfg.u_gradient[0] * dx
                         + cfg.u_gradient[1] * dy)
    # baseline scaled so the robust amplitude estimator (percentile span of
    # a median-detrended trace, which inflates white noise by ~10%) reads
    # just inside outphase_noise_pct on straight segments
    base_out = 0.85 * cfg.outphase_noise_pct

    for blk in np.unique(s_block):
        m = s_block == blk
        nb = int(m.sum())
        rng = np.random.default_rng((cfg.seed, 100 + int(blk)))
        uni = lambda: rng.uniform(-1.0, 1.0, size=nb)  # noqa: E731
        mag_noise[m] = emi_amp * uni() + cfg.noise_floor * uni()
        sw = s_swing[m]
        out_pct[m] = base_out * uni() + cfg.swing_noise_gain * sw * uni()
        in_pct[m] = 0.6 * base_out * uni() + 0.5 * cfg.swing_noise_gain * sw * uni()
        h1[m] = 1.5 * uni()
        h2[m] = 1.0 * uni()
        pt[m] = cfg.pt_base_nt + 1.0 * uni() + 0.1 * sw * uni()
        k_pct[m] = np.maximum(0.0, k_clean[m] + cfg.k_noise_pct * uni())
        u_ppm[m] = np.maximum(0.0, u_clean[m] + cfg.u_noise_ppm * uni())
        lam = cfg.spectrum_scale * (np.outer(k_pct[m], prof_k)
                                    + np.outer(u_ppm[m], prof_u))
        spectra[m] = rng.poisson(lam)

    tmi = regional_field(cfg, se, sn, origin) + diurnal_variation(cfg, ts) \
        + mag_noise

    mag_full = TimeSeries(ts, np.column_stack([se, sn, s_mag_alt, tmi]),
                          ("easting_m", "northing_m", "alt_m", "tmi_nT"))
    vlf_full = TimeSeries(
        ts, np.column_stack([se, sn, s_vlf_alt, in_pct, out_pct, h1, h2, pt,
                             s_roll, s_pitch]),
        ("easting_m", "northing_m", "alt_m", "inphase_pct", "outphase_pct",
         "h1_pct", "h2_pct", "pT_nT", "roll_deg", "pitch_deg"))
    rad_fields = ("easting_m", "northing_m", "alt_m", "k_pct", "u_ppm") + \
        tuple(f"ch{j}" for j in range(cfg.n_channels))
    rad_full = TimeSeries(ts, np.column_stack([se, sn, s_mag_alt, k_pct,
                                               u_ppm, spectra]), rad_fields)

    # base station covers the rover window with a sample to spare each side
    bt = np.arange(-1, ns + 1) / cfg.sensor_rate_hz
    base = TimeSeries(bt, cfg.base_datum_nt + diurnal_variation(cfg, bt),
                      ("tmi_nT",))

    # hover samples are labelled "hover" and match no leg
    return SimResult(attitude, split_lines(mag_full, s_label, plan),
                     split_lines(vlf_full, s_label, plan),
                     split_lines(rad_full, s_label, plan), mag_full, vlf_full,
                     rad_full, base, plan, geometry, cfg, zeta, s_label)


def split_lines(series: TimeSeries, labels, plan: FlightPlan
                ) -> tuple[SurveyLine, ...]:
    """One SurveyLine per plan leg, from a full trace and its segment labels.

    Samples belong to a leg when their label equals the leg id; legs with
    fewer than 2 samples are skipped. Lines keep plan.legs() order.
    """
    lab = np.asarray(labels)
    out = []
    for lid, role, _, _ in plan.legs():
        m = lab == lid
        if m.sum() >= 2:
            out.append(SurveyLine(lid, role, TimeSeries(
                series.t[m], series.values[m], series.fields)))
    return tuple(out)


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


def settling_metrics(track: AttitudeTrack, threshold_deg: float = 1.0,
                     speed_mps: float | None = None) -> SettlingMetrics:
    """Per-turn time for |swing| to drop below threshold and stay there.

    Each settling window runs from the end of a turn to the start of the
    next; if the swing still violates the threshold at the end of any
    window the flight never settles and NeverSettlesError is raised.
    """
    if threshold_deg <= 0:
        raise ValueError("threshold_deg must be > 0")
    speed = speed_mps if speed_mps is not None else (track.speed_mps or 0.0)
    seg = np.asarray(track.segment)
    turn = seg == "turn"
    nt = len(track)
    # indices where a turn block ends
    ends = [i for i in range(nt) if turn[i] and (i + 1 == nt or not turn[i + 1])]
    times: list[float] = []
    for e in ends:
        if e + 1 >= nt:
            raise NeverSettlesError("track ends inside a turn")
        nxt = e + 1
        while nxt < nt and not turn[nxt]:
            nxt += 1
        win = np.abs(track.swing_deg[e + 1:nxt])
        if len(win) == 0:
            raise NeverSettlesError("no samples after turn")
        bad = np.nonzero(win >= threshold_deg)[0]
        if len(bad) == 0:
            times.append(0.0)
            continue
        last = int(bad[-1])
        if last == len(win) - 1:
            raise NeverSettlesError(
                f"swing still >= {threshold_deg} deg at end of window after t="
                f"{track.t[e]:.1f}s")
        times.append(float(track.t[e + 1 + last + 1] - track.t[e]))
    if not times:
        return SettlingMetrics(0, 0.0, 0.0, 0.0, threshold_deg)
    worst = max(times)
    return SettlingMetrics(len(times), worst, float(np.mean(times)),
                           worst * speed, threshold_deg)
