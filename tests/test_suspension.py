import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from aerosurvey import (
    FlightPlan,
    SimConfig,
    SuspensionGeometry,
    settling_metrics,
    simulate_survey,
    suspension,
)
from aerosurvey.core import LineRole, check_range
from aerosurvey.suspension import (
    AttitudeTrack,
    G,
    SettlingMetrics,
    _MAX_SIM_STEPS,
    _Swing,
    _build_path,
    _dubins_csc,
    _sample_path,
    line_rows,
    line_series,
)
from aerosurvey.errors import NeverSettlesError


# --- geometry ---

def test_default_geometry_is_parallel_linkage():
    g = SuspensionGeometry()
    anchors = np.asarray(g.motor_anchor_points)
    # offsets equal the anchor horizontal radius, so the footprints match
    assert np.allclose(g.platform_offsets, np.hypot(anchors[:, 0],
                                                    anchors[:, 1]),
                       rtol=0, atol=1e-12)
    assert np.allclose(anchors[:, 2], 0.0)


def test_geometry_validation_and_round_trip():
    with pytest.raises(ValueError):
        SuspensionGeometry(cable_length=0.0)
    with pytest.raises(ValueError):
        SuspensionGeometry(platform_offsets=(1.0, 1.0))
    g = SuspensionGeometry(cable_length=7.5, intermediate_platform=False)
    assert SuspensionGeometry.from_dict(g.to_dict()) == g


# --- flight plan ---

def test_flight_plan_leg_layout():
    plan = FlightPlan(origin_utm=(1000.0, 2000.0), n_lines=3,
                      line_length_m=400.0, spacing_m=50.0, heading_deg=0.0,
                      tie_lines=1)
    legs = plan.legs()
    assert [lid for lid, _, _, _ in legs] == ["L1", "L2", "L3", "T1"]
    ids = {lid: (start, end) for lid, _, start, end in legs}
    # heading 0 = north; lines step east (right of travel)
    assert np.allclose(ids["L1"][0], (1000.0, 2000.0))
    assert np.allclose(ids["L1"][1], (1000.0, 2400.0))
    assert np.allclose(ids["L2"][0], (1050.0, 2000.0))
    # tie crosses at mid-length, overhanging half a spacing on both sides
    assert np.allclose(ids["T1"][0], (1000.0 - 25.0, 2200.0))
    assert np.allclose(ids["T1"][1], (1000.0 + 100.0 + 25.0, 2200.0))
    roles = [role for _, role, _, _ in legs]
    assert roles.count(LineRole.FLIGHT) == 3
    assert roles.count(LineRole.TIE) == 1


def test_flight_plan_heading_rotates_layout():
    plan = FlightPlan(origin_utm=(0.0, 0.0), n_lines=2, line_length_m=100.0,
                      spacing_m=10.0, heading_deg=90.0, tie_lines=0)
    legs = plan.legs()
    # heading 90 = east; right of travel is south
    assert np.allclose(legs[0][3], (100.0, 0.0), atol=1e-9)
    assert np.allclose(legs[1][2], (0.0, -10.0), atol=1e-9)


def test_flight_plan_validation():
    with pytest.raises(ValueError, match=r"^n_lines must be finite and "
                       r">= 1 and <= 10000, got 0$"):
        FlightPlan(n_lines=0)
    with pytest.raises(ValueError, match=r"^spacing_m must be finite and "
                       r">= 1 and <= 100000, got -1\.0$"):
        FlightPlan(spacing_m=-1.0)
    with pytest.raises(ValueError, match=r"^line_length_m must be finite "
                       r"and >= 1 and <= 100000, got 0\.0$"):
        FlightPlan(line_length_m=0.0)
    assert FlightPlan.from_dict(FlightPlan().to_dict()) == FlightPlan()


# --- turn construction ---

def _path_points(segs, step=0.5):
    pts = []
    for seg in segs:
        s = np.arange(0.0, seg.length + 1e-9, step)
        pos, _, _ = seg.sample(s, 1.0)
        pts.append(pos)
    return np.vstack(pts)


def test_dubins_uturn_is_half_circle():
    p0 = np.array([0.0, 0.0])
    p1 = np.array([50.0, 0.0])
    segs = _dubins_csc(p0, math.pi / 2.0, p1, -math.pi / 2.0, radius=25.0)
    total = sum(s.length for s in segs)
    assert total == pytest.approx(math.pi * 25.0, rel=1e-12)
    # end of the turn lands on the next leg's start pose
    last = segs[-1]
    pos, course, _ = last.sample(np.array([last.length]), 1.0)
    assert np.allclose(pos[0], p1, atol=1e-9)
    assert math.cos(course[0]) == pytest.approx(math.cos(-math.pi / 2), abs=1e-12)
    assert math.sin(course[0]) == pytest.approx(math.sin(-math.pi / 2), abs=1e-12)


def test_dubins_straight_ahead_degenerates_to_line():
    p0 = np.array([0.0, 0.0])
    p1 = np.array([80.0, 0.0])
    segs = _dubins_csc(p0, 0.0, p1, 0.0, radius=25.0)
    total = sum(s.length for s in segs)
    assert total == pytest.approx(80.0, rel=1e-12)


def test_dubins_path_is_continuous_and_reaches_goal():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p0 = rng.uniform(-100.0, 100.0, 2)
        p1 = rng.uniform(-100.0, 100.0, 2)
        psi0, psi1 = rng.uniform(-math.pi, math.pi, 2)
        segs = _dubins_csc(p0, psi0, p1, psi1, radius=20.0)
        total = sum(s.length for s in segs)
        assert total >= np.hypot(*(p1 - p0)) - 1e-9
        # consecutive segments join without gaps
        prev_end = p0
        for seg in segs:
            start, _, _ = seg.sample(np.array([0.0]), 1.0)
            assert np.allclose(start[0], prev_end, atol=1e-6)
            end, _, _ = seg.sample(np.array([seg.length]), 1.0)
            prev_end = end[0]
        assert np.allclose(prev_end, p1, atol=1e-6)


def test_build_path_blocks_and_labels():
    plan = FlightPlan(n_lines=2, line_length_m=200.0, spacing_m=50.0,
                      tie_lines=0)
    segs = _build_path(plan, SimConfig())
    labels = [lab for _, lab, _ in segs]
    assert labels[0] == "transit"          # lead-in of L1, no prior turn
    assert "L1" in labels and "L2" in labels
    assert "turn" in labels
    # the turn between the legs belongs to the upcoming leg's block
    turn_blocks = {blk for _, lab, blk in segs if lab == "turn"}
    assert turn_blocks == {1}


def _sample_path_masked(segs, s, v):
    """Reference: one full-length mask per segment (the seed's loop)."""
    lengths = np.array([sg.length for sg, _, _ in segs])
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    s = np.clip(s, 0.0, cum[-1] - 1e-9)
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(segs) - 1)
    n = len(s)
    pos, course, acc = np.empty((n, 2)), np.empty(n), np.empty((n, 2))
    for i, (sg, _, _) in enumerate(segs):
        m = idx == i
        if not m.any():
            continue
        pos[m], course[m], acc[m] = sg.sample(s[m] - cum[i], v)
    return pos, course, acc


@pytest.mark.parametrize("plan", [
    FlightPlan(),
    FlightPlan(n_lines=8, line_length_m=2000.0, spacing_m=50.0, tie_lines=3),
    FlightPlan(n_lines=3, line_length_m=300.0, spacing_m=40.0, tie_lines=2,
               heading_deg=30.0),
], ids=["default", "survey_large", "rotated"])
def test_sample_path_matches_mask_reference(plan):
    cfg = SimConfig()
    segs = _build_path(plan, cfg)
    total = sum(sg.length for sg, _, _ in segs)
    dt = 1.0 / cfg.sim_rate_hz
    t = np.arange(int(total / cfg.speed * cfg.sim_rate_hz) + 1) * dt
    # step times and midpoints as the simulator uses them; a coarse grid
    # that skips short segments; offsets beyond both ends of the path
    for s in (cfg.speed * t, cfg.speed * (t[:-1] + dt / 2.0),
              np.linspace(-5.0, total + 5.0, 41)):
        got = _sample_path(segs, s, cfg.speed)
        want = _sample_path_masked(segs, s, cfg.speed)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


# --- pendulum dynamics ---

def _ring_down(theta0_deg, zeta, length, duration_s, rate_hz=100.0):
    """(t, swing in degrees): free decay from theta0_deg through _Swing."""
    n = int(round(duration_s * rate_hz)) + 1
    swing = _Swing(1.0 / rate_hz, math.sqrt(G / length), zeta, length,
                   theta0=math.radians(theta0_deg))
    theta = swing.feed(np.zeros(n), np.zeros(n - 1))[:, 0]
    return np.arange(n) / rate_hz, np.degrees(theta)


def test_ring_down_matches_closed_form():
    theta0, zeta, length = 17.0, 0.45, 9.0
    t, swing = _ring_down(theta0, zeta, length, duration_s=20.0)
    omega = math.sqrt(G / length)
    wd = omega * math.sqrt(1.0 - zeta ** 2)
    envelope = np.exp(-zeta * omega * t)
    analytic = theta0 * envelope * (np.cos(wd * t)
                                    + zeta * omega / wd * np.sin(wd * t))
    assert np.max(np.abs(swing - analytic)) < 1e-6 * theta0


def test_ring_down_energy_never_increases():
    t, swing = _ring_down(12.0, 0.2, 9.0, duration_s=30.0)
    th = np.radians(swing)
    omega2 = G / 9.0
    rate = np.gradient(th, t)
    energy = 0.5 * rate ** 2 + 0.5 * omega2 * th ** 2
    # numerical differentiation is noisy at the ends; check the interior
    e = energy[5:-5]
    assert np.all(np.diff(e) <= 1e-6 * e[0])


def test_more_damping_never_settles_slower():
    def settle_time(zeta, thr=0.5):
        t, swing = _ring_down(15.0, zeta, 9.0, duration_s=60.0)
        bad = np.nonzero(np.abs(swing) >= thr)[0]
        return t[bad[-1]] if len(bad) else 0.0

    times = [settle_time(z) for z in (0.1, 0.2, 0.4, 0.8)]
    assert all(b <= a + 1e-9 for a, b in zip(times, times[1:]))


# --- simulator ---

@pytest.fixture(scope="module")
def default_sim():
    return simulate_survey()


def test_simulate_survey_is_deterministic(default_sim):
    again = simulate_survey()
    assert np.array_equal(default_sim.attitude.swing_deg, again.attitude.swing_deg)
    assert np.array_equal(default_sim.mag_full.values, again.mag_full.values)
    assert np.array_equal(default_sim.rad_full.values, again.rad_full.values)
    other = simulate_survey(cfg=SimConfig(seed=7))
    assert not np.array_equal(default_sim.mag_full.column("tmi_nT"),
                              other.mag_full.column("tmi_nT"))


def test_simulate_survey_streams_are_aligned(default_sim):
    res = default_sim
    assert len(res.mag_full) == len(res.vlf_full) == len(res.rad_full)
    assert len(res.segment_at_sensor) == len(res.mag_full)
    # magnetometer rides payload_separation above the VLF sensor
    gap = res.mag_full.column("alt_m") - res.vlf_full.column("alt_m")
    assert np.allclose(gap, res.geometry.payload_separation)
    # sensor rate is a clean decimation of the simulation rate
    assert np.allclose(np.diff(res.mag_full.t), 1.0 / res.cfg.sensor_rate_hz)
    # base station brackets the survey window
    assert res.base.t[0] <= res.mag_full.t[0]
    assert res.base.t[-1] >= res.mag_full.t[-1]


def test_simulate_survey_line_split(default_sim):
    res = default_sim
    lines = line_series(res.mag_full,
                        line_rows(res.segment_at_sensor, res.plan))
    assert [ln.line_id for ln in lines] == ["L1", "L2", "L3", "L4", "T1"]
    roles = {ln.line_id: ln.role for ln in lines}
    assert roles["T1"] is LineRole.TIE
    assert roles["L2"] is LineRole.FLIGHT
    # every on-line sensor sample lands in exactly one line
    n_on_line = sum(len(ln.series) for ln in lines)
    labels = np.asarray(res.segment_at_sensor)
    assert n_on_line == int(np.isin(labels, [ln.line_id for ln in lines]).sum())


def test_line_rows_match_per_sample_labels(default_sim):
    res = default_sim
    # sensor sample i is attitude sample i * step, and carries its label
    step = round(res.cfg.sim_rate_hz / res.cfg.sensor_rate_hz)
    at_sensor = np.arange(0, len(res.attitude), step)
    assert np.array_equal(res.attitude.t[at_sensor], res.mag_full.t)
    labels = [res.attitude.segment[j] for j in at_sensor.tolist()]
    assert list(res.segment_at_sensor) == labels
    legs = [(lid, role) for lid, role, _, _ in res.plan.legs()]
    for full in (res.mag_full, res.vlf_full, res.rad_full):
        lines = line_series(full, line_rows(res.segment_at_sensor, res.plan))
        assert [(ln.line_id, ln.role) for ln in lines] == legs
        for ln in lines:
            m = np.array([lab == ln.line_id for lab in labels])
            assert np.array_equal(ln.series.t, full.t[m])
            assert np.array_equal(ln.series.values, full.values[m])
            assert ln.series.fields == full.fields
    # a leg with fewer than 2 labelled samples yields no line
    one = ("L1",) + ("turn",) * (len(res.mag_full) - 1)
    assert line_rows(one, res.plan) == ()


def test_simulate_survey_platform_locks_heading(default_sim):
    res = default_sim
    assert res.effective_damping_ratio == pytest.approx(0.45)
    # platform fitted: payload heading equals the flown course everywhere,
    # and a north-flown line reads 0 on the compass (wrap before comparing)
    seg = np.asarray(res.attitude.segment)
    north = res.attitude.heading_deg[seg == "L1"]
    wrapped = (north + 180.0) % 360.0 - 180.0
    assert np.abs(wrapped).max() <= 1e-6


def test_simulate_survey_without_platform_lags_heading(default_sim):
    cfg = SimConfig()
    free = simulate_survey(geometry=SuspensionGeometry(intermediate_platform=False),
                           cfg=cfg)
    assert free.effective_damping_ratio == pytest.approx(0.30)
    seg = np.asarray(free.attitude.segment)
    # heading error vs the locked run appears during turns but stays
    # within the lag cap; difference taken circularly (360 wrap)
    diff = free.attitude.heading_deg - default_sim.attitude.heading_deg
    turn_err = np.abs((diff + 180.0) % 360.0 - 180.0)[seg == "turn"]
    assert turn_err.max() > 0.5
    assert turn_err.max() <= cfg.yaw_lag_cap_deg + 1e-9


def test_simulate_survey_hover():
    res = simulate_survey(cfg=SimConfig(speed=0.0, hover_duration_s=30.0))
    assert set(res.attitude.segment) == {"hover"}
    assert res.attitude.t[-1] == pytest.approx(30.0)
    assert line_rows(res.segment_at_sensor, res.plan) == ()
    assert np.all(res.attitude.swing_deg == 0.0)
    # hover magnetometer trace is regional + diurnal + noise at one spot
    assert np.ptp(res.mag_full.column("easting_m")) == 0.0


def test_simulate_survey_swing_envelope(default_sim):
    # on the survey and tie lines
    legs = [lid for lid, *_ in default_sim.plan.legs()]
    mask = np.isin(np.asarray(default_sim.attitude.segment), legs)
    assert np.abs(default_sim.attitude.roll_deg[mask]).max() <= 5.0
    assert np.abs(default_sim.attitude.pitch_deg[mask]).max() <= 5.0


def _survey_bits(res) -> list:
    """Every array and label tuple of a SimResult, as comparable items."""
    att = res.attitude
    arrays = [att.t, att.roll_deg, att.pitch_deg, att.heading_deg,
              att.swing_deg, att.easting_m, att.northing_m]
    for series in (res.mag_full, res.vlf_full, res.rad_full, res.base):
        arrays += [series.t, series.values]
    return [a.tobytes() for a in arrays] + [att.segment, res.segment_at_sensor]


# small flights, for chunks of one step; the yaw lag spans many chunks
_CHUNKED = {
    "two_lines": (FlightPlan(n_lines=2, line_length_m=40.0, spacing_m=20.0,
                             tie_lines=1), None, SimConfig(seed=2, speed=20.0)),
    "yaw_lag": (FlightPlan(n_lines=2, line_length_m=40.0, spacing_m=20.0,
                           tie_lines=1),
                SuspensionGeometry(intermediate_platform=False),
                SimConfig(seed=2, speed=20.0, yaw_lag_s=0.5)),
    "hover": (None, None, SimConfig(speed=0.0, hover_duration_s=3.0)),
}


@pytest.mark.parametrize("chunk", (1, 7, 250))
@pytest.mark.parametrize("case", list(_CHUNKED))
def test_chunk_edges_do_not_change_a_bit(monkeypatch, case, chunk):
    # the simulator flies a few steps at a time, carrying the swing
    # recurrence, the unwrap and the yaw lag across each chunk edge: any
    # chunk size gives the bits of flying every step at once
    plan, geometry, cfg = _CHUNKED[case]
    whole = simulate_survey(plan, geometry, cfg)
    monkeypatch.setattr(suspension, "_CHUNK_STEPS", chunk)
    monkeypatch.setattr(suspension, "_COUNT_ROWS", max(1, chunk // 5))
    assert _survey_bits(simulate_survey(plan, geometry, cfg)) == \
        _survey_bits(whole)


def test_simulate_survey_streams_share_their_records(default_sim):
    # the sensor series adopt the records the simulator fills, uncopied:
    # one timestamp array for the three rover streams
    res = default_sim
    assert res.mag_full.t is res.vlf_full.t is res.rad_full.t
    for series in (res.mag_full, res.vlf_full, res.rad_full, res.base):
        assert not series.values.flags.writeable


# --- settling metrics ---

def test_settling_metrics_on_default_survey(default_sim):
    m = settling_metrics(default_sim.attitude, threshold_deg=1.0)
    assert m.n_turns == 4
    assert 0.0 < m.settling_time_s < 15.0
    assert m.lead_in_distance_m == pytest.approx(
        m.settling_time_s * default_sim.cfg.speed)
    # decay of the worst turn tracks the analytic damped envelope
    zeta_omega = default_sim.effective_damping_ratio * math.sqrt(G / 9.0)
    seg = np.asarray(default_sim.attitude.segment)
    turn = seg == "turn"
    ends = [i for i in range(len(seg) - 1) if turn[i] and not turn[i + 1]]
    worst_pred = 0.0
    for e in ends:
        theta_e = abs(default_sim.attitude.swing_deg[e])
        if theta_e > 1.0:
            worst_pred = max(worst_pred, math.log(theta_e / 1.0) / zeta_omega)
    assert m.settling_time_s == pytest.approx(worst_pred, rel=0.25)


def test_settling_metrics_never_settles():
    n = 40
    seg = ("turn",) * 10 + ("L1",) * 30
    track = AttitudeTrack(
        t=np.arange(n) * 0.1,
        roll_deg=np.zeros(n), pitch_deg=np.zeros(n),
        heading_deg=np.zeros(n),
        swing_deg=np.full(n, 5.0),
        easting_m=np.zeros(n), northing_m=np.zeros(n),
        segment=seg, speed_mps=8.0)
    with pytest.raises(NeverSettlesError):
        settling_metrics(track, threshold_deg=1.0)


def test_settling_metrics_no_turns_is_empty():
    n = 10
    track = AttitudeTrack(
        t=np.arange(n) * 0.1,
        roll_deg=np.zeros(n), pitch_deg=np.zeros(n),
        heading_deg=np.zeros(n), swing_deg=np.zeros(n),
        easting_m=np.zeros(n), northing_m=np.zeros(n),
        segment=("hover",) * n)
    m = settling_metrics(track)
    assert m.n_turns == 0
    assert m.settling_time_s == 0.0


def _loop_settling_metrics(track, threshold_deg=1.0, speed_mps=None):
    """settling_metrics as the per-step loop it replaced, kept as an oracle."""
    check_range("threshold_deg", threshold_deg, 0, above=True)
    speed = speed_mps if speed_mps is not None else (track.speed_mps or 0.0)
    seg = np.asarray(track.segment)
    turn = seg == "turn"
    nt = len(track)
    # indices where a turn block ends
    ends = [i for i in range(nt)
            if turn[i] and (i + 1 == nt or not turn[i + 1])]
    times = []
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


def _cut(track, lo, hi):
    """Samples [lo, hi) of an attitude track."""
    return AttitudeTrack(*(getattr(track, f.name)[lo:hi]
                           for f in fields(AttitudeTrack)[:-1]),
                         track.speed_mps)


def _turn_runs(track):
    """[start, stop) of each run of turn samples."""
    turn = np.r_[False, np.asarray(track.segment) == "turn", False]
    edges = np.flatnonzero(np.diff(turn.astype(np.int8)))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


@pytest.fixture(scope="module")
def settling_tracks(default_sim):
    def fly(plan=None, geometry=None, **cfg):
        return simulate_survey(plan, geometry, SimConfig(**cfg)).attitude

    full = default_sim.attitude
    (a0, a1), (b0, b1) = _turn_runs(full)[:2]
    n = 12
    short = AttitudeTrack(
        np.arange(n) * 0.5, *np.zeros((3, n)),
        np.array([3.0, 2.0, 0.5, 2.0, 2.0, 0.0, 2.0, 0.2, 0.0, 2.0, 2.0, 2.0]),
        *np.zeros((2, n)),
        ("L1", "turn", "L1", "turn", "turn", "L1", "turn", "L2", "L2",
         "transit", "turn", "L3"), 4.0)
    return {
        "default": full,
        "survey_large": fly(FlightPlan(n_lines=8, line_length_m=2000.0,
                                       spacing_m=50.0, tie_lines=3)),
        "hover": fly(speed=0.0, hover_duration_s=10.0),
        "low_damping": fly(geometry=SuspensionGeometry(
            intermediate_platform=False), damping_ratio=0.01),
        "no_lead_in_or_out": fly(lead_in_m=0.0, lead_out_m=0.0),
        "cut_inside_a_turn": _cut(full, 0, (b0 + b1) // 2),
        "cut_at_a_turn_end": _cut(full, 0, b1),
        "cut_after_a_turn_start": _cut(full, (a0 + a1) // 2, len(full)),
        "short_runs": short,
    }


@pytest.mark.parametrize("threshold", (0.05, 0.3, 1, 3))
@pytest.mark.parametrize("name", (
    "default", "survey_large", "hover", "low_damping", "no_lead_in_or_out",
    "cut_inside_a_turn", "cut_at_a_turn_end", "cut_after_a_turn_start",
    "short_runs"))
def test_settling_metrics_matches_the_per_step_loop(settling_tracks, name,
                                                    threshold):
    track = settling_tracks[name]

    def outcome(metrics):
        try:
            return metrics(track, threshold)
        except NeverSettlesError as exc:
            return str(exc)

    assert outcome(settling_metrics) == outcome(_loop_settling_metrics)


# --- configuration and serialization ---

def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(damping_ratio=0.0)
    with pytest.raises(ValueError):
        SimConfig(damping_ratio=1.0)
    with pytest.raises(ValueError):
        SimConfig(sim_rate_hz=100.0, sensor_rate_hz=30.0)  # not a divisor
    with pytest.raises(ValueError):
        SimConfig(speed=-1.0)


@pytest.mark.parametrize("plan, cfg, fields", (
    (FlightPlan(n_lines=2, line_length_m=150.0), SimConfig(speed=1e-3),
     "path / speed x sim_rate_hz"),
    (None, SimConfig(speed=0.0, hover_duration_s=86_400.0, sim_rate_hz=1000.0),
     "hover_duration_s x sim_rate_hz"),
))
def test_simulator_refuses_more_than_max_sim_steps(plan, cfg, fields):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{fields} gives .* simulator "
                           f"steps, more than _MAX_SIM_STEPS "
                           f"\\({_MAX_SIM_STEPS}\\)"):
            simulate_survey(plan, None, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # refused before any array of one value per step exists
    assert peak < 2 ** 20


def test_sim_config_round_trip_and_unknown_keys():
    cfg = SimConfig(speed=6.0, seed=99, turn_radius_m=30.0)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        SimConfig.from_dict({"speeed": 6.0})


def test_effective_damping_capped():
    cfg = SimConfig(damping_ratio=0.7)
    assert cfg.effective_damping(SuspensionGeometry()) == 0.95
    assert cfg.effective_damping(
        SuspensionGeometry(intermediate_platform=False)) == 0.7
