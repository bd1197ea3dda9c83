"""A flight's segment spans, worked out from the path before it flies, held
to per-step segment labels placed step by step.

_Flight works out the first step of each path segment once, before it
flies; its lines, its chunks' coded segment column, simulate_survey's
segment column and lines, and its straight_peaks all come from those
spans. The reference here places every step on its own: step i lies at
path offset v * t_i, and _segment_spans says, from an offset table worked
out here, which segment holds each offset, the fill the simulator once did
per step. From those labels, line_rows collects the sensor samples whose
label is a leg id, and the leg-labelled steps give the largest |roll| and
|pitch| on the lines.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aerosurvey.suspension import (
    FlightPlan,
    SimConfig,
    _build_path,
    _Flight,
    _segment_spans,
    simulate_survey,
)

# (sim_rate_hz, sensor_rate_hz): steps of 10, 5, 1, 4 and 3
_RATES = ((100.0, 10.0), (50.0, 10.0), (20.0, 20.0), (30.0, 7.5),
          (60.0, 20.0))


def _metres(lo: float, hi: float):
    """Whole metres, which put segment edges on round offsets, or any."""
    return st.one_of(st.integers(int(lo), int(hi)).map(float),
                     st.floats(lo, hi, allow_nan=False))


def _step_labels(plan, cfg, n: int) -> tuple[str, ...]:
    """The path segment label of each of the first n steps, each step
    placed at its own path offset; a hover's steps are all "hover"."""
    if cfg.speed == 0.0:
        return ("hover",) * n
    segs = _build_path(plan, cfg)
    # the path's offset table, worked out here rather than read off the flight
    cum = np.concatenate([[0.0], np.cumsum([sg.length for sg, _, _ in segs])])
    t = np.arange(n) * (1.0 / cfg.sim_rate_hz)
    labels = np.empty(n, object)
    for i, lo, hi, _ in _segment_spans(cum, cfg.speed * t):
        labels[lo:hi] = segs[i][1]
    return tuple(labels)


def line_rows(labels, plan: FlightPlan):
    """(line id, role, sample indices) of each plan leg, from the segment
    labels of a full trace.

    Samples belong to a leg when their label equals the leg id; legs with
    fewer than 2 samples are skipped, so a hover (labelled "hover") gives
    no lines. Lines keep plan.legs() order.
    """
    legs = plan.legs()
    index = {lid: i for i, (lid, *_) in enumerate(legs)}
    # each sample's leg index, -1 off the legs
    code = np.fromiter(map(index.get, labels, repeat(-1)), np.intp,
                       count=len(labels))
    out = []
    for lid, role, _, _ in legs:
        rows = np.flatnonzero(code == index[lid])
        if len(rows) >= 2:
            out.append((lid, role, rows))
    return tuple(out)


def _assert_same_lines(lines, reference):
    assert [(lid, role) for lid, role, _ in lines] == \
        [(lid, role) for lid, role, _ in reference]
    for (lid, _, rows), (_, _, want) in zip(lines, reference):
        assert np.array_equal(rows, want), lid


def _assert_spans_are_the_step_labels(plan, cfg):
    """simulate_survey's segment column and lines, _Flight.lines and
    straight_peaks against the labels of _step_labels."""
    flight = _Flight(plan, None, cfg)
    # read before blocks() runs: nothing has been flown yet
    lines = flight.lines
    res = simulate_survey(plan, None, cfg)
    track = res.attitude
    labels = _step_labels(plan, cfg, len(track))
    codes, texts = track.segment
    assert tuple(texts[c] for c in codes.tolist()) == labels
    step = round(cfg.sim_rate_hz / cfg.sensor_rate_hz)
    reference = line_rows(labels[::step], plan)
    _assert_same_lines(lines, reference)
    _assert_same_lines(res.lines, reference)
    for _ in flight.blocks():
        pass
    on_legs = np.isin(np.array(labels, object),
                      [lid for lid, *_ in plan.legs()])
    if on_legs.any():
        assert np.array_equal(
            np.max(flight.straight_peaks, axis=0),
            [np.max(np.abs(track.roll_deg[on_legs])),
             np.max(np.abs(track.pitch_deg[on_legs]))])
    else:
        assert flight.straight_peaks.shape == (0, 2)


@settings(max_examples=60)
@given(n_lines=st.integers(1, 3),
       # a few metres leave a leg fewer than 2 sensor samples at speed
       line_length=_metres(1.0, 4.0) | _metres(1.0, 120.0),
       spacing=_metres(5.0, 60.0), heading=_metres(-360.0, 360.0),
       tie_lines=st.integers(0, 3), lead_in=_metres(0.0, 40.0) | st.just(0.0),
       lead_out=_metres(0.0, 40.0) | st.just(0.0),
       rates=st.sampled_from(_RATES), speed=_metres(4.0, 20.0),
       radius=st.none() | _metres(1.0, 40.0))
def test_flight_lines_are_the_label_routes_rows(
        n_lines, line_length, spacing, heading, tie_lines, lead_in, lead_out,
        rates, speed, radius):
    plan = FlightPlan(n_lines=n_lines, line_length_m=line_length,
                      spacing_m=spacing, heading_deg=heading,
                      tie_lines=tie_lines)
    cfg = SimConfig(speed=speed, sim_rate_hz=rates[0],
                    sensor_rate_hz=rates[1], lead_in_m=lead_in,
                    lead_out_m=lead_out, turn_radius_m=radius, seed=3)
    _assert_spans_are_the_step_labels(plan, cfg)


def test_flight_lines_on_the_default_survey():
    plan, cfg = FlightPlan(), SimConfig()
    lines = _Flight(plan, None, cfg).lines
    assert [lid for lid, _, _ in lines] == ["L1", "L2", "L3", "L4", "T1"]
    _assert_spans_are_the_step_labels(plan, cfg)
    # the reference takes no leg of one labelled sample
    assert line_rows(("L1",) + ("turn",) * 9, plan) == ()
    assert [lid for lid, _, _ in line_rows(("L1",) * 2 + ("T1",), plan)] \
        == ["L1"]


def test_a_hover_has_no_lines():
    cfg = SimConfig(speed=0.0, hover_duration_s=3.0)
    assert _Flight(None, None, cfg).lines == ()
    # a hover flies no leg, so its straight_peaks are empty
    _assert_spans_are_the_step_labels(FlightPlan(), cfg)
