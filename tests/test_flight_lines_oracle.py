"""A flight's lines, worked out from the path before it flies, held to the
per-sample segment labels of the flown track.

_Flight.lines gives each plan leg's sensor rows from the first step of
each path segment. The reference is the label route: fly the survey with
simulate_survey, label every sensor sample with its path segment and let
line_rows collect the samples whose label is a leg id.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aerosurvey.suspension import (
    FlightPlan,
    SimConfig,
    _Flight,
    line_rows,
    simulate_survey,
)

# (sim_rate_hz, sensor_rate_hz): steps of 10, 5, 1, 4 and 3
_RATES = ((100.0, 10.0), (50.0, 10.0), (20.0, 20.0), (30.0, 7.5),
          (60.0, 20.0))


def _metres(lo: float, hi: float):
    """Whole metres, which put segment edges on round offsets, or any."""
    return st.one_of(st.integers(int(lo), int(hi)).map(float),
                     st.floats(lo, hi, allow_nan=False))


def _label_route(plan, cfg):
    return line_rows(simulate_survey(plan, None, cfg).segment_at_sensor, plan)


def _assert_same_lines(lines, reference):
    assert [(lid, role) for lid, role, _ in lines] == \
        [(lid, role) for lid, role, _ in reference]
    for (lid, _, rows), (_, _, want) in zip(lines, reference):
        assert np.array_equal(rows, want), lid


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
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
    # read before blocks() runs: nothing has been flown yet
    lines = _Flight(plan, None, cfg).lines
    _assert_same_lines(lines, _label_route(plan, cfg))


def test_flight_lines_on_the_default_survey():
    plan, cfg = FlightPlan(), SimConfig()
    lines = _Flight(plan, None, cfg).lines
    assert [lid for lid, _, _ in lines] == ["L1", "L2", "L3", "L4", "T1"]
    _assert_same_lines(lines, _label_route(plan, cfg))


def test_a_hover_has_no_lines():
    cfg = SimConfig(speed=0.0, hover_duration_s=3.0)
    assert _Flight(None, None, cfg).lines == ()
    assert _label_route(FlightPlan(), cfg) == ()
