"""The sweep-pruned segment intersection against the dense (na, nb) test.

`_dense_intersections` is the original all-pairs routine, kept here only
as an oracle. The pruned routine evaluates the same formulas on fewer
pairs, so its hit list must be equal to the oracle's element for element,
in the same order and with the same float bits.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aerosurvey.core import LineRole
from aerosurvey.qc import _segment_intersections
from aerosurvey.suspension import (
    FlightPlan,
    SimConfig,
    line_series,
    simulate_survey,
)

# the suite's derandomized profile (conftest.py), this many examples
PROPERTY = settings(max_examples=250)


def _dense_intersections(pa: np.ndarray, pb: np.ndarray,
                         eps: float = 1e-9) -> list[tuple[float, float]]:
    """All intersections of two polylines, testing every segment pair."""
    hits: list[tuple[float, float]] = []
    a0, a1 = pa[:-1], pa[1:]
    b0, b1 = pb[:-1], pb[1:]
    r = a1 - a0                              # (na, 2)
    s = b1 - b0                              # (nb, 2)
    denom = r[:, None, 0] * s[None, :, 1] - r[:, None, 1] * s[None, :, 0]
    qp = b0[None, :, :] - a0[:, None, :]     # (na, nb, 2)
    qpxr = qp[:, :, 0] * r[:, None, 1] - qp[:, :, 1] * r[:, None, 0]
    qpxs = qp[:, :, 0] * s[None, :, 1] - qp[:, :, 1] * s[None, :, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = qpxs / denom
        v = qpxr / denom
    crossing = (np.abs(denom) > eps) & (u >= -eps) & (u <= 1 + eps) \
        & (v >= -eps) & (v <= 1 + eps)
    for i, j in zip(*np.nonzero(crossing)):
        hits.append((i + float(np.clip(u[i, j], 0, 1)),
                     j + float(np.clip(v[i, j], 0, 1))))
    # coincident-overlap case: parallel and collinear segments
    collinear = (np.abs(denom) <= eps) & (np.abs(qpxr) <= eps)
    for i, j in zip(*np.nonzero(collinear)):
        rr = float(r[i] @ r[i])
        if rr < eps:
            continue
        t0 = float(qp[i, j] @ r[i]) / rr
        t1 = t0 + float(s[j] @ r[i]) / rr
        lo, hi = max(0.0, min(t0, t1)), min(1.0, max(t0, t1))
        if lo <= hi:
            mid_a = 0.5 * (lo + hi)
            span = t1 - t0
            mid_b = 0.5 if abs(span) < eps else (mid_a - t0) / span
            hits.append((i + mid_a, j + float(np.clip(mid_b, 0, 1))))
    return hits


def _bits(hits) -> list[tuple[str, str]]:
    return [(float(ua).hex(), float(ub).hex()) for ua, ub in hits]


def _assert_same_as_dense(pa, pb) -> None:
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    for p, q in ((pa, pb), (pb, pa)):
        assert _bits(_segment_intersections(p, q)) == \
            _bits(_dense_intersections(p, q))


# --- polyline generators ---

coord = st.one_of(st.integers(-6, 6).map(float),
                  st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))
point = st.tuples(coord, coord)
fraction = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))


def _random_line(draw, min_size=2, max_size=12):
    return draw(st.lists(point, min_size=min_size, max_size=max_size))


def _on_segment(line, k: int, t: float) -> tuple[float, float]:
    (x0, y0), (x1, y1) = line[k], line[k + 1]
    return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))


@st.composite
def polyline_pairs(draw):
    kind = draw(st.sampled_from(("random", "shared", "touching", "collinear",
                                 "single", "long_vs_short")))
    if kind == "random":
        pa, pb = _random_line(draw), _random_line(draw)
    elif kind == "shared":
        pa = _random_line(draw)
        pb = draw(st.lists(st.one_of(st.sampled_from(pa), point),
                           min_size=2, max_size=12))
    elif kind == "touching":
        # endpoints of B on segments or vertices of A, and one of A on B
        pa, pb = _random_line(draw), _random_line(draw)
        pb[0] = _on_segment(pa, draw(st.integers(0, len(pa) - 2)),
                            draw(fraction))
        pb[-1] = _on_segment(pa, draw(st.integers(0, len(pa) - 2)),
                             draw(fraction))
        pa[-1] = _on_segment(pb, draw(st.integers(0, len(pb) - 2)),
                             draw(fraction))
    elif kind == "collinear":
        # both lines along one direction: partial, full or reversed overlap
        x0, y0 = draw(point)
        dx, dy = draw(st.sampled_from(((1, 0), (0, 1), (1, 1), (2, -1),
                                       (0.1, 0.3))))
        ts = st.one_of(st.integers(-8, 8).map(float),
                       st.floats(-8.0, 8.0, allow_nan=False))
        ta = sorted(draw(st.lists(ts, min_size=2, max_size=10)))
        overlap = draw(st.sampled_from(("partial", "full", "reversed")))
        if overlap == "partial":
            tb = sorted(draw(st.lists(ts, min_size=2, max_size=10)))
        else:
            tb = ta[::-1] if overlap == "reversed" else list(ta)
        pa = [(x0 + t * dx, y0 + t * dy) for t in ta]
        pb = [(x0 + t * dx, y0 + t * dy) for t in tb]
    elif kind == "single":
        pa = _random_line(draw, max_size=2)
        pb = _random_line(draw, max_size=draw(st.sampled_from((2, 12))))
    else:
        # one long segment across a zigzag of many short ones
        y = draw(st.floats(-1.0, 1.0))
        pa = [(-50.0, y), (50.0, -y)]
        xs = np.linspace(-60.0, 60.0, draw(st.integers(20, 200)))
        amp = draw(st.sampled_from((0.0, 0.5, 2.0)))
        pb = [(float(x), amp * (-1.0) ** k) for k, x in enumerate(xs)]
    # zero-length segments: repeat some vertices in place
    for line in (pa, pb):
        for k in sorted(draw(st.lists(st.integers(0, len(line) - 1),
                                      max_size=3)), reverse=True):
            line.insert(k, line[k])
    return pa, pb


@PROPERTY
@given(polyline_pairs())
def test_sweep_matches_dense_oracle_exactly(pair):
    _assert_same_as_dense(*pair)


@pytest.mark.parametrize("pa,pb", (
    # shared vertex at a corner of both lines
    ([(0, 0), (1, 1), (2, 0)], [(1, 1), (1, 3)]),
    # endpoint of B in the middle of a segment of A
    ([(0, 0), (4, 0)], [(2, 0), (2, 5)]),
    # full and partial collinear overlap
    ([(0, 0), (1, 0), (2, 0), (3, 0)], [(3, 0), (2, 0), (1, 0), (0, 0)]),
    ([(0, 0), (2, 0)], [(1, 0), (5, 0)]),
    # repeated points (zero-length segments) on both lines
    ([(0, 0), (0, 0), (2, 2), (2, 2)], [(0, 2), (0, 2), (2, 0)]),
    # single point: no segment at all
    ([(0, 0)], [(0, 0), (1, 1)]),
    # within eps: a hit 5e-10 of a 100 m segment before its start, and a
    # collinear partner 5e-8 off a 1 cm segment; both miss the bare boxes
    ([(0, -1), (0, 1)], [(5e-8, 0), (100, 0)]),
    ([(0, 0), (0.01, 0)], [(0.002, 5e-8), (0.008, 5e-8)]),
    # a NaN vertex spoils its two segments and no others
    ([(0, 0), (4, 4), (8, 0)], [(0, 3), (float("nan"), 2), (2, 1), (8, 1)]),
))
def test_sweep_matches_dense_oracle_on_edge_cases(pa, pb):
    _assert_same_as_dense(pa, pb)


def test_sweep_matches_dense_oracle_on_simulated_lines():
    sim = simulate_survey(FlightPlan(n_lines=2, line_length_m=150.0,
                                     tie_lines=1), cfg=SimConfig(seed=7))
    lines = line_series(sim.rad_full, sim.lines)
    flights = [ln for ln in lines if ln.role is LineRole.FLIGHT]
    ties = [ln for ln in lines if ln.role is LineRole.TIE]
    assert flights and ties
    for fl in flights:
        for tl in ties:
            hits = _segment_intersections(fl.positions(), tl.positions())
            assert len(hits) == 1
            assert _bits(hits) == _bits(
                _dense_intersections(fl.positions(), tl.positions()))


def test_perpendicular_20k_sample_lines_stay_small():
    # the dense test would build (19999, 19999) temporaries, 3.2 GB each
    n = 20_000
    t = np.linspace(0.0, 1000.0, n)
    horizontal = np.column_stack([t, np.zeros(n)])
    vertical = np.column_stack([np.full(n, 500.3), t - 500.0])
    for pa, pb in ((horizontal, vertical), (vertical, horizontal)):
        tracemalloc.start()
        try:
            hits = _segment_intersections(pa, pb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert len(hits) == 1
        along, across = 500.3 / 1000.0 * (n - 1), 0.5 * (n - 1)
        expect = (along, across) if pa is horizontal else (across, along)
        assert hits[0] == pytest.approx(expect, abs=1e-6)
