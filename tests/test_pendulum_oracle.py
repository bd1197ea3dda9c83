"""The IIR pendulum integrator against the per-step RK4 loop and lfilter.

`_rk4_loop` is the original Python loop, kept here only as an oracle,
with the initial state made a parameter. One RK4 step of the linear swing
ODE is a linear map, so the IIR form must reproduce the loop to rounding.
The package runs the IIR filter in its own float loop (`_iir2`); with
scipy.signal.lfilter in its place the result must be the same bits. The
simulator runs the recurrence one block of steps at a time (`_Swing`),
carrying lfilter's zi/zf state across block edges; the blocks must give
the bits of one run over all steps.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from scipy.signal import lfilter

from aerosurvey import suspension
from aerosurvey.suspension import (
    G,
    SimConfig,
    SuspensionGeometry,
    _integrate_pendulum,
    _Swing,
    pendulum_ring_down,
)

LENGTH = 9.0
OMEGA = math.sqrt(G / LENGTH)
DT = 0.01
SIM_ZETA = SimConfig().effective_damping(SuspensionGeometry())
STATE = (0.2, -0.05)   # rad, rad/s


def _rk4_loop(acc, acc_half, dt, omega, zeta, length, theta0=0.0, rate0=0.0):
    """Per-step RK4 of theta'' = -2 zeta w theta' - w^2 theta - a(t)/L."""
    n = len(acc)
    th = np.empty(n)
    om = np.empty(n)
    th[0] = theta0
    om[0] = rate0
    c1, c2 = 2.0 * zeta * omega, omega * omega

    def f(theta, rate, a):
        return rate, -c1 * rate - c2 * theta - a / length

    for i in range(n - 1):
        a0, ah, a1 = acc[i], acc_half[i], acc[i + 1]
        t0, w0 = th[i], om[i]
        k1t, k1w = f(t0, w0, a0)
        k2t, k2w = f(t0 + 0.5 * dt * k1t, w0 + 0.5 * dt * k1w, ah)
        k3t, k3w = f(t0 + 0.5 * dt * k2t, w0 + 0.5 * dt * k2w, ah)
        k4t, k4w = f(t0 + dt * k3t, w0 + dt * k3w, a1)
        th[i + 1] = t0 + dt / 6.0 * (k1t + 2 * k2t + 2 * k3t + k4t)
        om[i + 1] = w0 + dt / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
    return th, om


def _forcing(kind: str, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(acc at step times, acc at midpoints) in m/s^2 for one axis."""
    t = np.arange(n) * DT
    th = t[:-1] + DT / 2.0
    if kind == "piecewise":
        # turn-like blocks of constant centripetal acceleration
        rng = np.random.default_rng(seed)
        edges = np.sort(rng.uniform(0.0, t[-1] + DT, 6))
        levels = rng.uniform(-2.0, 2.0, 7)
        return (levels[np.searchsorted(edges, t)],
                levels[np.searchsorted(edges, th)])
    if kind == "smooth":
        def a(x):
            return 1.5 * np.sin(0.7 * x + seed) + 0.4 * np.cos(3.1 * x)
        return a(t), a(th)
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, n - 1)


def _rel_dev(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("n", (1, 2, 3, 50_000))
@pytest.mark.parametrize("kind,zeta", (("piecewise", SIM_ZETA),
                                       ("smooth", 0.05), ("random", 0.3)),
                         ids=("piecewise", "smooth", "random"))
def test_lfilter_matches_rk4_loop_from_a_nonzero_state(kind, zeta, n):
    # both horizontal axes in one call, each with its own forcing
    (ae, ahe), (an, ahn) = _forcing(kind, n, 1), _forcing(kind, n, 2)
    theta = _integrate_pendulum(np.column_stack([ae, an]),
                                np.column_stack([ahe, ahn]),
                                DT, OMEGA, zeta, LENGTH, *STATE)
    assert theta.shape == (n, 2)
    for axis, (acc, acc_half) in enumerate(((ae, ahe), (an, ahn))):
        ref, _ = _rk4_loop(acc, acc_half, DT, OMEGA, zeta, LENGTH, *STATE)
        assert _rel_dev(theta[:, axis], ref) <= 1e-10


def test_lfilter_matches_rk4_loop_from_rest():
    # the simulator's case: forced from rest by turn accelerations
    acc, acc_half = _forcing("piecewise", 50_000, 3)
    theta = _integrate_pendulum(acc, acc_half, DT, OMEGA, SIM_ZETA, LENGTH)
    ref, _ = _rk4_loop(acc, acc_half, DT, OMEGA, SIM_ZETA, LENGTH)
    assert theta[0] == 0.0
    assert _rel_dev(theta, ref) <= 1e-10


def test_ring_down_is_the_unforced_rk4_loop():
    series = pendulum_ring_down(15.0, 0.2, LENGTH, duration_s=60.0)
    n = len(series.t)
    ref, _ = _rk4_loop(np.zeros(n), np.zeros(n - 1), DT, OMEGA, 0.2, LENGTH,
                       math.radians(15.0))
    assert _rel_dev(np.radians(series.values), ref) <= 1e-10


def _lfilter_iir2(u, a1, a2, zi):
    # (y, zf), from the state zi, as _iir2 returns them
    return lfilter([1.0], [1.0, a1, a2], u, zi=zi)


@pytest.mark.parametrize("case", ("rest-zero", "rest-negative-zero",
                                  "state-1d", "state-2d", "rest-2d"))
@pytest.mark.parametrize("n", (1, 2, 5, 20_000))
def test_integrator_is_bit_identical_to_lfilter(case, n):
    (ae, ahe), (an, ahn) = _forcing("piecewise", n, 4), _forcing("random", n, 5)
    state = STATE if case.startswith("state") else (0.0, 0.0)
    if case == "rest-zero":
        acc, acc_half = np.zeros(n), np.zeros(n - 1)
    elif case == "rest-negative-zero":
        # -0.0 forcing makes -0.0 inputs; signed zeros must match too
        acc, acc_half = np.full(n, -0.0), np.full(n - 1, -0.0)
    elif case.endswith("2d"):
        acc, acc_half = np.column_stack([ae, an]), np.column_stack([ahe, ahn])
    else:
        acc, acc_half = ae, ahe
    args = (acc, acc_half, DT, OMEGA, SIM_ZETA, LENGTH, *state)
    theta = _integrate_pendulum(*args)
    with mock.patch.object(suspension, "_iir2", _lfilter_iir2):
        ref = _integrate_pendulum(*args)
    assert theta.shape == ref.shape == acc.shape
    assert theta.dtype == np.float64
    assert np.array_equal(theta.view(np.int64), ref.view(np.int64))


def test_survey_swing_is_bit_identical_to_lfilter():
    # both axes of a simulated two-line survey, turns included
    plan = suspension.FlightPlan(n_lines=2, line_length_m=200.0, tie_lines=1)
    got = suspension.simulate_survey(plan, None, SimConfig(seed=3))
    with mock.patch.object(suspension, "_iir2", _lfilter_iir2):
        ref = suspension.simulate_survey(plan, None, SimConfig(seed=3))
    for name in ("roll_deg", "pitch_deg", "swing_deg", "easting_m"):
        a, b = getattr(got.attitude, name), getattr(ref.attitude, name)
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
    assert got.attitude.swing_deg.max() > 0.1


@pytest.mark.parametrize("cuts", ((1,), (2, 3), (1, 2, 3, 4), (700, 701),
                                  (5000, 12_345, 19_999)),
                         ids=lambda cuts: "-".join(map(str, cuts)))
@pytest.mark.parametrize("case", ("rest-2d", "state-1d"))
def test_swing_fed_in_blocks_is_one_run(case, cuts):
    # the forcing of 20,000 steps cut into blocks at `cuts`, one-step
    # blocks included: theta must be the bits of one feed
    n = 20_000
    (ae, ahe), (an, ahn) = _forcing("piecewise", n, 4), _forcing("random", n, 5)
    if case == "rest-2d":
        acc, acc_half, state = (np.column_stack([ae, an]),
                                np.column_stack([ahe, ahn]), (0.0, 0.0))
    else:
        acc, acc_half, state = ae, ahe, STATE
    whole = _integrate_pendulum(acc, acc_half, DT, OMEGA, SIM_ZETA, LENGTH,
                                *state)
    swing = _Swing(DT, OMEGA, SIM_ZETA, LENGTH, *state)
    edges = (0, *cuts, n)
    # step lo's midpoint acc_half[lo - 1] leads into it, but for step 0
    parts = [swing.feed(acc[lo:hi], acc_half[max(lo - 1, 0):hi - 1])
             for lo, hi in zip(edges[:-1], edges[1:])]
    got = np.concatenate(parts).reshape(whole.shape)
    assert np.array_equal(got.view(np.int64), whole.view(np.int64))
