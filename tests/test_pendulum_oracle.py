"""The lfilter pendulum integrator against the per-step RK4 loop.

`_rk4_loop` is the original Python loop, kept here only as an oracle,
with the initial state made a parameter. One RK4 step of the linear swing
ODE is a linear map, so the IIR form must reproduce the loop to rounding.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from aerosurvey.suspension import (
    G,
    SimConfig,
    SuspensionGeometry,
    _integrate_pendulum,
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
