"""Shared fixtures: cached solves and reference eigensolves for the table
parameter sets, so expensive runs happen once per session."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gdwell import (
    BoundaryCondition,
    Grid,
    OracleConfig,
    PotentialParams,
    oracle_ground_state,
    solve,
)
from gdwell import closed_forms as cf
from gdwell.solver import energy_step, f_step, w_samples
from gdwell.trial import build_trial

# every (g, a, bc) that appears in the built-in tables
TABLE_CASES = [
    (1.0, 2.0, "I"),
    (1.0, 2.0, "II"),
    (1.0, 1.8, "II"),
    (1.0, 3.0, "II"),
    (0.88, 2.0, "II"),
    (2.0, 2.0, "II"),
    (3.0, 2.0, "II"),
]


@pytest.fixture(scope="session")
def solve_cache():
    cache = {}

    def get(g, a, bc, x_max=4.0, n=2000, max_iter=20, tol=1e-6):
        key = (g, a, bc, x_max, n, max_iter, tol)
        if key not in cache:
            cache[key] = solve(
                PotentialParams(g, a),
                Grid(x_max, n),
                BoundaryCondition(bc),
                max_iter=max_iter,
                tol=tol,
            )
        return cache[key]

    return get


@pytest.fixture(scope="session")
def oracle_cache():
    cache = {}

    def get(g, a, L=6.0, n=4000):
        key = (g, a, L, n)
        if key not in cache:
            cache[key] = oracle_ground_state(PotentialParams(g, a), OracleConfig(L=L, n=n))
        return cache[key]

    return get


def iterates(rep) -> list[np.ndarray]:
    """f_0 = 1, f_1, ..., f_n of a report, rebuilt with the solver's own steps
    (a solve keeps only f_2 and the last iterate)."""
    t = build_trial(rep.params, rep.grid)
    w = w_samples(rep.params, rep.grid)
    fs = [np.ones(rep.grid.n_points)]
    for _ in range(rep.iterations):
        fs.append(f_step(t, w, energy_step(t, w, fs[-1]), fs[-1], rep.bc))
    assert fs[-1].tobytes() == rep.f_final.tobytes()
    return fs


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_diff2(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def one_sided_deriv5(values, h, forward=True):
    """Fourth-order one-sided first derivative at the end of a sample run."""
    c = np.array([-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25])
    if forward:
        return float(c @ values[:5]) / h
    return -float(c @ values[::-1][:5]) / h


def first_step_energy(g: float, a: float) -> float:
    """E_1 = g sqrt(1+a) - int w phi^2 / int phi^2 by adaptive quadrature.

    phi is built pointwise from the closed forms as the TrialFunction
    docstring describes: phi_+ (1 + Gamma phi_-/phi_+) below x = 1 and phi_+
    times that factor frozen at x = 1 above it.  Nothing of the package's
    grid, trial arrays or quadrature is used, so this is a route to the first
    iterate independent of the solver.
    """
    p = PotentialParams(g, a)
    p.require_mixing_positive()

    def log_branches(x):
        s1 = float(cf.eval_S1(p, x))
        return (-g * float(cf.eval_S0(p, x)) - s1,
                -g * float(cf.eval_S0_mirror(p, x)) - s1)

    def log_mix(x):
        log_plus, log_minus = log_branches(x)
        return math.log1p(p.Gamma * math.exp(log_minus - log_plus))

    log_mix_1 = log_mix(1.0)
    log_phi_1 = log_branches(1.0)[0] + log_mix_1

    def phi2(x):
        log_phi = log_branches(x)[0] + (log_mix(x) if x < 1.0 else log_mix_1)
        return math.exp(2.0 * (log_phi - log_phi_1))

    num = den = 0.0
    # w jumps down at x = 1, so each side is integrated on its own
    for lo, hi in ((0.0, 1.0), (1.0, math.inf)):
        num += quad(lambda x: float(cf.eval_w(p, x)) * phi2(x), lo, hi,
                    epsabs=0.0, epsrel=1e-12, limit=200)[0]
        den += quad(phi2, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return g * p.E0 - num / den
