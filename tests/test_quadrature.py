"""Quadrature layer: exactness, analytic double-integral oracles against a
mocked trial function, the naive-summation cross-check, and the overflow
guard."""

import math

import numpy as np
import pytest

from gdwell import GridMismatchError, OverflowGuardError, PotentialParams
from gdwell.quadrature import (
    PanelSamples,
    QuadratureRule,
    integrate_against_phi2,
    nested_origin,
    nested_tail,
)
from gdwell.quadrature import _interval_integrals
from gdwell.solver import w_samples
from gdwell.trial import Grid, TrialFunction, build_trial

P12 = PotentialParams(1.0, 2.0)


def mock_trial(grid: Grid, log_phi: np.ndarray) -> TrialFunction:
    return TrialFunction(P12, grid, log_phi, np.exp(log_phi - log_phi[0]))


def flat_trial(grid: Grid) -> TrialFunction:
    return mock_trial(grid, np.zeros(grid.n_points))


def plain_integral(grid: Grid, values) -> float:
    """Plain integral over [0, x_max]: the phi^2 integral with phi = 1."""
    return integrate_against_phi2(flat_trial(grid), QuadratureRule(grid), values)


class TestIntegrate:
    def test_simpson_exact_on_cubics_unit_panel(self):
        g = Grid(4.0, 64)
        x = g.panel_nodes(0)
        iv = _interval_integrals(x**3, g.panel_h(0))
        # every interval, end stencils included, and the panel total
        np.testing.assert_allclose(iv, (x[1:] ** 4 - x[:-1] ** 4) / 4.0, rtol=0.0, atol=1e-15)
        assert float(iv.sum()) == pytest.approx(0.25, abs=1e-15)

    def test_constant(self):
        g = Grid(4.0, 64)
        assert plain_integral(g, np.ones(g.n_points)) == pytest.approx(4.0, abs=1e-13)

    def test_gaussian_against_known_integral(self):
        # x_max = 5 so the neglected analytic tail (~1.4e-11) sits below the
        # 1e-8 bar; at x_max = 4 the tail alone is 1.4e-8
        g = Grid(5.0, 2000)
        got = plain_integral(g, np.exp(-g.nodes**2))
        assert got == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-8)

    def test_weights_sum_to_panel_lengths(self):
        g = Grid(4.0, 100)
        for panel, length in ((0, 1.0), (1, 3.0)):
            ones = np.ones(g.n_per_panel + 1)
            total = float(_interval_integrals(ones, g.panel_h(panel)).sum())
            assert total == pytest.approx(length, abs=1e-13)

    def test_mismatched_samples_rejected(self):
        g = Grid(4.0, 64)
        rule = QuadratureRule(g)
        t = flat_trial(g)
        with pytest.raises(GridMismatchError):
            integrate_against_phi2(t, rule, np.ones(g.n_points + 1))
        with pytest.raises(GridMismatchError):
            integrate_against_phi2(t, rule, PanelSamples(np.ones(3), np.ones(3)))

    def test_interval_rule_total_matches_simpson_order(self):
        # the cubic interval rule integrates smooth functions at O(h^4), with
        # and without phi^2 folded into its stencils
        g = Grid(4.0, 512)
        y = np.sin(g.nodes)
        exact = 1.0 - math.cos(4.0)
        assert plain_integral(g, y) == pytest.approx(exact, abs=1e-10)
        total = sum(
            _interval_integrals(y[g.panel_slice(p)], g.panel_h(p)).sum()
            for p in (0, 1)
        )
        assert total == pytest.approx(exact, abs=1e-10)


class TestNestedOperators:
    def test_zero_integrand(self):
        g = Grid(4.0, 64)
        rule = QuadratureRule(g)
        t = flat_trial(g)
        zeros = np.zeros(g.n_points)
        assert np.all(nested_tail(t, rule, zeros) == 0.0)
        assert np.all(nested_origin(t, rule, zeros) == 0.0)

    def test_constant_integrand_flat_trial_tail(self):
        g = Grid(4.0, 200)
        rule = QuadratureRule(g)
        t = flat_trial(g)
        c = 0.7
        F = nested_tail(t, rule, np.full(g.n_points, c))
        expect = c * (g.x_max - g.nodes) ** 2 / 2.0
        np.testing.assert_allclose(F, expect, rtol=1e-12, atol=1e-12)
        assert F[-1] == 0.0

    def test_constant_integrand_flat_trial_origin(self):
        g = Grid(4.0, 200)
        rule = QuadratureRule(g)
        t = flat_trial(g)
        c = -0.3
        F = nested_origin(t, rule, np.full(g.n_points, c))
        expect = c * g.nodes**2 / 2.0
        np.testing.assert_allclose(F, expect, rtol=1e-12, atol=1e-12)
        assert F[0] == 0.0

    def test_origin_always_zero_at_zero(self):
        g = Grid(4.0, 64)
        rule = QuadratureRule(g)
        t = build_trial(P12, g)
        w = w_samples(P12, g)
        F = nested_origin(t, rule, w, assume_zero_total=True)
        assert F[0] == 0.0

    def test_naive_double_loop_cross_check(self):
        # same interval rule, plain (unfolded) arithmetic, O(n^2) assembly
        g = Grid(4.0, 100)  # ~200 intervals
        rule = QuadratureRule(g)
        t = build_trial(P12, g)
        w = w_samples(P12, g)
        h_samp = PanelSamples(w.inner - 0.7, w.outer - 0.7)
        F = nested_tail(t, rule, h_samp)

        phi2 = {p: np.exp(2.0 * t.log_phi[g.panel_slice(p)]) for p in (0, 1)}
        iv_parts = [
            _interval_integrals(h_samp[p] * phi2[p], g.panel_h(p)) for p in (0, 1)
        ]
        # T at each node of each panel by full re-summation
        t_nodes = np.empty(g.n_points)
        for p in (0, 1):
            sl = g.panel_slice(p)
            n = g.n_per_panel
            for j in range(n + 1):
                tail = iv_parts[p][j:].sum()
                if p == 0:
                    tail += iv_parts[1].sum()
                t_nodes[sl.start + j] = tail
        tt = np.empty(g.n_points)
        for p in (0, 1):
            sl = g.panel_slice(p)
            tt[sl] = t_nodes[sl] / phi2[p]
        F_naive = np.empty(g.n_points)
        for p in (0, 1):
            sl = g.panel_slice(p)
            iv2 = _interval_integrals(tt[sl], g.panel_h(p))
            n = g.n_per_panel
            for j in range(n + 1):
                val = iv2[j:].sum()
                if p == 0:
                    val += _interval_integrals(
                        tt[g.panel_slice(1)], g.panel_h(1)
                    ).sum()
                F_naive[sl.start + j] = val
        scale = np.abs(F).max()
        assert float(np.max(np.abs(F - F_naive))) <= 1e-12 * scale

    def test_folded_exponents_stay_negative_beyond_peak(self):
        g = Grid(4.0, 400)
        t = build_trial(PotentialParams(3.0, 2.0), g)
        dlp = 2.0 * np.diff(t.log_phi[g.panel_slice(1)])
        i_peak = int(np.argmax(t.log_phi))
        assert float(dlp[max(0, i_peak - g.i_one) + 1 :].max()) <= 0.0
        assert float(np.abs(dlp).max()) <= 30.0

    def test_overflow_guard_trips_on_absurd_slope(self):
        g = Grid(4.0, 16)
        t = mock_trial(g, -20.0 * np.arange(g.n_points, dtype=float))
        rule = QuadratureRule(g)
        with pytest.raises(OverflowGuardError):
            nested_tail(t, rule, np.ones(g.n_points))

    def test_deterministic(self):
        g = Grid(4.0, 128)
        rule = QuadratureRule(g)
        t = build_trial(P12, g)
        w = w_samples(P12, g)
        a = nested_tail(t, rule, w)
        b = nested_tail(t, rule, w)
        assert np.array_equal(a, b)
        assert integrate_against_phi2(t, rule, np.ones(g.n_points)) == integrate_against_phi2(
            t, rule, np.ones(g.n_points)
        )


def test_grid_convergence_of_nested_outputs():
    # doubling the node count moves the nested-integral outputs by < 1e-7
    vals = {}
    for n in (2000, 4000):
        g = Grid(4.0, n)
        rule = QuadratureRule(g)
        t = build_trial(P12, g)
        w = w_samples(P12, g)
        h_samp = PanelSamples(w.inner - 0.7, w.outer - 0.7)
        vals[n] = nested_tail(t, rule, h_samp)[0]
    assert abs(vals[2000] - vals[4000]) <= 1e-7 * max(1.0, abs(vals[4000]))
