"""Grid construction and trial-function properties."""

import math

import numpy as np
import pytest

from conftest import one_sided_deriv5
from gdwell import ConvergenceDomainError, GridError, GridMismatchError, PotentialParams
from gdwell.closed_forms import eval_S0, eval_S0_mirror, eval_S1
from gdwell.solver import energy_step, w_samples
from gdwell.trial import MAX_N_PER_PANEL, Grid, build_trial

P12 = PotentialParams(1.0, 2.0)


def branch_log_ratio(p: PotentialParams, x) -> np.ndarray:
    """log(phi_-/phi_+) = -g (S0(-x) - S0(x)); the S1 factors cancel."""
    return -p.g * (eval_S0_mirror(p, x) - eval_S0(p, x))


class TestGrid:
    def test_nodes_contract(self):
        g = Grid(4.0, 100)
        assert g.nodes[0] == 0.0
        assert g.nodes[g.n_per_panel] == 1.0
        assert g.nodes[-1] == 4.0
        assert g.n_points == 201
        assert np.all(np.diff(g.nodes) > 0.0)
        # uniform spacing within each panel
        assert np.ptp(np.diff(g.panels(g.nodes), axis=1), axis=1).max() < 1e-15

    def test_panels_is_a_read_only_view_sharing_x_equal_1(self):
        g = Grid(4.0, 8)
        x = g.panels(g.nodes)
        assert x.shape == (2, 9)
        assert x[0, -1] == x[1, 0] == 1.0
        np.testing.assert_array_equal(x, np.stack([g.nodes[:9], g.nodes[8:]]))
        assert np.shares_memory(x, g.nodes)
        with pytest.raises(ValueError, match="read-only"):
            x[1, 0] = 2.0
        # any stride of the node values
        v = np.arange(34.0)[::-2]
        np.testing.assert_array_equal(g.panels(v), np.stack([v[:9], v[8:]]))
        for bad in (np.ones(16), np.ones(18), np.ones((2, 9)), np.ones((17, 1))):
            with pytest.raises(GridMismatchError):
                g.panels(bad)

    def test_nodes_are_read_only(self):
        g = Grid(4.0, 8)
        with pytest.raises(ValueError, match="read-only"):
            g.nodes[3] = 0.5
        assert g.nodes[3] == 0.375

    def test_rejects_bad_configs(self):
        with pytest.raises(GridError):
            Grid(0.5, 100)
        with pytest.raises(GridError):
            Grid(4.0, 101)  # odd
        with pytest.raises(GridError):
            Grid(4.0, 4)   # too few for the cubic stencils

    @pytest.mark.parametrize("n", [2000.0, True, "2000", np.float64(64.0)])
    def test_rejects_a_non_integer_size(self, n):
        with pytest.raises(GridError, match="n_per_panel must be an integer"):
            Grid(4.0, n)

    @pytest.mark.parametrize("x_max", [True, "4"])
    def test_rejects_a_non_real_length(self, x_max):
        with pytest.raises(GridError, match="x_max must be a real number"):
            Grid(x_max, 200)

    def test_size_is_bounded(self):
        with pytest.raises(GridError, match=f"at most MAX_N_PER_PANEL = {MAX_N_PER_PANEL}"):
            Grid(4.0, MAX_N_PER_PANEL + 2)
        with pytest.raises(GridError, match=f"at most MAX_N_PER_PANEL = {MAX_N_PER_PANEL}"):
            Grid(4.0, 10**20)
        assert Grid(4.0, MAX_N_PER_PANEL).n_points == 2 * MAX_N_PER_PANEL + 1

    def test_integer_size_kept_as_python_int(self):
        g = Grid(4.0, np.int64(64))
        assert type(g.n_per_panel) is int and g == Grid(4.0, 64)

    def test_equality_and_hash_by_parameters(self):
        assert Grid(4.0, 64) == Grid(4.0, 64)
        assert hash(Grid(4.0, 64)) == hash(Grid(4.0, 64))
        assert Grid(4.0, 64) != Grid(5.0, 64)
        assert Grid(4.0, 64) != Grid(4.0, 66)
        # trial functions compare by identity
        t = build_trial(P12, Grid(4.0, 64))
        assert t == t and hash(t) == hash(t)
        assert t != build_trial(P12, Grid(4.0, 64))


class TestBuildTrial:
    def test_requires_positive_mixing(self):
        with pytest.raises(ConvergenceDomainError):
            build_trial(PotentialParams(0.5, 2.0), Grid(4.0, 16))

    def test_branches_coincide_at_origin(self):
        assert float(branch_log_ratio(P12, 0.0)) == pytest.approx(0.0, abs=1e-13)

    def test_branch_ratio_at_one(self):
        got = math.exp(float(branch_log_ratio(P12, 1.0)))
        expect = math.exp(2.0 * float(eval_S0(P12, 1.0) - eval_S0(P12, 0.0)))
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(0.13876, abs=1e-4)

    def test_branch_ratio_decreasing_inside_well(self):
        log_ratio = branch_log_ratio(P12, np.linspace(0.0, 1.0, 501))  # inner panel
        assert float(np.diff(log_ratio).max()) < 0.0

    def test_phi_positive_and_peak_normalized(self):
        t = build_trial(P12, Grid())
        assert np.all(np.isfinite(t.log_phi))  # phi = exp(log_phi) > 0
        assert float(t.log_phi.max()) == 0.0

    def test_psi0_normalization_and_peak(self):
        t = build_trial(P12, Grid())
        psi0 = t.psi0
        assert psi0[0] == 1.0
        i = int(np.argmax(psi0))
        x_peak = float(t.grid.nodes[i])
        # interior double-hump of the trial state; at this coupling the hump
        # sits near x ~ 0.6 (the published text only says "near 1")
        assert 0.4 < x_peak < 1.1
        assert psi0[i] > psi0[0]

    def test_phi_prime_zero_at_origin(self):
        t = build_trial(P12, Grid())
        ph = np.exp(t.log_phi)
        d0 = one_sided_deriv5(ph[:5], t.grid.panel_h(0), forward=True)
        assert abs(d0) <= 1e-8 * ph[0]

    def test_c1_continuity_at_matching_point(self):
        t = build_trial(P12, Grid())
        ph = np.exp(t.log_phi)
        i1 = t.grid.n_per_panel
        d_left = one_sided_deriv5(ph[i1 - 4 : i1 + 1][::-1], t.grid.panel_h(0), forward=True)
        d_right = one_sided_deriv5(ph[i1 : i1 + 5], t.grid.panel_h(1), forward=True)
        assert abs(-d_left - d_right) <= 1e-8 * max(abs(d_left), abs(d_right))

    def test_value_continuity_at_matching_point_is_exact(self):
        t = build_trial(P12, Grid(4.0, 64))
        # the outer branch is pinned to the inner value at the shared node
        inner_val = t.log_phi[t.grid.n_per_panel]
        outer_first = t.grid.panels(t.log_phi)[1, 0]
        assert inner_val == outer_first


class TestTrialLogRatio:
    def test_decay_beyond_the_well(self):
        t = build_trial(P12, Grid(4.0, 600))
        i3 = int(np.argmin(np.abs(t.grid.nodes - 3.0)))
        i2 = int(np.argmin(np.abs(t.grid.nodes - 2.0)))
        assert 2.0 * (t.log_phi[i3] - t.log_phi[i2]) < 0.0

    def test_matches_direct_evaluation_at_moderate_x(self):
        t = build_trial(P12, Grid(4.0, 600))
        g = t.grid
        for i in range(g.n_per_panel + 5, g.n_per_panel + 9):
            xz, xy = g.nodes[i + 1], g.nodes[i]
            direct = math.exp(
                -2.0 * P12.g * float(eval_S0(P12, xz) - eval_S0(P12, xy))
                - 2.0 * float(eval_S1(P12, xz) - eval_S1(P12, xy))
            )
            got = math.exp(2.0 * float(t.log_phi[i + 1] - t.log_phi[i]))
            assert got == pytest.approx(direct, rel=1e-12)


def test_truncation_insensitivity_of_first_energy():
    # moving x_max from 4 to 5 moves the first-step energy defect by < 1e-8
    vals = []
    for xm in (4.0, 5.0):
        grid = Grid(xm, 2000)
        t = build_trial(P12, grid)
        w = w_samples(P12, grid)
        vals.append(energy_step(t, w, np.ones(grid.n_points)))
    assert abs(vals[0] - vals[1]) < 1e-8
