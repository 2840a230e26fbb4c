"""Reference eigensolver: the exactly solvable case, a dense cross-check of
the tridiagonal eigensolve, evenness, and shape classification."""

import numpy as np
import pytest

from gdwell import DiscretizationError, OracleConfig, PotentialParams, oracle_ground_state
from gdwell.oracle import _solve_once, peak_census


class TestEigensolver:
    def test_exactly_solvable_case(self, oracle_cache):
        res = oracle_cache(1.0, 2.0)
        assert res.energy == pytest.approx(1.0, abs=1e-4)
        exact = np.exp(-res.x**4 / 4.0)
        assert float(np.max(np.abs(res.psi - exact))) <= 1e-4
        assert res.error_estimate < 1e-4

    def test_strong_coupling_energy(self, oracle_cache):
        res = oracle_cache(3.0, 2.0)
        assert res.energy == pytest.approx(4.5589, abs=5e-4)

    def test_eigenvector_even(self, oracle_cache):
        res = oracle_cache(1.0, 2.0)
        assert float(np.max(np.abs(res.psi - res.psi[::-1]))) <= 1e-8

    def test_sturm_bisection_against_library(self):
        # small problem: the oracle's LAPACK bisection (stebz) against the
        # direct dense eigensolve of the same matrix, built here independently
        p = PotentialParams(1.0, 2.0)
        m = 601
        L = 6.0
        h = 2.0 * L / (m + 1)
        x = -L + h * np.arange(1, m + 1)
        diag = 1.0 / h**2 + 0.5 * (x * x - 1.0) ** 2 * (x * x + 2.0)
        off = -0.5 / h**2
        lam, x_oracle, psi = _solve_once(p, L, m)
        np.testing.assert_array_equal(x_oracle, x)
        T = np.diag(diag) + np.diag(np.full(m - 1, off), 1) + np.diag(np.full(m - 1, off), -1)
        evals, evecs = np.linalg.eigh(T)
        assert lam == pytest.approx(float(evals[0]), abs=1e-10)
        # the eigenvector (stein) with the deterministic sign: positive at x = 0
        ref_vec = evecs[:, 0] * np.sign(evecs[m // 2, 0])
        assert psi[m // 2] > 0.0
        assert float(np.max(np.abs(psi - ref_vec))) <= 1e-8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(n=100)
        with pytest.raises(ValueError):
            OracleConfig(L=0.5)

    def test_discretization_guard(self):
        # a deliberately coarse grid on a huge domain trips the two-level check
        with pytest.raises(DiscretizationError):
            oracle_ground_state(PotentialParams(3.0, 2.0), OracleConfig(L=40.0, n=500))

    def test_cross_check_against_iteration(self, oracle_cache, solve_cache):
        # every distinct (g, a) of the built-in tables: the two independent
        # routes agree, and the alternating bounds bracket the true energy
        for g, a in [(1.0, 2.0), (1.0, 1.8), (1.0, 3.0), (0.88, 2.0),
                     (2.0, 2.0), (3.0, 2.0)]:
            res = oracle_cache(g, a)
            rep = solve_cache(g, a, "II")
            assert abs(res.energy - rep.energies[-1]) <= 5e-4
            assert rep.energies[2] - 1e-9 <= res.energy <= rep.energies[3] + 1e-9


class TestPeakCensus:
    def test_single_peak_case(self, oracle_cache):
        res = oracle_cache(1.0, 2.0)
        assert peak_census(res.x, res.psi).kind == "single-at-0"

    def test_double_peak_case(self, oracle_cache):
        res = oracle_cache(3.0, 2.0)
        rep = peak_census(res.x, res.psi)
        assert rep.kind == "double-near-1"
        assert any(0.5 < p[0] < 1.5 for p in rep.peaks)

    def test_double_peak_large_shape(self, oracle_cache):
        res = oracle_cache(1.0, 3.0)
        assert peak_census(res.x, res.psi).kind == "double-near-1"

    def test_no_interior_peak_classifies_as_other(self):
        x = np.linspace(0.0, 3.0, 500)
        psi = 0.1 + x  # grows right up to the boundary: no strict interior max
        assert peak_census(x, psi).kind == "other"

    def test_half_line_input(self, solve_cache):
        rep = solve_cache(1.0, 2.0, "II")
        census = peak_census(rep.grid.nodes, rep.psi_final)
        assert census.kind == "single-at-0"
