"""Reference eigensolver: the exactly solvable case, a dense cross-check of
the tridiagonal eigensolve, evenness, and shape classification."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdwell import DiscretizationError, Grid, OracleConfig, PotentialParams, oracle_ground_state
from gdwell.oracle import PeakReport, _solve_once, peak_census


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


def reference_peak_census(x, psi):
    """peak_census as the per-node loop it was written as: the specification
    that the vectorised census must match exactly."""
    keep = x >= 0.0
    xs = x[keep]
    ys = np.abs(psi[keep])
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    n = xs.size
    w = 5
    floor = 1e-3 * float(ys.max())
    peaks = []
    for i in range(n):
        lo = max(0, i - w)
        hi = min(n, i + w + 1)
        window = ys[lo:hi]
        if ys[i] < floor or ys[i] < window.max():
            continue
        left_ok = lo == 0 or ys[i] > ys[lo]
        right_ok = hi == n or ys[i] > ys[hi - 1]
        if left_ok and right_ok:
            if peaks and abs(peaks[-1][0] - xs[i]) < (xs[1] - xs[0]) * (w + 1):
                continue
            peaks.append((float(xs[i]), float(ys[i])))
    near_zero = [p for p in peaks if p[0] < 0.3]
    near_one = [p for p in peaks if 0.5 < p[0] < 1.5]
    if near_one and (not near_zero or near_one[0][1] >= near_zero[0][1]):
        kind = "double-near-1"
    elif near_zero:
        kind = "single-at-0"
    else:
        kind = "other"
    return PeakReport(kind=kind, peaks=peaks)


# few distinct levels give ties and flat tops; 1e-4 sits under the floor
LEVELS = st.one_of(st.sampled_from([0.0, 1e-4, 0.5, 1.0, 1.0, 2.0]),
                   st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def census_inputs(draw):
    layout = draw(st.sampled_from(["half-line", "full-line", "two-panel"]))
    if layout == "half-line":
        # sizes around the 2w+1 = 11 node window, where both ends clip
        x = np.linspace(0.0, draw(st.sampled_from([1.0, 2.0, 4.0])), draw(st.integers(1, 30)))
    elif layout == "full-line":
        k = draw(st.integers(1, 20))
        x = np.linspace(-3.0, 3.0, 2 * k + 1)[draw(st.permutations(range(2 * k + 1)))]
    else:
        # the iteration grid: two panels whose spacings differ
        x = Grid(draw(st.sampled_from([1.5, 4.0])), draw(st.sampled_from([8, 10, 12]))).nodes
    psi = np.array(draw(st.lists(LEVELS, min_size=x.size, max_size=x.size)))
    return x, psi


class TestPeakCensusAgainstLoop:
    @settings(max_examples=200, deadline=None)
    @given(census_inputs())
    @example((np.linspace(0.0, 2.0, 12), np.ones(12)))                # flat, both ends clip
    @example((np.linspace(0.0, 2.0, 13), np.r_[np.zeros(6), 1.0, np.zeros(6)]))
    @example((np.linspace(0.0, 2.0, 7), np.r_[2.0, 0.0, 0.0, 0.0, 0.0, 2.0, 1.0]))
    def test_matches_per_node_loop(self, inputs):
        x, psi = inputs
        assert peak_census(x, psi) == reference_peak_census(x, psi)

    def test_matches_per_node_loop_on_table_wavefunctions(self, oracle_cache, solve_cache):
        for g, a in [(1.0, 2.0), (1.0, 1.8), (0.88, 2.0), (1.0, 3.0), (3.0, 2.0)]:
            res = oracle_cache(g, a)
            assert peak_census(res.x, res.psi) == reference_peak_census(res.x, res.psi)
            rep = solve_cache(g, a, "II")
            nodes, psi = rep.grid.nodes, rep.psi_final
            assert peak_census(nodes, psi) == reference_peak_census(nodes, psi)
