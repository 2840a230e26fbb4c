"""Quadrature layer: exactness, analytic double-integral oracles against a
mocked trial function, the naive-summation cross-check on a zero-total
integrand, the running node sums against the interval-by-interval
reference, and the solver's step cap on trial functions the rule takes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import nested_arrays
from gdwell import GridError, GridMismatchError, PotentialParams
from gdwell.quadrature import (
    integrate_against_phi2,
    nested_origin,
    nested_tail,
)
from gdwell.quadrature import (
    _SCAN_BAND,
    _factors,
    _ghost_end,
    _inner_scaled,
    _node_cumulative,
    _run_scan,
    _samples,
)
from gdwell.solver import STEP_CAP, _check_grid, _largest_step, energy_step, w_samples
from gdwell.trial import Grid, TrialFunction, build_trial

P12 = PotentialParams(1.0, 2.0)


# The reference: the interval-by-interval form of the same rule, against
# which the package's running node sums are checked.  Every interval
# integral is formed from its own stencil, with hand-written one-sided
# stencils at the panel ends, and the cumulatives are scans of those
# integrals.

def _interval_integrals(y: np.ndarray, grid: Grid, up: np.ndarray | None = None,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Integrals of y * phi^2 over the intervals of both panels, each scaled
    by phi^2(left node), from the cubic through the four nearest nodes with
    the phi^2 ratios of its stencil, formed from the step ratios up, folded
    into its weights; without up, the plain interval integrals of y (every
    ratio 1).  They are written into out, a (2, n_per_panel) array of the
    caller's own, or a new one."""
    n = grid.n_per_panel
    if out is None:
        out = np.empty((2, n))
    t = np.empty(n - 2)
    for p, (v, o) in enumerate(zip(y, out)):
        h = grid.panel_h(p)
        if up is None:
            up0 = e02 = e03 = em2 = em3 = upn = 1.0
        else:
            # the end stencils' phi^2(2)/phi^2(0), phi^2(3)/phi^2(0),
            # phi^2(n-2)/phi^2(n-1) and phi^2(n-3)/phi^2(n-1)
            u = up[p]
            up0, upn, em2 = u[0], u[n - 1], 1.0 / u[n - 2]
            e02 = up0 * u[1]
            e03, em3 = e02 * u[2], em2 / u[n - 3]
        o[0] = h * (9.0 * v[0] + 19.0 * v[1] * up0 - 5.0 * v[2] * e02 + v[3] * e03) / 24.0
        o[-1] = h * (v[n - 3] * em3 - 5.0 * v[n - 2] * em2 + 19.0 * v[n - 1]
                     + 9.0 * v[n] * upn) / 24.0
        # h (-v_{k-1} / up_{k-1} + 13 v_k + 13 v_{k+1} up_k
        # - v_{k+2} up_k up_{k+1}) / 24
        mid = o[1:-1]
        np.negative(v[0 : n - 2], out=mid)
        if up is not None:
            mid /= u[0 : n - 2]
        mid += np.multiply(13.0, v[1 : n - 1], out=t)
        np.multiply(13.0, v[2:n], out=t)
        if up is not None:
            t *= u[1 : n - 1]
        mid += t
        if up is None:
            mid -= v[3 : n + 1]
        else:
            np.multiply(v[3 : n + 1], u[1 : n - 1], out=t)
            t *= u[2:n]
            mid -= t
        mid *= h
        mid /= 24.0
    return out


def step_ratios(t: TrialFunction) -> np.ndarray:
    """phi^2(x_{k+1}) / phi^2(x_k) on both panels, (2, n_per_panel), from
    log phi."""
    return np.exp(np.diff(2.0 * t.grid.panels(t.log_phi)))


def _peak_split(f, log_phi: np.ndarray, out: np.ndarray) -> None:
    """prefix(x_k) at the nodes left of the phi^2 peak and suffix(x_k) from
    the peak on, in place in out, whose entries but the last hold the scaled
    interval integrals of both panels in node order on entry.  The interval
    ending at node k is summed into prefix(x_k) and the one starting there
    into suffix(x_k), so the prefix terms move one node up first, by the
    step ratios of log_phi; the interval into the peak enters neither, and
    out is 0 at x_max and, but for a peak at 0, at 0.  Both sums run in the
    package's blocked scans, in the band units e^{2 log phi - A} formed here."""
    l2 = 2.0 * log_phi
    m = max(f.peak - 1, 0)
    out[1 : m + 1] = out[:m]
    out[1 : m + 1] /= np.exp(np.diff(l2))[:m]
    out[: min(f.peak, 1)] = 0.0
    out[-1] = 0.0
    into = np.exp(l2 - _SCAN_BAND * np.floor(l2 / _SCAN_BAND))
    for x, e, blocks in [(out[1 : m + 1], into[1 : m + 1], f.prefix),
                         (out[f.peak : -1][::-1], into[f.peak : -1][::-1], f.suffix)]:
        x *= e
        _run_scan(x, blocks)
        x /= e


def reference_inner(t: TrialFunction, h_samples) -> np.ndarray:
    """_inner_scaled by interval integrals: unsigned prefix and suffix."""
    f, grid = _factors(t), t.grid
    n = grid.n_per_panel
    inner = np.empty(2 * n + 1)
    _interval_integrals(_samples(grid, h_samples), grid, step_ratios(t),
                        out=inner[: 2 * n].reshape(2, n))
    _peak_split(f, t.log_phi, inner)
    return inner


def reference_cumulative(grid: Grid, tt: np.ndarray, suffix: bool) -> np.ndarray:
    """_node_cumulative by interval integrals, chained across the panels."""
    n = grid.n_per_panel
    iv = _interval_integrals(grid.panels(tt), grid)
    out = np.empty(2 * n + 1)
    if suffix:
        out[-1] = 0.0
        np.cumsum(iv[1, ::-1], out=out[2 * n - 1 : n - 1 : -1])
        np.cumsum(iv[0, ::-1], out=out[n - 1 :: -1])
        out[:n] += out[n]
    else:
        out[0] = 0.0
        np.cumsum(iv[0], out=out[1 : n + 1])
        np.cumsum(iv[1], out=out[n + 1 :])
        out[n + 1 :] += out[n]
    return out


def reference_nested(t: TrialFunction, h_samples, tail: bool) -> np.ndarray:
    """nested_tail (tail=True) or nested_origin by interval integrals."""
    f = _factors(t)
    inner = reference_inner(t, h_samples)
    side = slice(None, f.peak) if tail else slice(f.peak, None)
    inner[side] *= -1.0
    return reference_cumulative(t.grid, inner, suffix=tail)


def mock_trial(grid: Grid, log_phi: np.ndarray) -> TrialFunction:
    return TrialFunction(P12, grid, log_phi, np.exp(log_phi - log_phi[0]))


def flat_trial(grid: Grid) -> TrialFunction:
    return mock_trial(grid, np.zeros(grid.n_points))


def plain_integral(grid: Grid, values) -> float:
    """Plain integral over [0, x_max]: the phi^2 integral with phi = 1."""
    return integrate_against_phi2(values, flat_trial(grid))


def plain_intervals(grid: Grid, values) -> np.ndarray:
    """Plain interval integrals of node values, (2, n_per_panel): the
    interval kernel without a stencil."""
    return _interval_integrals(grid.panels(values), grid)


def zero_total(t: TrialFunction, h: np.ndarray) -> np.ndarray:
    """h - <h>_phi^2: the integrand with its phi^2-weighted mean removed, as
    the nested operators require."""
    mean = integrate_against_phi2(h, t) / integrate_against_phi2(
        np.ones(t.grid.n_points), t)
    return h - mean


class TestIntegrate:
    def test_simpson_exact_on_cubics_unit_panel(self):
        g = Grid(4.0, 64)
        x = g.panels(g.nodes)[0]
        iv = plain_intervals(g, g.nodes**3)[0]
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
        totals = plain_intervals(g, np.ones(g.n_points)).sum(axis=1)
        np.testing.assert_allclose(totals, [1.0, 3.0], rtol=0.0, atol=1e-13)

    def test_mismatched_samples_rejected(self):
        g = Grid(4.0, 64)
        t = flat_trial(g)
        with pytest.raises(GridMismatchError):
            integrate_against_phi2(np.ones(g.n_points + 1), t)
        with pytest.raises(GridMismatchError):
            integrate_against_phi2(np.ones((2, 3)), t)
        with pytest.raises(GridMismatchError):
            integrate_against_phi2(np.ones((2, g.n_points)), t)

    def test_interval_rule_total_matches_simpson_order(self):
        # the cubic interval rule integrates smooth functions at O(h^4), with
        # phi = 1 folded into its stencils and in the plain rule
        g = Grid(4.0, 512)
        y = np.sin(g.nodes)
        exact = 1.0 - math.cos(4.0)
        assert plain_integral(g, y) == pytest.approx(exact, abs=1e-10)
        assert plain_intervals(g, y).sum() == pytest.approx(exact, abs=1e-10)

    def test_folded_rule_exact_on_cubics_on_both_panels(self):
        # phi^2 = e^{-x}: with values c(x) e^{x} the integrand values * phi^2
        # is the cubic c, which the folded rule integrates exactly, interval
        # by interval, on both panels
        g = Grid(4.0, 64)
        t = mock_trial(g, -g.nodes / 2.0)
        c = np.polynomial.Polynomial([1.0, 0.5, -1.0, 2.0])
        C = c.integ()
        iv = _interval_integrals(g.panels(c(g.nodes) * np.exp(g.nodes)), g, step_ratios(t))
        x = g.panels(g.nodes)
        anchors = np.exp(2.0 * g.panels(t.log_phi)[:, :-1])  # phi^2(x_k), k < n
        np.testing.assert_allclose(iv * anchors, C(x[:, 1:]) - C(x[:, :-1]),
                                   rtol=1e-12, atol=0.0)
        got = integrate_against_phi2(c(g.nodes) * np.exp(g.nodes), t)
        assert got == pytest.approx(C(4.0) - C(0.0), rel=1e-13)


    def test_weights_are_composite_rule_times_phi2(self):
        g = Grid(4.0, 64)
        t = mock_trial(g, -g.nodes / 2.0)
        ends = np.array([8.0, 31.0, 20.0, 25.0])
        c = np.concatenate([ends, np.full(g.n_per_panel - 7, 24.0), ends[::-1]]) / 24.0
        h = np.array([[g.panel_h(0)], [g.panel_h(1)]])
        w = _factors(t).weights
        np.testing.assert_allclose(w, h * c * np.exp(-g.panels(g.nodes)), rtol=1e-15, atol=0.0)
        # on phi = 1 the weights are h_p c_k, which sum to each panel's length
        w = _factors(flat_trial(g)).weights
        np.testing.assert_array_equal(w, h * c)
        np.testing.assert_allclose(w.sum(axis=1), [1.0, 3.0], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("g, a", [
        (g, a) for g in (0.6, 1.0, 3.0, 8.0, 20.0) for a in (0.7, 2.0, 12.0, 100.0)
        if PotentialParams(g, a).Gamma > 0.0])
    def test_weighted_sum_matches_folded_interval_integrals(self, g, a):
        # the node-weight sum against the folded stencil kernel un-scaled by
        # phi^2(x_k), on census trial functions
        p = PotentialParams(g, a)
        grid = Grid(4.0, 2000)
        t = build_trial(p, grid)
        up = step_ratios(t)
        anchors = np.exp(2.0 * grid.panels(t.log_phi)[:, :-1])
        for y in (np.ones((2, grid.n_per_panel + 1)), w_samples(p, grid)):
            ref = float(np.sum(_interval_integrals(y, grid, up) * anchors))
            assert integrate_against_phi2(y, t) == pytest.approx(ref, rel=1e-14, abs=0.0)


class TestNestedOperators:
    def test_zero_integrand(self):
        g = Grid(4.0, 64)
        t = flat_trial(g)
        zeros = np.zeros(g.n_points)
        assert np.all(nested_tail(zeros, t) == 0.0)
        assert np.all(nested_origin(zeros, t) == 0.0)

    def test_constant_integrand_flat_trial_tail(self):
        g = Grid(4.0, 200)
        t = flat_trial(g)
        c = 0.7
        F = nested_tail(np.full(g.n_points, c), t)
        expect = c * (g.x_max - g.nodes) ** 2 / 2.0
        np.testing.assert_allclose(F, expect, rtol=1e-12, atol=1e-12)
        assert F[-1] == 0.0

    def test_zero_total_linear_integrand_flat_trial(self):
        # h = x - L/2 integrates to zero over [0, L]; the cubic rule is exact
        # on both double integrals
        g = Grid(4.0, 200)
        t = flat_trial(g)
        x, L = g.nodes, g.x_max
        F = nested_tail(x - L / 2.0, t)
        expect = L**3 / 12.0 - L * x**2 / 4.0 + x**3 / 6.0
        np.testing.assert_allclose(F, expect, rtol=1e-12, atol=1e-12)
        assert F[-1] == 0.0
        F = nested_origin(x - L / 2.0, t)
        expect = x**3 / 6.0 - L * x**2 / 4.0
        np.testing.assert_allclose(F, expect, rtol=1e-12, atol=1e-12)
        assert F[0] == 0.0

    def test_origin_always_zero_at_zero(self):
        g = Grid(4.0, 64)
        t = build_trial(P12, g)
        F = nested_origin(zero_total(t, w_samples(P12, g)), t)
        assert F[0] == 0.0

    def test_naive_double_loop_cross_check(self):
        # same interval rule, plain (unfolded) arithmetic, O(n^2) assembly
        g = Grid(4.0, 100)  # ~200 intervals
        t = build_trial(P12, g)
        h_samp = zero_total(t, w_samples(P12, g))
        F = nested_tail(h_samp, t)

        phi2 = np.exp(2.0 * g.panels(t.log_phi))
        iv_parts = _interval_integrals(h_samp * phi2, g)
        # T at each node of each panel by full re-summation
        n = g.n_per_panel
        t_nodes = np.empty(g.n_points)
        for p in (0, 1):
            for j in range(n + 1):
                tail = iv_parts[p][j:].sum()
                if p == 0:
                    tail += iv_parts[1].sum()
                t_nodes[p * n + j] = tail
        tt = t_nodes / np.exp(2.0 * t.log_phi)
        F_naive = np.empty(g.n_points)
        iv2 = _interval_integrals(g.panels(tt), g)
        for p in (0, 1):
            for j in range(n + 1):
                val = iv2[p][j:].sum()
                if p == 0:
                    val += iv2[1].sum()
                F_naive[p * n + j] = val
        scale = np.abs(F).max()
        assert float(np.max(np.abs(F - F_naive))) <= 1e-12 * scale

    def test_folded_exponents_stay_negative_beyond_peak(self):
        g = Grid(4.0, 400)
        t = build_trial(PotentialParams(3.0, 2.0), g)
        dlp = 2.0 * np.diff(g.panels(t.log_phi)[1])
        i_peak = int(np.argmax(t.log_phi))
        assert float(dlp[max(0, i_peak - g.n_per_panel) + 1 :].max()) <= 0.0
        assert float(np.abs(dlp).max()) <= 30.0

    def test_overflow_guard_trips_on_absurd_slope(self):
        # the rule takes the steep trial function; the solve's check rejects it
        g = Grid(4.0, 16)
        t = mock_trial(g, -20.0 * np.arange(g.n_points, dtype=float))
        assert np.all(np.isfinite(nested_tail(np.ones(g.n_points), t)))
        with pytest.raises(GridError, match="step of 2 log phi"):
            _check_grid(P12, t, w_samples(P12, g))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_guard_caps_every_single_step(self, sign):
        # one step of 2 log phi, up or down, among steps of -2 whose tail
        # leaves phi^2(x_max) below e^-59: a step just over the cap trips the
        # check and one just under it passes both of its tests
        g = Grid(4.0, 16)
        w = w_samples(P12, g)
        for step, admitted in [(STEP_CAP - 0.01, True), (STEP_CAP + 0.01, False)]:
            steps = np.full(g.n_points - 1, -2.0)
            steps[20] = sign * step
            l2 = np.concatenate([[0.0], np.cumsum(steps)])
            t = mock_trial(g, (l2 - l2.max()) / 2.0)
            if admitted:
                _check_grid(P12, t, w)
                assert _largest_step(t) == pytest.approx(step, abs=1e-12)
            else:
                with pytest.raises(GridError, match="step of 2 log phi"):
                    _check_grid(P12, t, w)

    @pytest.mark.parametrize("op,peak", [(nested_origin, "first"), (nested_tail, "last")])
    def test_far_side_of_peak_stays_finite(self, op, peak):
        # 2 log phi falls by 9.5 per interval away from the peak, so a total
        # divided by phi^2 on the far side of the peak would reach e^{+1200};
        # the operators never form it
        g = Grid(4.0, 64)
        k = np.arange(g.n_points, dtype=float)
        dist = k if peak == "first" else k[::-1]
        t = mock_trial(g, -4.75 * dist)
        h = zero_total(t, g.nodes)
        assert np.all(np.isfinite(op(h, t)))

    def test_deterministic(self):
        g = Grid(4.0, 128)
        t = build_trial(P12, g)
        w = w_samples(P12, g)
        a = nested_tail(w, t)
        b = nested_tail(w, t)
        assert np.array_equal(a, b)
        assert integrate_against_phi2(np.ones(g.n_points), t) == integrate_against_phi2(
            np.ones(g.n_points), t
        )


def test_grid_convergence_of_nested_outputs():
    # doubling the node count moves the nested-integral outputs by < 1e-7
    vals = {}
    for n in (2000, 4000):
        g = Grid(4.0, n)
        t = build_trial(P12, g)
        h_samp = zero_total(t, w_samples(P12, g))
        vals[n] = nested_tail(h_samp, t)[0]
    assert abs(vals[2000] - vals[4000]) <= 1e-7 * max(1.0, abs(vals[4000]))


def peak_split(t: TrialFunction, iv: np.ndarray) -> np.ndarray:
    """_peak_split of the interval integrals iv (node order), in a new array."""
    out = np.append(iv, np.nan)
    _peak_split(_factors(t), t.log_phi, out)
    return out


def reference_scans(log_phi: np.ndarray, iv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """prefix(x_k) and suffix(x_k) at every node by per-node recurrences that
    re-anchor at each node: suffix_k = suffix_{k+1} phi^2_{k+1}/phi^2_k + iv_k
    and prefix_{k+1} = (prefix_k + iv_k) phi^2_k/phi^2_{k+1}."""
    up = np.exp(2.0 * np.diff(log_phi)).tolist()
    ivl = iv.tolist()
    n = len(ivl)
    suffix = [0.0] * (n + 1)
    acc = 0.0
    for k in range(n - 1, -1, -1):
        acc = acc * up[k] + ivl[k]
        suffix[k] = acc
    prefix = [0.0] * (n + 1)
    acc = 0.0
    for k in range(n):
        acc = (acc + ivl[k]) / up[k]
        prefix[k + 1] = acc
    return np.array(prefix), np.array(suffix)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([8, 16, 64, 128]),
    peak=st.sampled_from(["first", "last", "x=1", "interior"]),
    slope_left=st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
    slope_right=st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
    seed=st.integers(0, 2**16),
)
@example(n=128, peak="x=1", slope_left=5.0, slope_right=5.0, seed=0)
@example(n=128, peak="first", slope_left=0.0, slope_right=5.0, seed=1)
@example(n=128, peak="last", slope_left=5.0, slope_right=0.0, seed=2)
@example(n=1024, peak="x=1", slope_left=5.0, slope_right=5.0, seed=3)
def test_blocked_scan_matches_per_node_recurrence(n, peak, slope_left, slope_right, seed):
    # 2 log phi rises by up to 9.5 per interval to the peak and falls after
    # it (every step stays below the guard's cap of 10); steep slopes cross
    # a 200-wide scan band every few dozen nodes, so 2048 intervals force
    # many blocks
    g = Grid(4.0, n)
    rng = np.random.default_rng(seed)
    n_iv = g.n_points - 1
    i_peak = {"first": 0, "last": n_iv, "x=1": g.n_per_panel,
              "interior": int(rng.integers(1, n_iv))}[peak]
    rise = slope_left * (1.0 + 0.9 * rng.uniform(-1.0, 1.0, n_iv))
    fall = slope_right * (1.0 + 0.9 * rng.uniform(-1.0, 1.0, n_iv))
    d2 = np.where(np.arange(n_iv) < i_peak, rise, -fall)
    log_phi = np.concatenate([[0.0], np.cumsum(d2)]) / 2.0
    log_phi -= log_phi.max()
    # the scans never read psi0; phi/phi(0), as mock_trial forms it,
    # overflows once the peak exceeds phi(0) by e^{+709}
    t = TrialFunction(P12, g, log_phi, np.exp(log_phi))
    f = _factors(t)
    if slope_left > 0.0 and slope_right > 0.0:
        assert f.peak == i_peak
    iv = rng.uniform(0.1, 1.0, n_iv)
    got = peak_split(t, iv)
    prefix, suffix = reference_scans(log_phi, iv)
    np.testing.assert_allclose(got[: f.peak], prefix[: f.peak], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[f.peak :], suffix[f.peak :], rtol=1e-12, atol=0.0)
    if min(slope_left, slope_right) == 5.0 and n == 1024:
        assert len(f.prefix) + len(f.suffix) >= 40


@pytest.mark.parametrize("n", [2000, 16000])
@pytest.mark.parametrize("g,a", [(20.0, 12.0), (20.0, 100.0)])
def test_scans_of_strong_coupling_trials_stay_in_range(g, a, n):
    # 2 log phi spans thousands here; every kept factor and every scan
    # output stays a normal float, the scans match the per-node recurrences,
    # and the blocks are as few as the bands the scan crosses allow
    grid = Grid(4.0, n)
    t = build_trial(PotentialParams(g, a), grid)
    f = _factors(t)
    hs = [grid.panel_h(0), grid.panel_h(1)]
    # a term factor is h e^{2 log phi_j - A_k}, node j one step from k, so
    # its exponent lies within the largest step of the band [0, B) that
    # 2 log phi_k - A_k lies in: (-2.7, 202.7) on the grids the solver takes;
    # the scale e^{A_k - 2 log phi_k} lies within one band below 1
    step = _largest_step(t) + 0.1
    assert np.all((f.hk > min(hs) * math.exp(-step))
                  & (f.hk < max(hs) * math.exp(_SCAN_BAND + step)))
    assert np.all((f.scale > math.exp(-_SCAN_BAND)) & (f.scale <= 1.0))
    assert f.hk.size == f.scale.size == 2 * n - f.first
    l2 = 2.0 * t.log_phi
    m = max(f.peak - 1, 0)
    for blocks, l2c in [(f.prefix, l2[1 : m + 1]), (f.suffix, l2[f.peak : -1])]:
        assert sum(stop - start for start, stop, _ in blocks) == l2c.size
        if l2c.size:
            span = float(l2c.max() - l2c.min())
            assert len(blocks) <= math.ceil(span / _SCAN_BAND) + 1
    iv = _interval_integrals(np.ones((2, n + 1)), grid, step_ratios(t)).ravel()
    got = peak_split(t, iv)
    for scanned in (got[1 : m + 1], got[f.peak : -1]):
        assert np.all(np.isfinite(scanned))
        assert np.all(np.abs(scanned) >= np.finfo(float).tiny)
    prefix, suffix = reference_scans(t.log_phi, iv)
    np.testing.assert_allclose(got[: f.peak], prefix[: f.peak], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[f.peak :], suffix[f.peak :], rtol=1e-12, atol=0.0)
    # and the kernel's own scaled sums, on an integrand of the iteration's form
    p = PotentialParams(g, a)
    w = w_samples(p, grid)
    inner = _inner_scaled(f, grid, (w - energy_step(t, w, np.ones(grid.n_points))))
    assert np.all(np.isfinite(inner))


def integer_stencils(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes u_{-1}..u_{n+1} of one panel as integer weight rows over
    u_0..u_n, ghosts from the cubic through the four end nodes, and the
    interior stencil (-1, 13, 13, -1) of every interval on them, in units of
    h/24, one row per interval."""
    eye = np.eye(n + 1, dtype=int)
    ghost_lo = 4 * eye[0] - 6 * eye[1] + 4 * eye[2] - eye[3]
    ghost_hi = 4 * eye[n] - 6 * eye[n - 1] + 4 * eye[n - 2] - eye[n - 3]
    ext = np.vstack([ghost_lo, eye, ghost_hi])  # ext[j + 1] is u_j
    return ext, -ext[:-3] + 13 * ext[1:-2] + 13 * ext[2:-1] - ext[3:]


def test_ghost_identity_on_integer_stencil_weights():
    # the one-sided end stencils are the interior one with the ghost values,
    # and the intervals before node b sum to 24 per node 1..b-1, the end
    # term and the closure at b; at b = n that is the composite rule
    n = 10
    ext, stencils = integer_stencils(n)
    assert stencils[0, :4].tolist() == [9, 19, -5, 1] and not stencils[0, 4:].any()
    assert stencils[-1, -4:].tolist() == [1, -5, 19, 9] and not stencils[-1, :-4].any()
    opening = 12 * ext[1] + ext[2] - ext[0]
    assert opening[:4].tolist() == [8, 7, -4, 1] and not opening[4:].any()
    assert [_ghost_end(24.0, *e) for e in np.eye(4)] == [8.0, 7.0, -4.0, 1.0]
    for b in range(1, n + 1):
        closure = ext[b] + 12 * ext[b + 1] - ext[b + 2]
        assert np.array_equal(stencils[:b].sum(axis=0),
                              24 * ext[2 : b + 1].sum(axis=0) + opening + closure)
    assert stencils.sum(axis=0).tolist() == [8, 31, 20, 25] + [24] * (n - 7) + [25, 20, 31, 8]
    # the reference kernel's stencils are these, on both panels
    g = Grid(3.0, 8)
    _, stencils = integer_stencils(8)
    for p in (0, 1):
        got = np.array([_interval_integrals(np.vstack([e, e]), g)[p] for e in np.eye(9)]).T
        np.testing.assert_allclose(got * 24.0 / g.panel_h(p), stencils, rtol=0.0, atol=1e-13)


def assert_matches_reference(t: TrialFunction, h_samples, rtol: float, atol_of_max: float):
    """nested_tail, nested_origin and _inner_scaled against the interval
    reference, within rtol at every node plus atol_of_max of the largest
    reference value; the nested operators' pinned ends stay exactly 0."""
    f = _factors(t)
    tail, origin = nested_tail(h_samples, t), nested_origin(h_samples, t)
    assert tail[-1] == 0.0 and origin[0] == 0.0
    for got, ref in [(tail, reference_nested(t, h_samples, True)),
                     (origin, reference_nested(t, h_samples, False)),
                     (_inner_scaled(f, t.grid, h_samples), reference_inner(t, h_samples))]:
        np.testing.assert_allclose(got, ref, rtol=rtol, atol=atol_of_max * np.abs(ref).max())


@pytest.mark.parametrize("g, a, n", [
    (1.0, 2.0, 64), (1.0, 2.0, 2000), (0.88, 2.0, 64), (0.88, 2.0, 2000), (3.0, 2.0, 200),
    (3.0, 2.0, 2000), (8.0, 6.0, 1000), (12.0, 12.0, 1000), (20.0, 100.0, 2000)])
def test_running_sums_match_the_interval_reference(g, a, n):
    # census trial functions, with integrands (w - curly_E) f of the
    # iteration's form; 1e-12 per node, but where a sum crosses zero its
    # rounding is relative to its neighbours, so a floor far below one ulp
    # of the largest value is allowed
    p = PotentialParams(g, a)
    grid = Grid(4.0, n)
    t, w = build_trial(p, grid), w_samples(p, grid)
    x = grid.nodes
    for f in (np.ones(grid.n_points), 1.0 + 0.5 * np.cos(3.0 * x), 1.0 / (1.0 + x * x)):
        h = (w - energy_step(t, w, f)) * grid.panels(f)
        assert_matches_reference(t, h, rtol=1e-12, atol_of_max=1e-16)


def assert_every_peak_matches_reference(grid: Grid, rng: np.random.Generator,
                                        low: float, high: float):
    """Synthetic trial functions with the phi^2 peak at every node in turn,
    steps of 2 log phi drawn from [low, high) in size, and zero-total random
    integrands, against the interval reference."""
    k = np.arange(grid.n_points - 1)
    for peak in range(grid.n_points):
        steps = np.where(k < peak, 1.0, -1.0) * rng.uniform(low, high, k.size)
        log_phi = np.concatenate([[0.0], np.cumsum(steps)]) / 2.0
        log_phi -= log_phi.max()
        t = TrialFunction(P12, grid, log_phi, np.exp(log_phi))
        assert _factors(t).peak == peak
        assert_matches_reference(t, zero_total(t, rng.uniform(-1.0, 1.0, grid.n_points)),
                                 rtol=0.0, atol_of_max=1e-13)


@pytest.mark.parametrize("n", [8, 12, 64])
def test_running_sums_match_the_interval_reference_for_every_peak(n):
    # every peak with steps of 2 log phi up to 3 in size, then the plain
    # cumulatives in both directions; then steps of 20 to 150, far below
    # the band width yet putting several band changes within one closure's
    # reach, beside the peak, at x = 1 and at the panel ends, where the
    # fix-up condition decides which closures take stencils
    grid = Grid(4.0, n)
    rng = np.random.default_rng(n)
    assert_every_peak_matches_reference(grid, rng, 0.1, 3.0)
    tt = rng.uniform(-1.0, 1.0, grid.n_points)
    for suffix in (True, False):
        ref = reference_cumulative(grid, tt, suffix)
        np.testing.assert_allclose(_node_cumulative(grid, tt, suffix), ref,
                                   rtol=0.0, atol=1e-13 * np.abs(ref).max())
    assert_every_peak_matches_reference(grid, rng, 20.0, 150.0)


def census_trial(g: float, a: float, n: int) -> tuple[TrialFunction, np.ndarray]:
    """The census trial function and w samples of (g, a) on Grid(4, n)."""
    p, grid = PotentialParams(g, a), Grid(4.0, n)
    return build_trial(p, grid), w_samples(p, grid)


@pytest.mark.parametrize("case", ["peak at x=1", "peak right of x=1", "deep well"])
def test_fix_ups_match_the_interval_reference(case):
    # one case per fix-up of the kernel's terms and closures that the
    # census runs above may miss: the two-sided x = 1 node as the peak and
    # as the first node right of it, and a well whose scans cross 15 bands
    g, a, n = (20.0, 12.0, 8000) if case == "deep well" else (12.0, 73.282, 200)
    t, w = census_trial(g, a, n)
    if case == "peak right of x=1":
        # phi falls right of x = 1 on every census trial, as S1'(1) > 0 there,
        # so the node right of it is raised above x = 1 by hand
        log_phi = t.log_phi.copy()
        log_phi[n + 1] = log_phi[n] + 0.01
        log_phi -= log_phi.max()
        t = TrialFunction(t.params, t.grid, log_phi, np.exp(log_phi))
    f = _factors(t)
    if case == "deep well":
        assert len(f.prefix) + len(f.suffix) - 2 >= 15
    else:
        assert f.peak == n + (case == "peak right of x=1")
    x = t.grid.nodes
    for fn in (np.ones(x.size), 1.0 + 0.5 * np.cos(3.0 * x), 1.0 / (1.0 + x * x)):
        h = (w - energy_step(t, w, fn)) * t.grid.panels(fn)
        assert_matches_reference(t, h, rtol=1e-12, atol_of_max=1e-16)


def synthetic_trial(n: int, peak: int) -> TrialFunction:
    """A trial function on Grid(4, n) whose 2 log phi rises by 1 per step to
    the node peak and falls by 2 per step after it."""
    grid = Grid(4.0, n)
    k = np.arange(grid.n_points - 1)
    log_phi = np.concatenate([[0.0], np.cumsum(np.where(k < peak, 1.0, -2.0))]) / 2.0
    log_phi -= log_phi.max()
    return TrialFunction(P12, grid, log_phi, np.exp(log_phi))


@pytest.mark.parametrize("peak", [0, 1, 63, 64, 65, 127, 128])
def test_pinned_ends_are_zero_bit_for_bit(peak):
    # F(x_max) of nested_tail and F(0) of nested_origin are +0.0, as are the
    # inner sums at x_max and, but for a peak at 0, at 0, wherever the peak
    rng = np.random.default_rng(peak)
    for t in (synthetic_trial(64, peak), census_trial(3.0, 2.0, 64)[0]):
        h = zero_total(t, rng.uniform(-1.0, 1.0, t.grid.n_points))
        inner = _inner_scaled(_factors(t), t.grid, h)
        zeros = [nested_tail(h, t)[-1], nested_origin(h, t)[0], inner[-1]]
        if _factors(t).peak > 0:
            zeros.append(inner[0])
        assert [np.float64(z).tobytes() for z in zeros] == [np.float64(0.0).tobytes()] * len(zeros)


@pytest.mark.parametrize("t", [
    pytest.param(census_trial(1.0, 2.0, 2000)[0], id="(1, 2)"),
    pytest.param(census_trial(12.0, 73.282, 2000)[0], id="(12, 73.282)"),
    pytest.param(census_trial(20.0, 100.0, 2000)[0], id="(20, 100)"),
    pytest.param(synthetic_trial(2000, 0), id="peak at 0"),
    pytest.param(synthetic_trial(2000, 4000), id="peak at x_max")])
def test_factors_keep_no_more_node_bytes_than_step_ratios_and_scan_units(t):
    # the node arrays kept per trial function are the node weights, the term
    # factors and the scales: no more bytes than the node weights, the step
    # ratios of both panels and the band units of both scans took; the rest
    # is the fix-ups, a few per band change
    f = _factors(t)
    n = t.grid.n_per_panel
    node_arrays = [a for a in nested_arrays(f) if a.size >= n]
    assert [a.shape for a in node_arrays] == [f.weights.shape, f.hk.shape, f.scale.shape]
    band_units = max(f.peak - 1, 0) + 2 * n - f.peak
    assert sum(a.nbytes for a in node_arrays) <= 8 * ((2 * n + 2) + 2 * n + band_units)
    changes = len(f.prefix) + len(f.suffix)
    assert f.coef.shape[0] == f.term_at.size + f.close_at.size <= 3 + 10 + 4 * changes


def flat_topped_trial(n: int, lo: int, hi: int) -> TrialFunction:
    """A trial function on Grid(4, n) whose 2 log phi rises by 1 per step to
    the node lo, stays at its maximum 0 to the node hi and falls by 2 per
    step after it: its peak, the first maximum, shares its band with the
    nodes of the flat top after it."""
    grid = Grid(4.0, n)
    k = np.arange(grid.n_points - 1)
    steps = np.select([k < lo, k < hi], [1.0, 0.0], -2.0)
    log_phi = np.concatenate([[0.0], np.cumsum(steps)]) / 2.0
    log_phi -= log_phi.max()
    return TrialFunction(P12, grid, log_phi, np.exp(log_phi))


def assert_band_separates_the_peak(t: TrialFunction) -> None:
    """2 log phi peaks at exactly 0, in band [0, B), and the node before the
    peak lies in band [-B, 0), so the band condition alone makes the
    closures whose three scan entries reach across the peak take stencils."""
    f = _factors(t)
    l2 = 2.0 * t.log_phi
    anchor = np.floor(l2 / _SCAN_BAND) * _SCAN_BAND
    assert l2[f.peak] == 0.0 and anchor[f.peak] == 0.0
    assert f.peak >= 2 and anchor[f.peak - 1] == -_SCAN_BAND
    m = f.peak - f.first
    assert {max(m - 2, 0), m - 1, m, m + 1} <= set(f.close_at.tolist())


@pytest.mark.parametrize("n", [2000, 8000, 16000])
def test_band_alone_separates_the_peak_on_the_census(n):
    # every trial function of the strong-coupling census lattice
    for g in (3.0, 5.0, 8.0, 12.0, 20.0):
        for a in (1.0, 3.0, 6.0, 12.0):
            assert_band_separates_the_peak(build_trial(PotentialParams(g, a), Grid(4.0, n)))


@pytest.mark.parametrize("lo, hi", [(40, 80), (63, 66), (2, 120)])
def test_band_alone_separates_the_peak_of_a_flat_top(lo, hi):
    t = flat_topped_trial(64, lo, hi)
    assert _factors(t).peak == lo
    assert_band_separates_the_peak(t)
    rng = np.random.default_rng(lo)
    assert_matches_reference(t, zero_total(t, rng.uniform(-1.0, 1.0, t.grid.n_points)),
                             rtol=0.0, atol_of_max=1e-13)
