"""Reference eigensolver: the exactly solvable case, a dense cross-check of
the even-sector eigensolve, evenness, and shape classification."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from gdwell import DiscretizationError, Grid, OracleConfig, PotentialParams, oracle_ground_state
from gdwell import oracle
from gdwell.closed_forms import eval_potential
from gdwell.oracle import PeakReport, _even_matrix, _ground_amplitudes, peak_census


def reference_even_ground(p, delta, k):
    """The lowest even eigenpair on the nodes j Delta, |j| <= k, from the
    dense np.linalg.eigh of the even-sector matrix: the reference that the
    oracle's eigvalsh energy and inverse-iteration vector must match.

    Returns E and c_0..c_k, the amplitudes of the unit-norm eigenvector of
    all 2k + 1 nodes on the nodes j >= 0, signed so that they sum to > 0.
    """
    j = np.arange(k + 1)
    m = np.arange(1, 2 * k + 1)
    t = np.empty(2 * k + 1)
    t[0] = math.pi**2 / 3.0
    t[1:] = 2.0 * np.where(m % 2 == 0, 1.0, -1.0) / (m * m)
    h = (t[np.abs(j[:, None] - j)] + t[j[:, None] + j]) / (2.0 * delta * delta)
    h[0, :] /= math.sqrt(2.0)
    h[:, 0] /= math.sqrt(2.0)
    h[j, j] += eval_potential(p, delta * j)
    lam, vec = np.linalg.eigh(h)
    # basis e_0 and (e_j + e_-j)/sqrt(2): node amplitude c_j = v_j / sqrt(2)
    c = vec[:, 0] / math.sqrt(2.0)
    c[0] = vec[0, 0]
    return float(lam[0]), (c if c.sum() > 0.0 else -c)


def paper_tables_points():
    """The 18 distinct (g, a) that the paper_tables benchmark hands the
    oracle: the published tables' points and its (g, a) lattice, where
    a > 1.05 a_g(g)."""
    points = [(1.0, 2.0), (1.0, 1.8), (1.0, 3.0), (0.88, 2.0), (2.0, 2.0), (3.0, 2.0)]
    for g in np.linspace(0.88, 3.0, 4):
        a_g = (1.0 + math.sqrt(1.0 + 4.0 * g * g)) / (2.0 * g * g)
        points += [(float(g), float(a)) for a in np.linspace(max(1.8, 1.05 * a_g), 3.0, 3)]
    return points


# the strong-coupling benchmark's (g, a) census, with its oracle settings
STRONG_POINTS = [(g, a) for g in (3.0, 5.0, 8.0, 12.0, 20.0) for a in (1.0, 3.0, 6.0, 12.0)]
STRONG_CONFIG = OracleConfig(L=3.0, n=6000)


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

    @pytest.mark.parametrize("g, a", [(1.0, 2.0), (3.0, 2.0), (0.88, 2.0)])
    def test_psi_at_nodes_evenness_and_beyond_the_half_domain(self, oracle_cache, g, a):
        res = oracle_cache(g, a)
        mid = res.psi.size // 2
        nodes = res.psi[mid::oracle.OVERSAMPLE]
        delta = res.x[mid + oracle.OVERSAMPLE]
        x = np.arange(nodes.size) * delta
        # bit for bit at every node, also where x / Delta lands an ulp off
        # the node's index
        assert res.psi_at(x).tobytes() == nodes.tobytes()
        between = np.linspace(0.0, res.x[-1], 777)
        assert res.psi_at(-between).tobytes() == res.psi_at(between).tobytes()
        past = res.x[-1] * np.array([1.0 + 1e-9, 1.5, 10.0])
        assert res.psi_at(past).tobytes() == np.full(3, nodes[-1]).tobytes()
        assert res.psi_at(-past).tobytes() == np.full(3, nodes[-1]).tobytes()

    def test_even_sector_against_full_matrix(self):
        # the oracle's even-sector eigenpair against the dense eigensolve of
        # the full (2K+1)-node Colbert-Miller matrix, built here independently
        p = PotentialParams(1.0, 2.0)
        k = 40
        delta = 3.5 / k
        x = delta * np.arange(-k, k + 1)
        d = np.subtract.outer(np.arange(-k, k + 1), np.arange(-k, k + 1))
        kinetic = np.where(d == 0, np.pi**2 / 3.0,
                           2.0 * (-1.0) ** d / np.where(d == 0, 1, d) ** 2) / (2.0 * delta**2)
        H = kinetic + np.diag(0.5 * (x * x - 1.0) ** 2 * (x * x + 2.0))
        evals, evecs = np.linalg.eigh(H)
        h = _even_matrix(p, delta, k)
        lam = float(np.linalg.eigvalsh(h)[0])
        c = _ground_amplitudes(h, lam)
        assert lam == pytest.approx(float(evals[0]), abs=1e-10)
        # the unit-norm even eigenvector with the deterministic sign: positive sum
        ref_vec = evecs[:, 0] * np.sign(evecs[:, 0].sum())
        full = np.concatenate((c[:0:-1], c))
        assert float(np.max(np.abs(full - ref_vec))) <= 1e-8

    @pytest.mark.parametrize("g, a", [(1.0, 2.0), (3.0, 2.0), (20.0, 100.0)])
    def test_seed_matrix_is_block_of_extension(self, g, a):
        # the K = 30 energy is read off the leading block of the extension
        p = PotentialParams(g, a)
        delta = oracle._wkb_half_domain(p) / 30
        block = _even_matrix(p, delta, 38)[:31, :31]
        assert block.tobytes() == _even_matrix(p, delta, 30).tobytes()

    def test_exact_energy_default_config(self):
        res = oracle_ground_state(PotentialParams(1.0, 2.0))
        assert abs(res.energy - 1.0) <= 1e-10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(n=100)
        with pytest.raises(ValueError):
            OracleConfig(L=0.5)
        # numpy's node arrays need an integer count; a bool is no count
        for n in (501.0, 4000.0, True, "4000"):
            with pytest.raises(ValueError, match="integer"):
                OracleConfig(n=n)
        for L in (True, "6"):
            with pytest.raises(ValueError, match="L must be a real number"):
                OracleConfig(L=L)

    def test_discretization_guard(self):
        # a domain that cuts the wells at x ~ 1 trips the domain-extension check
        with pytest.raises(DiscretizationError, match="half-domain"):
            oracle_ground_state(PotentialParams(3.0, 2.0), OracleConfig(L=1.1, n=500))

    def test_uncapped_half_domain_is_not_blamed_on_L(self):
        # at (100, 1e4) the WKB half-domain 1.06 lies inside the default
        # L = 6, so a larger L cannot help
        with pytest.raises(DiscretizationError, match="half-domain") as err:
            oracle_ground_state(PotentialParams(100.0, 1e4))
        assert "not capped by L" in str(err.value) and "node spacing" in str(err.value)
        assert "increase L" not in str(err.value)

    def test_node_cap_guard(self, monkeypatch):
        # energies that never agree grow the node count to the cap n and stop
        monkeypatch.setattr(oracle, "REL_TOL", 0.0)
        with pytest.raises(DiscretizationError, match="cap n = 500"):
            oracle_ground_state(PotentialParams(1.0, 2.0), OracleConfig(n=500))

    def test_stalled_growth_stops_early(self, monkeypatch):
        # L = 2 truncates psi at (3, 2) by less than the extension check sees:
        # the growth gaps stay near 2e-8, and growth stops once one fails to halve
        sizes = []

        def counting(p, delta, k):
            sizes.append(k)
            return _even_matrix(p, delta, k)

        monkeypatch.setattr(oracle, "_even_matrix", counting)
        with pytest.raises(DiscretizationError, match="half-domain"):
            oracle_ground_state(PotentialParams(3.0, 2.0), OracleConfig(L=2.0, n=6000))
        # the extension matrix, whose leading block is the K = 30 one, then
        # at most 3 growth steps
        assert len(sizes) <= 2 + 3

    @pytest.mark.parametrize("points, cfg", [
        (paper_tables_points(), None),
        (STRONG_POINTS, STRONG_CONFIG),
    ], ids=["paper_tables", "strong_coupling"])
    def test_matches_eigh_reference(self, monkeypatch, points, cfg):
        # the eigvalsh energy and the inverse-iteration amplitudes at the
        # converged node count against the dense eigh pair there
        formed = []

        def spy(h, energy):
            formed.append(_ground_amplitudes(h, energy))
            return formed[-1]

        monkeypatch.setattr(oracle, "_ground_amplitudes", spy)
        for g, a in points:
            p = PotentialParams(g, a)
            res = oracle_ground_state(p, cfg)
            mid = res.x.size // 2
            k = mid // oracle.OVERSAMPLE
            energy, c = reference_even_ground(p, res.x[mid + oracle.OVERSAMPLE], k)
            assert abs(res.energy - energy) <= 1e-12 * max(1.0, abs(energy)), (g, a)
            assert float(np.max(np.abs(formed[-1] - c))) <= 1e-12, (g, a)

    @pytest.mark.parametrize("g, a, cfg, sizes", [
        (1.0, 2.0, None, [31, 39, 46]),
        (20.0, 12.0, STRONG_CONFIG, [31, 39, 46, 69]),
    ])
    def test_one_ground_vector_and_no_eigh(self, monkeypatch, g, a, cfg, sizes):
        # K = 30, its 1.25x extension 38, then growth to 45 (and 68): one
        # eigvalsh per node count, and the vector once, at the last
        calls = {"eigh": 0, "eigvalsh": [], "vector": []}
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

        def counting_eigh(h, *args, **kwargs):
            calls["eigh"] += 1
            return eigh(h, *args, **kwargs)

        def counting_eigvalsh(h, *args, **kwargs):
            calls["eigvalsh"].append(len(h))
            return eigvalsh(h, *args, **kwargs)

        def counting_vector(h, energy):
            calls["vector"].append(len(h))
            return _ground_amplitudes(h, energy)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(oracle, "_ground_amplitudes", counting_vector)
        oracle_ground_state(PotentialParams(g, a), cfg)
        assert calls == {"eigh": 0, "eigvalsh": sizes, "vector": sizes[-1:]}

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

    def test_rise_to_grid_end_is_no_peak(self):
        # the last node's window is clipped at x_max, which exempts nothing
        x = np.linspace(0.0, 1.2, 500)
        rep = peak_census(x, 0.1 + x)
        assert rep.kind == "other"
        assert rep.peaks == []

    def test_plateau_in_wide_panel_is_one_peak(self):
        # the outer panel's spacing is 3x the inner one's; a flat top of three
        # outer nodes is one peak
        x = Grid(4.0, 8).nodes
        psi = np.where(np.isin(x, [2.125, 2.5, 2.875]), 1.0, 0.5)
        assert peak_census(x, psi).peaks == [(2.125, 1.0)]

    @pytest.mark.parametrize("x,psi,message", [
        (np.linspace(-2.0, -0.1, 20), np.ones(20), "node at x >= 0"),
        (np.array([]), np.array([]), "node at x >= 0"),
        (np.linspace(0.0, 2.0, 20), np.ones(19), "equal length"),
        (np.linspace(0.0, 2.0, 20), np.ones(21), "equal length"),
        (np.linspace(0.0, 2.0, 20), np.ones((2, 20)), "1-D"),
        (np.linspace(0.0, 2.0, 20).reshape(4, 5), np.ones((4, 5)), "1-D"),
        (0.5, 1.0, "1-D"),
    ])
    def test_rejects_malformed_input(self, x, psi, message):
        with pytest.raises(ValueError, match=message):
            peak_census(x, psi)

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
    last = None
    for i in range(n):
        lo = max(0, i - w)
        hi = min(n, i + w + 1)
        window = ys[lo:hi]
        if ys[i] < floor or ys[i] < window.max():
            continue
        # only a window clipped at x = 0 is exempt from the strictness test
        left_ok = lo == 0 or ys[i] > ys[lo]
        right_ok = ys[i] > ys[hi - 1]
        if left_ok and right_ok:
            if last is not None and i - last < w + 1:
                continue  # same plateau, counted in nodes
            last = i
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


def sliding_window_max(ys, w):
    """The window max as numpy's sliding_window_view forms it: the reference
    that the running maxima of oracle._window_max must match bit for bit."""
    pad = np.full(w, -np.inf)
    return sliding_window_view(np.concatenate((pad, ys, pad)), 2 * w + 1).max(axis=1)


# few distinct levels give ties and flat tops; 1e-4 sits under the floor
LEVELS = st.one_of(st.sampled_from([0.0, 1e-4, 0.5, 1.0, 1.0, 2.0]),
                   st.floats(-3.0, 3.0, allow_nan=False))
LEVELS_NAN = st.one_of(LEVELS, st.just(math.nan))


@st.composite
def census_inputs(draw, levels=LEVELS):
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
    psi = np.array(draw(st.lists(levels, min_size=x.size, max_size=x.size)))
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


class TestWindowMaxAgainstSlidingWindowView:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(LEVELS_NAN, min_size=1, max_size=40), st.integers(1, 6))
    @example([1.0] * 12, 5)                                    # plateau, n = 2w + 2
    @example([0.5, math.nan, 2.0], 5)                          # n < 2w + 1, NaN inside
    def test_bit_identical(self, values, w):
        ys = np.array(values)
        got, ref = oracle._window_max(ys, w), sliding_window_max(ys, w)
        assert got.tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(census_inputs(levels=LEVELS_NAN))
    @example((np.linspace(0.0, 2.0, 12), np.ones(12)))
    @example((np.linspace(-1.0, 1.0, 7), np.r_[0.0, 1.0, 1.0, math.nan, 1.0, 1.0, 0.0]))
    def test_census_unchanged(self, inputs):
        x, psi = inputs
        got = peak_census(x, psi)
        with mock.patch.object(oracle, "_window_max", sliding_window_max):
            assert got == peak_census(x, psi)
