"""Sign-analysis polynomials, factorization identities (property-tested),
the a=2 positivity chain, critical values, and curve tracing."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gdwell import PotentialParams, closed_forms, region
from gdwell.closed_forms import _coeffs, alpha, beta, eval_u, gamma_poly
from gdwell.region import (
    X_G1_ROOT,
    _alpha_tilde,
    _beta_tilde,
    _poly_C1,
    _poly_C2,
    eval_u_prime,
    find_a_c,
    find_a_g,
    gamma_tilde,
    gamma_tilde_coeffs,
    identity_residuals,
    trace_curves,
    u_prime_a2,
    verify_section3_positivity,
)

finite_a = st.floats(min_value=1e-3, max_value=5.0, allow_nan=False)
finite_x = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


# gamma = g1 (15 x^4 + 36 a x^2) + g2, factored independently of its table
def g1(x):
    """15 x^4 + 18 x^2 - 1; its sign gates the gamma = 0 locus."""
    x2 = np.asarray(x, dtype=float) ** 2
    return 15.0 * x2 * x2 + 18.0 * x2 - 1.0


def g2(a, x):
    """Strictly positive remainder of gamma for a > 0."""
    x2 = np.asarray(x, dtype=float) ** 2
    return (4.0 * (141.0 * x2 * x2 + 90.0 * x2 + 1.0) * a * a
            + 32.0 * (9.0 * x2 + 1.0) * a**3 + 64.0 * a**4)


def coeffs_by_loop(table, t, var):
    """The coefficients _coeffs forms, by one Python Horner loop per entry:
    along each row of the table (each column for var "a") in t, and for var
    "z" coefficient i multiplied by t, i times over."""
    out = []
    for row in (table.T if var == "a" else table).tolist():
        c = row[-1]
        for r in row[-2::-1]:
            c = c * t + r
        out.append(c)
    out = np.array(out)
    if var == "z":
        for i in range(1, len(out)):
            for _ in range(i):
                out[i] = out[i] * t
    return out


TABLES = {"alpha": closed_forms._ALPHA, "beta": closed_forms._BETA,
          "gamma": closed_forms._GAMMA, "alpha_tilde": region._ALPHA_TILDE,
          "beta_tilde": region._BETA_TILDE, "gamma_tilde": region._GAMMA_TILDE}


@pytest.mark.parametrize("var", ["s", "a", "z"])
@pytest.mark.parametrize("name", list(TABLES))
def test_coeffs_equal_the_horner_loop_bit_for_bit(name, var):
    table = TABLES[name]
    rng = np.random.default_rng(17)
    for t in [0.5, 0.0417, 2.0, 1e-4, rng.uniform(1e-4, 5.0, 300),
              rng.uniform(1e-4, 1.0, (4, 25))]:
        got = _coeffs(table, t, var)
        ref = coeffs_by_loop(table, t, var)
        assert got.shape == ref.shape == (table.shape[1 if var == "a" else 0],) + np.shape(t)
        assert got.tobytes() == ref.tobytes(), (name, var, t)


def test_gamma_poly_equals_the_hand_loop_then_horner_in_s():
    rng = np.random.default_rng(19)
    a = rng.uniform(1e-3, 20.0, 2000)
    x = rng.uniform(0.0, 4.0, 2000)
    ref = np.empty(2000)
    for k in range(2000):  # gamma's coefficients at one a, then Horner in s
        coeffs = coeffs_by_loop(closed_forms._GAMMA, float(a[k]), "s").tolist()
        s = float(x[k]) ** 2
        acc = coeffs[-1] * s
        for c in coeffs[-2:0:-1]:
            acc = (acc + c) * s
        ref[k] = acc + coeffs[0]
    assert gamma_poly(a, x).tobytes() == ref.tobytes()
    assert np.array_equal(gamma_poly(a[:7], x[:7]),
                          [float(gamma_poly(float(p), float(q))) for p, q in zip(a[:7], x[:7])])


class TestPolynomials:
    def test_values_at_origin(self):
        for a in (0.3, 1.0, 2.0, 4.5):
            assert float(alpha(a, 0.0)) == pytest.approx(8.0 * a * a + 2.0 * a, rel=1e-14)
            assert float(beta(a, 0.0)) == 0.0
            assert float(gamma_tilde(a, 0.0)) == pytest.approx(
                a**3 * (64.0 - 192.0 * a + 256.0 * a**3), rel=1e-13
            )
        assert float(alpha(2.0, 0.0)) == 36.0

    def test_gamma_table_matches_gamma_poly(self):
        # the (s, a) coefficient table behind u, the gamma curve and the
        # ordering check, read along both of its axes and by gamma_poly,
        # against the factored form
        rng = np.random.default_rng(13)
        a = rng.uniform(1e-3, 2.0, 2000)
        x = rng.uniform(0.0, 2.0, 2000)
        s = x * x
        ref = g1(x) * (15.0 * s * s + 36.0 * a * s) + g2(a, x)
        scale = np.abs(ref) + 1.0
        in_s = np.polynomial.polynomial.polyval(x * x, _coeffs(closed_forms._GAMMA, a),
                                                tensor=False)
        in_a = np.polynomial.polynomial.polyval(a, _coeffs(closed_forms._GAMMA, x * x, "a"),
                                                tensor=False)
        assert float(np.max(np.abs(in_s - ref) / scale)) <= 1e-12
        assert float(np.max(np.abs(in_a - ref) / scale)) <= 1e-12
        assert float(np.max(np.abs(gamma_poly(a, x) - ref) / scale)) <= 1e-12

    def test_alpha_beta_tables_match_their_formulas(self):
        # the (s, a) tables behind u, entry by entry against the expanded
        # docstring formulas, and alpha and beta, which read them, in floats
        a_, s_ = sp.symbols("a s")
        for table, formula in [
                (closed_forms._ALPHA,
                 15 * s_**3 + 6 * (3 * a_ - 1) * s_**2 + (8 * a_**2 + 12 * a_ + 7) * s_
                 + 8 * a_**2 + 2 * a_),
                (closed_forms._BETA, 3 * s_ + 2 * a_ - 1)]:
            poly = sp.Poly(formula, s_, a_)
            assert {(i, j): int(c) for (i, j), c in np.ndenumerate(table) if c} == {
                m: int(c) for m, c in poly.terms()}
        rng = np.random.default_rng(23)
        a = rng.uniform(1e-3, 5.0, 2000)
        x = rng.uniform(0.0, 4.0, 2000)
        s = x * x
        ref = 15.0 * s**3 + 6.0 * (3.0 * a - 1.0) * s**2 + (8.0 * a * a + 12.0 * a + 7.0) * s \
            + 8.0 * a * a + 2.0 * a
        assert float(np.max(np.abs(alpha(a, x) - ref) / (np.abs(ref) + 1.0))) <= 1e-14
        ref = np.sqrt(1.0 + a) * x * (3.0 * s + 2.0 * a - 1.0)
        assert float(np.max(np.abs(beta(a, x) - ref) / (np.abs(ref) + 1.0))) <= 1e-14

    def test_g2_positive(self):
        a_vals = np.geomspace(1e-3, 10.0, 200)
        x_vals = np.linspace(0.0, 5.0, 200)
        for a in a_vals:
            assert float(g2(a, x_vals).min()) > 0.0

    # the identity subtractions cancel by construction, so residuals are
    # measured against the combined magnitudes actually summed (backward
    # error); a wrong coefficient anywhere would show up at ~1e-3 of scale
    @given(a=finite_a, x=finite_x)
    @settings(max_examples=200, deadline=None)
    def test_u_factorization_identity(self, a, x):
        t1 = float(alpha(a, x)) ** 2
        t2 = 64.0 * (x * x + a) * float(beta(a, x)) ** 2
        rhs = (x * x - 1.0) ** 2 * float(gamma_poly(a, x))
        scale = t1 + t2 + abs(rhs) + 1.0
        assert abs(t1 - t2 - rhs) <= 1e-9 * scale

    @given(a=finite_a, x=finite_x)
    @settings(max_examples=200, deadline=None)
    def test_uprime_factorization_identity(self, a, x):
        t1 = float(_alpha_tilde(a, x)) ** 2
        t2 = 64.0 * (x * x + a) * float(_beta_tilde(a, x)) ** 2
        rhs = (x * x - 1.0) ** 3 * float(gamma_tilde(a, x))
        scale = t1 + t2 + abs(rhs) + 1.0
        assert abs(t1 - t2 - rhs) <= 1e-9 * scale

    def test_identities_at_seeded_random_points(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(1e-6, 5.0, 10000)
        x = rng.uniform(0.0, 4.0, 10000)
        res_u, res_u_prime, res_table = identity_residuals(a, x)
        assert res_u <= 1e-9
        assert res_u_prime <= 1e-9
        assert res_table <= 1e-8

    def test_identity_residuals_see_a_wrong_coefficient(self, monkeypatch):
        rng = np.random.default_rng(7)
        a = rng.uniform(1e-3, 5.0, 2000)
        x = rng.uniform(0.0, 4.0, 2000)
        wrong = region._GAMMA_TILDE.copy()
        wrong[3, 1] += 1.0
        monkeypatch.setattr(region, "_GAMMA_TILDE", wrong)
        monkeypatch.setattr(region, "gamma_poly", lambda a, x: 1.001 * gamma_poly(a, x))
        assert all(r > 1e-6 for r in identity_residuals(a, x))

    def test_coefficient_table_against_factorization(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(1e-3, 5.0, 5000)
        x = rng.uniform(0.0, 4.0, 5000)
        keep = np.abs(x - 1.0) > 0.05
        a, x = a[keep], x[keep]
        via_fact = (
            _alpha_tilde(a, x) ** 2 - 64.0 * (x * x + a) * _beta_tilde(a, x) ** 2
        ) / (x * x - 1.0) ** 3
        via_table = gamma_tilde(a, x)
        rel = np.abs(via_fact - via_table) / (np.abs(via_table) + 1.0)
        assert float(rel.max()) <= 1e-8

    def test_coeff_vector_shape(self):
        c = gamma_tilde_coeffs(2.0)
        assert c.shape == (7,)
        assert c[6] == 900.0


class TestUPrime:
    def test_matches_a2_closed_form(self):
        x = np.linspace(1e-3, 4.0, 3000)
        got = eval_u_prime(2.0, x)
        ref = u_prime_a2(x)
        assert float(np.max(np.abs(got - ref) / np.abs(ref))) <= 1e-9

    def test_matches_finite_difference_of_u(self):
        p = PotentialParams(1.0, 2.0)
        x = np.linspace(0.05, 4.0, 500)
        h = 1e-5
        fd = (eval_u(p, x + h) - eval_u(p, x - h)) / (2.0 * h)
        got = eval_u_prime(2.0, x)
        assert float(np.max(np.abs(fd - got) / np.abs(got))) <= 1e-5

    def test_negative_everywhere_at_a2(self):
        x = np.linspace(1e-4, 4.0, 5000)
        assert float(eval_u_prime(2.0, x).max()) < 0.0

    def test_smooth_through_x_equals_one(self):
        vals = eval_u_prime(2.0, np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9]))
        assert np.all(np.isfinite(vals))
        assert abs(vals[0] - vals[2]) < 1e-8 * abs(vals[1])

    @pytest.mark.parametrize("a", [0.68, 1.0, 2.0, 5.0])
    def test_negative_inside_region(self, a):
        x = np.linspace(1e-3, 5.0, 4000)
        assert float(eval_u_prime(a, x).max()) < 0.0

    @pytest.mark.parametrize("a", [0.3, 0.55, 0.60])
    def test_positive_somewhere_outside_region(self, a):
        x = np.linspace(1e-3, 5.0, 4000)
        assert float(eval_u_prime(a, x).max()) > 0.0

    # u' of the model needs a real a with 0 < a < inf; each of these read nan
    # or numbers without a check
    @pytest.mark.parametrize("a", [-0.5, 0.0, -0.0, math.nan, math.inf, -math.inf,
                                   np.float64(math.nan), True, "2", np.array([2.0]), None])
    def test_rejects_a_outside_the_model(self, a):
        with pytest.raises(ValueError, match="shape parameter a"):
            eval_u_prime(a, np.linspace(0.0, 2.0, 5))

    @pytest.mark.parametrize("a", [1e-300, np.float32(2.0), 2, 1e3])
    def test_takes_every_positive_finite_real(self, a):
        assert eval_u_prime(a, np.array([0.5, 2.0])).shape == (2,)


class TestSection3:
    def test_endpoint_values(self):
        assert float(_poly_C1(0.0)) == 0.0
        assert float(_poly_C2(0.0)) == pytest.approx(8.0 * math.sqrt(3.0) * 1152.0, rel=1e-14)
        assert float(_poly_C1(1.0)) == 267264.0

    def test_dense_positivity(self):
        rep = verify_section3_positivity()
        assert rep.all_positive
        assert rep.inequality_holds
        assert rep.min_combination > 0.0

    def test_route_match_and_negative_slope_on_the_chain_nodes(self):
        rep = verify_section3_positivity()
        x = np.linspace(1e-3, 10.0, 10000)
        u_prime = eval_u_prime(2.0, x)
        assert rep.route_mismatch == float(np.max(np.abs(u_prime_a2(x) - u_prime)
                                                  / np.abs(u_prime)))
        assert rep.route_mismatch <= 1e-9
        assert rep.max_u_prime == float(u_prime.max()) < 0.0


class TestCriticalValues:
    def test_a_c_bracket_and_width(self):
        res = find_a_c()
        assert 0.654 <= res.a_c <= 0.674
        assert res.width <= 1e-3
        assert 0.5 < res.a_c < 0.8

    def test_a_c_is_the_polished_sextic_root(self):
        res = find_a_c()
        assert res.a_c == 0.663770717811756
        assert region.A_C == res.a_c
        lo, hi = res.bracket
        assert lo < res.a_c < hi
        assert 0.0 < res.width == hi - lo <= 1e-15

        def sextic(t):
            return sum(c * Fraction(t) ** k for k, c in enumerate(region._GAMMA_TILDE_FOLD))

        assert (sextic(lo) > 0) != (sextic(hi) > 0)
        # and sup u' changes sign across it
        x = np.linspace(1e-3, 5.0, 20001)
        assert float(eval_u_prime(res.a_c - 1e-6, x).max()) > 0.0
        assert float(eval_u_prime(res.a_c + 1e-6, x).max()) < 0.0

    def test_integer_newton_step_equals_the_fraction_step(self):
        # the polish as it was, in Fraction arithmetic rounded once per step
        p = region._GAMMA_TILDE_FOLD
        dp = [k * c for k, c in enumerate(p)][1:]

        def fraction_step(r):
            t = Fraction(r)
            return float(t - sum(c * t**k for k, c in enumerate(p))
                         / sum(c * t**k for k, c in enumerate(dp)))

        a_c = find_a_c().a_c
        starts = a_c + np.random.default_rng(32).uniform(-1e-6, 1e-6, 1000)
        for r in starts.tolist():
            for _ in range(3):
                step = region._newton_step(p, r)
                assert step.hex() == fraction_step(r).hex()
                r = step
            assert r == a_c
        assert find_a_c() == region.ACResult(
            a_c=0.663770717811756, width=2.0**-52,
            bracket=(0.6637707178117559, 0.6637707178117561))

    def test_a_g_values(self):
        assert find_a_g(1.0) == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)
        assert find_a_g(2.0) == pytest.approx((1.0 + math.sqrt(17.0)) / 8.0, rel=1e-14)
        # at a=2 the smallest allowed coupling is sqrt(3)/2
        assert find_a_g(math.sqrt(3.0) / 2.0) == pytest.approx(2.0, rel=1e-12)
        assert find_a_g(1e6) < 2e-6
        with pytest.raises(ValueError):
            find_a_g(0.0)

    # from g = 6.7e153 on, g^2 is finite but 4 g^2 is not; below
    # g = 7.5e-155, 2 g^2 is subnormal and a_g overflows
    @pytest.mark.parametrize("g", [math.inf, math.nan, -1.0, 1e200, 1e-200, 7e153, 1.3e154,
                                   1e-160, True, "1"])
    def test_a_g_rejects_g_it_cannot_evaluate(self, g):
        with pytest.raises(ValueError, match="g"):
            find_a_g(g)

    @pytest.mark.parametrize("g", [6.6e153, 1e150, 1e-150, 8e-155])
    def test_a_g_finite_near_the_ends_of_its_range(self, g):
        a_g = find_a_g(g)
        assert 0.0 < a_g < math.inf
        assert a_g == (1.0 + math.sqrt(1.0 + 4.0 * g * g)) / (2.0 * g * g)


@pytest.fixture(scope="module")
def report():
    return trace_curves(resolution=60)


# the scan-and-bisect code these roots replace found a_c in a bracket of
# width 8.5e-5 and the gamma fold at 0.0417631688; its 600-point z scan
# skips root pairs closer than one sample, so it stopped 2.8e-6 short of
# the alpha_tilde fold, at 0.1177274195
@pytest.mark.parametrize("curve, table, frozen, bisected, tol", [
    ("gamma_zero", closed_forms._GAMMA, region._GAMMA_FOLD, 0.0417631688, 1e-8),
    ("alpha_tilde_zero", region._ALPHA_TILDE, region._ALPHA_TILDE_FOLD, 0.1177274195, 1e-5),
    ("gamma_tilde_zero", region._GAMMA_TILDE, region._GAMMA_TILDE_FOLD, 0.66380005, 8.5e-5),
], ids=["gamma_zero", "alpha_tilde_zero", "gamma_tilde_zero"])
def test_fold_factors_rederived_with_sympy(report, curve, table, frozen, bisected, tol):
    a, s = sp.symbols("a s")
    # the curve polynomial in s, exactly, from its integer (s, a) table
    poly = sp.Poly(sum(int(c) * s**i * a**j for (i, j), c in np.ndenumerate(table)), s)
    disc = sp.discriminant(poly)
    factors = [sp.Poly(f, a) for f, _ in sp.factor_list(disc)[1]]
    # the sweep ends where the curve does
    fold = max(p for p, _ in report.curves[curve])
    if curve == "gamma_tilde_zero":
        assert fold == find_a_c().a_c
    (factor,) = [f for f in factors
                 if any(abs(complex(r) - fold) < 1e-12 for r in f.nroots(n=30))]
    assert tuple(factor.all_coeffs()[::-1]) == frozen
    assert abs(fold - bisected) <= tol


class TestCurves:

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            trace_curves(resolution=10)

    @pytest.mark.parametrize("resolution", [60.5, True, "60"])
    def test_non_integer_or_bool_resolution_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution must be an integer"):
            trace_curves(resolution=resolution)

    def test_every_curve_has_one_plane(self, report):
        assert set(region.CURVE_PLANES) == set(report.curves)
        assert {name for name, plane in region.CURVE_PLANES.items() if plane == "x"} == {
            "beta_zero", "gamma_zero"}

    def test_beta_curve_matches_closed_form(self, report):
        for a, x in report.curves["beta_zero"]:
            assert x == pytest.approx(math.sqrt((1.0 - 2.0 * a) / 3.0), abs=1e-10)

    def test_beta_positive_beyond_half(self):
        x = np.linspace(1e-6, 5.0, 1000)
        assert float(beta(0.6, x).min()) > 0.0

    def test_gamma_curve_domain(self, report):
        assert math.isclose(X_G1_ROOT**2, (-9.0 + math.sqrt(96.0)) / 15.0, rel_tol=1e-15)
        assert abs(float(g1(X_G1_ROOT))) < 1e-12
        pts = report.curves["gamma_zero"]
        assert len(pts) >= 60
        assert all(x < X_G1_ROOT for _, x in pts)

    def test_every_curve_sampled_densely(self, report):
        for name, pts in report.curves.items():
            assert len(pts) >= 60, name

    def test_ordering_beta_above_gamma(self, report):
        assert report.ordering_ok
        assert report.ordering_violations == 0

    def test_sign_regions_above_tilde_curves(self, report):
        assert all(v == 0 for v in report.sign_region_violations.values())

    def test_report_carries_a_c(self, report):
        assert 0.5 < report.a_c < 0.8
        assert report.a_c_width <= 1e-3

    def test_no_sweep_sample_misses_its_curve(self, report):
        assert all(v == 0 for v in report.misses.values())

    def test_close_root_pair_is_found(self):
        # at a = 0.0488 gamma_tilde has two roots in z that no sample of a
        # 600-point geometric z scan separates
        a = 0.0488
        (row,) = region._real_roots(_coeffs(region._GAMMA_TILDE, a, "z"), 0.0, 4.0)
        roots = row[np.isfinite(row)]
        pair = roots[np.abs(roots - 0.45) < 0.01]
        assert len(pair) == 2
        z_scan = np.geomspace(1e-4, 4.0, 600)
        assert not np.any((z_scan > pair[0]) & (z_scan < pair[1]))
        for z in pair:
            below = gamma_tilde(a, math.sqrt(a * z * (1.0 - 1e-9)))
            above = gamma_tilde(a, math.sqrt(a * z * (1.0 + 1e-9)))
            assert below * above < 0.0


def test_default_resolution_meets_density_contract():
    rep = trace_curves()  # default resolution 200
    for name, pts in rep.curves.items():
        assert len(pts) >= 200, name


def _real_roots_per_row(coeffs, lo, hi):
    """The real roots in [lo, hi] as region._real_roots found them before it
    returned one padded array: a list with one sorted array per column."""
    c = np.asarray(coeffs, dtype=float).reshape(len(coeffs), -1)
    deg = c.shape[0] - 1
    comp = np.zeros((c.shape[1], deg, deg))
    comp[:, 1:, :-1] = np.eye(deg - 1)
    comp[:, :, -1] = -(c[:-1] / c[-1]).T
    lam = np.linalg.eigvals(comp)
    real = np.abs(lam.imag) <= region._ROOT_TOL * (1.0 + np.abs(lam.real))
    keep = real & (lam.real >= lo) & (lam.real <= hi)
    return [np.sort(row.real[k]) for row, k in zip(lam, keep)]


def _ordering_bad_by_roots(c, a_beta):
    """The ordering check as trace_curves made it before Descartes' rule: a
    column is bad unless its quartic has a real root in [1e-9, 1] and the
    largest one lies below a_beta."""
    a_gamma = region._real_roots(c, 1e-9, 1.0)
    return np.isinf(a_gamma[:, 0]) | ~(a_beta > region._largest(a_gamma))


def test_gamma_coefficients_in_a_have_one_sign_change():
    # from the integer table: c0 < 0 on (0, X_G1_ROOT^2), and c2, c3, c4
    # have no negative coefficient in s and a positive constant term
    a, s = sp.symbols("a s")
    gamma = sum(int(c) * s**i * a**j for (i, j), c in np.ndenumerate(closed_forms._GAMMA))
    c0, c1, c2, c3, c4 = sp.Poly(gamma, a).all_coeffs()[::-1]
    assert sp.expand(c0 - 15 * s**2 * (15 * s**2 + 18 * s - 1)) == 0
    assert sp.expand(c1 - 36 * s * (15 * s**2 + 18 * s - 1)) == 0
    s_root = (-9 + 4 * sp.sqrt(6)) / 15
    assert math.isclose(float(s_root), X_G1_ROOT**2, rel_tol=1e-14)
    negative = sp.solve_univariate_inequality(c0 < 0, s, relational=False,
                                              domain=sp.Interval.open(0, sp.oo))
    assert negative == sp.Interval.open(0, s_root)
    for c in (c2, c3, c4):
        coeffs = sp.Poly(c, s).all_coeffs()
        assert all(k >= 0 for k in coeffs) and coeffs[-1] > 0


def test_ordering_rule_matches_the_eigensolve_rows():
    x = np.linspace(X_G1_ROOT * 1e-2, X_G1_ROOT * 0.98, 20001)
    c = _coeffs(closed_forms._GAMMA, x * x, "a")
    a_beta = (1.0 - 3.0 * x * x) / 2.0
    assert not region._ordering_bad(c, a_beta).any()
    assert not _ordering_bad_by_roots(c, a_beta).any()
    # the beta line moved just above and below each row's root: the rows
    # alternate, and both rules see the same ones
    (r,) = region._real_roots(c, 1e-9, 1.0).T[:1]
    assert np.isfinite(r).all()
    moved = r * np.where(np.arange(r.size) % 2, 1.0 - 1e-6, 1.0 + 1e-6)
    bad = region._ordering_bad(c, moved)
    assert np.array_equal(bad, np.arange(r.size) % 2 == 1)
    assert np.array_equal(bad, _ordering_bad_by_roots(c, moved))


def test_ordering_rule_reports_violations():
    x = np.linspace(X_G1_ROOT * 1e-2, X_G1_ROOT * 0.98, 2001)
    c = _coeffs(closed_forms._GAMMA, x * x, "a")
    # a beta line below the gamma curve
    r = region._real_roots(c, 1e-9, 1.0)[:, 0]
    assert region._ordering_bad(c, r / 2.0).all()
    # past X_G1_ROOT c0 > 0: gamma has no positive root, and no row passes
    x = np.linspace(X_G1_ROOT * 1.02, 3.0, 2001)
    c = _coeffs(closed_forms._GAMMA, x * x, "a")
    assert (c[0] > 0.0).all()
    assert region._ordering_bad(c, (1.0 - 3.0 * x * x) / 2.0).all()
    assert region._ordering_bad(c, np.full(x.size, 0.45)).all()
    assert _ordering_bad_by_roots(c, np.full(x.size, 0.45)).all()
    # a quartic whose values at 1e-9 and 0.45 pass, but whose sign pattern
    # (- + - - +) has three changes: roots 0.1, 0.6 and 0.7 lie past the line
    quartic = np.polynomial.polynomial.polyfromroots([0.1, 0.6, 0.7, -1.0])
    c = np.repeat(quartic[:, None], 3, axis=1)
    assert np.polynomial.polynomial.polyval(1e-9, quartic) < 0.0
    assert np.polynomial.polynomial.polyval(0.45, quartic) > 0.0
    assert region._ordering_bad(c, np.full(3, 0.45)).all()
    assert _ordering_bad_by_roots(c, np.full(3, 0.45)).all()


@pytest.mark.parametrize("degree", [3, 4, 6])
def test_real_roots_rows_match_the_per_row_version(degree):
    rng = np.random.default_rng(100 + degree)
    planted = rng.uniform(-1.5, 2.5, (60, degree))
    planted[0, :2] = 0.5                        # a double root
    planted[1] = rng.uniform(3.0, 4.0, degree)  # no root in the window
    planted[2:4] = rng.uniform(-0.5, 1.5, (2, degree))
    planted[2, 0], planted[3, 0] = -0.9, 1.9    # the window's ends, below
    columns = [np.polynomial.polynomial.polyfromroots(r) * rng.uniform(0.5, 2.0)
               for r in planted]
    # and columns of random coefficients, whose roots are mostly complex
    coeffs = np.column_stack(columns + list(rng.normal(size=(40, degree + 1))))
    # the window ends exactly at a computed root, so both ends are kept
    everywhere = _real_roots_per_row(coeffs, -np.inf, np.inf)
    lo, hi = everywhere[2][0], everywhere[3][-1]
    assert lo == pytest.approx(-0.9, abs=1e-9) and hi == pytest.approx(1.9, abs=1e-9)

    got = region._real_roots(coeffs, lo, hi)
    ref = _real_roots_per_row(coeffs, lo, hi)
    assert got.shape == (coeffs.shape[1], degree)
    for row, r in zip(got, ref):
        assert row[:r.size].tobytes() == r.tobytes()
        assert np.all(row[r.size:] == np.inf)
    assert ref[1].size == 0
    assert np.sum(np.abs(ref[0] - 0.5) < 1e-6) == 2
    assert lo in got[2] and hi in got[3]
    assert any(r.size == 0 for r in ref[len(planted):])
