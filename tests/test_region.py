"""Sign-analysis polynomials, factorization identities (property-tested),
the a=2 positivity chain, critical values, and curve tracing."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gdwell import PotentialParams, region
from gdwell.closed_forms import eval_u
from gdwell.region import (
    X_G1_ROOT,
    alpha,
    alpha_tilde,
    beta,
    beta_tilde,
    eval_u_prime,
    find_a_c,
    find_a_g,
    g1,
    g2,
    gamma_poly,
    gamma_tilde,
    gamma_tilde_coeffs,
    identity_residuals,
    poly_C1,
    poly_C2,
    trace_curves,
    u_prime_a2,
    verify_section3_positivity,
)

finite_a = st.floats(min_value=1e-3, max_value=5.0, allow_nan=False)
finite_x = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


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
        # the (s, a) coefficient table behind the gamma curve and the
        # ordering check, read along both of its axes
        rng = np.random.default_rng(13)
        a = rng.uniform(1e-3, 2.0, 2000)
        x = rng.uniform(0.0, 2.0, 2000)
        ref = gamma_poly(a, x)
        scale = np.abs(ref) + 1.0
        in_s = np.polynomial.polynomial.polyval(x * x, region._coeffs(region._GAMMA, a),
                                                tensor=False)
        in_a = np.polynomial.polynomial.polyval(a, region._coeffs(region._GAMMA, x * x, "a"),
                                                tensor=False)
        assert float(np.max(np.abs(in_s - ref) / scale)) <= 1e-12
        assert float(np.max(np.abs(in_a - ref) / scale)) <= 1e-12

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
        t1 = float(alpha_tilde(a, x)) ** 2
        t2 = 64.0 * (x * x + a) * float(beta_tilde(a, x)) ** 2
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
            alpha_tilde(a, x) ** 2 - 64.0 * (x * x + a) * beta_tilde(a, x) ** 2
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


class TestSection3:
    def test_endpoint_values(self):
        assert float(poly_C1(0.0)) == 0.0
        assert float(poly_C2(0.0)) == pytest.approx(8.0 * math.sqrt(3.0) * 1152.0, rel=1e-14)
        assert float(poly_C1(1.0)) == 267264.0

    def test_dense_positivity(self):
        rep = verify_section3_positivity()
        assert rep.n_nodes == 10000
        assert rep.all_positive
        assert rep.inequality_holds
        assert rep.min_combination > 0.0
        assert not rep.failures


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

    def test_a_g_values(self):
        assert find_a_g(1.0) == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)
        assert find_a_g(2.0) == pytest.approx((1.0 + math.sqrt(17.0)) / 8.0, rel=1e-14)
        # at a=2 the smallest allowed coupling is sqrt(3)/2
        assert find_a_g(math.sqrt(3.0) / 2.0) == pytest.approx(2.0, rel=1e-12)
        assert find_a_g(1e6) < 2e-6
        with pytest.raises(ValueError):
            find_a_g(0.0)


@pytest.fixture(scope="module")
def report():
    return trace_curves(resolution=60)


# the scan-and-bisect code these roots replace found a_c in a bracket of
# width 8.5e-5 and the gamma fold at 0.0417631688; its 600-point z scan
# skips root pairs closer than one sample, so it stopped 2.8e-6 short of
# the alpha_tilde fold, at 0.1177274195
@pytest.mark.parametrize("curve, table, frozen, bisected, tol", [
    ("gamma_zero", region._GAMMA, region._GAMMA_FOLD, 0.0417631688, 1e-8),
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
        (roots,) = region._real_roots(region._coeffs(region._GAMMA_TILDE, a, "z"), 0.0, 4.0)
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
