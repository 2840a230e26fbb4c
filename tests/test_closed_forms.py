"""Closed-form layer: frozen values, finite-difference oracles, and the
equality of the a=2 special forms with the general-a ones."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from conftest import central_diff, central_diff2
from gdwell import ConvergenceDomainError, PotentialParams, region
from gdwell import closed_forms as cf
from gdwell.closed_forms import (
    alpha,
    beta,
    eval_ghat,
    eval_potential,
    eval_S0,
    eval_S0_mirror,
    eval_S0_prime,
    eval_S1,
    eval_S1_prime,
    eval_S1_prime_quotient,
    eval_u,
    eval_w,
    find_a_g,
    gamma_poly,
)

P12 = PotentialParams(1.0, 2.0)


# a=2 special forms, written out independently of the package code paths
def s0_a2(x):
    return 0.25 * x * (x * x - 1.0) * np.sqrt(x * x + 2.0) - 1.5 * np.log(
        x + np.sqrt(x * x + 2.0)
    )


def s1_a2(x):
    r3 = np.sqrt(3.0 * (x * x + 2.0))
    return (
        np.log(x + 1.0)
        + 0.25 * np.log(x * x + 2.0)
        + 0.5 * np.log((2.0 + x + r3) / (2.0 - x + r3))
    )


def u_a2(x):
    x2 = x * x
    num = 25.0 * x2**4 + 150.0 * x2**3 + 393.0 * x2**2 + 408.0 * x2 + 144.0
    A = 5.0 * x2**3 + 10.0 * x2**2 + 21.0 * x2 + 12.0
    B = 8.0 * math.sqrt(3.0) * x * (x2 + 1.0) * np.sqrt(x2 + 2.0)
    return 0.375 * num / ((x2 + 2.0) ** 2 * (A + B))


class TestParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PotentialParams(0.0, 2.0)
        with pytest.raises(ValueError):
            PotentialParams(1.0, -1.0)

    @pytest.mark.parametrize("g,a", [(math.inf, 2.0), (1.0, math.inf), (math.nan, 2.0),
                                     (1.0, math.nan)])
    def test_rejects_non_finite(self, g, a):
        with pytest.raises(ValueError, match="finite"):
            PotentialParams(g, a)

    @pytest.mark.parametrize("g,a,name", [
        (1e200, 2.0, "coupling g"), (1e-200, 2.0, "coupling g"), (2.0, 1e300, "shape parameter a"),
        (2.0, 1e78, "shape parameter a")])
    def test_rejects_squares_and_fourth_powers_out_of_range(self, g, a, name):
        with pytest.raises(ValueError, match=name):
            PotentialParams(g, a)

    # g is validated once, by find_a_g, and before a
    @pytest.mark.parametrize("g", [0.0, -1.0, math.nan, math.inf, 1e-200, 7e-155, 7e153,
                                   1.34e154, 1e200])
    def test_rejects_every_g_find_a_g_rejects(self, g):
        with pytest.raises(ValueError, match="coupling g|overflows at g"):
            PotentialParams(g, 2.0)
        with pytest.raises(ValueError, match="coupling g|overflows at g"):
            PotentialParams(g, math.nan)

    # a bool is no number, and a str is named, not failed in a comparison
    @pytest.mark.parametrize("g,a,message", [
        (True, 2.0, "coupling g must be a real number, got True"),
        ("1", 2.0, "coupling g must be a real number, got '1'"),
        (2.0, True, "shape parameter a must be a real number, got True"),
        (2.0, "2", "shape parameter a must be a real number, got '2'")],
        ids=["bool-g", "str-g", "bool-a", "str-a"])
    def test_rejects_non_real_or_bool(self, g, a, message):
        with pytest.raises(ValueError) as exc:
            PotentialParams(g, a)
        assert str(exc.value) == message

    @pytest.mark.parametrize("g,a", [(np.float32(2.0), np.float32(2.0)), (np.float32(2.0), 2),
                                     (2, np.float32(0.7))])
    def test_numpy_float32_inputs_give_double_constants(self, g, a):
        # g and a are kept as Python floats, so every derived constant is the
        # one the same values as Python floats give, bit for bit
        p, ref = PotentialParams(g, a), PotentialParams(float(g), float(a))
        for name in ("g", "a", "E0", "Gamma", "a_g"):
            assert type(getattr(p, name)) is float
            assert getattr(p, name) == getattr(ref, name)
        assert p.a_g == find_a_g(np.float32(g)) == find_a_g(float(g))
        assert type(find_a_g(np.float32(g))) is float

    @pytest.mark.parametrize("g,a", [(1e150, 2.0), (1e-150, 2.0), (2.0, 1e76), (2.0, 1e-300)])
    def test_accepts_squares_and_fourth_powers_in_range(self, g, a):
        p = PotentialParams(g, a)
        assert math.isfinite(p.g**2) and math.isfinite(p.a**4)

    def test_derived_constants(self):
        assert P12.E0 == math.sqrt(3.0)
        assert P12.E0**2 - 1.0 == pytest.approx(P12.a, abs=1e-15)
        assert P12.a_g == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-15)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.7, 10.0])
    def test_e0_squared_is_one_plus_a(self, a):
        p = PotentialParams(1.3, a)
        assert p.E0**2 - 1.0 == pytest.approx(a, abs=4e-15 * (1 + a))

    def test_gamma_sign_threshold(self):
        # Gamma > 0 iff g > sqrt(1+a)/a
        thr = math.sqrt(3.0) / 2.0
        assert PotentialParams(thr * 1.01, 2.0).Gamma > 0.0
        assert PotentialParams(thr * 0.99, 2.0).Gamma < 0.0


class TestPotential:
    def test_roots_and_origin(self):
        assert eval_potential(P12, 1.0) == 0.0
        assert eval_potential(P12, -1.0) == 0.0
        assert eval_potential(P12, 0.0) == 1.0

    def test_expansion_a2(self):
        # expanded product: (x^6 - 3x^2 + 2)/2; spot value at x=2 is 27
        x = np.linspace(-3.0, 3.0, 601)
        np.testing.assert_allclose(
            eval_potential(P12, x), (x**6 - 3.0 * x**2 + 2.0) / 2.0, rtol=1e-13,
            atol=1e-12,
        )
        assert eval_potential(P12, 2.0) == pytest.approx(27.0, abs=1e-12)

    def test_even(self):
        x = np.linspace(0.0, 4.0, 97)
        np.testing.assert_array_equal(eval_potential(P12, x), eval_potential(P12, -x))


class TestS0:
    def test_frozen_values_a2(self):
        assert eval_S0(P12, 1.0) == pytest.approx(-1.5 * math.log(1.0 + math.sqrt(3.0)), abs=1e-14)
        assert eval_S0(P12, 0.0) == pytest.approx(-0.75 * math.log(2.0), abs=1e-14)

    def test_matches_a2_closed_form(self):
        x = np.linspace(0.0, 4.0, 1000)
        np.testing.assert_allclose(eval_S0(P12, x), s0_a2(x), rtol=1e-12, atol=1e-14)

    def test_derivative_fd_oracle(self):
        x = np.linspace(0.0, 4.0, 1000)[1:]
        h = 1e-5
        fd = central_diff(lambda t: eval_S0(P12, t), x, h)
        exact = eval_S0_prime(P12, x)
        scale = np.maximum(np.abs(exact), 1e-3)
        assert float(np.max(np.abs(fd - exact) / scale)) <= 1e-6

    def test_mirror_sum_rule(self):
        # the two branches sum to a constant because the log arguments
        # multiply to a
        x = np.linspace(0.0, 4.0, 200)
        s = eval_S0(P12, x) + eval_S0_mirror(P12, x)
        np.testing.assert_allclose(s, 2.0 * eval_S0(P12, 0.0), rtol=0, atol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            eval_S0(P12, -0.5)


class TestS1:
    def test_value_at_origin_a2(self):
        assert eval_S1(P12, 0.0) == pytest.approx(0.25 * math.log(2.0), abs=1e-14)

    def test_matches_a2_closed_form(self):
        x = np.linspace(0.0, 4.0, 800)
        np.testing.assert_allclose(eval_S1(P12, x), s1_a2(x), rtol=1e-12, atol=1e-14)

    def test_derivative_fd_oracle(self):
        x = np.linspace(0.0, 4.0, 1000)
        x = x[np.abs(x - 1.0) >= 0.01][1:]
        fd = central_diff(lambda t: eval_S1(P12, t), x, 1e-5)
        exact = eval_S1_prime(P12, x)
        assert float(np.max(np.abs(fd - exact) / np.abs(exact))) <= 1e-6

    def test_conjugate_equals_quotient(self):
        x = np.linspace(0.05, 4.0, 777)
        x = x[np.abs(x - 1.0) > 1e-3]
        np.testing.assert_allclose(
            eval_S1_prime(P12, x), eval_S1_prime_quotient(P12, x), rtol=1e-12
        )

    def test_removable_point(self):
        # limit from both sides matches the closed value (a+3)/(2(a+1))
        for a in (0.7, 2.0, 5.0):
            p = PotentialParams(2.0, a)
            lim = 0.5 * (
                eval_S1_prime_quotient(p, 1.0 - 1e-6) + eval_S1_prime_quotient(p, 1.0 + 1e-6)
            )
            val = float(eval_S1_prime(p, 1.0))
            assert val == pytest.approx((a + 3.0) / (2.0 * (a + 1.0)), rel=1e-12)
            assert val == pytest.approx(lim, rel=1e-9)

    def test_quotient_refuses_the_singular_point(self):
        with pytest.raises(ValueError):
            eval_S1_prime_quotient(P12, 1.0)


class TestU:
    def test_frozen_value_at_origin(self):
        assert eval_u(P12, 0.0) == pytest.approx(9.0 / 8.0, abs=1e-14)

    def test_matches_a2_closed_form(self):
        x = np.linspace(0.0, 4.0, 1500)
        np.testing.assert_allclose(eval_u(P12, x), u_a2(x), rtol=1e-12)

    def test_defining_combination_fd_oracle(self):
        # u must equal (S1'^2 - S1'')/2 with S1'' from finite differences
        x = np.linspace(0.05, 4.0, 400)
        x = x[np.abs(x - 1.0) > 0.05]
        h = 1e-4
        s1p = eval_S1_prime(P12, x)
        s1pp = central_diff2(lambda t: eval_S1(P12, t), x, h)
        u_fd = 0.5 * (s1p**2 - s1pp)
        exact = eval_u(P12, x)
        assert float(np.max(np.abs(u_fd - exact) / np.abs(exact))) <= 1e-5

    @pytest.mark.parametrize("a", [0.1, 0.664, 1.0, 2.0, 3.0, 10.0])
    def test_positive_everywhere(self, a):
        p = PotentialParams(1.0, a)
        x = np.linspace(0.0, 6.0, 4000)
        assert float(eval_u(p, x).min()) > 0.0

    def test_decays_at_infinity(self):
        assert float(eval_u(P12, 1e3)) < 1e-5


def gather_quotient(a, x2, even, odd, gamma, k, plus):
    """pole_free_quotient written as five boolean gathers and a scatter: the
    reference that its masked divide must match bit for bit."""
    w = 8.0 * (x2 + a) ** k
    odd8 = 8.0 * np.sqrt(x2 + a) * odd
    out = np.empty_like(x2)
    out[plus] = gamma[plus] / (w[plus] * (even[plus] + odd8[plus]))
    minus = ~plus
    out[minus] = (even[minus] - odd8[minus]) / (w[minus] * (x2[minus] - 1.0) ** k)
    return out


class TestPoleFreeQuotient:
    X = np.linspace(0.0, 5.0, 20001)

    # mixed: both branches run (beta < 0 at small x for a < 1/2); otherwise
    # the minus branch is skipped
    @pytest.mark.parametrize("a,mixed", [(0.1, True), (0.3, True), (2.0, False)])
    def test_u_matches_the_gather_form(self, a, mixed):
        x = self.X
        b = beta(a, x)
        plus = b >= 0.0
        assert plus.any() and plus.all() != mixed
        ref = gather_quotient(a, x * x, alpha(a, x), b, gamma_poly(a, x), 2, plus)
        assert np.array_equal(eval_u(PotentialParams(1.0, a), x), ref)

    @pytest.mark.parametrize("a,mixed", [(0.3, True), (0.6638, False), (2.0, False)])
    def test_u_prime_matches_the_gather_form(self, a, mixed):
        x = self.X
        x2 = x * x
        ta, tb = region._alpha_tilde(a, x), region._beta_tilde(a, x)
        plus = ((ta <= 0.0) == (tb <= 0.0)) | (np.abs(x2 - 1.0) < 1e-3)
        assert plus.any() and plus.all() != mixed
        ref = gather_quotient(a, x2, ta, tb, region.gamma_tilde(a, x), 3, plus)
        assert np.array_equal(region.eval_u_prime(a, x), ref)


class TestGhatAndW:
    def test_value_at_origin(self):
        expect = P12.g * P12.E0 * 2.0 * P12.Gamma / (1.0 + P12.Gamma)
        got = float(eval_ghat(P12, 0.0))
        assert got == pytest.approx(expect, rel=1e-14)
        assert got == pytest.approx(0.23204, abs=2e-5)

    def test_zero_beyond_the_well(self):
        assert float(eval_ghat(P12, 1.5)) == 0.0

    def test_monotone_decreasing_inside(self):
        x = np.linspace(0.0, 1.0, 500)
        gh = eval_ghat(P12, x)
        assert float(np.diff(gh).max()) < 0.0

    def test_requires_positive_mixing(self):
        bad = PotentialParams(0.5, 2.0)
        with pytest.raises(ConvergenceDomainError):
            eval_ghat(bad, 0.5)

    def test_w_reduces_to_u_outside(self):
        assert float(eval_w(P12, 2.0)) == float(eval_u(P12, 2.0))

    def test_w_at_origin(self):
        expect = 9.0 / 8.0 + P12.g * P12.E0 * 2.0 * P12.Gamma / (1.0 + P12.Gamma)
        assert float(eval_w(P12, 0.0)) == pytest.approx(expect, rel=1e-14)
        assert float(eval_w(P12, 0.0)) == pytest.approx(1.35704, abs=2e-5)

    def test_w_decreasing_above_critical_shape(self):
        p = PotentialParams(1.0, 1.8)
        for seg in (np.linspace(0.0, 1.0, 2000), np.linspace(1.0 + 1e-9, 6.0, 2000)):
            assert float(np.diff(eval_w(p, seg)).max()) < 0.0


# the half-line check of every closed form that takes x >= 0
HALF_LINE = ["eval_S0", "eval_S0_mirror", "eval_S0_prime", "eval_S1", "eval_S1_prime",
             "eval_S1_prime_quotient", "eval_u", "eval_ghat", "eval_w"]


class TestHalfLine:
    @pytest.mark.parametrize("name", HALF_LINE)
    @pytest.mark.parametrize("x", [math.nan, [0.0, math.nan], [0.5, math.nan], -0.5,
                                   [2.0, -1e-300]])
    def test_rejects_nan_and_negative(self, name, x):
        with pytest.raises(ValueError, match="x must be >= 0"):
            getattr(cf, name)(P12, x)

    @pytest.mark.parametrize("name", HALF_LINE)
    def test_takes_negative_zero_and_empty(self, name):
        assert math.isfinite(float(getattr(cf, name)(P12, -0.0)))
        assert getattr(cf, name)(P12, np.array([])).shape == (0,)


# every table whose values _horner gives, with the variable its coefficients
# are formed in by _coeffs ("s": a polynomial in s = x^2 at fixed a, "a": one
# in a at fixed s), and the fixed coefficient lists of the a = 2 chain
HORNER_TABLES = [(cf._ALPHA, "s"), (cf._BETA, "s"), (cf._GAMMA, "s"), (cf._GAMMA, "a"),
                 (region._ALPHA_TILDE, "s"), (region._BETA_TILDE, "s"),
                 (region._GAMMA_TILDE, "s")]
HORNER_FIXED = [region._A_COEFFS, region._C1_COEFFS, region._C2_COEFFS]
# finite s >= 0: 0, the model's range, and values near overflow, where the
# polynomials overflow to inf
HORNER_S = st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(0.0, 1.7976931348623157e308),
                     st.floats(1e300, 1.7976931348623157e308))
HORNER_T = st.one_of(st.floats(1e-6, 1e3), st.floats(0.0, 1e300))


def same_bits(got, ref) -> bool:
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestHorner:
    """_horner is numpy's polyval with tensor=False, bit for bit, which stays
    here as the reference.  Neither is asked for s = inf: there s 0 is nan,
    so polyval reads nan, and no caller passes inf."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, len(HORNER_TABLES) - 1),
           st.lists(st.tuples(HORNER_S, HORNER_T), min_size=1, max_size=6))
    @example(0, [(0.0, 2.0)])
    @example(6, [(1.7976931348623157e308, 1e3), (0.0, 0.5)])
    def test_matches_polyval_on_every_table(self, i, points):
        table, var = HORNER_TABLES[i]
        s = np.array([p[0] for p in points])
        t = np.array([p[1] for p in points])
        with np.errstate(over="ignore", invalid="ignore"):
            # array s at scalar t, scalar s at scalar t, and s and t pointwise
            c = cf._coeffs(table, t[0], var)
            assert same_bits(cf._horner(s, c), polyval(s, c, tensor=False))
            assert same_bits(cf._horner(s[0], c), polyval(s[0], c, tensor=False))
            c = cf._coeffs(table, t, var)
            assert same_bits(cf._horner(s, c), polyval(s, c, tensor=False))
            # a scalar s against many coefficient columns, as _ordering_bad asks
            assert same_bits(cf._horner(1e-9, c), polyval(1e-9, c, tensor=False))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, len(HORNER_FIXED) - 1), st.lists(HORNER_S, min_size=1, max_size=6))
    def test_matches_polyval_on_the_a2_chain(self, i, s):
        c = HORNER_FIXED[i]
        s = np.array(s)
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(cf._horner(s, c), polyval(s, c))
            assert same_bits(cf._horner(s[0], c), polyval(s[0], c))

    def test_writes_only_into_its_own_array(self):
        s, c = np.linspace(0.0, 4.0, 9), cf._coeffs(cf._GAMMA, 2.0)
        s0, c0 = s.copy(), c.copy()
        out = cf._horner(s, c)
        assert same_bits(s, s0) and same_bits(c, c0)
        assert not np.shares_memory(out, s) and not np.shares_memory(out, c)
