"""Sign-region analysis: where the effective perturbation u stays positive
and decreasing, which is what guarantees monotone convergence.

The slope of u factors through pairs of polynomials in (x^2, a): the pair
(alpha, beta) builds u itself, the pair (alpha_tilde, beta_tilde) builds u',
and each pair satisfies a difference-of-squares identity that cancels the
(x^2-1) pole/zero so signs can be read off polynomial loci.  This module
evaluates all of them (Horner in x^2, exact integer coefficients times powers
of a), traces their zero curves as companion-matrix eigenvalues, verifies the
a=2 positivity chain, and computes the critical shape value a_c below which
u' turns positive somewhere, as a root of a discriminant factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BracketError

__all__ = [
    "A_C",
    "X_G1_ROOT",
    "alpha",
    "beta",
    "g1",
    "g2",
    "gamma_poly",
    "alpha_tilde",
    "beta_tilde",
    "gamma_tilde_coeffs",
    "gamma_tilde",
    "poly_A",
    "poly_B",
    "poly_C1",
    "poly_C2",
    "eval_u_prime",
    "u_prime_a2",
    "Section3Report",
    "verify_section3_positivity",
    "ACResult",
    "find_a_c",
    "find_a_g",
    "RegionReport",
    "trace_curves",
]

# positive root of g1: x^2 = (-9 + sqrt(96))/15; above it g1 > 0 and the
# gamma = 0 locus cannot exist
X_G1_ROOT = math.sqrt((-9.0 + math.sqrt(96.0)) / 15.0)


def _horner_x2(x2, coeffs_low_to_high):
    """Polynomial in x^2, Horner form, lowest coefficient first; exact when
    x2 and the coefficients are Fractions and ints."""
    acc = 0 * x2
    for c in reversed(coeffs_low_to_high):
        acc = acc * x2 + c
    return acc


def alpha(a, x):
    """Even part of the u numerator."""
    x2 = np.asarray(x, dtype=float) ** 2
    return _horner_x2(
        x2,
        [8.0 * a * a + 2.0 * a, 8.0 * a * a + 12.0 * a + 7.0, 6.0 * (3.0 * a - 1.0), 15.0],
    )


def beta(a, x):
    """Odd part of the u numerator (carries the sqrt(x^2+a) weight)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(1.0 + np.asarray(a, dtype=float)) * x * (3.0 * x * x + 2.0 * a - 1.0)


def g1(x):
    """15 x^4 + 18 x^2 - 1; its sign gates the gamma = 0 locus."""
    x2 = np.asarray(x, dtype=float) ** 2
    return _horner_x2(x2, [-1.0, 18.0, 15.0])


def g2(a, x):
    """Strictly positive remainder of gamma for a > 0."""
    x2 = np.asarray(x, dtype=float) ** 2
    return (
        4.0 * a * a * _horner_x2(x2, [1.0, 90.0, 141.0])
        + 32.0 * a**3 * (9.0 * x2 + 1.0)
        + 64.0 * a**4
    )


def gamma_poly(a, x):
    """gamma = g1 * (15 x^4 + 36 a x^2) + g2; satisfies
    alpha^2 - 64 (x^2+a) beta^2 = (x^2-1)^2 gamma."""
    x2 = np.asarray(x, dtype=float) ** 2
    return g1(x) * (15.0 * x2 * x2 + 36.0 * a * x2) + g2(a, x)


# coefficient of s^i a^j in gamma, s = x^2: its rows give gamma as a quartic
# in s at fixed a, its columns as a quartic in a at fixed s
_GAMMA_SA = np.array([
    [0, 0, 4, 32, 64],
    [0, -36, 360, 288, 0],
    [-15, 648, 564, 0, 0],
    [270, 540, 0, 0, 0],
    [225, 0, 0, 0, 0],
], dtype=float)


def _gamma_coeffs(a) -> np.ndarray:
    """gamma as a polynomial in s = x^2 (low to high), one column per a."""
    return _GAMMA_SA @ np.asarray(a, dtype=float) ** np.arange(5)[:, None]


def alpha_tilde(a, x):
    """Even-weight part of the u' numerator; odd in x."""
    x = np.asarray(x, dtype=float)
    return x * _horner_x2(x * x, _alpha_tilde_coeffs(a))


def _alpha_tilde_coeffs(a) -> list:
    """alpha_tilde / x as a polynomial in x^2 (low to high)."""
    return [-6.0 * a - 48.0 * a**3, 14.0 + 18.0 * a - 144.0 * a * a - 16.0 * a**3,
            -42.0 - 162.0 * a - 48.0 * a * a, -6.0 - 42.0 * a, -30.0]


def beta_tilde(a, x):
    """Square-root-weighted part of the u' numerator; even in x."""
    x2 = np.asarray(x, dtype=float) ** 2
    return np.sqrt(np.asarray(a, dtype=float) + 1.0) * _horner_x2(x2, _beta_tilde_coeffs(a))


def _beta_tilde_coeffs(a) -> list:
    """beta_tilde / sqrt(a+1) as a polynomial in x^2 (low to high)."""
    return [a - 2.0 * a * a, -2.0 - 2.0 * a - 6.0 * a * a, 6.0 - 15.0 * a, -12.0]


def gamma_tilde_coeffs(a) -> np.ndarray:
    """Coefficients of gamma_tilde as a degree-6 polynomial in x^2 (low to
    high); alpha_tilde^2 - 64 (x^2+a) beta_tilde^2 = (x^2-1)^3 gamma_tilde.
    For array a the result has shape (7,) + a.shape."""
    a = np.asarray(a, dtype=float)
    return np.array(
        [
            a**3 * (64.0 - 192.0 * a + 256.0 * a**3),
            a * a * (-228.0 - 1152.0 * a * a + 1536.0 * a**3),
            a * (168.0 + 1068.0 * a - 960.0 * a * a + 3648.0 * a**3),
            60.0 - 504.0 * a + 4500.0 * a * a + 4992.0 * a**3,
            -180.0 + 8568.0 * a + 4644.0 * a * a,
            3060.0 + 2520.0 * a,
            900.0 * np.ones_like(a),
        ]
    )


def gamma_tilde(a, x):
    return _horner_x2(np.asarray(x, dtype=float) ** 2, gamma_tilde_coeffs(a))


# ---- a = 2 positivity chain -------------------------------------------------

_C1_COEFFS = [-1152.0, 2880.0, 34008.0, 77952.0, 83706.0, 49880.0, 16740.0, 3000.0, 250.0]
_C2_COEFFS = [1152.0, 4800.0, 8904.0, 9672.0, 6322.0, 2236.0, 322.0]


def poly_A(x):
    """a=2 denominator polynomial 5x^6 + 10x^4 + 21x^2 + 12."""
    x2 = np.asarray(x, dtype=float) ** 2
    return _horner_x2(x2, [12.0, 21.0, 10.0, 5.0])


def poly_B(x):
    """a=2 denominator companion 8 sqrt(3) x (x^2+1) sqrt(x^2+2)."""
    x = np.asarray(x, dtype=float)
    return 8.0 * math.sqrt(3.0) * x * (x * x + 1.0) * np.sqrt(x * x + 2.0)


def poly_C1(x):
    """Odd numerator polynomial of -u' at a=2 (only its x term is negative)."""
    x = np.asarray(x, dtype=float)
    return x * _horner_x2(x * x, _C1_COEFFS)


def poly_C2(x):
    """Even numerator polynomial of -u' at a=2, times 8 sqrt(3); positive."""
    x2 = np.asarray(x, dtype=float) ** 2
    return 8.0 * math.sqrt(3.0) * _horner_x2(x2, _C2_COEFFS)


def u_prime_a2(x):
    """Slope of u at a=2 in its explicit radical form:

        u' = -(3/8) (C1 sqrt(x^2+2) + C2) / (sqrt(x^2+2) [(x^2+2)^2 (A+B)]^2)
    """
    x = np.asarray(x, dtype=float)
    r = np.sqrt(x * x + 2.0)
    denom_core = (x * x + 2.0) ** 2 * (poly_A(x) + poly_B(x))
    return -0.375 * (poly_C1(x) * r + poly_C2(x)) / (r * denom_core**2)


def eval_u_prime(a, x):
    """Slope of u for general a, pole-free at x = 1.

    Two algebraically equivalent quotients are available:

        u' = gamma_tilde_minus / (8 (x^2+a)^3 (x^2-1)^3)          (minus form)
        u' = gamma_tilde / (8 (x^2+a)^3 gamma_tilde_plus)         (plus form)

    with gamma_tilde_pm = alpha_tilde +- 8 sqrt(x^2+a) beta_tilde.  The zero
    that cancels the (x^2-1)^3 lives in the minus combination, and
    gamma_tilde_plus(1) = -128 (1+a)^3 never vanishes, so the plus form is
    used wherever alpha_tilde and beta_tilde share a sign (their sum is then
    subtraction-free); elsewhere the minus combination is itself
    subtraction-free and x is provably away from 1.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    x2 = x * x
    r = np.sqrt(x2 + a)
    ta = alpha_tilde(a, x)
    tb8 = 8.0 * r * beta_tilde(a, x)
    tg = gamma_tilde(a, x)
    like_signs = (ta <= 0.0) == (tb8 <= 0.0)
    near_one = np.abs(x2 - 1.0) < 1e-3
    use_plus = like_signs | near_one
    out = np.empty_like(x)
    denom8 = 8.0 * (x2 + a) ** 3
    if use_plus.any():
        m = use_plus
        out[m] = tg[m] / (denom8[m] * (ta[m] + tb8[m]))
    if (~use_plus).any():
        m = ~use_plus
        out[m] = (ta[m] - tb8[m]) / (denom8[m] * (x2[m] - 1.0) ** 3)
    return out[0] if scalar else out


# ---- a = 2 positivity verification ------------------------------------------


@dataclass
class Section3Report:
    n_nodes: int
    all_positive: bool
    min_combination: float
    argmin_x: float
    inequality_holds: bool
    min_inequality_margin: float
    failures: list[float] = field(default_factory=list)


def verify_section3_positivity(x_grid: np.ndarray | None = None) -> Section3Report:
    """Check the a=2 positivity chain on a dense grid:  over every node,
    C1 sqrt(x^2+2) + C2 > 0, and the supporting inequality
    8 sqrt(3) (4800 x^2 + 1152) > 1152 x sqrt(x^2+2)."""
    if x_grid is None:
        x_grid = np.linspace(1e-3, 10.0, 10000)
    r = np.sqrt(x_grid**2 + 2.0)
    combo = poly_C1(x_grid) * r + poly_C2(x_grid)
    margin = 8.0 * math.sqrt(3.0) * (4800.0 * x_grid**2 + 1152.0) - 1152.0 * x_grid * r
    imin = int(np.argmin(combo))
    return Section3Report(
        n_nodes=x_grid.size,
        all_positive=bool(np.all(combo > 0.0)),
        min_combination=float(combo[imin]),
        argmin_x=float(x_grid[imin]),
        inequality_holds=bool(np.all(margin > 0.0)),
        min_inequality_margin=float(margin.min()),
        failures=[float(x) for x in x_grid[combo <= 0.0]][:20],
    )


# ---- critical values ---------------------------------------------------------

# a root counts as real when its imaginary part is below this, relative: at a
# fold a double root comes out split by about sqrt(eps), maybe off the axis
_ROOT_TOL = 1e-6

# the tilde curves live in the (z, a) plane, z = x^2/a, on this window of z
_Z_WINDOW = (0.0, 4.0)

# Integer factors of disc_s of the curve polynomials (low to high in a), found
# with sympy's factor_list.  At a root of the factor two real roots of the
# curve meet and leave the real axis; the last such root ends the curve.
_GAMMA_FOLD = (1, 66, -2436, 6760)
_ALPHA_TILDE_FOLD = (1715, -588, -88896, -253892, 3975, -4728, 398)
_GAMMA_TILDE_FOLD = (295, 3390, 751812, -790006, 160852605, -512297472, 405514240)


def _real_roots(coeffs, lo: float, hi: float) -> list[np.ndarray]:
    """Sorted real roots in [lo, hi] of the polynomials whose coefficients
    (low to high) run down the columns of coeffs, one array per column, from
    the eigenvalues of their stacked companion matrices."""
    c = np.asarray(coeffs, dtype=float).reshape(len(coeffs), -1)
    deg = c.shape[0] - 1
    comp = np.zeros((c.shape[1], deg, deg))
    comp[:, 1:, :-1] = np.eye(deg - 1)
    comp[:, :, -1] = -(c[:-1] / c[-1]).T
    lam = np.linalg.eigvals(comp)
    real = np.abs(lam.imag) <= _ROOT_TOL * (1.0 + np.abs(lam.real))
    keep = real & (lam.real >= lo) & (lam.real <= hi)
    return [np.sort(row.real[k]) for row, k in zip(lam, keep)]


def _in_z(coeffs_in_s, a) -> list:
    """Coefficients in s = a z turned into coefficients in z."""
    return [c * a**k for k, c in enumerate(coeffs_in_s(a))]


def _fold(factor, coeffs_at, lo: float, hi: float) -> float:
    """The largest root in (0, 1] of an integer discriminant factor at which
    the curve polynomial coeffs_at(a) has a real double root in [lo, hi]."""
    candidates = _real_roots(factor, 0.0, 1.0)[0][::-1]
    for a, roots in zip(candidates, _real_roots(coeffs_at(candidates), lo, hi)):
        if np.any(np.diff(roots) <= _ROOT_TOL * (1.0 + np.abs(roots[1:]))):
            return float(a)
    raise BracketError(f"no root of the factor {factor} is a fold on [{lo}, {hi}]")


@dataclass(frozen=True)
class ACResult:
    a_c: float
    width: float
    bracket: tuple[float, float]

    def __float__(self):
        return self.a_c


def find_a_c() -> ACResult:
    """Critical shape value: the infimum of a for which u'(x; a) < 0 at every
    x > 0.  There gamma_tilde gains a real double root, so a_c is the root of
    gamma_tilde's degree-6 discriminant factor that is a fold of the
    gamma_tilde curve.  It is polished by Newton steps in exact rational
    arithmetic, rounded to a double after each step; the bracket is its two
    neighbouring doubles, at which the factor's exact signs must differ."""
    r = _fold(_GAMMA_TILDE_FOLD, lambda a: _in_z(gamma_tilde_coeffs, a), *_Z_WINDOW)
    p = _GAMMA_TILDE_FOLD
    dp = [k * c for k, c in enumerate(p)][1:]
    for _ in range(3):  # the eigenvalue is good to ~1e-15; Newton squares that
        t = Fraction(r)
        r = float(t - _horner_x2(t, p) / _horner_x2(t, dp))
    lo, hi = math.nextafter(r, 0.0), math.nextafter(r, 1.0)
    if (_horner_x2(Fraction(lo), p) > 0) == (_horner_x2(Fraction(hi), p) > 0):
        raise BracketError(f"the a_c factor does not change sign on [{lo!r}, {hi!r}]")
    return ACResult(a_c=r, width=hi - lo, bracket=(lo, hi))


# critical shape value: at or below it monotone convergence is not guaranteed
A_C = find_a_c().a_c


def find_a_g(g: float) -> float:
    """Shape bound equivalent to a positive mixing coefficient:
    a_g = (1 + sqrt(1 + 4 g^2)) / (2 g^2)."""
    if not g > 0.0:
        raise ValueError("g must be > 0")
    return (1.0 + math.sqrt(1.0 + 4.0 * g * g)) / (2.0 * g * g)


# ---- curve tracing ------------------------------------------------------------


@dataclass
class RegionReport:
    resolution: int
    curves: dict[str, list[tuple[float, float]]]
    misses: dict[str, int]
    a_c: float
    a_c_width: float
    ordering_ok: bool
    ordering_violations: int
    sign_region_violations: dict[str, int]

    def to_json_dict(self) -> dict:
        return {
            "schema": "gdwell-region-report-v1",
            "config": {"resolution": self.resolution},
            "a_c": self.a_c,
            "a_c_width": self.a_c_width,
            "ordering_ok": self.ordering_ok,
            "ordering_violations": self.ordering_violations,
            "sign_region_violations": dict(self.sign_region_violations),
            "misses": dict(self.misses),
            "curves": {k: [[p, q] for (p, q) in v] for k, v in self.curves.items()},
        }


def trace_curves(resolution: int = 200) -> RegionReport:
    """Trace the zero loci that bound the monotone-convergence region.

    In the (x, a) plane: beta = 0 (exists for a < 1/2) and gamma = 0 (exists
    for small a, at x below the positive root of g1).  In the (z, a) plane
    with z = x^2/a: the zero loci of alpha_tilde, beta_tilde and gamma_tilde.
    Each locus is sampled on a log-spaced a sweep that ends where the curve
    does, so it carries at least `resolution` points; sweep values with no
    root are recorded as misses, not errors.  Also verifies the stated
    geometry: the beta curve lies above the gamma curve, and just above each
    tilde curve the signs are alpha_tilde < 0, beta_tilde < 0, gamma_tilde > 0.
    """
    if resolution < 50:
        raise ValueError("resolution must be >= 50 samples per curve")
    curves: dict[str, list[tuple[float, float]]] = {}
    misses: dict[str, int] = {"beta_zero": 0}

    # beta = 0: x = sqrt((1 - 2a)/3), present exactly when a < 1/2
    a = np.geomspace(1e-4, 0.4999, resolution)
    curves["beta_zero"] = [(float(p), float(q)) for p, q in zip(a, np.sqrt((1.0 - 2.0 * a) / 3.0))]

    # gamma = 0: roots in s = x^2 on (0, x0^2), where g1 < 0
    s_hi = X_G1_ROOT**2
    a = np.geomspace(1e-5, _fold(_GAMMA_FOLD, _gamma_coeffs, 0.0, s_hi), resolution)
    roots = _real_roots(_gamma_coeffs(a), 0.0, s_hi)
    curves["gamma_zero"] = [(float(p), math.sqrt(s)) for p, r in zip(a, roots) for s in r]
    misses["gamma_zero"] = sum(r.size == 0 for r in roots)

    # tilde curves in the (z, a) plane: beta_tilde's root reaches z = 0 at
    # a = 1/2, where its constant term a (1 - 2a) vanishes
    ac = find_a_c()
    a_top_alpha = _fold(_ALPHA_TILDE_FOLD, lambda a: _in_z(_alpha_tilde_coeffs, a), *_Z_WINDOW)
    tilde = {  # coefficients in s, sign just above the curve, end of the sweep
        "alpha_tilde_zero": (_alpha_tilde_coeffs, -1.0, a_top_alpha),
        "beta_tilde_zero": (_beta_tilde_coeffs, -1.0, 0.5),
        "gamma_tilde_zero": (gamma_tilde_coeffs, 1.0, ac.a_c),
    }
    sign_violations: dict[str, int] = {}
    for name, (coeffs, sign_above, a_top) in tilde.items():
        a = np.geomspace(1e-4, a_top, resolution)
        roots = _real_roots(_in_z(coeffs, a), *_Z_WINDOW)
        curves[name] = [(float(p), float(z)) for p, r in zip(a, roots) for z in r]
        found = [r.size > 0 for r in roots]
        misses[name] = found.count(False)
        # just above the outermost root the region sign must hold
        a_up = 1.05 * a[found]
        probe = _horner_x2(a_up * [r[-1] for r in roots if r.size], coeffs(a_up))
        sign_violations[name] = int((probe * sign_above < 0.0).sum())

    # geometry of the (x, a) curves: beta curve above gamma curve, with
    # gamma as a quartic in a at fixed x
    x = np.linspace(X_G1_ROOT * 1e-2, X_G1_ROOT * 0.98, max(resolution, 200))
    a_gamma = _real_roots(_GAMMA_SA.T @ (x * x) ** np.arange(5)[:, None], 1e-9, 1.0)
    a_beta = (1.0 - 3.0 * x * x) / 2.0
    ordering_bad = sum(bool(r.size == 0 or not ab > r[-1]) for ab, r in zip(a_beta, a_gamma))

    return RegionReport(
        resolution=resolution,
        curves=curves,
        misses=misses,
        a_c=ac.a_c,
        a_c_width=ac.width,
        ordering_ok=(ordering_bad == 0),
        ordering_violations=ordering_bad,
        sign_region_violations=sign_violations,
    )
