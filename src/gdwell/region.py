"""Sign-region analysis: where the effective perturbation u stays positive
and decreasing, which is what guarantees monotone convergence.

The slope of u factors through pairs of polynomials in (x^2, a): the pair
(alpha, beta) builds u itself, the pair (alpha_tilde, beta_tilde) builds u',
and each pair satisfies a difference-of-squares identity that cancels the
(x^2-1) pole/zero so signs can be read off polynomial loci.  The u
polynomials come from ``gdwell.closed_forms``; the curve polynomials are
integer tables in (x^2, a), read, like those of alpha, beta and gamma, by
closed_forms._coeffs, and every polynomial value is closed_forms._horner.  This
module traces their zero curves as companion-matrix eigenvalues, verifies
the a=2 positivity chain, and computes the critical shape value a_c below
which u' turns positive somewhere, as a root of a discriminant factor.  That
the beta curve lies above the gamma curve is decided by Descartes' rule of
signs, from two values of gamma per x, not by root finding: gamma as a
quartic in a has coefficient signs (-, *, +, +, +) below X_G1_ROOT, checked
on every row, so it has exactly one positive root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import (
    _GAMMA, _coeffs, _horner, alpha, beta, find_a_g, gamma_poly, pole_free_quotient)
from .errors import BracketError, require_integer

__all__ = [
    "A_C",
    "X_G1_ROOT",
    "gamma_tilde_coeffs",
    "gamma_tilde",
    "identity_residuals",
    "eval_u_prime",
    "u_prime_a2",
    "Section3Report",
    "verify_section3_positivity",
    "ACResult",
    "find_a_c",
    "find_a_g",
    "RegionReport",
    "CURVE_PLANES",
    "trace_curves",
]

# positive root of gamma's factor 15 x^4 + 18 x^2 - 1: x^2 = (-9 + sqrt(96))/15;
# above it that factor is positive and the gamma = 0 locus cannot exist
X_G1_ROOT = math.sqrt((-9.0 + math.sqrt(96.0)) / 15.0)


# Curve polynomials as integer tables: entry [i, j] is the coefficient of
# s^i a^j, s = x^2, so rows give a polynomial in s at fixed a and columns
# one in a at fixed s; closed_forms._coeffs reads them.  gamma's table,
# _GAMMA, is the one closed_forms.gamma_poly evaluates.
# alpha_tilde / x
_ALPHA_TILDE = np.array([[0, -6, 0, -48],
                         [14, 18, -144, -16],
                         [-42, -162, -48, 0],
                         [-6, -42, 0, 0],
                         [-30, 0, 0, 0]], dtype=float)
# beta_tilde / sqrt(a+1)
_BETA_TILDE = np.array([[0, 1, -2],
                        [-2, -2, -6],
                        [6, -15, 0],
                        [-12, 0, 0]], dtype=float)
# alpha_tilde^2 - 64 (x^2+a) beta_tilde^2 = (x^2-1)^3 gamma_tilde
_GAMMA_TILDE = np.array([[0, 0, 0, 64, -192, 0, 256],
                         [0, 0, -228, 0, -1152, 1536, 0],
                         [0, 168, 1068, -960, 3648, 0, 0],
                         [60, -504, 4500, 4992, 0, 0, 0],
                         [-180, 8568, 4644, 0, 0, 0, 0],
                         [3060, 2520, 0, 0, 0, 0, 0],
                         [900, 0, 0, 0, 0, 0, 0]], dtype=float)


def _alpha_tilde(a, x):
    """Even-weight part of the u' numerator; odd in x."""
    x = np.asarray(x, dtype=float)
    return x * _horner(x * x, _coeffs(_ALPHA_TILDE, a))


def _beta_tilde(a, x):
    """Square-root-weighted part of the u' numerator; even in x."""
    x2 = np.asarray(x, dtype=float) ** 2
    return np.sqrt(np.asarray(a, dtype=float) + 1.0) * _horner(x2, _coeffs(_BETA_TILDE, a))


def gamma_tilde_coeffs(a) -> np.ndarray:
    """Coefficients of gamma_tilde as a degree-6 polynomial in x^2 (low to
    high); alpha_tilde^2 - 64 (x^2+a) beta_tilde^2 = (x^2-1)^3 gamma_tilde.
    For array a the result has shape (7,) + a.shape."""
    return _coeffs(_GAMMA_TILDE, a)


def gamma_tilde(a, x):
    return _horner(np.asarray(x, dtype=float) ** 2, gamma_tilde_coeffs(a))


def identity_residuals(a, x) -> tuple[float, float, float]:
    """Largest relative residuals over the points (a, x) of the u identity
    alpha^2 - 64 (x^2+a) beta^2 = (x^2-1)^2 gamma, of the u' identity with
    the tilde triple and (x^2-1)^3, both relative to the summed magnitudes
    (the subtraction cancels by construction), and of gamma_tilde's table
    against that factorization at |x - 1| > 0.05, relative to |gamma_tilde| + 1.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    x2 = x * x

    def residual(even, odd, k, gamma):
        t1 = even**2
        t2 = 64.0 * (x2 + a) * odd**2
        rhs = (x2 - 1.0) ** k * gamma
        return float(np.max(np.abs(t1 - t2 - rhs) / (t1 + t2 + np.abs(rhs) + 1.0)))

    ta, tb, tg = _alpha_tilde(a, x), _beta_tilde(a, x), gamma_tilde(a, x)
    away = np.abs(x - 1.0) > 0.05
    via_fact = (ta**2 - 64.0 * (x2 + a) * tb**2)[away] / (x2[away] - 1.0) ** 3
    table = np.abs(via_fact - tg[away]) / (np.abs(tg[away]) + 1.0)
    return (residual(alpha(a, x), beta(a, x), 2, gamma_poly(a, x)),
            residual(ta, tb, 3, tg), float(table.max(initial=0.0)))


# ---- a = 2 positivity chain -------------------------------------------------

_A_COEFFS = np.array([12.0, 21.0, 10.0, 5.0])
_C1_COEFFS = np.array([-1152.0, 2880.0, 34008.0, 77952.0, 83706.0, 49880.0, 16740.0, 3000.0,
                       250.0])
_C2_COEFFS = np.array([1152.0, 4800.0, 8904.0, 9672.0, 6322.0, 2236.0, 322.0])


def _poly_A(x):
    """a=2 denominator polynomial 5x^6 + 10x^4 + 21x^2 + 12."""
    x2 = np.asarray(x, dtype=float) ** 2
    return _horner(x2, _A_COEFFS)


def _poly_B(x):
    """a=2 denominator companion 8 sqrt(3) x (x^2+1) sqrt(x^2+2)."""
    x = np.asarray(x, dtype=float)
    return 8.0 * math.sqrt(3.0) * x * (x * x + 1.0) * np.sqrt(x * x + 2.0)


def _poly_C1(x):
    """Odd numerator polynomial of -u' at a=2 (only its x term is negative)."""
    x = np.asarray(x, dtype=float)
    return x * _horner(x * x, _C1_COEFFS)


def _poly_C2(x):
    """Even numerator polynomial of -u' at a=2, times 8 sqrt(3); positive."""
    x2 = np.asarray(x, dtype=float) ** 2
    return 8.0 * math.sqrt(3.0) * _horner(x2, _C2_COEFFS)


def u_prime_a2(x):
    """Slope of u at a=2 in its explicit radical form:

        u' = -(3/8) (C1 sqrt(x^2+2) + C2) / (sqrt(x^2+2) [(x^2+2)^2 (A+B)]^2)
    """
    x = np.asarray(x, dtype=float)
    r = np.sqrt(x * x + 2.0)
    denom_core = (x * x + 2.0) ** 2 * (_poly_A(x) + _poly_B(x))
    return -0.375 * (_poly_C1(x) * r + _poly_C2(x)) / (r * denom_core**2)


def eval_u_prime(a, x):
    """Slope of u for general a, pole-free at x = 1:

        u' = (alpha_tilde - 8 sqrt(x^2+a) beta_tilde) / (8 (x^2+a)^3 (x^2-1)^3)

    The zero that cancels the (x^2-1)^3 lives in the minus combination, and
    alpha_tilde + 8 sqrt(x^2+a) beta_tilde = -128 (1+a)^3 at x = 1 never
    vanishes, so the pole-free plus form is used wherever alpha_tilde and
    beta_tilde share a sign (their sum is then subtraction-free) or x^2 is
    within 1e-3 of 1; elsewhere the minus combination is itself
    subtraction-free and x is away from 1.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    x2 = x * x
    ta, tb = _alpha_tilde(a, x), _beta_tilde(a, x)
    plus = ((ta <= 0.0) == (tb <= 0.0)) | (np.abs(x2 - 1.0) < 1e-3)
    out = pole_free_quotient(a, x2, ta, tb, gamma_tilde(a, x), 3, plus)
    return out[0] if scalar else out


# ---- a = 2 positivity verification ------------------------------------------


@dataclass
class Section3Report:
    all_positive: bool
    min_combination: float
    argmin_x: float
    inequality_holds: bool
    route_mismatch: float
    max_u_prime: float


def verify_section3_positivity() -> Section3Report:
    """Check the a=2 positivity chain on 10000 nodes over [1e-3, 10]:  at
    every node, C1 sqrt(x^2+2) + C2 > 0, and the supporting inequality
    8 sqrt(3) (4800 x^2 + 1152) > 1152 x sqrt(x^2+2).  On the same nodes it
    measures the relative gap of u_prime_a2 to eval_u_prime, and the largest u'."""
    x_grid = np.linspace(1e-3, 10.0, 10000)
    r = np.sqrt(x_grid**2 + 2.0)
    combo = _poly_C1(x_grid) * r + _poly_C2(x_grid)
    margin = 8.0 * math.sqrt(3.0) * (4800.0 * x_grid**2 + 1152.0) - 1152.0 * x_grid * r
    imin = int(np.argmin(combo))
    u_prime = eval_u_prime(2.0, x_grid)
    return Section3Report(
        all_positive=bool(np.all(combo > 0.0)),
        min_combination=float(combo[imin]),
        argmin_x=float(x_grid[imin]),
        inequality_holds=bool(np.all(margin > 0.0)),
        route_mismatch=float(np.max(np.abs(u_prime_a2(x_grid) - u_prime) / np.abs(u_prime))),
        max_u_prime=float(u_prime.max()),
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


def _real_roots(coeffs, lo: float, hi: float) -> np.ndarray:
    """Real roots in [lo, hi] of the polynomials whose coefficients (low to
    high) run down the columns of coeffs, from the eigenvalues of their
    stacked companion matrices: one row per column, of width the degree,
    holding that polynomial's roots sorted and then +inf in the unused
    slots."""
    c = np.asarray(coeffs, dtype=float).reshape(len(coeffs), -1)
    deg = c.shape[0] - 1
    comp = np.zeros((c.shape[1], deg, deg))
    comp[:, 1:, :-1] = np.eye(deg - 1)
    comp[:, :, -1] = -(c[:-1] / c[-1]).T
    lam = np.linalg.eigvals(comp)
    real = np.abs(lam.imag) <= _ROOT_TOL * (1.0 + np.abs(lam.real))
    keep = real & (lam.real >= lo) & (lam.real <= hi)
    return np.sort(np.where(keep, lam.real, np.inf), axis=1)


def _largest(roots: np.ndarray) -> np.ndarray:
    """The largest root of each row of a _real_roots array; -inf for a row
    with none."""
    return np.where(np.isfinite(roots), roots, -np.inf).max(axis=1)


def _fold(factor, table: np.ndarray, var: str, lo: float, hi: float) -> float:
    """The largest root in (0, 1] of an integer discriminant factor at which
    the curve polynomial in table, in var ("s" or "z") at that a, has a real
    double root in [lo, hi]."""
    candidates = _real_roots(factor, 0.0, 1.0)[0]
    candidates = candidates[np.isfinite(candidates)][::-1]
    # nan for the padding, so that no gap to or between the inf slots counts
    roots = _real_roots(_coeffs(table, candidates, var), lo, hi)
    roots[np.isinf(roots)] = np.nan
    close = np.diff(roots, axis=1) <= _ROOT_TOL * (1.0 + np.abs(roots[:, 1:]))
    folds = np.flatnonzero(close.any(axis=1))
    if folds.size == 0:
        raise BracketError(f"no root of the factor {factor} is a fold on [{lo}, {hi}]")
    return float(candidates[folds[0]])


@dataclass(frozen=True)
class ACResult:
    a_c: float
    width: float
    bracket: tuple[float, float]


def _exact(coeffs, n: int, d: int) -> int:
    """d^deg times the integer polynomial (coefficients low to high) at n/d:
    one integer sum over the common denominator."""
    deg = len(coeffs) - 1
    return sum(c * n**k * d**(deg - k) for k, c in enumerate(coeffs))


def _newton_step(coeffs, r: float) -> float:
    """One Newton step on the integer polynomial from r, exact until one
    rounding to a double: with r = n/d, P = d^deg p(r) and q = d^(deg-1) p'(r),
    the step is (n q - P) / (q d), and int true division rounds correctly."""
    n, d = r.as_integer_ratio()
    q = _exact([k * c for k, c in enumerate(coeffs)][1:], n, d)
    return (n * q - _exact(coeffs, n, d)) / (q * d)


def find_a_c() -> ACResult:
    """Critical shape value: the infimum of a for which u'(x; a) < 0 at every
    x > 0.  There gamma_tilde gains a real double root, so a_c is the root of
    gamma_tilde's degree-6 discriminant factor that is a fold of the
    gamma_tilde curve.  It is polished by Newton steps in exact integer
    arithmetic, rounded to a double after each step; the bracket is its two
    neighbouring doubles, at which the factor's exact signs must differ."""
    p = _GAMMA_TILDE_FOLD
    r = _fold(p, _GAMMA_TILDE, "z", *_Z_WINDOW)
    for _ in range(3):  # the eigenvalue is good to ~1e-15; Newton squares that
        r = _newton_step(p, r)
    lo, hi = math.nextafter(r, 0.0), math.nextafter(r, 1.0)
    if (_exact(p, *lo.as_integer_ratio()) > 0) == (_exact(p, *hi.as_integer_ratio()) > 0):
        raise BracketError(f"the a_c factor does not change sign on [{lo!r}, {hi!r}]")
    return ACResult(a_c=r, width=hi - lo, bracket=(lo, hi))


# critical shape value: at or below it monotone convergence is not guaranteed
A_C = find_a_c().a_c

# where the gamma and alpha_tilde curves end: the ends of their sweeps
_GAMMA_END = _fold(_GAMMA_FOLD, _GAMMA, "s", 0.0, X_G1_ROOT**2)
_ALPHA_TILDE_END = _fold(_ALPHA_TILDE_FOLD, _ALPHA_TILDE, "z", *_Z_WINDOW)


# ---- curve tracing ------------------------------------------------------------


@dataclass
class RegionReport:
    resolution: int
    curves: dict[str, np.ndarray]   # a (k, 2) float array of (a, root) rows each
    misses: dict[str, int]
    a_c: float
    a_c_width: float
    ordering_ok: bool
    ordering_violations: int
    sign_region_violations: dict[str, int]

    def to_json_dict(self) -> dict:
        """The report as schema gdwell-region-report-v1, for _io.write_json;
        each curve stays its (k, 2) array, written a row to a line."""
        return {
            "schema": "gdwell-region-report-v1",
            "config": {"resolution": self.resolution},
            "a_c": self.a_c,
            "a_c_width": self.a_c_width,
            "ordering_ok": self.ordering_ok,
            "ordering_violations": self.ordering_violations,
            "sign_region_violations": dict(self.sign_region_violations),
            "misses": dict(self.misses),
            "curves": dict(self.curves),
        }


def _points(a: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The (a, root) rows of a sweep: each a paired with each finite entry of
    its row of roots."""
    finite = np.isfinite(roots)
    return np.column_stack([np.repeat(a, finite.sum(axis=1)), roots[finite]])


def _ordering_bad(c: np.ndarray, a_beta: np.ndarray) -> np.ndarray:
    """One flag per column of c, gamma's coefficients in a at one s = x^2:
    True unless the gamma curve lies below the line a_beta there.  They are
    c0 = 15 s^2 (15 s^2 + 18 s - 1), negative for 0 < s < X_G1_ROOT^2, and
    c2, c3, c4 > 0: one sign change whatever c1's sign, so by Descartes' rule
    of signs gamma has exactly one positive root r, and 1e-9 <= r < a_beta
    exactly when gamma(1e-9) <= 0 < gamma(a_beta).  That sign pattern is
    checked in every column; a column without it is bad."""
    one_root = (c[0] < 0.0) & (c[2:] > 0.0).all(axis=0)
    return ~(one_root & (_horner(1e-9, c) <= 0.0) & (_horner(a_beta, c) > 0.0))


# the plane of each traced curve, (x, a) or (z, a), named by its root coordinate
CURVE_PLANES = {"beta_zero": "x", "gamma_zero": "x", "alpha_tilde_zero": "z",
                "beta_tilde_zero": "z", "gamma_tilde_zero": "z"}


def trace_curves(resolution: int = 200) -> RegionReport:
    """Trace the zero loci that bound the monotone-convergence region.

    In the (x, a) plane: beta = 0 (exists for a < 1/2) and gamma = 0 (exists
    for small a, at x below X_G1_ROOT).  In the (z, a) plane
    with z = x^2/a: the zero loci of alpha_tilde, beta_tilde and gamma_tilde.
    Each locus is sampled on a log-spaced a sweep that ends where the curve
    does, so it carries at least `resolution` points (an integer); sweep
    values with no root are recorded as misses, not errors.  Also verifies
    the stated geometry: the beta curve lies above the gamma curve, and just
    above each tilde curve the signs are alpha_tilde < 0, beta_tilde < 0,
    gamma_tilde > 0.
    Each sweep's roots are one _real_roots array, sorted and inf-padded, and
    every output is read from it with array operations.  The ordering needs
    no roots: at each x, gamma's coefficients in a have the checked sign
    pattern (-, *, +, +, +), so by Descartes' rule of signs its one positive
    root lies below beta's a = (1 - 3 x^2)/2 exactly when gamma is <= 0 at
    a = 1e-9 and > 0 at that a (_ordering_bad).
    """
    require_integer("resolution", resolution)
    if resolution < 50:
        raise ValueError("resolution must be >= 50 samples per curve")
    curves: dict[str, np.ndarray] = {}
    misses: dict[str, int] = {"beta_zero": 0}

    # beta = 0: x = sqrt((1 - 2a)/3), present exactly when a < 1/2
    a = np.geomspace(1e-4, 0.4999, resolution)
    curves["beta_zero"] = np.column_stack([a, np.sqrt((1.0 - 2.0 * a) / 3.0)])

    # gamma = 0: roots in s = x^2 on (0, X_G1_ROOT^2)
    a = np.geomspace(1e-5, _GAMMA_END, resolution)
    roots = _real_roots(_coeffs(_GAMMA, a), 0.0, X_G1_ROOT**2)
    curves["gamma_zero"] = _points(a, np.sqrt(roots))
    misses["gamma_zero"] = int(np.isinf(roots[:, 0]).sum())

    # tilde curves in the (z, a) plane: beta_tilde's root reaches z = 0 at
    # a = 1/2, where its constant term a (1 - 2a) vanishes
    ac = find_a_c()
    tilde = {  # table, sign just above the curve, end of the sweep
        "alpha_tilde_zero": (_ALPHA_TILDE, -1.0, _ALPHA_TILDE_END),
        "beta_tilde_zero": (_BETA_TILDE, -1.0, 0.5),
        "gamma_tilde_zero": (_GAMMA_TILDE, 1.0, ac.a_c),
    }
    sign_violations: dict[str, int] = {}
    for name, (table, sign_above, a_top) in tilde.items():
        a = np.geomspace(1e-4, a_top, resolution)
        roots = _real_roots(_coeffs(table, a, "z"), *_Z_WINDOW)
        curves[name] = _points(a, roots)
        found = np.isfinite(roots[:, 0])
        misses[name] = int(np.count_nonzero(~found))
        # just above the outermost root the region sign must hold
        a_up = 1.05 * a[found]
        probe = _horner(a_up * _largest(roots[found]), _coeffs(table, a_up))
        sign_violations[name] = int((probe * sign_above < 0.0).sum())

    # geometry of the (x, a) curves: beta curve above gamma curve
    x = np.linspace(X_G1_ROOT * 1e-2, X_G1_ROOT * 0.98, max(resolution, 200))
    ordering_bad = int(np.count_nonzero(
        _ordering_bad(_coeffs(_GAMMA, x * x, "a"), (1.0 - 3.0 * x * x) / 2.0)))

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
