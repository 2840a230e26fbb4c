"""Closed-form building blocks of the generalized double-well model.

Everything here is a pure function of the model parameters (g, a) and the
coordinate x >= 0: the potential V, the two phase integrals S0 and S1 of the
large-g expansion together with their slopes, and the effective perturbations
u, ghat and w = u + ghat that drive the iteration, with the polynomials
alpha, beta and gamma that build u (``gdwell.region`` reads them here).

alpha, beta and gamma here, like the curve polynomials of ``gdwell.region``,
are tables of integer coefficients in (x^2, a), and one function, _coeffs,
reads every such table: numpy's polyval forms the coefficients of a table's
polynomial in one variable at fixed values of the other.  One evaluator,
_horner, gives every polynomial value in the package: polyval's Horner steps
with tensor=False, in the same order, in one array.

All formulas are evaluated in cancellation-safe arrangements:

* S1' uses a conjugate-rationalized quotient that is exact and finite at the
  well minimum x = 1 (the raw quotient is 0/0 there).
* u uses the factored rational form whose (x^2-1)^2 pole/zero pair has been
  cancelled analytically whenever the odd part of its numerator is
  nonnegative, and the subtraction-free arrangement otherwise; the same
  pole-free quotient serves u' in ``gdwell.region``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import ConvergenceDomainError, require_real

__all__ = [
    "find_a_g",
    "PotentialParams",
    "eval_potential",
    "eval_S0",
    "eval_S0_prime",
    "eval_S0_mirror",
    "eval_S1",
    "eval_S1_prime",
    "eval_S1_prime_quotient",
    "eval_u",
    "eval_ghat",
    "eval_w",
]


def find_a_g(g: float) -> float:
    """Shape bound equivalent to a positive mixing coefficient:
    a_g = (1 + sqrt(1 + 4 g^2)) / (2 g^2).  Raises ValueError unless g > 0
    is finite, 4 g^2 is finite and nonzero, and a_g itself is finite."""
    require_real("coupling g", g)
    # a Python float, so a numpy float32 g computes a_g in double
    g = float(g)
    if not (0.0 < g < math.inf and 0.0 < 4.0 * g * g < math.inf):
        raise ValueError(f"coupling g must be > 0 with 4 g^2 finite and nonzero, got {g}")
    a_g = (1.0 + math.sqrt(1.0 + 4.0 * g * g)) / (2.0 * g * g)
    if a_g == math.inf:  # 2 g^2 is subnormal
        raise ValueError(f"a_g = (1 + sqrt(1 + 4 g^2)) / (2 g^2) overflows at g = {g}")
    return a_g


@dataclass(frozen=True)
class PotentialParams:
    """Model parameters (g, a) plus the derived constants frozen at construction.

    E0     -- sqrt(1+a), the leading energy coefficient
    Gamma  -- (g*a - sqrt(1+a)) / (g*a + sqrt(1+a)), the mixing coefficient of
              the two trial-function branches; positive iff g > sqrt(1+a)/a
    a_g    -- find_a_g(g), the shape bound equivalent to Gamma > 0
    """

    g: float
    a: float
    E0: float = field(init=False)
    Gamma: float = field(init=False)
    a_g: float = field(init=False)

    def __post_init__(self):
        # find_a_g validates g, first; V scales with g^2 and u with a^4, as
        # Python floats, whose powers raise OverflowError rather than give inf
        a_g = find_a_g(self.g)
        require_real("shape parameter a", self.a)
        # kept as Python floats, so numpy float32 inputs give every derived
        # constant in double
        object.__setattr__(self, "g", float(self.g))
        object.__setattr__(self, "a", float(self.a))
        a2 = self.a * self.a
        if not (0.0 < self.a < math.inf and a2 * a2 < math.inf):
            raise ValueError(
                f"shape parameter a must be > 0 with a^4 finite, got {self.a}")
        e0 = math.sqrt(1.0 + self.a)
        object.__setattr__(self, "E0", e0)
        object.__setattr__(self, "Gamma", (self.g * self.a - e0) / (self.g * self.a + e0))
        object.__setattr__(self, "a_g", a_g)

    def require_mixing_positive(self) -> None:
        if not self.Gamma > 0.0:
            raise ConvergenceDomainError(
                f"mixing coefficient Gamma = {self.Gamma:.6g} <= 0: requires "
                f"g*a > sqrt(1+a), i.e. g > {self.E0 / self.a:.6g} at a = {self.a} "
                f"(equivalently a > a_g = {self.a_g:.6g} at g = {self.g})"
            )


def _check_nonnegative(x):
    x = np.asarray(x, dtype=float)
    # one reduction, and NaN fails it: its min is NaN, and NaN >= 0 is false
    if x.size and not x.min() >= 0.0:
        raise ValueError("x must be >= 0 (the model is evaluated on the half line; "
                         "evenness is the caller's contract)")
    return x


def eval_potential(p: PotentialParams, x):
    """V(x) = (g^2/2) (x^2-1)^2 (x^2+a). Even; accepts any real x."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    return 0.5 * p.g**2 * (x2 - 1.0) ** 2 * (x2 + p.a)


def _s0_raw(a: float, x):
    # valid for all real x: log(x + sqrt(x^2+a)) is defined since sqrt > |x|;
    # 0.25 x (s r) - c x r - a c log(x + r), s = x^2 + a, r = sqrt(s), in
    # place in three arrays, in the order that expression evaluates
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    c = a / 8.0 + 0.5
    s = x * x
    s += a
    r = np.sqrt(s)
    # r^3 as s r: one product, no float power, and one rounding closer to
    # s^{3/2} than r r r
    s *= r
    out = np.multiply(0.25, x)
    out *= s
    np.multiply(c, x, out=s)
    s *= r
    out -= s
    np.add(x, r, out=s)
    np.log(s, out=s)
    s *= a * c
    out -= s
    return out[0] if scalar else out


def eval_S0(p: PotentialParams, x):
    """Leading phase integral S0(x), closed form, for x >= 0."""
    return _s0_raw(p.a, _check_nonnegative(x))


def eval_S0_mirror(p: PotentialParams, x):
    """S0(-x) for x >= 0, i.e. the phase of the reflected branch.

    Evaluated directly from the closed form at -x; no parity identity is
    assumed.  Note S0(x) + S0(-x) = 2 S0(0) holds because the two log
    arguments multiply to the constant a.
    """
    return _s0_raw(p.a, -_check_nonnegative(x))


def eval_S0_prime(p: PotentialParams, x):
    """S0'(x) = (x^2-1) sqrt(x^2+a)."""
    x = _check_nonnegative(x)
    return (x * x - 1.0) * np.sqrt(x * x + p.a)


def eval_S1(p: PotentialParams, x):
    """Subleading phase integral S1(x), closed form, for x >= 0:
    log((x+1) sqrt(r)) + log((sa1 r + a + x) / (sa1 r + a - x)) / 2 with
    r = sqrt(x^2+a), sa1 = sqrt(a+1)."""
    x = _check_nonnegative(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    a = p.a
    sa1 = math.sqrt(a + 1.0)
    # in place in three arrays, in the order the expression above evaluates
    r = x * x
    r += a
    np.sqrt(r, out=r)
    work = np.sqrt(r)
    out = x + 1.0
    out *= work
    np.log(out, out=out)
    r *= sa1
    r += a
    np.subtract(r, x, out=work)
    r += x
    r /= work
    np.log(r, out=r)
    r *= 0.5
    out += r
    return out[0] if scalar else out


def eval_S1_prime(p: PotentialParams, x):
    """S1'(x) via the conjugate-rationalized quotient, finite everywhere.

    The raw quotient [x(3x^2+2a-1) - 2 sqrt(1+a) sqrt(x^2+a)] / [2(x^2-1)(x^2+a)]
    is 0/0 at x=1.  Multiplying by the conjugate of the numerator factors an
    exact (x^2-1) out of the rationalized numerator, leaving

        S1' = (9x^4 + (12a+3)x^2 + 4a(a+1))
              / (2(x^2+a) [x(3x^2+2a-1) + 2 sqrt(1+a) sqrt(x^2+a)])

    whose denominator is provably positive for x >= 0, a > 0.  At x=1 this
    gives the removable-point value (a+3)/(2(a+1)).
    """
    x = _check_nonnegative(x)
    a = p.a
    x2 = x * x
    r = np.sqrt(x2 + a)
    num = 9.0 * x2 * x2 + (12.0 * a + 3.0) * x2 + 4.0 * a * (a + 1.0)
    den = 2.0 * (x2 + a) * (x * (3.0 * x2 + 2.0 * a - 1.0) + 2.0 * math.sqrt(1.0 + a) * r)
    return num / den


def eval_S1_prime_quotient(p: PotentialParams, x):
    """Raw quotient form of S1'; used only for cross-validation away from x=1."""
    x = _check_nonnegative(x)
    if np.any(np.abs(x - 1.0) < 1e-12):
        raise ValueError("raw quotient form of S1' is 0/0 at x=1; "
                         "use eval_S1_prime instead")
    a = p.a
    x2 = x * x
    r = np.sqrt(x2 + a)
    return (x * (3.0 * x2 + 2.0 * a - 1.0) - 2.0 * math.sqrt(1.0 + a) * r) / (
        2.0 * (x2 - 1.0) * (x2 + a)
    )


# alpha, beta / (x sqrt(1+a)) and gamma as integer tables in (s, a), s = x^2:
# entry [i, j] is the coefficient of s^i a^j.  gdwell.region traces gamma's
# zero curve from its table.
_ALPHA = np.array([[0, 2, 8],
                   [7, 12, 8],
                   [-6, 18, 0],
                   [15, 0, 0]], dtype=float)
_BETA = np.array([[-1, 2],
                  [3, 0]], dtype=float)
# (15 s^2 + 18 s - 1)(15 s^2 + 36 a s) + 4 a^2 (141 s^2 + 90 s + 1)
# + 32 a^3 (9 s + 1) + 64 a^4
_GAMMA = np.array([[0, 0, 4, 32, 64],
                   [0, -36, 360, 288, 0],
                   [-15, 648, 564, 0, 0],
                   [270, 540, 0, 0, 0],
                   [225, 0, 0, 0, 0]], dtype=float)


def _coeffs(table: np.ndarray, t, var: str = "s") -> np.ndarray:
    """Coefficients (low to high) of the polynomial whose coefficient of
    s^i a^j is table[i, j]: in s at a = t, in z = s/a at a = t, or in a at
    s = t, each by Horner in t down the table.  The result has shape
    (degree + 1,) + t.shape."""
    t = np.asarray(t, dtype=float)
    if var == "a":
        return polyval(t, table)
    c = polyval(t, table.T)
    if var == "z":
        # coefficient i times t, i times over: IEEE products round alike on
        # every CPU, where a vectorized power need not
        for i in range(1, table.shape[0]):
            c[i:] *= t
    return c


def _horner(s, c):
    """polyval(s, c, tensor=False), the polynomial with coefficients c (low to
    high, along the first axis) at s, bit for bit: the same Horner steps,
    c[-1] + s*0 and then c[i] + acc*s down to c[0], in one array of the
    broadcast shape, not two new arrays a step, and a numpy float where
    that shape is ().  As polyval does, it reads nan at s = inf, where s*0
    is nan."""
    out = np.multiply(s, 0.0, out=np.empty(np.broadcast_shapes(np.shape(s), c[-1].shape)))
    out += c[-1]
    for ci in c[-2::-1]:
        out *= s
        out += ci
    return out[()]


def _beta(a, x, s) -> np.ndarray:
    out = _horner(s, _coeffs(_BETA, a))
    out *= x
    out *= np.sqrt(1.0 + np.asarray(a, dtype=float))
    return out


def alpha(a, x):
    """Even part of the u numerator, with s = x^2:
    15 s^3 + 6 (3a-1) s^2 + (8a^2 + 12a + 7) s + 8a^2 + 2a."""
    x = np.asarray(x, dtype=float)
    return _horner(x * x, _coeffs(_ALPHA, a))


def beta(a, x):
    """Odd part of the u numerator, which carries the sqrt(x^2+a) weight:
    sqrt(1+a) x (3x^2 + 2a - 1)."""
    x = np.asarray(x, dtype=float)
    return _beta(a, x, x * x)


def gamma_poly(a, x):
    """gamma = (15 x^4 + 18 x^2 - 1)(15 x^4 + 36 a x^2) plus a remainder
    positive for a > 0, the no-pole numerator of u:
    alpha^2 - 64 (x^2+a) beta^2 = (x^2-1)^2 gamma."""
    x = np.asarray(x, dtype=float)
    return _horner(x * x, _coeffs(_GAMMA, a))


def pole_free_quotient(a, x2, even, odd, gamma, k: int, plus):
    """(even - 8 r odd) / (8 (x^2+a)^k (x^2-1)^k), r = sqrt(x^2+a): u for
    k = 2 from (alpha, beta, gamma), u' for k = 3 from the tilde triple.
    As even^2 - 64 r^2 odd^2 = (x^2-1)^k gamma, it is taken where the mask
    plus is set in the pole-free form gamma / (8 (x^2+a)^k (even + 8 r odd)),
    and elsewhere as written; the caller picks plus to avoid subtraction.
    Each form divides only where its mask is set, in place in the array of
    its denominator, the plus form's being the output."""
    w = x2 + a
    odd8 = np.sqrt(w)
    w **= k
    w *= 8.0
    odd8 *= 8.0
    odd8 *= odd
    out = even + odd8
    out *= w
    np.divide(gamma, out, out=out, where=plus)
    if not plus.all():
        den = np.subtract(x2, 1.0)
        den **= k
        w *= den
        np.divide(np.subtract(even, odd8, out=odd8), w, out=out, where=~plus)
    return out


def eval_u(p: PotentialParams, x):
    """Effective perturbation u(x) = (S1'^2 - S1'')/2, rational closed form.

    u = (alpha - 8 r beta) / (8 (x^2+a)^2 (x^2-1)^2) with r = sqrt(x^2+a),
    taken in the pole-free plus form gamma / (8 (x^2+a)^2 (alpha + 8 r beta))
    whenever beta >= 0 (always true for a >= 1/2; for a < 1/2 only small x
    have beta < 0, where the minus form is subtraction-free and far from
    the x=1 pole).  Positive for all x >= 0, a > 0, and -> 0 as x -> infinity;
    in floats it reads 0 from x ~ 4e30, where the denominator overflows, and
    nan from x ~ 1.7e38, where gamma overflows too.  No grid reaches such x.
    """
    x = _check_nonnegative(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    a, s = p.a, x * x
    b = _beta(a, x, s)
    out = pole_free_quotient(a, s, _horner(s, _coeffs(_ALPHA, a)), b,
                             _horner(s, _coeffs(_GAMMA, a)), 2, b >= 0.0)
    return out[0] if scalar else out


def eval_ghat(p: PotentialParams, x):
    """Mixing term ghat(x): g E0 * 2 Gamma rho / (1 + Gamma rho) for x < 1,
    zero for x > 1, where rho = phi_-/phi_+ = exp(2 g (S0(x) - S0(0))).

    The value at exactly x = 1 is the inner-branch (left) limit; the
    quadrature layer resolves the two-sided values panel by panel.  Requires
    a positive mixing coefficient.
    """
    p.require_mixing_positive()
    x = _check_nonnegative(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    # c rho / (1 + Gamma rho), c = g E0 2 Gamma, in place in the array S0
    # returns, in the order that expression evaluates; nodes beyond x = 1
    # are evaluated at x = 0 and then zeroed
    inner = x <= 1.0
    out = _s0_raw(p.a, np.where(inner, x, 0.0))
    out -= _s0_raw(p.a, 0.0)
    out *= 2.0 * p.g
    np.exp(out, out=out)
    den = np.multiply(p.Gamma, out)
    den += 1.0
    out *= p.g * p.E0 * 2.0 * p.Gamma
    out /= den
    out[~inner] = 0.0
    return out[0] if scalar else out


def eval_w(p: PotentialParams, x):
    """w(x) = u(x) + ghat(x); positive, decaying, with a downward jump at x=1
    (same jump-node convention as eval_ghat)."""
    return eval_u(p, x) + eval_ghat(p, x)
