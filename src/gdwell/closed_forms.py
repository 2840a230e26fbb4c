"""Closed-form building blocks of the generalized double-well model.

Everything here is a pure function of the model parameters (g, a) and the
coordinate x >= 0: the potential V, the two phase integrals S0 and S1 of the
large-g expansion together with their slopes, and the effective perturbations
u, ghat and w = u + ghat that drive the iteration, with the polynomials
alpha, beta, g1, g2 and gamma that build u (``gdwell.region`` reads them here).

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

from .errors import ConvergenceDomainError

__all__ = [
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


@dataclass(frozen=True)
class PotentialParams:
    """Model parameters (g, a) plus the derived constants frozen at construction.

    E0     -- sqrt(1+a), the leading energy coefficient
    Gamma  -- (g*a - sqrt(1+a)) / (g*a + sqrt(1+a)), the mixing coefficient of
              the two trial-function branches; positive iff g > sqrt(1+a)/a
    a_g    -- (1 + sqrt(1+4 g^2)) / (2 g^2), the shape bound equivalent to
              Gamma > 0
    """

    g: float
    a: float
    E0: float = field(init=False)
    Gamma: float = field(init=False)
    a_g: float = field(init=False)

    def __post_init__(self):
        if not (self.g > 0.0):
            raise ValueError(f"coupling g must be > 0, got {self.g}")
        if not (self.a > 0.0):
            raise ValueError(f"shape parameter a must be > 0, got {self.a}")
        e0 = math.sqrt(1.0 + self.a)
        object.__setattr__(self, "E0", e0)
        object.__setattr__(self, "Gamma", (self.g * self.a - e0) / (self.g * self.a + e0))
        object.__setattr__(
            self, "a_g", (1.0 + math.sqrt(1.0 + 4.0 * self.g**2)) / (2.0 * self.g**2)
        )

    @property
    def mixing_positive(self) -> bool:
        return self.Gamma > 0.0

    def require_mixing_positive(self) -> None:
        if not self.mixing_positive:
            raise ConvergenceDomainError(
                f"mixing coefficient Gamma = {self.Gamma:.6g} <= 0: requires "
                f"g*a > sqrt(1+a), i.e. g > {self.E0 / self.a:.6g} at a = {self.a} "
                f"(equivalently a > a_g = {self.a_g:.6g} at g = {self.g})"
            )


def _check_nonnegative(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("x must be >= 0 (the model is evaluated on the half line; "
                         "evenness is the caller's contract)")
    return x


def eval_potential(p: PotentialParams, x):
    """V(x) = (g^2/2) (x^2-1)^2 (x^2+a). Even; accepts any real x."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    return 0.5 * p.g**2 * (x2 - 1.0) ** 2 * (x2 + p.a)


def _s0_raw(a: float, x):
    # valid for all real x: log(x + sqrt(x^2+a)) is defined since sqrt > |x|
    r = np.sqrt(x * x + a)
    c = a / 8.0 + 0.5
    return 0.25 * x * r**3 - c * x * r - a * c * np.log(x + r)


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
    """Subleading phase integral S1(x), closed form, for x >= 0."""
    x = _check_nonnegative(x)
    a = p.a
    r = np.sqrt(x * x + a)
    sa1 = math.sqrt(a + 1.0)
    return (
        np.log((x + 1.0) * (x * x + a) ** 0.25)
        + 0.5 * np.log((sa1 * r + a + x) / (sa1 * r + a - x))
    )


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


def alpha(a, x):
    """Even part of the u numerator, with s = x^2:
    15 s^3 + 6 (3a-1) s^2 + (8a^2 + 12a + 7) s + 8a^2 + 2a."""
    x2 = np.asarray(x, dtype=float) ** 2
    return (15.0 * x2**3 + 6.0 * (3.0 * a - 1.0) * x2**2
            + (8.0 * a * a + 12.0 * a + 7.0) * x2 + 8.0 * a * a + 2.0 * a)


def beta(a, x):
    """Odd part of the u numerator, which carries the sqrt(x^2+a) weight:
    sqrt(1+a) x (3x^2 + 2a - 1)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(1.0 + np.asarray(a, dtype=float)) * x * (3.0 * x**2 + 2.0 * a - 1.0)


def g1(x):
    """15 x^4 + 18 x^2 - 1; its sign gates the gamma = 0 locus."""
    x2 = np.asarray(x, dtype=float) ** 2
    return 15.0 * x2 * x2 + 18.0 * x2 - 1.0


def g2(a, x):
    """Strictly positive remainder of gamma for a > 0."""
    x2 = np.asarray(x, dtype=float) ** 2
    return (4.0 * (141.0 * x2 * x2 + 90.0 * x2 + 1.0) * a * a
            + 32.0 * (9.0 * x2 + 1.0) * a**3 + 64.0 * a**4)


def gamma_poly(a, x):
    """gamma = g1 (15 x^4 + 36 a x^2) + g2, the no-pole numerator of u:
    alpha^2 - 64 (x^2+a) beta^2 = (x^2-1)^2 gamma."""
    x2 = np.asarray(x, dtype=float) ** 2
    return g1(x) * (15.0 * x2 * x2 + 36.0 * a * x2) + g2(a, x)


def pole_free_quotient(a, x2, even, odd, gamma, k: int, plus):
    """(even - 8 r odd) / (8 (x^2+a)^k (x^2-1)^k), r = sqrt(x^2+a): u for
    k = 2 from (alpha, beta, gamma), u' for k = 3 from the tilde triple.
    As even^2 - 64 r^2 odd^2 = (x^2-1)^k gamma, it is taken where the mask
    plus is set in the pole-free form gamma / (8 (x^2+a)^k (even + 8 r odd)),
    and elsewhere as written; the caller picks plus to avoid subtraction."""
    w = 8.0 * (x2 + a) ** k
    odd8 = 8.0 * np.sqrt(x2 + a) * odd
    out = np.empty_like(x2)
    out[plus] = gamma[plus] / (w[plus] * (even[plus] + odd8[plus]))
    minus = ~plus
    out[minus] = (even[minus] - odd8[minus]) / (w[minus] * (x2[minus] - 1.0) ** k)
    return out


def eval_u(p: PotentialParams, x):
    """Effective perturbation u(x) = (S1'^2 - S1'')/2, rational closed form.

    u = (alpha - 8 r beta) / (8 (x^2+a)^2 (x^2-1)^2) with r = sqrt(x^2+a),
    taken in the pole-free plus form gamma / (8 (x^2+a)^2 (alpha + 8 r beta))
    whenever beta >= 0 (always true for a >= 1/2; for a < 1/2 only small x
    have beta < 0, where the minus form is subtraction-free and far from
    the x=1 pole).  Positive for all x >= 0, a > 0, and -> 0 as x -> infinity.
    """
    x = _check_nonnegative(x)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    a = p.a
    b = beta(a, x)
    out = pole_free_quotient(a, x * x, alpha(a, x), b, gamma_poly(a, x), 2, b >= 0.0)
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
    out = np.zeros_like(x)
    inner = x <= 1.0
    if inner.any():
        rho = np.exp(2.0 * p.g * (_s0_raw(p.a, x[inner]) - _s0_raw(p.a, 0.0)))
        out[inner] = p.g * p.E0 * 2.0 * p.Gamma * rho / (1.0 + p.Gamma * rho)
    return out[0] if scalar else out


def eval_w(p: PotentialParams, x):
    """w(x) = u(x) + ghat(x); positive, decaying, with a downward jump at x=1
    (same jump-node convention as eval_ghat)."""
    return eval_u(p, x) + eval_ghat(p, x)
