"""Independent reference ground-state solver.

A sinc discrete variable representation (DVR; Colbert and Miller, J. Chem.
Phys. 96, 1982 (1992)) of -(1/2) d^2/dx^2 + V on the uniform nodes
x_j = j Delta, |j| <= K.  Its kinetic matrix is t_|i-j| / (2 Delta^2), with
t_0 = pi^2/3 and t_k = 2 (-1)^k / k^2.  V is even, and so is the ground
state, so only the even sector is diagonalised: on the nodes j = 0..K its
matrix is (t_|i-j| + t_{i+j}) / (2 Delta^2) + diag V(x_j), with row and
column 0 divided by sqrt(2) to keep it symmetric.  Every energy is the
lowest eigenvalue from ``np.linalg.eigvalsh``, which forms no eigenvectors;
the ground vector is formed once, from the converged matrix, by inverse
iteration with a shift just below that energy.

The half-domain is where the WKB action past the outer turning point of
V = g E_0 reaches 36, so that psi has fallen by about e^-36 there; it is
capped by ``OracleConfig.L``.  An extension of the domain by 1.25x at the
same spacing measures the truncation at K = 30; K then grows by 1.5x until
two energies agree to 1e-10 max(1, |E|), with 2K + 1 capped by
``OracleConfig.n``.  A growth step that fails to halve the previous gap
stops the growth early, because then the domain, not the spacing, holds the
energy up.  The error estimate is the sum of the two shifts.  psi is
sinc-interpolated onto a symmetric grid at 8x the node density.  Nothing
here touches the trial function or the iteration, which share only
``eval_potential`` with it; this solver exists purely to validate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import PotentialParams, eval_potential
from .errors import DiscretizationError, require_integer, require_real

__all__ = ["OracleConfig", "OracleResult", "oracle_ground_state", "PeakReport", "peak_census"]

WKB_ACTION = 36.0      # tail action at the domain end: psi(L) ~ e^-36 psi(peak)
K_START = 30
K_GROWTH = 1.5
REL_TOL = 1e-10        # energies of two node counts agree to this, relative
L_EXTENSION = 1.25
MAX_EXTENSION_SHIFT = 1e-3
OVERSAMPLE = 8         # interpolated psi points per node spacing
SHIFT_ULPS = 64.0      # inverse-iteration shift below E, in eps ||h||
INVERSE_STEPS = 2


@dataclass(frozen=True)
class OracleConfig:
    """L: cap on the half-domain, which is otherwise where the WKB tail
    action reaches 36; n: cap on the node count 2K + 1 across the domain."""

    L: float = 6.0
    n: int = 4000

    def __post_init__(self):
        require_integer("n", self.n)
        if self.n < 500:
            raise ValueError(f"n must be >= 500, got {self.n}")
        require_real("L", self.L)
        if not self.L > 1.0:
            raise ValueError(f"L must exceed 1, got {self.L}")


@dataclass
class OracleResult:
    energy: float
    error_estimate: float
    x: np.ndarray
    psi: np.ndarray

    def psi_at(self, x) -> np.ndarray:
        """psi at the points x by the sinc interpolant of its node values,
        held at the last node's value past the half-domain."""
        mid = self.psi.size // 2
        delta = self.x[mid + OVERSAMPLE]
        return _sinc_interpolate(self.psi[mid::OVERSAMPLE], np.abs(x) / delta)


def _wkb_half_domain(p: PotentialParams) -> float:
    """x > 1 where the action of sqrt(2 (V - g E_0)) past the outer turning
    point reaches WKB_ACTION.  g E_0 = g sqrt(1 + a) lies above the ground
    energy, so the true tail decays at least this fast."""
    e = p.g * p.E0
    hi = 2.0
    while True:
        x = np.linspace(1.0, hi, 2049)
        s = np.sqrt(2.0 * np.maximum(eval_potential(p, x) - e, 0.0))
        action = np.concatenate(([0.0], np.cumsum(0.5 * (s[1:] + s[:-1]) * np.diff(x))))
        if action[-1] >= WKB_ACTION:
            return float(np.interp(WKB_ACTION, action, x))
        hi = 1.0 + 2.0 * (hi - 1.0)


def _domain_advice(cfg: OracleConfig, wkb: float, k: int) -> str:
    """The advice of a too-short-domain error at k nodes a side: a larger L
    if cfg.L capped the WKB half-domain wkb; otherwise the node spacing, as
    no larger L moves wkb."""
    if cfg.L < wkb:
        return "L likely truncates psi; increase L"
    return (f"the WKB half-domain was not capped by L; its node spacing is "
            f"{wkb / k:.3g}")


def _even_matrix(p: PotentialParams, delta: float, k: int) -> np.ndarray:
    """The even-sector matrix on the nodes j Delta, 0 <= j <= k, in the basis
    e_0 and (e_j + e_-j)/sqrt(2).  Its leading block on j <= k' is the
    matrix of k' < k, bit for bit."""
    j = np.arange(k + 1)
    m = np.arange(1, 2 * k + 1)
    t = np.empty(2 * k + 1)
    t[0] = math.pi**2 / 3.0
    t[1:] = 2.0 * np.where(m % 2 == 0, 1.0, -1.0) / (m * m)
    h = (t[np.abs(j[:, None] - j)] + t[j[:, None] + j]) / (2.0 * delta * delta)
    h[0, :] /= math.sqrt(2.0)
    h[:, 0] /= math.sqrt(2.0)
    h[j, j] += eval_potential(p, delta * j)
    return h


def _ground_amplitudes(h: np.ndarray, energy: float) -> np.ndarray:
    """c_0..c_k, the amplitudes on the nodes j >= 0 of the unit-norm ground
    eigenvector of all 2k + 1 nodes, signed so that they sum to > 0, where
    energy is the lowest eigenvalue of the even-sector matrix h.

    Inverse iteration from y = ones: INVERSE_STEPS times, y becomes the unit
    solution of (h - sigma I) y' = y, with sigma below energy by SHIFT_ULPS
    eps ||h||_inf, more than the eigensolver's error, so that h - sigma I
    stays positive definite.  Each solve shrinks the excited components by
    the ratio of that margin to the even gap, under 1e-11 at the table
    points; against the dense eigh vector at the benchmark's 38 (g, a),
    one solve left up to 1.0e-12 and two leave 3e-14."""
    margin = SHIFT_ULPS * np.finfo(float).eps * float(np.abs(h).sum(axis=1).max())
    a = h - (energy - margin) * np.eye(len(h))
    y = np.ones(len(h))
    for _ in range(INVERSE_STEPS):
        y = np.linalg.solve(a, y)
        y /= np.linalg.norm(y)
    # basis e_0 and (e_j + e_-j)/sqrt(2): node amplitude c_j = y_j / sqrt(2)
    c = y / math.sqrt(2.0)
    c[0] = y[0]
    return c if c.sum() > 0.0 else -c


def _sinc_interpolate(c: np.ndarray, u) -> np.ndarray:
    """The even sinc interpolant sum_j c_|j| sinc(u - j) at the points u >= 0
    in node units, with node values copied exactly, also where u lies within
    4 ulps of a node (as x / Delta at a node can), and c_k held past the
    last node k.

    With n the node nearest u, sinc(u - j) = (-1)^(n+j) sin(pi (u - n)) /
    (pi (u - j)), so each point takes one sin, accurate however close u is
    to a node; the terms of j and -j are paired as
    (-1)^j c_j 2u / ((u - j)(u + j))."""
    u = np.minimum(np.asarray(u, dtype=float), c.size - 1)
    n = np.round(u)
    psi = c[n.astype(int)]
    off = np.abs(u - n) > 4 * np.spacing(n)
    v, n = u[off], n[off]
    j = np.arange(1, c.size)
    paired = (2.0 * v)[:, None] / ((v[:, None] - j) * (v[:, None] + j)) @ np.where(
        j % 2 == 0, c[1:], -c[1:])
    sin = np.where(n % 2 == 0, 1.0, -1.0) * np.sin(np.pi * (v - n))
    psi[off] = sin / np.pi * (c[0] / v + paired)
    return psi


def oracle_ground_state(p: PotentialParams, cfg: OracleConfig | None = None) -> OracleResult:
    """Ground-state energy and wavefunction, with an error bar from node
    growth and domain extension.

    Each node count costs one eigenvalue-only solve; the ground vector is
    formed once, at the converged node count.  psi is returned on a
    symmetric grid at OVERSAMPLE x the node density, normalized to
    psi(0) = 1.  Raises DiscretizationError when the domain
    extension moves the energy by more than 1e-3 (cfg.L too short), when a
    growth step fails to halve the previous energy gap (cfg.L too short for
    the extension check to see), or when 2K + 1 reaches cfg.n before the
    energies agree.  The first two messages advise a larger L only where
    cfg.L capped the WKB half-domain; otherwise they give the node spacing.
    """
    if cfg is None:
        cfg = OracleConfig()
    wkb = _wkb_half_domain(p)
    half = min(cfg.L, wkb)
    k = K_START
    # the truncation shows at any spacing, and a too-short domain would stall
    # the growth below until the cap, so it is measured once, up front; the
    # K = 30 matrix is the leading block of the extended one
    extended = _even_matrix(p, half / k, math.ceil(L_EXTENSION * k))
    energy = float(np.linalg.eigvalsh(extended[:k + 1, :k + 1])[0])
    shift = abs(float(np.linalg.eigvalsh(extended)[0]) - energy)
    if shift > MAX_EXTENSION_SHIFT:
        raise DiscretizationError(
            f"extending the half-domain {half:.3g} by {L_EXTENSION}x moves E by "
            f"{shift:.2e} (> {MAX_EXTENSION_SHIFT:.0e}); {_domain_advice(cfg, wkb, k)}"
        )
    k_max = (cfg.n - 1) // 2
    gap = math.inf
    while True:
        if k >= k_max:
            raise DiscretizationError(
                f"energies at {2 * k + 1} nodes not converged to {REL_TOL:.0e} "
                f"(cap n = {cfg.n}); increase n or check the configuration"
            )
        e_prev, gap_prev = energy, gap
        k = min(math.ceil(K_GROWTH * k), k_max)
        delta = half / k
        h = _even_matrix(p, delta, k)
        energy = float(np.linalg.eigvalsh(h)[0])
        gap = abs(energy - e_prev)
        if gap <= REL_TOL * max(1.0, abs(energy)):
            break
        # a converging growth shrinks the gap geometrically; a gap above the
        # eigensolver's rounding, about eps times the kinetic spectral radius
        # pi^2 / (2 Delta^2), that the next step fails to halve is held up by
        # the truncated domain instead
        rounding = np.finfo(float).eps * math.pi**2 / (2.0 * delta * delta)
        if gap_prev > rounding and gap > gap_prev / 2.0:
            raise DiscretizationError(
                f"energy gaps stalled at {gap_prev:.2e}, {gap:.2e} ({2 * k + 1} nodes) "
                f"on the half-domain {half:.3g}; {_domain_advice(cfg, wkb, k)}"
            )
    c = _ground_amplitudes(h, energy)
    half_psi = _sinc_interpolate(c, np.arange(OVERSAMPLE * k + 1) / OVERSAMPLE) / c[0]
    half_x = half / k / OVERSAMPLE * np.arange(half_psi.size)
    return OracleResult(
        energy=energy,
        error_estimate=gap + shift,
        x=np.concatenate((-half_x[:0:-1], half_x)),
        psi=np.concatenate((half_psi[:0:-1], half_psi)),
    )


@dataclass
class PeakReport:
    kind: str                     # "single-at-0" | "double-near-1" | "other"
    peaks: list[tuple[float, float]]   # (|x|, value) of detected maxima, x >= 0


def _window_max(ys: np.ndarray, w: int) -> np.ndarray:
    """The max over each node's +-w window, clipped at both ends of ys: 2w
    running maxima of shifted views of ys padded with -inf.  A NaN in a
    window gives NaN, as np.maximum propagates it."""
    n = ys.size
    pad = np.full(w, -np.inf)
    padded = np.concatenate((pad, ys, pad))
    out = padded[:n].copy()
    for k in range(1, 2 * w + 1):
        np.maximum(out, padded[k:k + n], out=out)
    return out


def peak_census(x: np.ndarray, psi: np.ndarray) -> PeakReport:
    """Classify the shape of an (even) wavefunction by its strict local
    maxima of |psi|.

    Accepts either a symmetric full-line grid or a half-line grid; analysis
    folds onto x >= 0.  Maxima are strict over a +-5 node window with a
    relative prominence floor of 1e-3, which absorbs eigenvector rounding
    noise on flat tops.  A lone peak at |x| < 0.3 classifies as single-at-0;
    a peak with 0.5 < |x| < 1.5 classifies as double-near-1 (the mirror image
    is implied by evenness).
    """
    keep = x >= 0.0
    xs = x[keep]
    ys = np.abs(psi[keep])
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    n = xs.size
    w = 5
    floor = 1e-3 * float(ys.max())
    window_max = _window_max(ys, w)
    # written as negated "<" so that a NaN compares as the per-node test did
    cand = ~(ys < floor) & ~(ys < window_max)
    # strictness: must exceed both window ends, except the left end of a
    # window clipped at x=0, where an even function legitimately plateaus
    m = max(n - w - 1, 0)
    cand[w + 1:] &= ys[w + 1:] > ys[1:1 + m]
    cand &= ys > ys[np.minimum(np.arange(n) + w, n - 1)]
    peaks: list[tuple[float, float]] = []
    last = -w - 1
    for i in np.flatnonzero(cand):
        if i - last <= w:
            continue  # same plateau
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
