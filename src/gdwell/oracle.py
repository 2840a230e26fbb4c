"""Independent reference ground-state solver.

A sinc discrete variable representation (DVR; Colbert and Miller, J. Chem.
Phys. 96, 1982 (1992)) of -(1/2) d^2/dx^2 + V on the uniform nodes
x_j = j Delta, |j| <= K.  Its kinetic matrix is t_|i-j| / (2 Delta^2), with
t_0 = pi^2/3 and t_k = 2 (-1)^k / k^2.  V is even, and so is the ground
state, so only the even sector is diagonalised: on the nodes j = 0..K its
matrix is (t_|i-j| + t_{i+j}) / (2 Delta^2) + diag V(x_j), with row and
column 0 divided by sqrt(2) to keep it symmetric, and ``np.linalg.eigh``
gives the lowest eigenpair.

The half-domain is where the WKB action past the outer turning point of
V = g E_0 reaches 36, so that psi has fallen by about e^-36 there; it is
capped by ``OracleConfig.L``.  An extension of the domain by 1.25x at the
same spacing measures the truncation at K = 30; K then grows by 1.5x until
two energies agree to 1e-10 max(1, |E|), with 2K + 1 capped by
``OracleConfig.n``.  The error estimate is the sum of the two shifts.  psi is
sinc-interpolated onto a symmetric grid at 8x the node density.  Nothing
here touches the trial function or the iteration, which share only
``eval_potential`` with it; this solver exists purely to validate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closed_forms import PotentialParams, eval_potential
from .errors import DiscretizationError

__all__ = ["OracleConfig", "OracleResult", "oracle_ground_state", "PeakReport", "peak_census"]

WKB_ACTION = 36.0      # tail action at the domain end: psi(L) ~ e^-36 psi(peak)
K_START = 30
K_GROWTH = 1.5
REL_TOL = 1e-10        # energies of two node counts agree to this, relative
L_EXTENSION = 1.25
MAX_EXTENSION_SHIFT = 1e-3
OVERSAMPLE = 8         # interpolated psi points per node spacing


@dataclass(frozen=True)
class OracleConfig:
    """L: cap on the half-domain, which is otherwise where the WKB tail
    action reaches 36; n: cap on the node count 2K + 1 across the domain."""

    L: float = 6.0
    n: int = 4000

    def __post_init__(self):
        if self.n < 500:
            raise ValueError(f"n must be >= 500, got {self.n}")
        if not self.L > 1.0:
            raise ValueError(f"L must exceed 1, got {self.L}")


@dataclass
class OracleResult:
    energy: float
    error_estimate: float
    x: np.ndarray
    psi: np.ndarray
    config: OracleConfig

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


def _even_ground(p: PotentialParams, delta: float, k: int) -> tuple[float, np.ndarray]:
    """Lowest even eigenpair on the nodes j Delta, |j| <= k.

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


def _sinc_interpolate(c: np.ndarray, u) -> np.ndarray:
    """The even sinc interpolant sum_j c_|j| sinc(u - j) at the points u >= 0
    in node units, with node values copied exactly and c_k held past the
    last node k.

    With n the node nearest u, sinc(u - j) = (-1)^(n+j) sin(pi (u - n)) /
    (pi (u - j)), so each point takes one sin, accurate however close u is
    to a node; the terms of j and -j are paired as
    (-1)^j c_j 2u / ((u - j)(u + j))."""
    u = np.minimum(np.asarray(u, dtype=float), c.size - 1)
    n = np.round(u)
    psi = c[n.astype(int)]
    off = u != n
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

    psi is returned on a symmetric grid at OVERSAMPLE x the node density,
    normalized to psi(0) = 1.  Raises DiscretizationError when the domain
    extension moves the energy by more than 1e-3 (cfg.L too short), or when
    2K + 1 reaches cfg.n before the energies agree.
    """
    if cfg is None:
        cfg = OracleConfig()
    half = min(cfg.L, _wkb_half_domain(p))
    k = K_START
    energy, c = _even_ground(p, half / k, k)
    # the truncation shows at any spacing, and a too-short domain would stall
    # the growth below until the cap, so it is measured once, up front
    shift = abs(_even_ground(p, half / k, math.ceil(L_EXTENSION * k))[0] - energy)
    if shift > MAX_EXTENSION_SHIFT:
        raise DiscretizationError(
            f"extending the half-domain {half:.3g} by {L_EXTENSION}x moves E by "
            f"{shift:.2e} (> {MAX_EXTENSION_SHIFT:.0e}); increase L"
        )
    k_max = (cfg.n - 1) // 2
    while True:
        if k >= k_max:
            raise DiscretizationError(
                f"energies at {2 * k + 1} nodes not converged to {REL_TOL:.0e} "
                f"(cap n = {cfg.n}); increase n or check the configuration"
            )
        e_prev = energy
        k = min(math.ceil(K_GROWTH * k), k_max)
        energy, c = _even_ground(p, half / k, k)
        gap = abs(energy - e_prev)
        if gap <= REL_TOL * max(1.0, abs(energy)):
            break
    half_psi = _sinc_interpolate(c, np.arange(OVERSAMPLE * k + 1) / OVERSAMPLE) / c[0]
    half_x = half / k / OVERSAMPLE * np.arange(half_psi.size)
    return OracleResult(
        energy=energy,
        error_estimate=gap + shift,
        x=np.concatenate((-half_x[:0:-1], half_x)),
        psi=np.concatenate((half_psi[:0:-1], half_psi)),
        config=cfg,
    )


@dataclass
class PeakReport:
    kind: str                     # "single-at-0" | "double-near-1" | "other"
    peaks: list[tuple[float, float]]   # (|x|, value) of detected maxima, x >= 0


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
    # the max over each node's +-w window, clipped at both ends of the grid
    pad = np.full(w, -np.inf)
    window_max = sliding_window_view(np.concatenate((pad, ys, pad)), 2 * w + 1).max(axis=1)
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
