"""Independent reference ground-state solver.

Discretizes -(1/2) d^2/dx^2 + V on [-L, L] with Dirichlet ends using
second-order central differences, takes the smallest eigenpair of the
symmetric tridiagonal matrix from LAPACK (``stebz`` Sturm-sequence bisection
for the eigenvalue, ``stein`` inverse iteration for the eigenvector, through
``scipy.linalg.eigh_tridiagonal``), and estimates the discretization error
from a grid doubling (Richardson).  Nothing here touches the trial
function or the iteration; this solver exists purely to validate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closed_forms import PotentialParams, eval_potential
from .errors import DiscretizationError

__all__ = ["OracleConfig", "OracleResult", "oracle_ground_state", "PeakReport", "peak_census"]


@dataclass(frozen=True)
class OracleConfig:
    """L: half-domain (must exceed the iteration grid's x_max); n: requested
    interior point count (rounded up to odd so x=0 is a node)."""

    L: float = 6.0
    n: int = 4000

    def __post_init__(self):
        if self.n < 500:
            raise ValueError(f"n must be >= 500, got {self.n}")
        if self.L <= 1.0:
            raise ValueError(f"L must exceed 1, got {self.L}")


@dataclass
class OracleResult:
    energy: float
    error_estimate: float
    x: np.ndarray
    psi: np.ndarray
    config: OracleConfig
    energy_coarse: float
    energy_fine: float


def _solve_once(p: PotentialParams, L: float, m: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Smallest eigenpair of the order-m finite-difference Hamiltonian."""
    # imported here so that `import gdwell` and the solve, table and region
    # commands never load scipy, which costs more to import than the package
    from scipy.linalg import eigh_tridiagonal

    h = 2.0 * L / (m + 1)
    x = -L + h * np.arange(1, m + 1)
    diag = 1.0 / h**2 + eval_potential(p, x)
    off = -0.5 / h**2
    lam, vec = eigh_tridiagonal(diag, np.full(m - 1, off), select="i", select_range=(0, 0))
    psi = vec[:, 0]
    # deterministic sign: positive at the center
    if psi[m // 2] < 0.0:
        psi = -psi
    return float(lam[0]), x, psi


def oracle_ground_state(p: PotentialParams, cfg: OracleConfig | None = None) -> OracleResult:
    """Ground-state energy and wavefunction, with a two-resolution error bar.

    The reported energy is the Richardson combination (4 E_fine - E_coarse)/3
    of the two second-order estimates; the error estimate is their gap / 3.
    psi is returned on the fine grid, normalized to psi(0) = 1.
    """
    if cfg is None:
        cfg = OracleConfig()
    m_coarse = cfg.n if cfg.n % 2 == 1 else cfg.n + 1  # odd => x=0 is a node
    m_fine = 2 * m_coarse + 1                          # halves h, keeps x=0
    e_coarse, _, _ = _solve_once(p, cfg.L, m_coarse)
    e_fine, x, psi = _solve_once(p, cfg.L, m_fine)
    gap = abs(e_fine - e_coarse)
    if gap > 1e-3:
        raise DiscretizationError(
            f"two-resolution energies differ by {gap:.2e} (> 1e-3); "
            "increase n or check the configuration"
        )
    i0 = m_fine // 2
    assert x[i0] == 0.0 or abs(x[i0]) < 1e-12
    psi = psi / psi[i0]
    return OracleResult(
        energy=e_fine + (e_fine - e_coarse) / 3.0,
        error_estimate=gap / 3.0,
        x=x,
        psi=psi,
        config=cfg,
        energy_coarse=e_coarse,
        energy_fine=e_fine,
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
    # strictness: must exceed the window ends (unless the window is clipped
    # at x=0, where an even function legitimately plateaus, or at x_max);
    # m nodes have an unclipped window end on each side
    m = max(n - w - 1, 0)
    cand[w + 1:] &= ys[w + 1:] > ys[1:1 + m]
    cand[:m] &= ys[:m] > ys[w:w + m]
    peaks: list[tuple[float, float]] = []
    for i in np.flatnonzero(cand):
        if peaks and abs(peaks[-1][0] - xs[i]) < (xs[1] - xs[0]) * (w + 1):
            continue  # same plateau
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
