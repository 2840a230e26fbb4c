"""Two-panel computational grid and the log-space trial function.

The grid puts x = 1 exactly on a node shared by two uniform panels [0, 1]
and [1, x_max], so the downward jump of the mixing term never sits inside a
quadrature stencil.  A sampled function is held as one (2, n_per_panel+1)
array, row p on panel p; both rows hold x = 1, so a function that jumps
there carries its two one-sided values.  Grid.panels views node values of a
continuous function that way.

The trial function spans a dynamic range of order exp(-2 g S0(x_max))
(e^-120 and beyond), and it is positive, so it is stored as its logarithm
per node and all ratios are formed from log differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import closed_forms as cf
from .closed_forms import PotentialParams
from .errors import GridError, GridMismatchError, require_integer, require_real

__all__ = ["Grid", "TrialFunction", "build_trial"]

# largest n_per_panel a Grid takes: 2**21 + 1 nodes, 16.8 MB per float array
MAX_N_PER_PANEL = 2**20


@dataclass(frozen=True)
class Grid:
    """Two uniform panels [0, 1] and [1, x_max] with shared node x = 1.

    n_per_panel is the number of intervals in each panel, an integer, kept
    as a Python int: at least 8, so the four-node cubic interval stencils
    fit, even (the cubic rule does not need evenness; the check keeps the
    set of accepted grids unchanged), and at most MAX_N_PER_PANEL.
    Grids compare and hash by (x_max, n_per_panel), as nodes follows from them.
    """

    x_max: float = 4.0
    n_per_panel: int = 2000
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_real("x_max", self.x_max, GridError)
        if not 1.0 < self.x_max < math.inf:
            raise GridError(f"x_max must be finite and exceed 1, got {self.x_max}")
        n = self.n_per_panel
        require_integer("n_per_panel", n, GridError)
        n = int(n)
        object.__setattr__(self, "n_per_panel", n)
        if n < 8 or n % 2 != 0:
            raise GridError(f"n_per_panel must be even and >= 8, got {n}")
        if n > MAX_N_PER_PANEL:
            raise GridError(f"n_per_panel must be at most MAX_N_PER_PANEL = "
                            f"{MAX_N_PER_PANEL}, got {n}")
        inner = np.linspace(0.0, 1.0, n + 1)
        outer = np.linspace(1.0, self.x_max, n + 1)
        nodes = np.concatenate([inner, outer[1:]])
        # every grid's nodes are shared by what is built on it: a stray
        # in-place write raises
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_points(self) -> int:
        return self.nodes.size

    def panel_h(self, panel: int) -> float:
        return (1.0 if panel == 0 else self.x_max - 1.0) / self.n_per_panel

    def panels(self, values) -> np.ndarray:
        """Node values as a read-only (2, n_per_panel+1) view: row p is panel
        p, and both rows hold the shared node x = 1.  Strided values are
        copied to contiguous ones first."""
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != self.nodes.shape:
            raise GridMismatchError(
                f"expected {self.nodes.shape} node values, got {values.shape}")
        n, step = self.n_per_panel, values.itemsize
        view = np.ndarray((2, n + 1), float, values, strides=(n * step, step))
        view.flags.writeable = False
        return view


@dataclass(frozen=True, eq=False)
class TrialFunction:
    """Even trial function phi on the grid, in log space.

    Below x=1, phi = phi_+ (1 + Gamma phi_-/phi_+) mixes the decaying and
    growing branches phi_+- = exp(-g S0(+-x) - S1); above, it continues as
    phi_+ times that factor frozen at the x=1 node values, which makes phi
    exactly C^1 there since S0'(+-1) = 0.  log_phi peaks at exactly 0 to
    maximize floating-point headroom downstream; every phi^2 ratio is formed
    as a single exponential of a log_phi difference.  psi0 is phi at the
    nodes, normalized so psi0(0) = 1 (it underflows to 0 harmlessly in the
    far tail).  Every gdwell.quadrature operator takes its samples and then
    t, whose grid it reads.  quadrature_factors holds what gdwell.quadrature
    derives from log_phi alone (the node weights of the phi^2 integral, the
    phi^2 peak, the term factors and scales of the inner sums, the scan
    layouts and the fix-up stencils); it builds them on first use, so a
    grid rejected for its step builds none.  build_trial forms log_phi in
    the array eval_S0 returns and psi0 in the one eval_S1 returns, and
    nothing downstream writes into either (see the ownership rule in
    gdwell.quadrature).  Trial functions compare and hash by identity.
    """

    params: PotentialParams
    grid: Grid
    log_phi: np.ndarray
    psi0: np.ndarray
    quadrature_factors: object = field(default=None, init=False, repr=False)


def build_trial(p: PotentialParams, grid: Grid | None = None) -> TrialFunction:
    """Construct the trial function on the grid; requires Gamma > 0
    (ConvergenceDomainError otherwise)."""
    p.require_mixing_positive()
    if grid is None:
        grid = Grid()
    x = grid.nodes
    n = grid.n_per_panel  # x[n] = 1
    s1 = cf.eval_S1(p, x)
    # log phi_+ = -g S0 - S1, then log phi, in the array eval_S0 returns
    log_phi = cf.eval_S0(p, x)
    log_phi *= -p.g
    log_phi -= s1
    # below the matching point: phi = phi_plus (1 + Gamma phi_-/phi_+); the
    # mirror branch is needed only here, x = 1 included.  log phi_- - log
    # phi_+, rho, Gamma rho and log1p(Gamma rho) in the array eval_S0_mirror
    # returns
    mix = cf.eval_S0_mirror(p, x[: n + 1])
    mix *= -p.g
    mix -= s1[: n + 1]
    mix -= log_phi[: n + 1]
    # above: the same expression frozen at the x=1 node values; the shared
    # node takes this outer value
    match_log = math.log1p(p.Gamma * math.exp(float(mix[n])))
    np.exp(mix, out=mix)
    mix *= p.Gamma
    np.log1p(mix, out=mix)
    log_phi[:n] += mix[:n]
    log_phi[n:] += match_log

    # psi0 = phi / phi(0) in the array eval_S1 returned
    psi0 = np.subtract(log_phi, log_phi[0], out=s1)
    np.exp(psi0, out=psi0)
    log_phi -= float(log_phi.max())
    return TrialFunction(p, grid, log_phi, psi0)
