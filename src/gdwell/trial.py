"""Two-panel computational grid and the log-space trial function.

The grid puts x = 1 exactly on a node shared by two uniform panels [0, 1]
and [1, x_max], so the downward jump of the mixing term never sits inside a
quadrature stencil.  The trial function spans a dynamic range of order
exp(-2 g S0(x_max)) (e^-120 and beyond), and it is positive, so it is stored
as its logarithm per node and all ratios are formed from log differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import closed_forms as cf
from .closed_forms import PotentialParams
from .errors import GridError

__all__ = ["Grid", "TrialFunction", "build_trial"]


@dataclass(frozen=True)
class Grid:
    """Two uniform panels [0, 1] and [1, x_max] with shared node x = 1.

    n_per_panel is the number of intervals in each panel: at least 8, so the
    four-node cubic interval stencils fit, and even (the cubic rule does not
    need evenness; the check keeps the set of accepted grids unchanged).
    Grids compare and hash by (x_max, n_per_panel), as nodes follows from them.
    """

    x_max: float = 4.0
    n_per_panel: int = 2000
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1.0 < self.x_max < math.inf:
            raise GridError(f"x_max must be finite and exceed 1, got {self.x_max}")
        n = self.n_per_panel
        if n < 8 or n % 2 != 0:
            raise GridError(f"n_per_panel must be even and >= 8, got {n}")
        inner = np.linspace(0.0, 1.0, n + 1)
        outer = np.linspace(1.0, self.x_max, n + 1)
        nodes = np.concatenate([inner, outer[1:]])
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_points(self) -> int:
        return self.nodes.size

    @property
    def h_inner(self) -> float:
        return 1.0 / self.n_per_panel

    @property
    def h_outer(self) -> float:
        return (self.x_max - 1.0) / self.n_per_panel

    @property
    def i_one(self) -> int:
        """Index of the shared node x = 1."""
        return self.n_per_panel

    def panel_slice(self, panel: int) -> slice:
        """Slice of .nodes covering panel 0 ([0,1]) or 1 ([1,x_max]),
        both including the shared node."""
        n = self.n_per_panel
        return slice(0, n + 1) if panel == 0 else slice(n, 2 * n + 1)

    def panel_nodes(self, panel: int) -> np.ndarray:
        return self.nodes[self.panel_slice(panel)]

    def panel_h(self, panel: int) -> float:
        return self.h_inner if panel == 0 else self.h_outer

    def split(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split node values of a continuous function into per-panel views."""
        if values.shape != self.nodes.shape:
            raise GridError(f"expected {self.nodes.shape} node values, got {values.shape}")
        return values[self.panel_slice(0)], values[self.panel_slice(1)]


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
    far tail).  quadrature_factors holds what gdwell.quadrature derives from
    log_phi alone (stencil ratios, anchors, scan layout); it builds them on
    first use.  Trial functions compare and hash by identity.
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
    if not np.any(x == 1.0):
        raise GridError("x = 1 must be a grid node")

    log_plus = -p.g * cf.eval_S0(p, x) - cf.eval_S1(p, x)
    log_minus = -p.g * cf.eval_S0_mirror(p, x) - cf.eval_S1(p, x)

    log_phi = np.empty_like(x)
    inner, outer = grid.panel_slice(0), grid.panel_slice(1)
    # below the matching point: phi = phi_plus (1 + Gamma phi_-/phi_+)
    rho_inner = np.exp(log_minus[inner] - log_plus[inner])
    log_phi[inner] = log_plus[inner] + np.log1p(p.Gamma * rho_inner)
    # above: the same expression frozen at the x=1 node values
    i1 = grid.i_one
    match_log = math.log1p(p.Gamma * math.exp(float(log_minus[i1] - log_plus[i1])))
    log_phi[outer] = log_plus[outer] + match_log

    psi0 = np.exp(log_phi - log_phi[0])
    return TrialFunction(p, grid, log_phi - float(log_phi.max()), psi0)
