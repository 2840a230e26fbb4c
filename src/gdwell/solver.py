"""The convergent iteration for the ground state.

Starting from f_0 = 1, each step computes the energy defect

    curly_E_n = integral(w phi^2 f_{n-1}) / integral(phi^2 f_{n-1}),

then updates f_n = 1 - 2 * (nested double integral of (w - curly_E_n) f_{n-1})
normalized either at infinity (boundary condition I, upper bounds) or at the
origin (boundary condition II, alternating upper/lower bounds).  Energies are
reported as E_n = g E0 - curly_E_n.

Every monotonicity consequence of the hierarchy of iterates is checked as
data after the run; violations beyond rounding tolerance are recorded, never
silently dropped.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import closed_forms as cf
from .closed_forms import PotentialParams
from .errors import (
    DegenerateDenominatorError,
    GridError,
    NonConvergenceWarning,
    OutsideRegionWarning,
    PositivityLossError,
)
from .quadrature import (
    PanelSamples,
    QuadratureRule,
    integrate_against_phi2,
    nested_origin,
    nested_tail,
)
from .region import A_C
from .trial import Grid, TrialFunction, build_trial

__all__ = [
    "BoundaryCondition",
    "HierarchyViolation",
    "SolveReport",
    "w_samples",
    "energy_step",
    "f_step",
    "solve",
    "check_hierarchy",
]

HIERARCHY_TOL = 1e-9
TAIL_RATIO_BOUND = 1e-10


class BoundaryCondition(enum.Enum):
    """Normalization of the iterates: I fixes f_n(infinity)=1, II fixes
    f_n(0)=1."""

    I = "I"
    II = "II"


@dataclass(frozen=True)
class HierarchyViolation:
    check: str
    detail: str
    magnitude: float

    def __str__(self):
        return f"{self.check}: {self.detail} (by {self.magnitude:.3e})"


@dataclass
class SolveReport:
    params: PotentialParams
    bc: BoundaryCondition
    grid: Grid
    tol: float
    energies: list[float] = field(default_factory=list)   # E_0 = g*E0 first
    curly_energies: list[float] = field(default_factory=list)
    f_history: list[np.ndarray] = field(default_factory=list)  # f_1, f_2, ...
    converged: bool = False
    iterations: int = 0
    violations: list[HierarchyViolation] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    psi0: np.ndarray | None = None

    @property
    def f_final(self) -> np.ndarray:
        return self.f_history[-1]

    def f_n(self, n: int) -> np.ndarray:
        """f_n samples; n=0 is the constant seed."""
        if n == 0:
            return np.ones(self.grid.n_points)
        return self.f_history[n - 1]

    def psi_n(self, n: int) -> np.ndarray:
        """psi_n = psi0 * f_n on the grid nodes."""
        return self.psi0 * self.f_n(n)

    @property
    def psi_final(self) -> np.ndarray:
        return self.psi_n(self.iterations)

    def energy_row(self, decimals: int = 4) -> list[str]:
        return [f"{e:.{decimals}f}" for e in self.energies]

    def to_json_dict(self) -> dict:
        return {
            "schema": "gdwell-solve-report-v2",
            "config": {
                "g": self.params.g,
                "a": self.params.a,
                "bc": self.bc.value,
                "x_max": self.grid.x_max,
                "n_per_panel": self.grid.n_per_panel,
                "tol": self.tol,
            },
            "derived": {
                "E0": self.params.E0,
                "Gamma": self.params.Gamma,
                "a_g": self.params.a_g,
            },
            "energies": list(self.energies),
            "curly_energies": list(self.curly_energies),
            "converged": self.converged,
            "iterations": self.iterations,
            "violations": [str(v) for v in self.violations],
            "warnings": list(self.warnings),
            "psi_final": self.psi_final.tolist(),
            "f_final": self.f_final.tolist(),
        }


def w_samples(p: PotentialParams, grid: Grid) -> PanelSamples:
    """Per-panel samples of w = u + ghat with the two-sided values at x=1:
    the inner panel carries the mixing term up to and including the jump
    node, the outer panel carries plain u."""
    xi = grid.panel_nodes(0)
    xo = grid.panel_nodes(1)
    return PanelSamples(cf.eval_u(p, xi) + cf.eval_ghat(p, xi), cf.eval_u(p, xo))


def _times_f(samples: PanelSamples, grid: Grid, f: np.ndarray) -> PanelSamples:
    fi, fo = grid.split(f)
    return PanelSamples(samples.inner * fi, samples.outer * fo)


def energy_step(
    t: TrialFunction, rule: QuadratureRule, w: PanelSamples, f_prev: np.ndarray
) -> float:
    """curly_E = integral(w phi^2 f_prev) / integral(phi^2 f_prev)."""
    den = integrate_against_phi2(t, rule, f_prev)
    if not den > 0.0:
        raise DegenerateDenominatorError(
            f"normalization integral is {den:.3e}; iteration state is corrupted"
        )
    num = integrate_against_phi2(t, rule, _times_f(w, rule.grid, f_prev))
    return num / den


def f_step(
    t: TrialFunction,
    rule: QuadratureRule,
    w: PanelSamples,
    curly_e: float,
    f_prev: np.ndarray,
    bc: BoundaryCondition,
) -> np.ndarray:
    """One update of the iterate: f_n = 1 - 2 F with F the nested double
    integral of (w - curly_e) f_prev, tail-normalized for I and
    origin-normalized for II.  The endpoint value is exactly 1 in both cases
    by construction of the cumulatives."""
    h = PanelSamples(
        (w.inner - curly_e) * rule.grid.split(f_prev)[0],
        (w.outer - curly_e) * rule.grid.split(f_prev)[1],
    )
    # curly_e zeroes the total of h phi^2 up to rounding: the precondition of
    # both nested operators
    if bc is BoundaryCondition.I:
        F = nested_tail(t, rule, h)
    else:
        F = nested_origin(t, rule, h)
    f = 1.0 - 2.0 * F
    fmin = float(f.min())
    if fmin <= 0.0:
        raise PositivityLossError(
            f"iterate dropped to {fmin:.3e} at x = "
            f"{rule.grid.nodes[int(np.argmin(f))]:.4f}; the iteration left its "
            "validity domain (w too large for this boundary condition)"
        )
    return f


def _truncation_tail_ratio(
    p: PotentialParams, t: TrialFunction, rule: QuadratureRule, h: PanelSamples
) -> float:
    """Bound on the neglected integral beyond x_max relative to the inner
    integral at the trial-function peak.  phi^2 decays at rate
    lambda = 2 (g S0' + S1') there, so the tail is below
    phi^2(x_max) sup|h| / lambda."""
    grid = rule.grid
    xm = grid.x_max
    lam = 2.0 * (p.g * float(cf.eval_S0_prime(p, xm)) + float(cf.eval_S1_prime(p, xm)))
    sup_h = max(float(np.max(np.abs(h.inner))), float(np.max(np.abs(h.outer))))
    log_phi2_xm = 2.0 * float(t.log_phi[-1])  # log phi peaks at 0
    tail = math.exp(log_phi2_xm) * sup_h / lam
    peak = abs(integrate_against_phi2(t, rule, np.abs(np.concatenate([
        h.inner, h.outer[1:]
    ]))))
    return tail / peak if peak > 0 else 0.0


def solve(
    p: PotentialParams,
    grid: Grid | None = None,
    bc: BoundaryCondition = BoundaryCondition.II,
    max_iter: int = 20,
    tol: float = 1e-6,
) -> SolveReport:
    """Run the iteration from f_0 = 1 until |E_n - E_{n-1}| < tol or max_iter.

    Raises ConvergenceDomainError when the mixing coefficient is not
    positive.  When the shape parameter is at or below the critical value the
    run proceeds but an OutsideRegionWarning is issued and recorded
    (monotone convergence is then not guaranteed).  max_iter must be at
    least 1 and tol finite and at least 0, where tol = 0 runs exactly
    max_iter iterations (ValueError otherwise, also for a NaN tol).
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and at least 0, got {tol}")
    p.require_mixing_positive()
    if isinstance(bc, str):
        bc = BoundaryCondition(bc)
    if grid is None:
        grid = Grid()
    report = SolveReport(params=p, bc=bc, grid=grid, tol=tol)
    if p.a <= A_C:
        msg = (
            f"a = {p.a} is at or below the critical shape value {A_C:.9f}; "
            "monotone convergence is not guaranteed"
        )
        warnings.warn(msg, OutsideRegionWarning)
        report.warnings.append(msg)

    t = build_trial(p, grid)
    rule = QuadratureRule(grid)
    w = w_samples(p, grid)
    report.psi0 = t.psi0

    g_e0 = p.g * p.E0
    report.energies.append(g_e0)
    f_prev = np.ones(grid.n_points)
    for n in range(1, max_iter + 1):
        curly = energy_step(t, rule, w, f_prev)
        f_prev = f_step(t, rule, w, curly, f_prev, bc)
        if n == 1:
            ratio = _truncation_tail_ratio(
                p, t, rule, _times_f(w, grid, np.ones(grid.n_points))
            )
            if ratio > TAIL_RATIO_BOUND:
                raise GridError(
                    f"estimated truncation tail beyond x_max={grid.x_max} is "
                    f"{ratio:.2e} of the peak inner integral (> {TAIL_RATIO_BOUND:g}); "
                    "increase x_max"
                )
        report.curly_energies.append(curly)
        report.energies.append(g_e0 - curly)
        report.f_history.append(f_prev)
        report.iterations = n
        if tol > 0.0 and abs(report.energies[-1] - report.energies[-2]) < tol:
            report.converged = True
            break
    if not report.converged and tol > 0.0:
        msg = f"hit max_iter={max_iter} before |dE| < {tol:g}"
        warnings.warn(msg, NonConvergenceWarning)
        report.warnings.append(msg)
    report.violations = check_hierarchy(report)
    return report


def _ratio_slope_violations(
    f_a: np.ndarray, f_b: np.ndarray, want: str, label: str, tol: float
) -> list[HierarchyViolation]:
    """Nodewise monotonicity of f_b/f_a: 'decreasing' or 'increasing'."""
    d = np.diff(f_b / f_a)
    if want == "decreasing":
        worst = float(d.max())
        bad = worst > tol
    else:
        worst = float(d.min())
        bad = worst < -tol
    if bad:
        return [HierarchyViolation("ratio-monotonicity", f"{label} not {want}", abs(worst))]
    return []


def check_hierarchy(report: SolveReport, tol: float = HIERARCHY_TOL) -> list[HierarchyViolation]:
    """Check every stated consequence of the hierarchy of iterates and return
    the violations beyond tolerance (an empty list means all hold).

    Boundary condition I: curly_E strictly ascending; iterates >= 1 and
    nodewise ascending; successive ratios f_{n+1}/f_n nodewise decreasing.
    Boundary condition II: odd curly_E ascending, even descending, every even
    above every odd; ratios alternate (odd/even decreasing, even/odd
    increasing); iterates stay in (0, 1] and non-increasing.
    """
    out: list[HierarchyViolation] = []
    ce = report.curly_energies
    fs = [np.ones(report.grid.n_points)] + list(report.f_history)
    if len(ce) < 2:
        return out

    if report.bc is BoundaryCondition.I:
        for n in range(1, len(ce)):
            if ce[n] <= ce[n - 1] - tol:
                out.append(HierarchyViolation(
                    "energy-ascending", f"curly_E_{n + 1} <= curly_E_{n}",
                    ce[n - 1] - ce[n]))
        for n in range(1, len(fs)):
            low = float((fs[n] - 1.0).min())
            if low < -tol:
                out.append(HierarchyViolation(
                    "iterate-lower-bound", f"f_{n} dips below 1", -low))
            if n >= 2:
                worst = float((fs[n] - fs[n - 1]).min())
                if worst < -tol:
                    out.append(HierarchyViolation(
                        "iterate-ascending", f"f_{n} < f_{n - 1} somewhere", -worst))
            d = float(np.diff(fs[n]).max())
            if d > tol:
                out.append(HierarchyViolation(
                    "iterate-nonincreasing-in-x", f"f_{n} increases in x", d))
        for n in range(1, len(fs) - 1):
            out += _ratio_slope_violations(
                fs[n], fs[n + 1], "decreasing", f"f_{n + 1}/f_{n}", tol)
    else:
        odd = ce[0::2]
        even = ce[1::2]
        for i in range(1, len(odd)):
            if odd[i] <= odd[i - 1] - tol:
                out.append(HierarchyViolation(
                    "odd-energy-ascending",
                    f"curly_E_{2 * i + 1} <= curly_E_{2 * i - 1}",
                    odd[i - 1] - odd[i]))
        for i in range(1, len(even)):
            if even[i] >= even[i - 1] + tol:
                out.append(HierarchyViolation(
                    "even-energy-descending",
                    f"curly_E_{2 * i + 2} >= curly_E_{2 * i}",
                    even[i] - even[i - 1]))
        if even and odd and min(even) <= max(odd) - tol:
            out.append(HierarchyViolation(
                "even-above-odd", "some even curly_E not above every odd one",
                max(odd) - min(even)))
        for n in range(1, len(fs)):
            high = float((fs[n] - 1.0).max())
            if high > tol:
                out.append(HierarchyViolation(
                    "iterate-upper-bound", f"f_{n} exceeds 1", high))
            d = float(np.diff(fs[n]).max())
            if d > tol:
                out.append(HierarchyViolation(
                    "iterate-nonincreasing-in-x", f"f_{n} increases in x", d))
        for n in range(0, len(fs) - 1):
            want = "decreasing" if n % 2 == 0 else "increasing"
            out += _ratio_slope_violations(
                fs[n], fs[n + 1], want, f"f_{n + 1}/f_{n}", tol)
    return out
