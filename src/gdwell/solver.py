"""The convergent iteration for the ground state.

Starting from f_0 = 1, each step computes the energy defect

    curly_E_n = integral(w phi^2 f_{n-1}) / integral(phi^2 f_{n-1}),

then updates f_n = 1 - 2 * (nested double integral of (w - curly_E_n) f_{n-1})
normalized either at infinity (boundary condition I, upper bounds) or at the
origin (boundary condition II, alternating upper/lower bounds).  Energies are
reported as E_n = g E0 - curly_E_n.

Every monotonicity consequence of the hierarchy of iterates is checked as
data, each iterate as the loop makes it; violations beyond rounding tolerance
are recorded, never silently dropped.
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
    require_integer,
    require_real,
)
from .quadrature import integrate_against_phi2, nested_origin, nested_tail
from .region import A_C
from .trial import MAX_N_PER_PANEL, Grid, TrialFunction, build_trial

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
# cap on every step of 2 log phi between adjacent nodes: on a tail falling by
# s per node the rule's inner integral of a positive integrand turns negative
# once e^s > (2 + sqrt 3)^2
STEP_CAP = 2.0 * math.log(2.0 + math.sqrt(3.0))


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
    converged: bool = False
    iterations: int = 0
    violations: list[HierarchyViolation] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    psi0: np.ndarray | None = None
    f2: np.ndarray | None = None       # f_2, or f_1 after one iteration
    f_final: np.ndarray | None = None

    @property
    def psi_final(self) -> np.ndarray:
        return self.psi0 * self.f_final

    def energy_row(self) -> list[str]:
        """The energies as table cells, to 4 decimals."""
        return [f"{e:.4f}" for e in self.energies]

    def to_json_dict(self) -> dict:
        """The report as schema gdwell-solve-report-v3, for _io.write_json.

        Each array is written once, as its float64 array: psi_final, the
        paper's object, and not f_final, which it fixes.  f = psi_final /
        psi0, with psi0 from build_trial on the config's grid, Grid(x_max,
        n_per_panel); where psi0 underflows to 0, f cannot be recovered.
        """
        return {
            "schema": "gdwell-solve-report-v3",
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
            "psi_final": self.psi_final,
        }


def w_samples(p: PotentialParams, grid: Grid) -> np.ndarray:
    """w = u + ghat as a (2, n_per_panel+1) panel array with the two-sided
    values at x=1: the inner row carries the mixing term up to and including
    the jump node, the outer row carries plain u."""
    x = grid.panels(grid.nodes)
    w = cf.eval_u(p, x)
    w[0] += cf.eval_ghat(p, x[0])
    return w


def energy_step(t: TrialFunction, w: np.ndarray, f_prev: np.ndarray) -> float:
    """curly_E = integral(w phi^2 f_prev) / integral(phi^2 f_prev)."""
    # one panel view of f_prev for both integrals, the one
    # integrate_against_phi2 would take of the node values
    f_panels = t.grid.panels(f_prev)
    den = integrate_against_phi2(f_panels, t)
    if not den > 0.0:
        raise DegenerateDenominatorError(
            f"normalization integral is {den:.3e}; iteration state is corrupted"
        )
    num = integrate_against_phi2(w * f_panels, t)
    return num / den


def f_step(
    t: TrialFunction,
    w: np.ndarray,
    curly_e: float,
    f_prev: np.ndarray,
    bc: BoundaryCondition | str,
) -> np.ndarray:
    """One update of the iterate: f_n = 1 - 2 F with F the nested double
    integral of (w - curly_e) f_prev, tail-normalized for I and
    origin-normalized for II.  The endpoint value is exactly 1 in both cases
    by construction of the cumulatives."""
    if not isinstance(bc, BoundaryCondition):
        bc = BoundaryCondition(bc)
    h = w - curly_e
    h *= t.grid.panels(f_prev)
    # curly_e zeroes the total of h phi^2 up to rounding: the precondition of
    # both nested operators
    nested = nested_tail if bc is BoundaryCondition.I else nested_origin
    # 1 - 2 F in the array nested returned, rounded as that expression is
    f = nested(h, t)
    f *= -2.0
    f += 1.0
    fmin = float(f.min())
    if fmin <= 0.0:
        raise PositivityLossError(
            f"iterate dropped to {fmin:.3e} at x = "
            f"{t.grid.nodes[int(np.argmin(f))]:.4f}; the iteration left its "
            "validity domain (w too large for this boundary condition)"
        )
    return f


def _largest_step(t: TrialFunction, stop: int | None = None) -> float:
    """max |2 log phi(k+1) - 2 log phi(k)| over the nodes before stop:
    doubling and negation are exact, so bit for bit."""
    lp = t.log_phi[:stop]
    d = np.subtract(lp[1:], lp[:-1])
    return 2.0 * max(float(d.max()), -float(d.min()))


def _tail_error(t: TrialFunction, w: np.ndarray, lam: float) -> str:
    """The truncation-tail error of t's grid, or "" if the tail beyond x_max,
    below phi^2(x_max) max w / lam, is at most TAIL_RATIO_BOUND of the
    integral of w phi^2.  w is w_samples on that grid, positive where
    Gamma > 0, and that integral is the first energy step's numerator."""
    tail = math.exp(2.0 * float(t.log_phi[-1])) * float(w.max()) / lam
    peak = integrate_against_phi2(w, t)
    ratio = tail / peak if peak > 0 else 0.0
    if not ratio > TAIL_RATIO_BOUND:
        return ""
    return (f"estimated truncation tail beyond x_max={t.grid.x_max} is {ratio:.2e} of the "
            f"peak inner integral (> {TAIL_RATIO_BOUND:g}); increase x_max")


def _check_grid(p: PotentialParams, t: TrialFunction, w: np.ndarray) -> None:
    """Raise GridError if the grid is too coarse for t (a step of 2 log phi
    above STEP_CAP) or too short (_tail_error).  lambda = 2 (g S0' + S1') at
    x_max bounds every outer step by lambda h.  The step is read from log
    phi, so a grid rejected for it builds no quadrature factors.  A step
    error names an n_per_panel whose steps pass and ends with that grid's
    own tail error, if it has one, or says that none up to MAX_N_PER_PANEL
    passes, without building a grid past it, and which panel needs more."""
    xm, n = t.grid.x_max, t.grid.n_per_panel
    # at a Python float the two slopes are plain float arithmetic
    lam = 2.0 * (p.g * float(cf.eval_S0_prime(p, float(xm)))
                 + float(cf.eval_S1_prime(p, float(xm))))
    step = _largest_step(t)
    if not step > STEP_CAP:
        error = _tail_error(t, w, lam)
        if error:
            raise GridError(error)
        return
    msg = (f"step of 2 log phi {step:.4g} exceeds {STEP_CAP:.3f} in size; grid spacing "
           "too coarse for this trial function")
    # the estimate scales the largest step as 1/n, which a coarse start can
    # undershoot: the named n is confirmed by its own steps.  Capped past the
    # bound, an infinite estimate names no grid
    est = min(max(n * step, lam * (xm - 1.0)) / STEP_CAP, MAX_N_PER_PANEL + 1.0)
    t_named = t
    for named in range(2 * math.ceil(est / 2.0), MAX_N_PER_PANEL + 1, 2):
        t_named = build_trial(p, Grid(xm, named))
        if not _largest_step(t_named) > STEP_CAP:
            break
    else:
        # the same 1/n estimate for [0, 1] alone, on the finest grid tried
        m = t_named.grid.n_per_panel
        inner = m * _largest_step(t_named, m + 1) / STEP_CAP
        advice = ("the steps on [0, 1] need more intervals at this (g, a)"
                  if inner > MAX_N_PER_PANEL else "decrease x_max")
        raise GridError(f"{msg}, and no n_per_panel up to MAX_N_PER_PANEL = {MAX_N_PER_PANEL} "
                        f"passes at x_max={xm}; {advice}")
    error = _tail_error(t_named, w_samples(p, t_named.grid), lam)
    raise GridError(f"{msg} (use n_per_panel >= {named})"
                    + (f"; on that grid the {error}" if error else ""))


def solve(
    p: PotentialParams,
    grid: Grid | None = None,
    bc: BoundaryCondition | str = BoundaryCondition.II,
    max_iter: int = 20,
    tol: float = 1e-6,
) -> SolveReport:
    """Run the iteration from f_0 = 1 until |E_n - E_{n-1}| < tol or max_iter.

    Raises ConvergenceDomainError when the mixing coefficient is not
    positive and GridError, before iterating, when the grid is too coarse or
    short for the trial function.  At a at or below the critical value the
    run proceeds, but an OutsideRegionWarning is issued and recorded
    (monotone convergence is then not guaranteed).  max_iter must be at
    least 1 and tol finite and at least 0, where tol = 0 runs exactly
    max_iter iterations (ValueError otherwise, also for a NaN tol, a
    non-integer or bool max_iter and a non-real or bool tol).  bc is a
    BoundaryCondition or its value, "I" or "II" (ValueError otherwise).
    """
    require_integer("max_iter", max_iter)
    require_real("tol", tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and at least 0, got {tol}")
    p.require_mixing_positive()
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
    w = w_samples(p, grid)
    report.psi0 = t.psi0
    _check_grid(p, t, w)

    g_e0 = p.g * p.E0
    report.energies.append(g_e0)
    rows = []
    f = np.ones(grid.n_points)
    for n in range(1, max_iter + 1):
        curly = energy_step(t, w, f)
        f_prev, f = f, f_step(t, w, curly, f, bc)
        rows += _iterate_rows(bc, n, f_prev, f)
        report.curly_energies.append(curly)
        report.energies.append(g_e0 - curly)
        report.iterations = n
        if n <= 2:
            report.f2 = f
        if tol > 0.0 and abs(report.energies[-1] - report.energies[-2]) < tol:
            report.converged = True
            break
    if not report.converged and tol > 0.0:
        msg = f"hit max_iter={max_iter} before |dE| < {tol:g}"
        warnings.warn(msg, NonConvergenceWarning)
        report.warnings.append(msg)
    report.f_final = f
    report.violations = check_hierarchy(bc, report.curly_energies, rows)
    return report


def _margin(values: np.ndarray, sign: float = 1.0) -> float:
    """Signed margin of sign * values >= 0 at every node: its smallest value."""
    return float(values.min()) if sign > 0 else -float(values.max())


def _iterate_rows(
    bc: BoundaryCondition, n: int, f_prev: np.ndarray, f: np.ndarray
) -> list[tuple[str, str, float]]:
    """The (check, detail, signed margin) rows of f = f_n, n >= 1, with
    f_prev = f_{n-1}, for check_hierarchy."""
    bc_i = bc is BoundaryCondition.I
    # min(f) - 1 is min(f - 1), bit for bit, as x -> fl(x - 1) is monotone
    rows = [("iterate-lower-bound", f"f_{n} dips below 1", float(f.min()) - 1.0) if bc_i
            else ("iterate-upper-bound", f"f_{n} exceeds 1", -(float(f.max()) - 1.0))]
    # every difference in one array, the slopes as np.diff forms them
    d = np.empty(f.size)
    if bc_i and n >= 2:
        rows.append(("iterate-ascending", f"f_{n} < f_{n - 1} somewhere",
                     _margin(np.subtract(f, f_prev, out=d))))
    rows.append(("iterate-nonincreasing-in-x", f"f_{n} increases in x",
                 _margin(np.subtract(f[1:], f[:-1], out=d[:-1]), -1.0)))
    # f_1/f_0 is f_1 itself, whose slope is checked above
    if n >= 2:
        slope = -1.0 if bc_i or n % 2 == 1 else 1.0
        ratio = f / f_prev
        rows.append(("ratio-monotonicity",
                     f"f_{n}/f_{n - 1} not {'decreasing' if slope < 0 else 'increasing'}",
                     _margin(np.subtract(ratio[1:], ratio[:-1], out=d[:-1]), slope)))
    return rows


def check_hierarchy(
    bc: BoundaryCondition, curly_energies: list[float], rows: list[tuple[str, str, float]]
) -> list[HierarchyViolation]:
    """Check every stated consequence of the hierarchy of iterates and return
    the violations beyond HIERARCHY_TOL (an empty list means all hold).

    rows are every iterate's _iterate_rows in order; ratio rows are listed
    last.  A margin below -HIERARCHY_TOL, or at it for a curly_E relation,
    is a violation of magnitude -margin.
    I: curly_E strictly ascending; iterates >= 1 and nodewise ascending;
    ratios f_{n+1}/f_n nodewise decreasing from f_2/f_1 on.
    II: odd curly_E ascending, even descending, every even above every odd;
    iterates <= 1; ratios alternate from f_2/f_1 on (odd/even decreasing,
    even/odd increasing).  Under both, every iterate is non-increasing in x.
    A run with one iterate is checked too; the curly_E relations need two.
    """
    ce = curly_energies
    bc_i = bc is BoundaryCondition.I
    # (check, first index, stride, sign): sign (curly_E_n - curly_E_{n-stride}) > 0
    sequences = [("energy-ascending", 0, 1, 1.0)] if bc_i else [
        ("odd-energy-ascending", 0, 2, 1.0), ("even-energy-descending", 1, 2, -1.0)]
    energies = [
        (check, f"curly_E_{n + 1} {'<=' if sign > 0 else '>='} curly_E_{n + 1 - stride}",
         sign * (ce[n] - ce[n - stride]))
        for check, first, stride, sign in sequences
        for n in range(first + stride, len(ce), stride)
    ]
    if not bc_i and len(ce) >= 2:
        energies.append(("even-above-odd", "some even curly_E not above every odd one",
                         min(ce[1::2]) - max(ce[0::2])))
    out = [HierarchyViolation(c, d, -m) for c, d, m in energies if m <= -HIERARCHY_TOL]
    return out + [HierarchyViolation(c, d, -m)
                  for c, d, m in sorted(rows, key=lambda r: r[0] == "ratio-monotonicity")
                  if m < -HIERARCHY_TOL]
