"""Deterministic composite quadrature on the two-panel grid, plus the two
nested double-integral operators used by the iteration, stabilized in log
space.

Every sampled function is one (2, n_per_panel+1) panel array, row p on
panel p, with x = 1 in both rows (see gdwell.trial).  The functions here take
either such an array, which keeps the two one-sided values of a function
that jumps at x = 1, or the node values of a continuous function, which they
view as one through Grid.panels.

The phi^2 integral is one weighted sum over the nodes of both panels: the
rule is linear, so its total is the samples dotted with fixed node weights
h_p c_k phi^2(x_k), where c_k are the composite weights of the cubic interval
rule.  phi^2 = exp(2 log phi) is at most 1 by the peak normalization, so the
weights can underflow but never overflow.

The nested operators never form phi^2 or 1/phi^2 directly.  They keep one
trial-only factor per interval, the step ratio up_k = phi^2(x_{k+1}) /
phi^2(x_k), the exponential of one step of 2 log phi.  An overflow guard
trips if any step exceeds _MAX_STEP = 10 in size, so every up_k lies in
[e^-10, e^10].  Each interval integral of h phi^2 over [x_k, x_{k+1}] is
carried scaled by phi^2(x_k); the phi^2 ratios of its stencil, between nodes
at most three intervals apart, are products and quotients of at most three
step ratios, formed where they are used, so each lies in [e^-30, e^30].  The
step ratios, and the node weights of the phi^2 integral, depend only on the
trial function: they are built once per TrialFunction, on first use, and
kept on it.  The plain integrals of the outer cumulative run the same kernel
without step ratios: it skips the multiplications by the ratios of
log phi = 0, which are exactly 1.

The inner integral of the nested operators is split at the phi^2 peak so that
it is always summed from the side where phi^2 is small, and never formed as a
difference against the peak mass (whose rounding, divided by phi^2 far from
the peak, would be amplified by up to e^{+2 g |S0|}):

    right of the peak   suffix(x_k) = integral_{x_k}^{x_max} h phi^2 / phi^2(x_k)
    left of the peak    prefix(x_k) = integral_0^{x_k} h phi^2 / phi^2(x_k)

Both are blocked scans of terms scaled by phi^2 at their own node: the
suffix terms are the interval integrals as they are, and each prefix term
moves to the right node of its interval and is divided by that interval's
step ratio.  Contiguous runs of nodes whose 2 log phi lies in one band
[m B, (m+1) B), B = _SCAN_BAND = 200, are summed by one numpy cumsum in the
units of e^{m B}, and the running sum is carried to the next band by a
factor e^{+-B}.  The overflow guard caps every step of 2 log phi at
_MAX_STEP = 10 < B, so adjacent blocks differ by exactly one band.  No
exponent the scan evaluates exceeds B in size, so none of its factors is
subnormal, and no partial sum of N terms exceeds N e^{2B} times the largest
term, far inside the double range, however deep the well.  The only Python
loop runs over the bands, which is why they are much wider than the guard's
cap.  The band layout and its exponentials are trial-only factors too.

Both nested operators take one inner integral, the tail one: the suffix sum
from the peak on, and minus the prefix sum left of it.  That rests on one
precondition, that the integral of h phi^2 over [0, x_max] vanishes in this
rule's sense up to rounding; curly_E arranges exactly that for every integrand
the iteration builds.  The total is never formed, so its rounding residual is
never divided by phi^2, and nested_origin uses the same array negated.

Ownership: every function here writes only into arrays it allocated itself,
never into one its caller passed in or one the TrialFunction keeps (log_phi,
psi0, quadrature_factors); _run_scan and _peak_split scan in place the array
their caller allocated for them.  Within that rule the kernels work in place,
with the same operations in the same order as the expressions they stand
for, so a large grid costs few temporaries and no bits.  The setup keeps the
same rule: _factors builds the step ratios, the node weights and the scan
layouts from one array of 2 log phi with out=; the interval integrals of the
nested operators are written straight into the scan output; build_trial
(gdwell.trial) and solver.w_samples form log phi, psi0 and w in the arrays
the closed forms return.  Grid.nodes is read-only, so a stray write into the
grid raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridError, GridMismatchError
from .trial import Grid, TrialFunction

__all__ = [
    "QuadratureRule",
    "integrate_against_phi2",
    "nested_tail",
    "nested_origin",
]

# cap on the size of every step of 2 log phi; see the module docstring
_MAX_STEP = 10.0
# width of the scan bands in 2 log phi; see the module docstring
_SCAN_BAND = 200.0


@dataclass(frozen=True)
class QuadratureRule:
    """Composite rule on the two-panel grid.

    Every interval [x_k, x_{k+1}] is integrated with the cubic through the
    four nearest nodes (exact on cubics, the open-ended counterpart of
    composite Simpson), so cumulative values exist at every node at the same
    order of accuracy.
    """

    grid: Grid


def _samples(grid: Grid, values) -> np.ndarray:
    """values as a panel array: a (2, n_per_panel+1) array as it is, node
    values through Grid.panels, which rejects every other shape."""
    values = np.asarray(values, dtype=float)
    return values if values.shape == (2, grid.n_per_panel + 1) else grid.panels(values)


def _guard_steps(dlp: np.ndarray) -> None:
    """Raise GridError if a step of 2 log phi exceeds _MAX_STEP in size."""
    # max |dlp| without the array |dlp|: abs is exact
    worst = max(float(dlp.max()), -float(dlp.min()))
    if worst > _MAX_STEP:
        raise GridError(
            f"step of 2 log phi {worst:.1f} exceeds {_MAX_STEP:g} in size; "
            "grid spacing too coarse for this trial function"
        )


# composite node weights of the cubic interval rule, in units of h, on the
# four end nodes of a panel; every interior node has weight 1
_END_WEIGHTS = np.array([8.0, 31.0, 20.0, 25.0]) / 24.0


def _weights(l2: np.ndarray, grid: Grid) -> np.ndarray:
    """Node weights h_p c_k phi^2(x_k) of the phi^2 integral, row p for panel
    p, from 2 log phi as a panel array."""
    h = np.array([[grid.panel_h(0)], [grid.panel_h(1)]])
    # exponents are <= 0 by the peak normalization, so phi^2 can only
    # underflow, never overflow
    w = np.exp(l2)
    # (h c) phi^2 in place: c is 1 on the interior nodes, so h c is h there
    w[:, :4] *= h * _END_WEIGHTS
    w[:, 4:-4] *= h
    w[:, -4:] *= h * _END_WEIGHTS[::-1]
    return w


class _Scan(NamedTuple):
    """Layout of one blocked scan out_i = sum_{j<=i} c_j exp(l2_j - l2_i):
    each block shares one anchor A = m B, its band's lower edge, B = _SCAN_BAND."""

    into: np.ndarray  # exp(l2_j - A) of node j's block, in [1, e^B)
    blocks: list[tuple[int, int, float]]  # (start, stop, exp(A_previous - A))


def _scan_layout(l2: np.ndarray) -> _Scan:
    # the bands, their anchors and then the into factors in one array
    anchor = np.divide(l2, _SCAN_BAND)
    np.floor(anchor, out=anchor)
    starts = np.flatnonzero(np.diff(anchor, prepend=np.nan))  # 0 and each band change
    stops = [*starts[1:].tolist(), l2.size]
    anchor *= _SCAN_BAND
    # adjacent bands differ by one, as the guard caps every step of 2 log phi
    # at _MAX_STEP < B; the first block has nothing to carry
    carry = [0.0, *np.exp(anchor[starts[1:] - 1] - anchor[starts[1:]]).tolist()]
    into = np.subtract(l2, anchor, out=anchor)
    np.exp(into, out=into)
    return _Scan(into, list(zip(starts.tolist(), stops, carry)))


def _run_scan(x: np.ndarray, scan: _Scan) -> None:
    """The blocked scan of the terms c_j = x_j, in place: x is the caller's
    own array."""
    x *= scan.into
    carry = 0.0
    for start, stop, factor in scan.blocks:
        seg = x[start:stop]
        seg[0] += carry * factor
        np.cumsum(seg, out=seg)
        carry = seg[-1]
    x /= scan.into


class _Factors(NamedTuple):
    """Everything the rule needs from one trial function: the node weights
    of the phi^2 integral, the step ratios up, row p for panel p, the phi^2
    peak node and the layouts of the prefix scan (left of the peak) and of
    the suffix scan (from the peak on, in reverse node order)."""

    weights: np.ndarray
    up: np.ndarray  # phi^2(k+1)/phi^2(k), (2, n_per_panel)
    peak: int
    prefix: _Scan
    suffix: _Scan


def _factors(t: TrialFunction, rule: QuadratureRule) -> _Factors:
    """The trial-only factors of t, built on first use and kept on t."""
    if rule.grid != t.grid:
        raise GridMismatchError(
            f"rule grid ({rule.grid.x_max}, {rule.grid.n_per_panel}) differs from "
            f"the trial function's ({t.grid.x_max}, {t.grid.n_per_panel})"
        )
    if t.quadrature_factors is None:
        l2 = np.multiply(2.0, t.log_phi)
        l2p = t.grid.panels(l2)
        # the steps of 2 log phi: doubling is exact, so these are the doubled
        # steps of log phi bit for bit; then their exponentials in place
        up = np.subtract(l2p[:, 1:], l2p[:, :-1])
        _guard_steps(up)
        np.exp(up, out=up)
        peak = int(np.argmax(l2))
        m = max(peak - 1, 0)
        object.__setattr__(t, "quadrature_factors", _Factors(
            _weights(l2p, t.grid), up, peak,
            _scan_layout(l2[1 : m + 1]), _scan_layout(l2[peak:-1][::-1])
        ))
    return t.quadrature_factors


def _interval_integrals(y: np.ndarray, grid: Grid, up: np.ndarray | None = None,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Integrals of y * phi^2 over the intervals of both panels, each scaled
    by phi^2(left node), from the cubic through the four nearest nodes with
    the phi^2 ratios of its stencil, formed from the step ratios up, folded
    into its weights; without up, the plain interval integrals of y (every
    ratio 1).  They are written into out, a (2, n_per_panel) array of the
    caller's own, or a new one."""
    n = grid.n_per_panel
    if out is None:
        out = np.empty((2, n))
    t = np.empty(n - 2)
    # row by row: 1-D slices run about 3x faster than (2, .) ones
    for p, (v, o) in enumerate(zip(y, out)):
        h = grid.panel_h(p)
        if up is None:
            up0 = e02 = e03 = em2 = em3 = upn = 1.0
        else:
            # the end stencils' phi^2(2)/phi^2(0), phi^2(3)/phi^2(0),
            # phi^2(n-2)/phi^2(n-1) and phi^2(n-3)/phi^2(n-1)
            u = up[p]
            up0, upn, em2 = u[0], u[n - 1], 1.0 / u[n - 2]
            e02 = up0 * u[1]
            e03, em3 = e02 * u[2], em2 / u[n - 3]
        o[0] = h * (9.0 * v[0] + 19.0 * v[1] * up0 - 5.0 * v[2] * e02 + v[3] * e03) / 24.0
        o[-1] = h * (v[n - 3] * em3 - 5.0 * v[n - 2] * em2 + 19.0 * v[n - 1]
                     + 9.0 * v[n] * upn) / 24.0
        # h (-v_{k-1} / up_{k-1} + 13 v_k + 13 v_{k+1} up_k
        # - v_{k+2} up_k up_{k+1}) / 24 in place, with the same operations in
        # the same order as that expression; the plain rule skips the ratios,
        # which are exactly 1
        mid = o[1:-1]
        np.negative(v[0 : n - 2], out=mid)
        if up is not None:
            mid /= u[0 : n - 2]
        mid += np.multiply(13.0, v[1 : n - 1], out=t)
        np.multiply(13.0, v[2:n], out=t)
        if up is not None:
            t *= u[1 : n - 1]
        mid += t
        if up is None:
            mid -= v[3 : n + 1]
        else:
            np.multiply(v[3 : n + 1], u[1 : n - 1], out=t)
            t *= u[2:n]
            mid -= t
        mid *= h
        mid /= 24.0
    return out


def integrate_against_phi2(t: TrialFunction, rule: QuadratureRule, values) -> float:
    """Integral of values * phi^2 over [0, x_max]: the samples of both
    panels dotted with the node weights.  The order of the sum follows the
    memory layout of values, so node values of a continuous function go in
    as they are, through the Grid.panels view, not as a (2, n_per_panel+1)
    copy, which would round differently."""
    w = _factors(t, rule).weights
    # einsum sums in numpy, not in BLAS, whose ddot splits long rows across
    # threads and so would make the rounding depend on the core count
    return float(np.einsum("ij,ij->", w, _samples(rule.grid, values)))


def _peak_split(f: _Factors, out: np.ndarray) -> None:
    """prefix(x_k) at the nodes left of the phi^2 peak and suffix(x_k) from
    the peak on, in place in out, the caller's own array of one entry per
    node, whose entries but the last hold the scaled interval integrals of
    both panels in node order on entry.  The interval ending at node k is
    summed into prefix(x_k) and the one starting there into suffix(x_k), so
    the prefix terms move one node up first; the interval into the peak
    enters neither, and out is 0 at x_max and, but for a peak at 0, at 0.
    Divided by its interval's step ratio, each prefix term is scaled by phi^2
    at the node it moved to, as the suffix terms are at theirs."""
    m = max(f.peak - 1, 0)
    # a plain copy, then the divide: a divide into the overlapping slice
    # would go through a temporary
    out[1 : m + 1] = out[:m]
    out[1 : m + 1] /= f.up.reshape(-1)[:m]
    out[: min(f.peak, 1)] = 0.0
    out[-1] = 0.0
    _run_scan(out[1 : m + 1], f.prefix)
    _run_scan(out[f.peak : -1][::-1], f.suffix)


def _inner_scaled(f: _Factors, grid: Grid, h_samples) -> np.ndarray:
    """The tail inner integral, integral_x^xmax h phi^2, in units of the local
    phi^2 at every node: suffix from the peak on and -prefix left of it (the
    total of h phi^2 is zero, so the part over [x, x_max] is minus the part
    over [0, x])."""
    n = grid.n_per_panel
    inner = np.empty(2 * n + 1)
    _interval_integrals(_samples(grid, h_samples), grid, f.up,
                        out=inner[: 2 * n].reshape(2, n))
    _peak_split(f, inner)
    np.negative(inner[: f.peak], out=inner[: f.peak])
    return inner


def _node_cumulative(grid: Grid, tt: np.ndarray, suffix: bool) -> np.ndarray:
    """Cumulative integral of a continuous node function, from x_max down
    (suffix=True) or from 0 up (suffix=False), chained across the panels:
    each panel's partial sums, then the total of the panel summed first is
    added to those of the other."""
    n = grid.n_per_panel
    iv = _interval_integrals(grid.panels(tt), grid)
    out = np.empty(2 * n + 1)
    if suffix:
        out[-1] = 0.0
        np.cumsum(iv[1, ::-1], out=out[2 * n - 1 : n - 1 : -1])
        np.cumsum(iv[0, ::-1], out=out[n - 1 :: -1])
        out[:n] += out[n]
    else:
        out[0] = 0.0
        np.cumsum(iv[0], out=out[1 : n + 1])
        np.cumsum(iv[1], out=out[n + 1 :])
        out[n + 1 :] += out[n]
    return out


def nested_tail(t: TrialFunction, rule: QuadratureRule, h_samples) -> np.ndarray:
    """F(x) = integral_x^xmax dy/phi^2(y) integral_y^xmax h(z) phi^2(z) dz
    at every node (the tail-normalized double integral).  F(x_max) = 0
    exactly, which pins the boundary value of the iterates.

    Precondition: the integral of h phi^2 over [0, x_max] vanishes in this
    rule's sense, up to rounding, as it does for every integrand the
    iteration builds.  Left of the phi^2 peak the inner integral is then
    minus the prefix sum, so the O(eps) residual of the total is never
    divided by phi^2.
    """
    return _node_cumulative(rule.grid, _inner_scaled(_factors(t, rule), rule.grid, h_samples),
                            suffix=True)


def nested_origin(t: TrialFunction, rule: QuadratureRule, h_samples) -> np.ndarray:
    """F(x) = integral_0^x dy/phi^2(y) integral_0^y h(z) phi^2(z) dz at every
    node (the origin-normalized double integral).  F(0) = 0 exactly.

    Precondition as for nested_tail: the integral of h phi^2 over [0, x_max]
    vanishes up to rounding.  Right of the phi^2 peak, where 1/phi^2 grows
    like e^{+2g|S0|}, the inner integral is then minus the suffix sum: the
    bounded solution branch.
    """
    inner = _inner_scaled(_factors(t, rule), rule.grid, h_samples)
    return _node_cumulative(rule.grid, np.negative(inner, out=inner), suffix=False)
