"""Deterministic composite quadrature on the two-panel grid, plus the two
nested double-integral operators used by the iteration, stabilized in log
space.

Every sampled function is one (2, n_per_panel+1) panel array, row p on
panel p, with x = 1 in both rows (see gdwell.trial).  The functions here take
either such an array, which keeps the two one-sided values of a function
that jumps at x = 1, or the node values of a continuous function, which they
view as one through Grid.panels.

The rule integrates each interval [x_k, x_{k+1}] of a panel with the cubic
through the four nearest nodes, h (-u_{k-1} + 13 u_k + 13 u_{k+1} - u_{k+2})
/ 24, where past a panel end u_{-1} = 4 u_0 - 6 u_1 + 4 u_2 - u_3 is the
ghost value of the cubic through the four end nodes.  The intervals before
node b, 1 <= b <= n, then sum to a running sum of node terms plus a closure
at node b itself,

    h sum_{1<=j<b} u_j + (h/24)(12 u_0 + u_1 - u_{-1}) + (h/24)(u_{b-1} + 12 u_b - u_{b+1}),

which at b = n gives the composite node weights h (8, 31, 20, 25)/24 at each
panel end and h inside.  The phi^2 integral is the samples dotted with the
node weights h_p c_k phi^2(x_k) of that composite rule.  phi^2 = exp(2 log
phi) is at most 1 by the peak normalization, so they can underflow but never
overflow.

The nested operators never form phi^2 or 1/phi^2 directly.  They keep one
trial-only factor per interval, the step ratio up_k = phi^2(x_{k+1}) /
phi^2(x_k), the exponential of one step of 2 log phi.  Precondition: every
step is far below B = _SCAN_BAND = 200 in size, which gdwell.solver.solve
guarantees by rejecting, before it iterates, every grid with a step above
its STEP_CAP of 2.7.  The step ratios, the largest step and the node weights
of the phi^2 integral depend only on the trial function: they are built
once per TrialFunction, on first use, and kept on it.

The inner integral of the nested operators is split at the phi^2 peak so that
it is always summed from the side where phi^2 is small, and never formed as a
difference against the peak mass (whose rounding, divided by phi^2 far from
the peak, would be amplified by up to e^{+2 g |S0|}):

    right of the peak   suffix(x_k) = integral_{x_k}^{x_max} h phi^2 / phi^2(x_k)
    left of the peak    prefix(x_k) = integral_0^{x_k} h phi^2 / phi^2(x_k)

Both are the running sums above, in units of phi^2 at each node.  The node
terms (the end terms at x = 0 and x_max, at x = 1 panel 0's closing term
plus panel 1's opening term) move one node toward the peak, divided or
multiplied by the step ratio between, are scanned, and the closure at each
node is added: (h/24)(h_{k-1}/up_{k-1} + 12 h_k - h_{k+1} up_k) for the
prefix, its mirror for the suffix.  Every phi^2 ratio is a product of at
most three step ratios, formed where it is used, so it cannot overflow.

The scans are blocked.  Contiguous runs of nodes whose 2 log phi lies in one
band [m B, (m+1) B) are summed by one numpy cumsum in the units of e^{m B},
and the running sum is carried to the next band by a factor e^{+-B}; by the
precondition adjacent blocks differ by exactly one band.  No exponent the
scan evaluates exceeds B in size, so none of its factors is subnormal, and
no partial sum of N terms exceeds N e^{2B} times the largest term, far
inside the double range, however deep the well.  The only Python loop runs
over the bands, which is why they are much wider than a step.  The band
layout and its exponentials are trial-only factors too.

Both nested operators take the two one-sided sums, unsigned, and negate one
side: nested_tail the prefix and nested_origin the suffix.  That rests on a
second precondition, that the integral of h phi^2 over [0, x_max] vanishes
in this rule's sense up to rounding; curly_E arranges exactly that for every
integrand the iteration builds.  The total is never formed, so its rounding
residual is never divided by phi^2.

Ownership: every function here writes only into arrays it allocated itself,
never into one its caller passed in or one the TrialFunction keeps (log_phi,
psi0, quadrature_factors); _run_scan scans in place the array its caller
allocated for it.  Within that rule the kernels work in place, with the same
operations in the same order as the expressions they stand for, so a large
grid costs few temporaries and no bits.  _factors builds the step ratios,
the node weights and the scan layouts from one array of 2 log phi with out=;
build_trial (gdwell.trial) and solver.w_samples form log phi, psi0 and w in
the arrays the closed forms return.  Grid.nodes is read-only, so a stray
write into the grid raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError
from .trial import Grid, TrialFunction

__all__ = [
    "QuadratureRule",
    "integrate_against_phi2",
    "nested_tail",
    "nested_origin",
]

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
    # adjacent bands differ by one, as every step of 2 log phi is below B by
    # the precondition; the first block has nothing to carry
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
    of the phi^2 integral, the step ratios up, row p for panel p, the largest
    step of 2 log phi in size, the phi^2 peak node and the layouts of the
    prefix scan (left of the peak) and of the suffix scan (from the peak on,
    in reverse node order)."""

    weights: np.ndarray
    up: np.ndarray  # phi^2(k+1)/phi^2(k), (2, n_per_panel)
    max_step: float  # max |2 log phi(k+1) - 2 log phi(k)|
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
        max_step = max(float(up.max()), -float(up.min()))  # without |up|
        np.exp(up, out=up)
        peak = int(np.argmax(l2))
        m = max(peak - 1, 0)
        object.__setattr__(t, "quadrature_factors", _Factors(
            _weights(l2p, t.grid), up, max_step, peak,
            _scan_layout(l2[1 : m + 1]), _scan_layout(l2[peak:-1][::-1])
        ))
    return t.quadrature_factors


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


def _ghost_end(h: float, a, b, c, d) -> float:
    """The end term (h/24)(12 u_0 + u_1 - u_{-1}) of a panel, with the
    cubic's ghost value u_{-1} = 4 u_0 - 6 u_1 + 4 u_2 - u_3, from the node
    values a, b, c, d of u_0..u_3 counted from that end."""
    return h * (8.0 * a + 7.0 * b - 4.0 * c + d) / 24.0


def _inner_scaled(f: _Factors, grid: Grid, h_samples) -> np.ndarray:
    """The inner integral in units of the local phi^2 at every node, summed
    from the side where phi^2 is small: prefix(x_k) left of the peak and
    suffix(x_k) from the peak on, both unsigned."""
    n, peak = grid.n_per_panel, f.peak
    inner = np.empty(2 * n + 1)  # node terms, moved, scanned, then closed
    close = np.empty(2 * n + 1)
    t = np.empty(n - 1)
    ends = []
    for p, (v, q) in enumerate(zip(_samples(grid, h_samples), f.up)):
        h = grid.panel_h(p)
        np.multiply(h, v[1:-1], out=inner[p * n + 1 : p * n + n])
        # the closures h (12 v_k + s (v_{k-1} / up_{k-1} - v_{k+1} up_k)) / 24
        # at the interior nodes, s = +1 left of the peak and -1 from it on
        c = close[p * n + 1 : p * n + n]
        np.divide(v[:-2], q[:-1], out=c)
        c -= np.multiply(v[2:], q[1:], out=t)
        k = min(max(peak - p * n - 1, 0), n - 1)
        np.negative(c[k:], out=c[k:])
        c += np.multiply(12.0, v[1:-1], out=t)
        c *= h / 24.0
        # the ghost-closed end terms, in units of phi^2 at their own end node
        up2, dn2 = q[0] * q[1], q[n - 1] * q[n - 2]
        ends.append((_ghost_end(h, v[0], v[1] * q[0], v[2] * up2, v[3] * (up2 * q[2])),
                     _ghost_end(h, v[n], v[n - 1] / q[n - 1], v[n - 2] / dn2,
                                v[n - 3] / (dn2 * q[n - 3]))))
    (open0, close0), (open1, close1) = ends
    inner[0], inner[n], inner[-1] = open0, close0 + open1, close1
    # at x = 1 panel 0 closes the prefix and panel 1 opens the suffix; a
    # suffix from a peak at 0 closes with the x = 0 term
    close[0] = open0 if peak == 0 else 0.0
    close[n] = close0 if n < peak else open1
    close[-1] = 0.0
    # each term moves one node toward the peak, scaled by phi^2 there: a
    # plain copy, then the step ratio, as an operation into the overlapping
    # slice would go through a temporary
    r = f.up.reshape(-1)
    m = max(peak - 1, 0)
    inner[1 : m + 1] = inner[:m]
    inner[1 : m + 1] /= r[:m]
    inner[peak:-1] = inner[peak + 1 :]
    inner[peak:-1] *= r[peak:]
    inner[: min(peak, 1)] = 0.0
    inner[-1] = 0.0
    _run_scan(inner[1 : m + 1], f.prefix)
    _run_scan(inner[peak:-1][::-1], f.suffix)
    inner += close
    return inner


def _node_cumulative(grid: Grid, tt: np.ndarray, suffix: bool) -> np.ndarray:
    """Cumulative integral of a continuous node function, from x_max down
    (suffix=True) or from 0 up (suffix=False), on reversed views from x_max:
    each panel's running sum of node terms plus the closure at each node,
    then the total of the panel summed first is added to those of the other."""
    n = grid.n_per_panel
    out = np.empty(2 * n + 1)
    hs = [grid.panel_h(0), grid.panel_h(1)]
    u, o = (tt[::-1], out[::-1]) if suffix else (tt, out)
    if suffix:
        hs.reverse()
    o[0] = 0.0
    close = np.empty(n)
    for p, h in enumerate(hs):
        v, s = u[p * n : p * n + n + 1], o[p * n + 1 : p * n + n + 1]
        # the node terms, the panel's opening end first, and their running sum
        np.multiply(h, v[:-1], out=s)
        s[0] = _ghost_end(h, *v[:4])
        np.cumsum(s, out=s)
        # the closures h (v_{b-1} + 12 v_b - v_{b+1}) / 24, ghost-closed at b = n
        c = close[:-1]
        np.multiply(12.0, v[1:-1], out=c)
        c += v[:-2]
        c -= v[2:]
        c *= h / 24.0
        close[-1] = _ghost_end(h, *v[:-5:-1])
        s += close
        if p:
            s += o[n]
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
    f = _factors(t, rule)
    inner = _inner_scaled(f, rule.grid, h_samples)
    np.negative(inner[: f.peak], out=inner[: f.peak])
    return _node_cumulative(rule.grid, inner, suffix=True)


def nested_origin(t: TrialFunction, rule: QuadratureRule, h_samples) -> np.ndarray:
    """F(x) = integral_0^x dy/phi^2(y) integral_0^y h(z) phi^2(z) dz at every
    node (the origin-normalized double integral).  F(0) = 0 exactly.

    Precondition as for nested_tail: the integral of h phi^2 over [0, x_max]
    vanishes up to rounding.  Right of the phi^2 peak, where 1/phi^2 grows
    like e^{+2g|S0|}, the inner integral is then minus the suffix sum: the
    bounded solution branch.
    """
    f = _factors(t, rule)
    inner = _inner_scaled(f, rule.grid, h_samples)
    np.negative(inner[f.peak :], out=inner[f.peak :])
    return _node_cumulative(rule.grid, inner, suffix=False)
