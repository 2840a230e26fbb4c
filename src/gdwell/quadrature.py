"""Deterministic composite quadrature on the two-panel grid, plus the two
nested double-integral operators used by the iteration, stabilized in log
space.

Every operator takes its samples and then the trial function t, whose grid
it reads.  Samples are one (2, n_per_panel+1) panel array, row p on panel
p, with x = 1 in both rows (see gdwell.trial), which keeps the two one-sided
values of a function that jumps at x = 1, or the node values of a
continuous function, which Grid.panels views as one and checks for shape.

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

The nested operators never form phi^2 or 1/phi^2 directly.  Precondition:
every step of 2 log phi is far below B = _SCAN_BAND = 200 in size, which
gdwell.solver.solve guarantees by rejecting, before it iterates, every grid
with a step above its STEP_CAP of 2 ln(2 + sqrt 3) ~ 2.634, read from log phi.

The inner integral of the nested operators is split at the phi^2 peak so that
it is always summed from the side where phi^2 is small, and never formed as a
difference against the peak mass (whose rounding, divided by phi^2 far from
the peak, would be amplified by up to e^{+2 g |S0|}):

    right of the peak   suffix(x_k) = integral_{x_k}^{x_max} h phi^2 / phi^2(x_k)
    left of the peak    prefix(x_k) = integral_0^{x_k} h phi^2 / phi^2(x_k)

Both are the running sums above, in units of phi^2 at each node: the prefix
at k sums the terms of the nodes before k, the suffix those after k, and the
closure at k (its mirror for the suffix) is added.  They are summed in band
units.  Every node k has the anchor A_k = m B of the band [m B, (m+1) B)
that 2 log phi_k lies in, and a scanned node holds its sums in units of
e^{A_k}.  Per scanned node k the rule keeps the term factor hk_k = h_p
e^{2 log phi_j - A_k}, h_p the step of node j's panel, of the node j = k - 1
(prefix) or k + 1 (suffix) whose term is summed into k, and the scale
e^{A_k - 2 log phi_k}; the two sides scan disjoint runs of nodes, so they
share one array of each.  A call writes the samples times hk into the scan
buffer, which moves each term one node toward the peak into k's units;
forms each closure (u_{k-1} + 12 u_k - u_{k+1})/24 from those scaled terms
before the scan; overwrites, from a few kept stencils on the samples, what
the scaled terms cannot give; scans; adds the closures and multiplies once
by the scale.  The stencils give the ghost-closed end terms, of the nodes
0, n and 2n (at x = 1 panel 0's closing term plus panel 1's opening one),
and the ghost-closed closures at x = 1 and, for a peak at 0, at 0.  The
closure at k reads its own entry of the scan buffer and the next two in
scan order, the terms of the nodes k - 1, k and k + 1.  The fix-up
condition: a closure is read off the scaled terms only where those three
entries are plain terms, not ghost-closed ones, and lie in its band;
every other closure takes a three-node stencil on the samples of its
panel.  The band keeps them on its side of the peak too: 2 log phi peaks
at exactly 0, at its first maximum, so the peak's band is [0, B) and node
peak - 1 lies below it.

The scans are blocked.  Contiguous runs of nodes in one band are summed by
one numpy cumsum, and the running sum is carried to the next band by a
factor e^{+-B}; by the precondition adjacent blocks differ by exactly one
band.  hk lies in h_p (e^{-2.7}, e^{202.7}) and the scale in (e^{-200}, 1],
the stencil coefficients within a few steps of the same range, so no kept
factor is subnormal or near overflow, and, as the carries are, no partial
sum of N terms exceeds N e^{2B} times the largest term, far inside the
double range, however deep the well.  The only Python loop runs over the
bands, which is why they are much wider than a step.  The node weights of
the phi^2 integral, hk, the scales, the band layout and the stencils depend
only on the trial function: they are built once per TrialFunction, on first
use, and kept on it.

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
grid costs few temporaries and no bits.  _factors builds the node weights,
the term factors, the scales and the scan layouts from one array of 2 log
phi; build_trial (gdwell.trial) and solver.w_samples form log phi, psi0 and
w in the arrays the closed forms return.  Grid.nodes is read-only, so a stray
write into the grid raises.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .trial import Grid, TrialFunction

__all__ = [
    "integrate_against_phi2",
    "nested_tail",
    "nested_origin",
]

# width of the scan bands in 2 log phi; see the module docstring
_SCAN_BAND = 200.0


def _samples(grid: Grid, values) -> np.ndarray:
    """values as a panel array: a (2, n_per_panel+1) array as it is, node
    values through Grid.panels, which rejects every other shape."""
    values = np.asarray(values, dtype=float)
    return values if values.shape == (2, grid.n_per_panel + 1) else grid.panels(values)


# the end term (h/24)(12 u_0 + u_1 - u_{-1}) of a panel, with the cubic's
# ghost value u_{-1} = 4 u_0 - 6 u_1 + 4 u_2 - u_3, in units of h/24 on
# u_0..u_3 counted from that end
_GHOST_END = (8.0, 7.0, -4.0, 1.0)

# composite node weights of the cubic interval rule, in units of h, on the
# four end nodes of a panel: the end term plus the running sum's h on nodes
# 1 to 3; every interior node has weight 1
_END_WEIGHTS = (np.array(_GHOST_END) + (0.0, 24.0, 24.0, 24.0)) / 24.0


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


def _blocks(anchor: np.ndarray) -> list[tuple[int, int, float]]:
    """The blocks (start, stop, exp(A_previous - A)) of a scan whose nodes
    have the band anchors A = anchor, in scan order: each block is a run of
    nodes in one band; the first block has nothing to carry."""
    if not anchor.size:
        return []
    changes = np.flatnonzero(anchor[1:] != anchor[:-1]) + 1
    starts = [0, *changes.tolist()]
    carry = [0.0, *np.exp(anchor[changes - 1] - anchor[changes]).tolist()]
    return list(zip(starts, [*starts[1:], anchor.size], carry))


def _run_scan(x: np.ndarray, blocks: list[tuple[int, int, float]]) -> None:
    """The blocked scan of terms x in band units, in place: x is the
    caller's own array, and each running sum stays in its node's band."""
    carry = 0.0
    for start, stop, factor in blocks:
        seg = x[start:stop]
        seg[0] += carry * factor
        seg.cumsum(out=seg)
        carry = seg[-1]


class _Factors(NamedTuple):
    """Everything the rule needs from one trial function: the node weights
    of the phi^2 integral, row p for panel p, the phi^2 peak node and the
    scaled terms of the inner integral.  Node k, first <= k < 2n, is
    scanned: left of the peak it sums the term of node k - 1 (the prefix),
    from the peak on that of node k + 1 (the suffix, in reverse node order);
    hk, scale and the scan buffer hold node k at k - first."""

    weights: np.ndarray
    peak: int
    first: int  # 1, or 0 for a peak at 0
    hk: np.ndarray  # h e^{l2_j - A_k} for the term of node j summed into k
    scale: np.ndarray  # e^{A_k - l2_k}
    pieces: list[tuple[int, slice, slice]]  # (row, its columns, their k - first)
    prefix: list[tuple[int, int, float]]  # the blocks of the prefix scan
    suffix: list[tuple[int, int, float]]  # and of the suffix scan
    gather: np.ndarray  # each fix-up's samples, as flat indices into a panel array
    coef: np.ndarray  # and their coefficients, in band units
    term_at: np.ndarray  # the fix-ups of terms, then those of closures,
    close_at: np.ndarray  # at k - first


# Every fix-up is a stencil on 8 samples, the nodes b + o for the offsets o
# of its kind, on the panel row of its base node b (the next row where far
# is 1), at weights in units of h/24; a sample it does not use repeats its
# first node at weight 0.  The kinds: a lone ghost-closed end read upward
# (x = 0) and downward (x_max, and x = 1 closing panel 0); x = 1 opening
# panel 1; the pair at x = 1, panel 0's closing end term plus panel 1's
# opening one; and the closure u_{k-d} + 12 u_k - u_{k+d} at b = k, for
# d = 1 left of the peak and d = -1 from it on
_STENCIL_OFFSET = np.array([[0, 1, 2, 3, 0, 1, 2, 3],
                            [0, -1, -2, -3, 0, -1, -2, -3],
                            [0, 1, 2, 3, 0, 1, 2, 3],
                            [0, -1, -2, -3, 0, 1, 2, 3],
                            [-1, 0, 1, -1, -1, -1, -1, -1],
                            [1, 0, -1, 1, 1, 1, 1, 1]])
_STENCIL_FAR = np.array([[0] * 8, [0] * 8, [1] * 8, [0] * 4 + [1] * 4, [0] * 8, [0] * 8])
_STENCIL_WEIGHT = np.array([[*_GHOST_END, 0.0, 0.0, 0.0, 0.0]] * 3
                           + [[*_GHOST_END, *_GHOST_END]]
                           + [[1.0, 12.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0]] * 2)


def _fix_ups(l2: np.ndarray, anchor: np.ndarray, grid: Grid, peak: int, first: int,
             terms: list[tuple[int, int]]):
    """The stencils on the samples of what the scaled terms cannot give, in
    band units of their node k, from 2 log phi and the band anchors of the
    scanned nodes: the terms (j, k) of the nodes j = 0, n and 2n, which are
    ghost-closed end terms; the closures at x = 1 and, for a peak at 0, at
    0, ghost-closed too; and every other closure that fails the fix-up
    condition of the module docstring, by a three-node stencil.  Returns the
    flat indices of each stencil's samples in a C-order panel array, their
    coefficients, and the buffer indices k - first of the terms and then of
    the closures.

    Precondition: 2 log phi peaks at exactly 0, as TrialFunction's does, and
    peak is its first maximum, so the peak lies in band [0, B) and node
    peak - 1 below it, in band [-B, 0): the band condition alone keeps every
    closure that would read across the peak off the scaled terms."""
    n, size, m = grid.n_per_panel, anchor.size, peak - first
    # the fix-up condition: brk[i + 1] is unset where the scan buffer's
    # entries i and i + 1 are plain terms in one band, and set for the links
    # past its ends; a closure reads its own entry and the next two in scan
    # order, as _inner_scaled forms it: i to i + 2 left of the peak, i - 2
    # to i from it on, so it fails where either link it spans is broken
    brk = np.ones(size + 2, dtype=bool)
    np.not_equal(anchor[:-1], anchor[1:], out=brk[1:size])
    brk[[k - first + e for _, k in terms for e in (0, 1)]] = True
    fail = np.ones(size, dtype=bool)
    np.logical_or(brk[1 : m + 1], brk[2 : m + 2], out=fail[:m])
    np.logical_or(brk[m + 1 : -3], brk[m + 2 : -2], out=fail[m + 2 :])
    # the closures at x = 1 and, for a peak at 0, at 0 are ghost-closed
    fail[n - first] = False
    if not first:
        fail[0] = False
    # every stencil as (k - first, base node, kind): the ghost-closed terms
    # and closures, then the three-node closures
    end = {0: (0, 0), n: (n, 3), 2 * n: (2 * n, 1)}
    rows = [(k - first, *end[j]) for j, k in terms]
    rows.append((n - first, n, 2 if n >= peak else 1))
    if not peak:
        rows.append((0, 0, 0))
    rows += [(i, i + first, 4 if i < m else 5) for i in np.flatnonzero(fail).tolist()]
    at, b, kind = np.array(rows).T
    node = _STENCIL_OFFSET[kind]
    node += b[:, None]
    far = _STENCIL_FAR[kind]
    far += (b > n)[:, None]
    coef = _STENCIL_WEIGHT[kind]
    coef *= np.array([grid.panel_h(0) / 24.0, grid.panel_h(1) / 24.0])[far]
    coef *= np.exp(l2[node] - anchor[at][:, None])
    node += far
    return node, coef, at[: len(terms)], at[len(terms) :]


def _factors(t: TrialFunction) -> _Factors:
    """The trial-only factors of t, built on first use and kept on t."""
    if t.quadrature_factors is None:
        grid = t.grid
        n, hs = grid.n_per_panel, (grid.panel_h(0), grid.panel_h(1))
        l2 = np.multiply(2.0, t.log_phi)
        peak = int(np.argmax(l2))
        first = min(peak, 1)
        m = peak - first  # the prefix's scanned nodes
        # the band anchors A_k = m B of the scanned nodes, in the array that
        # then takes their scales
        scale = np.divide(l2[first:-1], _SCAN_BAND)
        np.floor(scale, out=scale)
        scale *= _SCAN_BAND
        # the term of node k - 1 left of the peak, of node k + 1 from it on
        hk = np.empty(scale.size)
        np.subtract(l2[first - 1 : peak - 1], scale[:m], out=hk[:m])
        np.subtract(l2[peak + 1 :], scale[m:], out=hk[m:])
        np.exp(hk, out=hk)
        blocks = _blocks(scale[:m]), _blocks(scale[m:][::-1])
        # the sample runs of each panel whose terms are the plain h v_j: the
        # sources j of the prefix, then of the suffix, split at x = 1, where
        # panel 1's value only holds the place of a fix-up
        pieces, terms = [], []
        for lo, hi, d in [(0, peak - 1, 1), (peak + 1, 2 * n + 1, -1)]:
            for p, a0, b0 in [(0, lo, min(hi, n)), (1, max(lo, n), hi)]:
                if a0 < b0:
                    k0 = a0 + d - first
                    into = slice(k0, k0 + b0 - a0)
                    pieces.append((p, slice(a0 - p * n, b0 - p * n), into))
                    hk[into] *= hs[p]
            terms += [(j, j + d) for j in (0, n, 2 * n) if lo <= j < hi]
        fix_ups = _fix_ups(l2, scale, grid, peak, first, terms)
        np.subtract(scale, l2[first:-1], out=scale)
        np.exp(scale, out=scale)
        object.__setattr__(t, "quadrature_factors", _Factors(
            _weights(grid.panels(l2), grid), peak, first, hk, scale, pieces,
            *blocks, *fix_ups))
    return t.quadrature_factors


def integrate_against_phi2(values, t: TrialFunction) -> float:
    """Integral of values * phi^2 over [0, x_max]: the samples of both
    panels dotted with the node weights.  The order of the sum follows the
    memory layout of values, so node values of a continuous function go in
    as they are, through the Grid.panels view, not as a (2, n_per_panel+1)
    copy, which would round differently."""
    w = _factors(t).weights
    # einsum sums in numpy, not in BLAS, whose ddot splits long rows across
    # threads and so would make the rounding depend on the core count
    return float(np.einsum("ij,ij->", w, _samples(t.grid, values)))


def _ghost_end(h: float, a, b, c, d) -> float:
    """The end term (h/24)(12 u_0 + u_1 - u_{-1}) of a panel, with the
    cubic's ghost value u_{-1} = 4 u_0 - 6 u_1 + 4 u_2 - u_3, from the node
    values a, b, c, d of u_0..u_3 counted from that end."""
    w0, w1, w2, w3 = _GHOST_END
    return h * (w0 * a + w1 * b + w2 * c + w3 * d) / 24.0


def _inner_scaled(f: _Factors, grid: Grid, h_samples) -> np.ndarray:
    """The inner integral in units of the local phi^2 at every node, summed
    from the side where phi^2 is small: prefix(x_k) left of the peak and
    suffix(x_k) from the peak on, both unsigned."""
    v = _samples(grid, h_samples)
    inner = np.empty(2 * grid.n_per_panel + 1)
    inner[: f.first] = 0.0
    inner[-1] = 0.0
    # the scan buffer: every term in the band units of the node it is
    # summed into, then the fix-ups, the end terms first; the gather copies
    # samples that are not one C-order panel array, such as node values
    s = inner[f.first : -1]
    for p, cols, into in f.pieces:
        np.multiply(v[p, cols], f.hk[into], out=s[into])
    fixed = np.einsum("ij,ij->i", f.coef, v.take(f.gather))
    s[f.term_at] = fixed[: f.term_at.size]
    # the closures (u_{k-1} + 12 u_k - u_{k+1}) / 24 of the scaled terms, in
    # scan order: of the entries k to k + 2 left of the peak (m) and k - 2
    # to k from it on, on forward views; the four entries between, which
    # the fix-ups give, start at 0
    close = np.empty(s.size)
    m = f.peak - f.first
    lo, hi = max(m - 2, 0), m + 2
    np.multiply(12.0, s[1 : lo + 1], out=close[:lo])
    np.multiply(12.0, s[hi - 1 : -1], out=close[hi:])
    close[lo:hi] = 0.0
    close += s
    np.subtract(close[:lo], s[2 : lo + 2], out=close[:lo])
    np.subtract(close[hi:], s[hi - 2 : -2], out=close[hi:])
    close *= 1.0 / 24.0
    close[f.close_at] = fixed[f.term_at.size :]
    _run_scan(s[:m], f.prefix)
    _run_scan(s[m:][::-1], f.suffix)
    s += close
    s *= f.scale
    return inner


def _node_cumulative(grid: Grid, tt: np.ndarray, suffix: bool) -> np.ndarray:
    """Cumulative integral of a continuous node function, from x_max down
    (suffix=True) or from 0 up (suffix=False): one running sum of the node
    terms, each moved one node on, across both panels, on reversed views
    from x_max, plus the closure at each node, formed in node order."""
    n = grid.n_per_panel
    h0, h1 = grid.panel_h(0), grid.panel_h(1)
    # the closures h_p (u_{b-1} + 12 u_b - u_{b+1}) / 24 of the interior
    # nodes b, the neighbour before b in scan order added first; the closure
    # at x = 1 is the ghost-closed one below
    c = np.empty(2 * n - 1)
    np.multiply(12.0, tt[1:-1], out=c)
    c += tt[2:] if suffix else tt[:-2]
    c -= tt[:-2] if suffix else tt[2:]
    c[: n - 1] *= h0 / 24.0
    c[n:] *= h1 / 24.0
    out = np.empty(2 * n + 1)
    u, o = (tt[::-1], out[::-1]) if suffix else (tt, out)
    if suffix:
        h0, h1 = h1, h0
    # the node terms h u_j at node j + 1; the panel ends' terms are the
    # ghost-closed end terms, at x = 1 the first panel's closing one plus
    # the second's opening one
    o[0] = 0.0
    np.multiply(h0, u[:n], out=o[1 : n + 1])
    np.multiply(h1, u[n:-1], out=o[n + 1 :])
    head, mid, tail = u[:4].tolist(), u[n - 3 : n + 4].tolist(), u[-4:].tolist()
    c[n - 1] = close0 = _ghost_end(h0, *mid[3::-1])
    o[1] = _ghost_end(h0, *head)
    o[n + 1] = close0 + _ghost_end(h1, *mid[3:])
    np.cumsum(o, out=o)
    out[1:-1] += c
    o[-1] += _ghost_end(h1, *tail[::-1])
    return out


def nested_tail(h_samples, t: TrialFunction) -> np.ndarray:
    """F(x) = integral_x^xmax dy/phi^2(y) integral_y^xmax h(z) phi^2(z) dz
    at every node (the tail-normalized double integral).  F(x_max) = 0
    exactly, which pins the boundary value of the iterates.

    Precondition: the integral of h phi^2 over [0, x_max] vanishes in this
    rule's sense, up to rounding, as it does for every integrand the
    iteration builds.  Left of the phi^2 peak the inner integral is then
    minus the prefix sum, so the O(eps) residual of the total is never
    divided by phi^2.
    """
    f = _factors(t)
    inner = _inner_scaled(f, t.grid, h_samples)
    np.negative(inner[: f.peak], out=inner[: f.peak])
    return _node_cumulative(t.grid, inner, suffix=True)


def nested_origin(h_samples, t: TrialFunction) -> np.ndarray:
    """F(x) = integral_0^x dy/phi^2(y) integral_0^y h(z) phi^2(z) dz at every
    node (the origin-normalized double integral).  F(0) = 0 exactly.

    Precondition as for nested_tail: the integral of h phi^2 over [0, x_max]
    vanishes up to rounding.  Right of the phi^2 peak, where 1/phi^2 grows
    like e^{+2g|S0|}, the inner integral is then minus the suffix sum: the
    bounded solution branch.
    """
    f = _factors(t)
    inner = _inner_scaled(f, t.grid, h_samples)
    np.negative(inner[f.peak :], out=inner[f.peak :])
    return _node_cumulative(t.grid, inner, suffix=False)
