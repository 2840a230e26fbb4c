"""Deterministic composite quadrature on the two-panel grid, plus the two
nested double-integral operators used by the iteration, stabilized in log
space.

The nested operators never form phi^2 or 1/phi^2 directly.  The inner
integral is carried as T~(y) = T(y)/phi^2(y) via a backward recurrence that
re-anchors the log reference at every node,

    T~_k = T~_{k+1} * exp(2(L_{k+1}-L_k)) + iv~_k ,

where iv~_k is the interval integral of h phi^2 over [x_k, x_{k+1}] scaled by
phi^2(x_k).  Every exponent that is actually evaluated is a log difference
between nodes at most three intervals apart, so nothing can overflow no
matter how deep the well (window-based anchoring would underflow its
intermediates once 2 g |S0| per window grows large).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError, OverflowGuardError
from .trial import Grid, TrialFunction

__all__ = [
    "PanelSamples",
    "QuadratureRule",
    "integrate_against_phi2",
    "nested_tail",
    "nested_origin",
]

MAX_FOLDED_EXPONENT = 30.0


class PanelSamples(NamedTuple):
    """Samples of a (possibly jump-discontinuous) function, one array per
    panel, each of length n_per_panel+1; the shared node x=1 appears in both
    and may carry different one-sided values."""

    inner: np.ndarray
    outer: np.ndarray


def _as_panel_samples(grid: Grid, values) -> PanelSamples:
    if isinstance(values, PanelSamples):
        n = grid.n_per_panel + 1
        if values.inner.shape != (n,) or values.outer.shape != (n,):
            raise GridMismatchError(
                f"panel samples must have shape ({n},) each, got "
                f"{values.inner.shape} and {values.outer.shape}"
            )
        return values
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise GridMismatchError(
            f"expected {grid.nodes.shape} node values, got {values.shape}"
        )
    inner, outer = grid.split(values)
    return PanelSamples(inner.copy(), outer.copy())


@dataclass(frozen=True)
class QuadratureRule:
    """Composite rule on the two-panel grid.

    Every interval [x_k, x_{k+1}] is integrated with the cubic through the
    four nearest nodes (exact on cubics, the open-ended counterpart of
    composite Simpson), so cumulative values exist at every node at the same
    order of accuracy.
    """

    grid: Grid


def _interval_integrals(y: np.ndarray, h: float) -> np.ndarray:
    """Integral of the sampled function over each interval [x_k, x_{k+1}],
    from the cubic interpolant through the four nearest nodes."""
    n = y.size - 1
    out = np.empty(n)
    out[0] = h * (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]) / 24.0
    out[-1] = h * (y[n - 3] - 5.0 * y[n - 2] + 19.0 * y[n - 1] + 9.0 * y[n]) / 24.0
    out[1:-1] = h * (-y[0 : n - 2] + 13.0 * y[1 : n - 1] + 13.0 * y[2:n] - y[3 : n + 1]) / 24.0
    return out


def _guard_exponents(dlp: np.ndarray) -> None:
    # stencils reach at most three intervals, so the largest folded exponent
    # is a sum of at most three adjacent log-phi^2 increments
    tri = np.abs(dlp[:-2] + dlp[1:-1] + dlp[2:])
    worst = max(float(np.max(np.abs(dlp))), float(np.max(tri)))
    if worst > MAX_FOLDED_EXPONENT:
        raise OverflowGuardError(
            f"folded log-ratio exponent {worst:.1f} exceeds +{MAX_FOLDED_EXPONENT:g}; "
            "grid spacing too coarse for this trial function"
        )


def _scaled_interval_integrals(y: np.ndarray, lp: np.ndarray, h: float) -> np.ndarray:
    """Interval integrals of y * phi^2, each scaled by phi^2(left node).

    y holds plain samples, lp the log of phi at the same nodes; the phi^2
    ratios are folded into the stencil weights through single exponentials of
    nearby-node log differences.
    """
    n = y.size - 1
    dlp = 2.0 * np.diff(lp)
    _guard_exponents(dlp)
    up = np.exp(dlp)  # phi^2(k+1)/phi^2(k)
    out = np.empty(n)
    e01 = up[0]
    e02 = up[0] * up[1]
    e03 = e02 * up[2]
    out[0] = h * (9.0 * y[0] + 19.0 * y[1] * e01 - 5.0 * y[2] * e02 + y[3] * e03) / 24.0
    em3 = np.exp(-(dlp[n - 2] + dlp[n - 3]))  # phi^2(n-3)/phi^2(n-1)
    em2 = np.exp(-dlp[n - 2])
    out[-1] = (
        h
        * (y[n - 3] * em3 - 5.0 * y[n - 2] * em2 + 19.0 * y[n - 1] + 9.0 * y[n] * up[n - 1])
        / 24.0
    )
    k = np.arange(1, n - 1)
    prev = np.exp(-dlp[k - 1])          # phi^2(k-1)/phi^2(k)
    nxt = up[k]                         # phi^2(k+1)/phi^2(k)
    nxt2 = np.exp(dlp[k] + dlp[k + 1])  # phi^2(k+2)/phi^2(k)
    out[1:-1] = (
        h
        * (-y[k - 1] * prev + 13.0 * y[k] + 13.0 * y[k + 1] * nxt - y[k + 2] * nxt2)
        / 24.0
    )
    return out


def integrate_against_phi2(t: TrialFunction, rule: QuadratureRule, values) -> float:
    """Integral of values * phi^2 over [0, x_max], with phi^2 folded in log
    space (log phi peaks at 0, so the weights lie in (0, 1])."""
    samples = _as_panel_samples(rule.grid, values)
    total = 0.0
    for panel, y in enumerate(samples):
        lp = t.log_phi[rule.grid.panel_slice(panel)]
        iv = _scaled_interval_integrals(y, lp, rule.grid.panel_h(panel))
        # un-scale each interval by its anchor; exponents are <= 0 by the
        # peak normalization, so this can only underflow, never overflow
        total += float(np.sum(iv * np.exp(2.0 * lp[:-1])))
    return total


def _suffix_scaled(t: TrialFunction, rule: QuadratureRule, samples: PanelSamples) -> np.ndarray:
    """T~(x_k) = [integral_{x_k}^{x_max} h(z) phi^2(z) dz] / phi^2(x_k) at
    every node, by the per-node re-anchored backward recurrence."""
    grid = rule.grid
    tt = np.empty(grid.n_points)
    carry = 0.0
    for panel in (1, 0):
        sl = grid.panel_slice(panel)
        lp = t.log_phi[sl]
        y = samples[panel]
        iv = _scaled_interval_integrals(y, lp, grid.panel_h(panel))
        up = np.exp(2.0 * np.diff(lp)).tolist()
        ivl = iv.tolist()
        seg = [0.0] * (y.size)
        seg[-1] = carry
        acc = carry
        for k in range(y.size - 2, -1, -1):
            acc = acc * up[k] + ivl[k]
            seg[k] = acc
        tt[sl] = seg
        carry = seg[0]
    return tt


def _node_cumulative(grid: Grid, tt: np.ndarray, suffix: bool) -> np.ndarray:
    """Cumulative integral of a continuous node function, from x_max down
    (suffix=True) or from 0 up (suffix=False), chained across the panels."""
    out = np.empty(grid.n_points)
    if suffix:
        carry = 0.0
        for panel in (1, 0):
            sl = grid.panel_slice(panel)
            iv = _interval_integrals(tt[sl], grid.panel_h(panel))
            rev = np.concatenate([[0.0], np.cumsum(iv[::-1])])[::-1]
            out[sl] = rev + carry
            carry = out[sl.start]
    else:
        carry = 0.0
        for panel in (0, 1):
            sl = grid.panel_slice(panel)
            iv = _interval_integrals(tt[sl], grid.panel_h(panel))
            out[sl] = np.concatenate([[0.0], np.cumsum(iv)]) + carry
            carry = out[sl.stop - 1]
    return out


def nested_tail(t: TrialFunction, rule: QuadratureRule, h_samples) -> np.ndarray:
    """F(x) = integral_x^xmax dy/phi^2(y) integral_y^xmax h(z) phi^2(z) dz
    at every node (the tail-normalized double integral).  F(x_max) = 0
    exactly, which pins the boundary value of the iterates."""
    samples = _as_panel_samples(rule.grid, h_samples)
    tt = _suffix_scaled(t, rule, samples)
    return _node_cumulative(rule.grid, tt, suffix=True)


def nested_origin(
    t: TrialFunction, rule: QuadratureRule, h_samples, *, assume_zero_total: bool = False
) -> np.ndarray:
    """F(x) = integral_0^x dy/phi^2(y) integral_0^y h(z) phi^2(z) dz at every
    node (the origin-normalized double integral).  F(0) = 0 exactly.

    The inner prefix integral is formed as (total - tail), both carried in
    units of the local phi^2.  When the caller knows the total integral of
    h phi^2 vanishes in this rule's sense (the iteration arranges exactly
    that), pass assume_zero_total=True: this selects the bounded solution
    branch and avoids amplifying the O(eps) rounding residual of the total by
    1/phi^2, which grows like e^{+2g|S0|} in the tail.
    """
    samples = _as_panel_samples(rule.grid, h_samples)
    grid = rule.grid
    tt = _suffix_scaled(t, rule, samples)
    if assume_zero_total:
        btilde = -tt
    else:
        total = 0.0
        for panel, y in enumerate(samples):
            lp = t.log_phi[grid.panel_slice(panel)]
            iv = _scaled_interval_integrals(y, lp, grid.panel_h(panel))
            total += float(np.sum(iv * np.exp(2.0 * lp[:-1])))
        with np.errstate(over="ignore"):
            btilde = total * np.exp(-2.0 * t.log_phi) - tt
    return _node_cumulative(grid, btilde, suffix=False)
