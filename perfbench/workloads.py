"""Seeded inputs, timed operations and output checks of the three workloads.

An op is one user-level job, timed from the first call into gdwell to the
last.  Its output is checked afterwards, outside the timed region.  Every
call goes through a module attribute (``solver.solve``,
``oracle.peak_census``, ...), so the wrappers that ``spans.py`` installs on
those attributes see it.

The source tree of the checkout must be importable as ``gdwell``;
``child.py`` and ``tests_bench.py`` put ``<checkout>/src`` first on
``sys.path`` before importing this module.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple

import numpy as np

from gdwell import _io, oracle, reference, region, solver
from gdwell.closed_forms import PotentialParams
from gdwell.errors import GdwellError, NonConvergenceWarning
from gdwell.trial import Grid

WORKLOADS = ("paper_tables", "strong_coupling", "region_map")

# real root of the degree-6 factor of disc_s(gamma_tilde) that the sign of
# u' selects; tests_bench.py derives it again with sympy
A_C_REF = "0.6637707178117560220928005"

# published-row tolerance of the acceptance tests
CELL_TOL = 5e-4
# strong-coupling references: fine enough for the oracle's own
# two-resolution check at every (g, a) of the workload; the default
# OracleConfig raises DiscretizationError at (12, 12), (20, 3) and (20, 12)
REF_ORACLE = oracle.OracleConfig(L=3.0, n=6000)
STRONG_GRIDS = (2000, 8000, 16000)
A_G_SWEEP = tuple(float(g) for g in np.linspace(0.5, 5.0, 19))


class Op(NamedTuple):
    """One timed job: a solve (kind 'table', 'draw' or 'strong') or a region
    map (kind 'region')."""

    kind: str
    g: float = 0.0
    a: float = 0.0
    bc: str = ""
    n_per_panel: int = 2000
    resolution: int = 0


class Outcome(NamedTuple):
    """What one op produced.  status is 'ok' or the reason it failed:
    'error:<type>', 'violations', 'nonconvergence' or 'check:<what>'.
    Only 'check:' failures are results the program reported as good."""

    status: str
    err: float | None = None      # headline error of a verified converged op
    iterations: int = 0
    violations: int = 0
    errors: int = 0
    curve_points: int = 0
    misses: int = 0
    sweep_samples: int = 0


def table_cases() -> list[tuple[float, float, str]]:
    """The distinct (g, a, bc) of the published tables, in table order."""
    seen: dict[tuple[float, float, str], None] = {}
    for rows in reference.TABLES.values():
        for row in rows:
            seen.setdefault((row.g, row.a, row.bc), None)
    return list(seen)


def generate(workload: str, seed: int) -> list[Op]:
    """One pass of the workload's ops, in a seeded order.

    Every workload runs a fixed lattice over its input ranges, and the seed
    sets the order.  Seeded inputs varied the metrics between seeds by more
    than the bounds: with the (g, a) points jittered by only 5% of the
    lattice spacing, result_err_max on strong_coupling ranged from 1.5e-7 to
    2.7e-7 over five seeds.  The error of a converged BC I solve is a
    sawtooth in (g, a), set by the iteration at which the stopping rule
    fires, and the largest one decides the metric.
    """
    if workload == "paper_tables":
        ops = [Op("table", g, a, bc) for g, a, bc in table_cases()]
        for g in np.linspace(0.88, 3.0, 4):
            # the method needs g a > sqrt(1 + a), i.e. a above a_g(g)
            a_g = (1.0 + math.sqrt(1.0 + 4.0 * g * g)) / (2.0 * g * g)
            for a in np.linspace(max(1.8, 1.05 * a_g), 3.0, 3):
                ops += [Op("draw", float(g), float(a), bc) for bc in ("I", "II")]
    elif workload == "strong_coupling":
        # the (g, a) census of ROADMAP item 2, on each grid and both BCs
        ops = [
            Op("strong", g, a, bc, n)
            for g in (3.0, 5.0, 8.0, 12.0, 20.0)
            for a in (1.0, 3.0, 6.0, 12.0)
            for bc in ("I", "II")
            for n in STRONG_GRIDS
        ]
    elif workload == "region_map":
        ops = [Op("region", resolution=r) for r in (50, 88, 125, 162, 200)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def warm_op(workload: str) -> Op:
    """The cheapest op that reaches every entry point the workload times."""
    return {
        "paper_tables": Op("table", 1.0, 2.0, "II"),
        "strong_coupling": Op("strong", 3.0, 1.0, "II", 2000),
        "region_map": Op("region", resolution=50),
    }[workload]


def references(ops: list[Op]) -> dict[tuple[float, float], oracle.OracleResult]:
    """Oracle energies for the strong-coupling ops, computed before timing."""
    refs = {}
    for op in ops:
        if op.kind == "strong" and (op.g, op.a) not in refs:
            refs[(op.g, op.a)] = oracle.oracle_ground_state(
                PotentialParams(op.g, op.a), REF_ORACLE)
    return refs


# ---- timed operations ---------------------------------------------------


def _solve(op: Op):
    """Run the solve of a solve-kind op; returns (report, failure status)."""
    tol, max_iter = (0.0, 5) if op.kind == "table" else (1e-6, 20)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rep = solver.solve(
                PotentialParams(op.g, op.a), Grid(4.0, op.n_per_panel),
                solver.BoundaryCondition(op.bc), max_iter=max_iter, tol=tol)
        except GdwellError as exc:
            return None, f"error:{type(exc).__name__}"
    if rep.violations:
        return rep, "violations"
    if any(issubclass(w.category, NonConvergenceWarning) for w in caught):
        return rep, "nonconvergence"
    return rep, "ok"


def run_op(op: Op, out_path: str) -> tuple[float, tuple]:
    """Run the op's calls into gdwell; returns (seconds, raw results)."""
    t0 = perf_counter()
    if op.kind == "region":
        rep = region.trace_curves(op.resolution)
        doc = rep.to_json_dict()
        doc["a_g_sweep"] = [{"g": g, "a_g": region.find_a_g(g)} for g in A_G_SWEEP]
        _io.write_json(out_path, doc)
        raw = (rep, doc)
    else:
        rep, status = _solve(op)
        raw = (rep, status, None, None, None)
        if op.kind != "strong" and rep is not None:
            # what `gdwell solve --out` and the oracle cross-check do
            _io.write_json(out_path, rep.to_json_dict())
            try:
                orc = oracle.oracle_ground_state(PotentialParams(op.g, op.a))
            except GdwellError as exc:
                raw = (rep, f"error:{type(exc).__name__}", None, None, None)
            else:
                raw = (rep, status, orc,
                       oracle.peak_census(orc.x, orc.psi).kind,
                       oracle.peak_census(rep.grid.nodes, rep.psi_final).kind)
    return perf_counter() - t0, raw


# ---- output checks --------------------------------------------------------


def _published_rows(op: Op):
    return [row for rows in reference.TABLES.values() for row in rows
            if (row.g, row.a, row.bc) == (op.g, op.a, op.bc)]


def _report_round_trip(rep, out_path: str) -> bool:
    """The written report reads back with every energy bit-identical."""
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return (doc["energies"] == list(rep.energies)
            and doc["iterations"] == rep.iterations
            and len(doc["psi_final"]) == rep.grid.n_points)


def a_c_error(a_c: float) -> float:
    """|a_c - A_C_REF|, exact up to the final rounding (never 0)."""
    return float(abs(Fraction(a_c) - Fraction(A_C_REF)))


def check(op: Op, raw: tuple, out_path: str, refs: dict) -> Outcome:
    if op.kind == "region":
        return _check_region(op, *raw)
    rep, status, orc, kind_oracle, kind_iter = raw
    if rep is None or status.startswith("error:"):
        return Outcome(status, errors=1)
    common = {"iterations": rep.iterations, "violations": len(rep.violations)}
    if status != "ok":
        return Outcome(status, **common)
    e_last = rep.energies[-1]
    if op.kind == "strong":
        ref = refs[(op.g, op.a)]
        err = abs(e_last - ref.energy)
        if not err <= ref.error_estimate + rep.tol:
            return Outcome("check:oracle-energy", **common)
        return Outcome("ok", err=err, **common)
    if kind_oracle != kind_iter:
        return Outcome("check:peak-census", **common)
    if not _report_round_trip(rep, out_path):
        return Outcome("check:report", **common)
    if op.kind == "table":
        gap = abs(e_last - orc.energy)
        if gap > CELL_TOL:
            return Outcome("check:oracle-energy", **common)
        for row in _published_rows(op):
            if (row.origin, row.label) in reference.KNOWN_DISCREPANT_ROWS:
                continue  # checked against the oracle above, not its row
            if max(abs(c - r) for c, r in zip(rep.energies, row.energies)) > CELL_TOL:
                return Outcome("check:published-row", **common)
        return Outcome("ok", **common)
    err = abs(e_last - orc.energy)
    if not err <= orc.error_estimate + rep.tol:
        return Outcome("check:oracle-energy", **common)
    return Outcome("ok", err=err, **common)


def _check_region(op: Op, rep, doc) -> Outcome:
    counts = {
        "curve_points": sum(len(v) for v in rep.curves.values()),
        "misses": sum(rep.misses.values()),
        "sweep_samples": len(rep.curves) * op.resolution,
    }
    if not abs(rep.a_c - float(A_C_REF)) <= rep.a_c_width:
        return Outcome("check:a_c", **counts)
    if not rep.ordering_ok or any(rep.sign_region_violations.values()):
        return Outcome("check:geometry", **counts)
    if any(len(v) < op.resolution // 2 for v in rep.curves.values()):
        return Outcome("check:curves", **counts)
    for item in doc["a_g_sweep"]:
        g, a_g = item["g"], item["a_g"]
        # a_g is where the mixing coefficient vanishes: g a = sqrt(1 + a)
        if not abs(g * a_g - math.sqrt(1.0 + a_g)) <= 1e-12 * (1.0 + g * a_g):
            return Outcome("check:a_g", **counts)
    return Outcome("ok", err=a_c_error(rep.a_c), **counts)


# ---- numbers guarded at 1e-12, recorded but not gated ---------------------


def guarded_numbers() -> dict:
    """E_5 of every published row, the oracle-minus-iteration gap of each
    table case, and a_c with its width.  A before/after diff of these shows
    drift at 1e-12; the a=1.8 row's gap to its published E_5 is recorded as
    it is."""
    e5 = {}
    for table, rows in reference.TABLES.items():
        for row in rows:
            rep = solver.solve(PotentialParams(row.g, row.a), Grid(),
                               solver.BoundaryCondition(row.bc), max_iter=5, tol=0.0)
            e5[f"table{table}/{row.label}"] = {
                "E5": rep.energies[5],
                "published_E5": row.energies[5],
                "published_gap": rep.energies[5] - row.energies[5],
            }
    gaps = {}
    for g, a, bc in table_cases():
        p = PotentialParams(g, a)
        rep = solver.solve(p, Grid(), solver.BoundaryCondition(bc))
        gaps[f"g={g:g},a={a:g},bc={bc}"] = (
            oracle.oracle_ground_state(p).energy - rep.energies[-1])
    ac = region.find_a_c()
    return {
        "E5": e5,
        "oracle_minus_iteration": gaps,
        "a_c": {"value": ac.a_c, "width": ac.width, "error": a_c_error(ac.a_c)},
    }


def out_file(out_dir: str, op: Op) -> str:
    return os.path.join(out_dir, "region.json" if op.kind == "region" else "report.json")
