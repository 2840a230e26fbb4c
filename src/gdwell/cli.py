"""Command-line front end: solve / table / region / oracle / verify.

Exit codes: 0 success, 1 checks or hierarchy violations failed, 2 bad
configuration, 3 numeric failure inside a computation (a non-finite number
bound for a JSON report among them).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import _io, reference, region
from .closed_forms import PotentialParams, eval_u
from .errors import ConvergenceDomainError, GdwellError, GridError, NonFiniteOutputError
from .oracle import OracleConfig, oracle_ground_state, peak_census
from .solver import BoundaryCondition, SolveReport, solve
from .trial import MAX_N_PER_PANEL, Grid

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# the keys that decide the computed numbers; where and how a run is written
# (out, format) stay out of file preambles, so one run gives one file content
_RUN_KEYS = ("g", "a", "bc", "x_max", "n_points", "tol", "max_iter")
_CONFIG_KEYS = _RUN_KEYS + ("out", "format")
# JSON types a config file may give for each RunConfig field type
_JSON_TYPES = {"float": (int, float), "int": (int,), "str": (str,), "str | None": (str, type(None))}


@dataclass
class RunConfig:
    g: float = 1.0
    a: float = 2.0
    bc: str = "II"
    x_max: float = 4.0
    n_points: int = 2000
    tol: float = 1e-6
    max_iter: int = 20
    out: str | None = None
    format: str = "json"

    def as_dict(self) -> dict:
        """The run keys, as written to CSV preambles."""
        return {k: getattr(self, k) for k in _RUN_KEYS}


def _load_run_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file must hold a JSON object, got {data!r}")
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        types = {f.name: f.type for f in fields(RunConfig)}
        for k, v in data.items():
            # bool is an int subclass in Python, but true is never a number here
            if isinstance(v, bool) or not isinstance(v, _JSON_TYPES[types[k]]):
                raise ValueError(f"config key {k!r} must be {types[k]}, got {v!r}")
            setattr(cfg, k, v)
    for k in _CONFIG_KEYS:
        v = getattr(args, k, None)
        if v is not None:
            setattr(cfg, k, v)
    if cfg.bc not in ("I", "II"):
        raise ValueError(f"bc must be 'I' or 'II', got {cfg.bc!r}")
    if cfg.format not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {cfg.format!r}")
    return cfg


def _run_solve(cfg: RunConfig) -> SolveReport:
    p = PotentialParams(cfg.g, cfg.a)
    grid = Grid(cfg.x_max, cfg.n_points)
    return solve(p, grid, BoundaryCondition(cfg.bc), max_iter=cfg.max_iter, tol=cfg.tol)


def cmd_solve(args) -> int:
    cfg = _load_run_config(args)
    report = _run_solve(cfg)
    print(" ".join(report.energy_row()))
    if cfg.out:
        if cfg.format == "json":
            _io.write_json(cfg.out, report.to_json_dict())
        else:
            _io.write_csv(
                cfg.out,
                cfg.as_dict(),
                ["bc"] + [f"E{i}" for i in range(len(report.energies))],
                [[report.bc.value] + report.energy_row()],
            )
        print(f"wrote {cfg.out}")
    if args.dump_psi:
        _dump_wavefunctions(args.dump_psi, cfg, report)
        print(f"wrote {args.dump_psi}")
    if report.violations:
        for v in report.violations:
            print(f"hierarchy violation: {v}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _dump_wavefunctions(path: str, cfg: RunConfig, report: SolveReport) -> None:
    """x, psi0, psi2, psi_final and the reference solver's psi on the grid."""
    x = report.grid.nodes
    res = oracle_ground_state(
        PotentialParams(cfg.g, cfg.a), OracleConfig(L=max(6.0, cfg.x_max + 2.0))
    )
    columns = (x, report.psi0, report.psi0 * report.f2, report.psi_final, res.psi_at(x))
    _io.write_csv(path, cfg.as_dict(), ["x", "psi0", "psi2", "psi_final", "psi_oracle"],
                  np.column_stack(columns))


def _solve_row(row: reference.TableRow) -> tuple[SolveReport, float]:
    """Five iterations at a reference row's (g, a, bc), and the largest cell
    diff against the row's expected energies (its erratum where it has one)."""
    rep = solve(PotentialParams(row.g, row.a), Grid(), BoundaryCondition(row.bc),
                max_iter=5, tol=0.0)
    diff = max(abs(c - r) for c, r in zip(rep.energies[:6], reference.expected_energies(row)))
    return rep, diff


def cmd_table(args) -> int:
    which = args.which
    rows = reference.TABLES[which]
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    header = ["row"] + [f"E{i}" for i in range(6)] + ["max_abs_diff", "note"]
    out_rows = []
    worst = 0.0
    for row in rows:
        rep, diff = _solve_row(row)
        computed = rep.energies[:6]
        worst = max(worst, diff)
        note = ""
        if (row.origin, row.label) in reference.ERRATA:
            published = max(abs(c - r) for c, r in zip(computed, row.energies))
            note = f"known-discrepant-reference; published row off by {published:.1e}"
        out_rows.append(
            [row.label] + [f"{e:.4f}" for e in computed] + [f"{diff:.1e}", note]
        )
        print(f"{row.label:8s} " + " ".join(f"{e:.4f}" for e in computed)
              + f"   max|diff| = {diff:.1e}" + (f"  [{note}]" if note else ""))
    path = os.path.join(out_dir, f"table{which}.csv")
    _io.write_csv(path, {"table": which}, header, out_rows)
    print(f"wrote {path}")
    print(f"worst cell diff over all rows: {worst:.2e}")
    return EXIT_OK


def cmd_region(args) -> int:
    rep = region.trace_curves(resolution=args.resolution)
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    plane = {"beta_zero": "x", "gamma_zero": "x",
             "alpha_tilde_zero": "z", "beta_tilde_zero": "z", "gamma_tilde_zero": "z"}
    for name, pts in rep.curves.items():
        path = os.path.join(out_dir, f"{name}.csv")
        _io.write_csv(path, {"resolution": args.resolution, "curve": name},
                      ["a", plane[name]], pts)
        print(f"wrote {path} ({len(pts)} points)")
    doc = rep.to_json_dict()
    doc["a_g_sweep"] = [
        {"g": float(g), "a_g": region.find_a_g(float(g))}
        for g in np.linspace(0.5, 5.0, 19)
    ]
    path = os.path.join(out_dir, "region.json")
    _io.write_json(path, doc)
    print(f"wrote {path}")
    print(f"a_c = {rep.a_c:.4f} (bracket width {rep.a_c_width:.1e})")
    return EXIT_OK


def cmd_oracle(args) -> int:
    p = PotentialParams(args.g, args.a)
    res = oracle_ground_state(p, OracleConfig(L=args.L, n=args.n))
    census = peak_census(res.x, res.psi)
    print(f"E = {res.energy:.6f} +/- {res.error_estimate:.1e}   shape: {census.kind}")
    if args.out:
        _io.write_csv(args.out, {"g": args.g, "a": args.a, "L": args.L, "n": args.n},
                      ["x", "psi"], np.column_stack((res.x, res.psi)))
        print(f"wrote {args.out}")
    return EXIT_OK


def _check(name: str, ok: bool, detail: str, results: list) -> None:
    results.append((name, ok, detail))
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def cmd_verify(args) -> int:
    """Run the full invariant suite; exit 0 only if every check passes."""
    results: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(20250810)
    a_s = rng.uniform(1e-6, 5.0, 10000)
    x_s = rng.uniform(0.0, 4.0, 10000)

    # the u and u' factorization identities, and the gamma_tilde table
    # against the u' one away from x=1
    res_u, res_u_prime, res_table = region.identity_residuals(a_s, x_s)
    _check("u-factorization-identity", res_u <= 1e-9, f"max rel residual {res_u:.2e}", results)
    _check("uprime-factorization-identity", res_u_prime <= 1e-9,
           f"max rel residual {res_u_prime:.2e}", results)
    _check("gamma-tilde-table", res_table <= 1e-8, f"max rel residual {res_table:.2e}", results)

    s3 = region.verify_section3_positivity()
    _check("a2-positivity-chain", s3.all_positive and s3.inequality_holds,
           f"min combination {s3.min_combination:.3e} at x={s3.argmin_x:.3f}", results)

    xs = np.linspace(1e-3, 10.0, 10000)
    up_closed = region.u_prime_a2(xs)
    up_gen = region.eval_u_prime(2.0, xs)
    rel = np.abs(up_closed - up_gen) / np.abs(up_gen)
    _check("uprime-a2-route-match", float(rel.max()) <= 1e-9,
           f"max rel diff {float(rel.max()):.2e}", results)
    _check("uprime-a2-negative", bool(np.all(up_gen < 0.0)),
           f"max u' {float(up_gen.max()):.3e}", results)

    ok_u = True
    worst = math.inf
    for a in (0.1, 0.664, 1.0, 2.0, 3.0, 10.0):
        u = eval_u(PotentialParams(1.0, a), np.linspace(0.0, 6.0, 4000))
        worst = min(worst, float(u.min()))
        ok_u = ok_u and bool(np.all(u > 0.0))
    _check("u-positive-all-a", ok_u, f"min u over sweeps {worst:.3e}", results)

    ac = region.find_a_c()
    _check("critical-shape-value", 0.654 <= ac.a_c <= 0.674 and ac.width <= 1e-3,
           f"a_c = {ac.a_c:.4f}, width {ac.width:.1e}", results)

    for row in reference.TABLE1:
        rep, diff = _solve_row(row)
        _check(f"table1-bc{row.bc}", diff <= 5e-4 and not rep.violations,
               f"max cell diff {diff:.1e}, violations {len(rep.violations)}", results)

    rep = solve(PotentialParams(1.0, 2.0), Grid(), BoundaryCondition.II, max_iter=8)
    res = oracle_ground_state(PotentialParams(1.0, 2.0))
    gap = abs(rep.energies[-1] - res.energy)
    bracket_ok = rep.energies[2] - 1e-9 <= res.energy <= rep.energies[3] + 1e-9
    _check("oracle-cross-check", gap <= 5e-4 and bracket_ok,
           f"converged-vs-reference gap {gap:.1e}, bracketing {bracket_ok}", results)

    exact = np.exp(-res.x**4 / 4.0)
    dev = float(np.max(np.abs(res.psi - exact)))
    _check("exact-case", abs(res.energy - 1.0) <= 1e-4 and dev <= 1e-4,
           f"|E-1| = {abs(res.energy - 1.0):.1e}, max|psi-exact| = {dev:.1e}", results)

    # demonstration of the guard outside the region (not counted as a failure)
    sup = float(region.eval_u_prime(0.3, xs).max())
    print(f"EXPECTED-FAIL (demo) uprime-negative at a=0.3: sup u' = {sup:.3e} > 0 "
          "(outside the monotone region, as it should be)")

    n_fail = sum(1 for _, ok, _ in results if not ok)
    print(f"verify: {len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gdwell",
        description="Ground state of the generalized double-well potential "
                    "(g^2/2)(x^2-1)^2(x^2+a) by convergent iteration, with "
                    "runtime verification of its monotone-convergence guarantees.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run the iteration for one (g, a)")
    s.add_argument("--g", type=float)
    s.add_argument("--a", type=float)
    s.add_argument("--bc", choices=["I", "II"])
    s.add_argument("--x-max", dest="x_max", type=float)
    s.add_argument("--n-points", dest="n_points", type=int,
                   help=f"intervals per panel (even, 8 to {MAX_N_PER_PANEL}); "
                        "the grid has 2n+1 nodes")
    s.add_argument("--tol", type=float)
    s.add_argument("--max-iter", dest="max_iter", type=int)
    s.add_argument("--out")
    s.add_argument("--format", choices=["json", "csv"])
    s.add_argument("--config", help="JSON file with the same keys; flags override")
    s.add_argument("--dump-psi", help="CSV of x, psi0, psi2, psi_final, psi_oracle")
    s.set_defaults(fn=cmd_solve)

    t = sub.add_parser("table", help="recompute a built-in reference table and diff it")
    t.add_argument("which", type=int, choices=[1, 2, 3])
    t.add_argument("--out-dir")
    t.set_defaults(fn=cmd_table)

    r = sub.add_parser("region", help="trace convergence-region curves and a_c")
    r.add_argument("--resolution", type=int, default=200)
    r.add_argument("--out-dir")
    r.set_defaults(fn=cmd_region)

    o = sub.add_parser("oracle", help="independent sinc-DVR ground state")
    o.add_argument("--g", type=float, required=True)
    o.add_argument("--a", type=float, required=True)
    o.add_argument("--L", type=float, default=6.0,
                   help="cap on the half-domain, otherwise set by the WKB tail")
    o.add_argument("--n", type=int, default=4000,
                   help="cap on the node count across the domain (>= 500)")
    o.add_argument("--out")
    o.set_defaults(fn=cmd_oracle)

    v = sub.add_parser("verify", help="run the full invariant/identity suite")
    v.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NonFiniteOutputError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ConvergenceDomainError, GridError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GdwellError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
