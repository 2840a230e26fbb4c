"""Acceptance gate: every shipped guarantee, each at its stated tolerance,
one printed PASS/FAIL line per criterion.

Criterion 2 checks table 2's (g=1, a=1.8) row against its erratum in
gdwell.reference.ERRATA, not against the published row.  The published row
prints E_5 = 0.9431, but the converged energy for those parameters is 0.9453
by this iteration and by the sinc-DVR oracle, and adaptive
quadrature of the first step gives E_1 = 0.9579, not 0.9558; only its
E_0 = sqrt(2.8) fits a = 1.8.  The same test checks the erratum against
those independent routes, and checks that the published row still has
a = 1.8's E_0 and still misses the oracle, so it fails once the erratum is
no longer needed.
"""

import math
import time

import numpy as np
import pytest

from conftest import first_step_energy
from gdwell import (
    BoundaryCondition,
    Grid,
    PotentialParams,
    peak_census,
    solve,
)
from gdwell.region import (
    eval_u_prime,
    find_a_c,
    identity_residuals,
    u_prime_a2,
    verify_section3_positivity,
)
from gdwell.reference import ERRATA, TABLE1, TABLE2, TABLE3, TABLES, expected_energies

CELL_TOL = 5e-4
SLACK = 1e-9

ALL_CASES = [
    (1.0, 2.0, "I"),
    (1.0, 2.0, "II"),
    (1.0, 1.8, "II"),
    (1.0, 3.0, "II"),
    (0.88, 2.0, "II"),
    (2.0, 2.0, "II"),
    (3.0, 2.0, "II"),
]


def record(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid}: {detail}"


def row_energies(g, a, bc):
    rep = solve(PotentialParams(g, a), Grid(), BoundaryCondition(bc), max_iter=5, tol=0.0)
    return rep.energies[:6]


def test_criterion_1_table1_reproduction():
    t0 = time.perf_counter()
    diffs = []
    for row in TABLE1:
        got = row_energies(row.g, row.a, row.bc)
        diffs.append(max(abs(c - r) for c, r in zip(got, row.energies)))
    elapsed = time.perf_counter() - t0
    ok = max(diffs) <= CELL_TOL and elapsed < 10.0
    record("1 (table 1)", ok,
           f"max cell diff {max(diffs):.1e} (tol {CELL_TOL}), runtime {elapsed:.2f}s")


def test_first_step_quadrature_reproduces_published_e1():
    # vouches for first_step_energy as the independent route that checks
    # the erratum's E1 in criterion 2
    diffs = {
        f"{row.origin}/{row.label}": abs(first_step_energy(row.g, row.a) - row.energies[1])
        for rows in TABLES.values() for row in rows
        if (row.origin, row.label) not in ERRATA
    }
    worst = max(diffs, key=diffs.get)
    assert diffs[worst] <= CELL_TOL, f"{worst}: E1 off by {diffs[worst]:.1e}"


@pytest.mark.parametrize("row", TABLE2, ids=[r.label for r in TABLE2])
def test_criterion_2_table2_reproduction(row, oracle_cache):
    expected = expected_energies(row)
    got = row_energies(row.g, row.a, row.bc)
    diff = max(abs(c - r) for c, r in zip(got, expected))
    ok = diff <= CELL_TOL
    detail = (f"max cell diff {diff:.1e} (tol {CELL_TOL}); "
              f"computed E5 {got[5]:.4f} vs expected {expected[5]:.4f}")
    erratum = ERRATA.get((row.origin, row.label))
    if erratum is not None:
        e0 = round(row.g * math.sqrt(1.0 + row.a), 4)
        e1_quad = first_step_energy(row.g, row.a)
        e_oracle = oracle_cache(row.g, row.a).energy
        published_miss = abs(row.energies[5] - e_oracle)
        ok = (ok
              and erratum.energies[0] == e0 == row.energies[0]
              and abs(erratum.energies[1] - e1_quad) <= CELL_TOL
              and abs(erratum.energies[5] - e_oracle) <= CELL_TOL
              and published_miss > CELL_TOL)
        detail += (f"; erratum E0 {erratum.energies[0]:.4f}, published E0 "
                   f"{row.energies[0]:.4f}, g sqrt(1+a) {e0:.4f}; erratum E1 "
                   f"{erratum.energies[1]:.4f} vs quadrature {e1_quad:.5f}; erratum "
                   f"E5 {erratum.energies[5]:.4f} vs oracle {e_oracle:.5f}; published "
                   f"E5 {row.energies[5]:.4f} misses the oracle by {published_miss:.1e}")
    record(f"2 (table 2, {row.label})", ok, detail)


@pytest.mark.parametrize("row", TABLE3, ids=[r.label for r in TABLE3])
def test_criterion_3_table3_reproduction(row):
    got = row_energies(row.g, row.a, row.bc)
    diff = max(abs(c - r) for c, r in zip(got, row.energies))
    record(f"3 (table 3, {row.label})", diff <= CELL_TOL,
           f"max cell diff {diff:.1e} (tol {CELL_TOL}); "
           f"computed E5 {got[5]:.4f} vs published {row.energies[5]:.4f}")


def test_criterion_4_exact_solution(oracle_cache, solve_cache):
    res = oracle_cache(1.0, 2.0)
    e_err = abs(res.energy - 1.0)
    psi_err = float(np.max(np.abs(res.psi - np.exp(-res.x**4 / 4.0))))
    rep = solve_cache(1.0, 2.0, "II")
    assert rep.iterations >= 4
    x = rep.grid.nodes
    exact = np.exp(-x**4 / 4.0)
    hier_err = float(np.max(np.abs(rep.psi_n(4) - exact)))
    ok = e_err <= 1e-4 and psi_err <= 1e-4 and hier_err <= 2e-3
    record("4 (exact case)", ok,
           f"|E-1| = {e_err:.1e} (tol 1e-4), reference-psi dev {psi_err:.1e} "
           f"(tol 1e-4), iterated-psi dev {hier_err:.1e} (tol 2e-3)")


def test_criterion_5_hierarchy_properties(solve_cache, oracle_cache):
    worst = math.inf
    details = []
    for g, a, bc in ALL_CASES:
        rep = solve_cache(g, a, bc)
        ce = rep.curly_energies
        fs = [np.ones(rep.grid.n_points)] + list(rep.f_history)
        if bc == "I":
            worst = min(worst, min(ce[i + 1] - ce[i] for i in range(len(ce) - 1)))
            for n in range(1, len(fs)):
                worst = min(worst, float((fs[n] - 1.0).min()))
                if n >= 2:
                    worst = min(worst, float((fs[n] - fs[n - 1]).min()))
        else:
            odd, even = ce[0::2], ce[1::2]
            worst = min(worst, min(odd[i + 1] - odd[i] for i in range(len(odd) - 1)))
            worst = min(worst, min(even[i] - even[i + 1] for i in range(len(even) - 1)))
            worst = min(worst, min(even) - max(odd))
            e = rep.energies
            e_true = oracle_cache(g, a).energy
            chain = [e[2], e[4], e_true, e[3], e[1]]
            worst = min(worst, min(b - a_ for a_, b in zip(chain, chain[1:])))
        if rep.violations:
            details.append(f"{(g, a, bc)}: {len(rep.violations)} ledger violations")
    ok = worst >= -SLACK and not details
    record("5 (hierarchy suite)", ok,
           f"smallest inequality slack {worst:+.2e} (allowed {-SLACK:+.0e})"
           + ("; " + "; ".join(details) if details else ""))


def test_criterion_6_factorization_identities():
    # residuals are relative to the combined magnitude of the summed terms
    # (the subtractions cancel by construction)
    rng = np.random.default_rng(20250810)
    a = rng.uniform(1e-6, 5.0, 10000)
    x = rng.uniform(0.0, 4.0, 10000)
    res1, res2, res3 = identity_residuals(a, x)
    ok = res1 <= 1e-9 and res2 <= 1e-9 and res3 <= 1e-8
    record("6 (identities)", ok,
           f"residuals {res1:.1e}, {res2:.1e} (tol 1e-9); table-vs-factorization "
           f"{res3:.1e} (tol 1e-8)")


def test_criterion_7_critical_shape_value():
    res = find_a_c()
    ok = 0.654 <= res.a_c <= 0.674 and res.width <= 1e-3
    record("7 (critical value)", ok, f"a_c = {res.a_c:.4f}, width {res.width:.1e}")


def test_criterion_8_positivity_and_slope():
    rep = verify_section3_positivity()
    x = np.linspace(1e-3, 10.0, 10000)
    closed = u_prime_a2(x)
    general = eval_u_prime(2.0, x)
    rel = float(np.max(np.abs(closed - general) / np.abs(general)))
    ok = (rep.all_positive and rep.inequality_holds and rel <= 1e-9
          and float(general.max()) < 0.0)
    record("8 (a=2 positivity/slope)", ok,
           f"min combination {rep.min_combination:.2e}, route mismatch {rel:.1e} "
           f"(tol 1e-9), max u' {float(general.max()):.2e}")


def test_criterion_9_peak_structure(solve_cache, oracle_cache):
    expectations = {
        (1.0, 2.0): "single-at-0",
        (1.0, 1.8): "single-at-0",
        (0.88, 2.0): "single-at-0",
        (1.0, 3.0): "double-near-1",
        (3.0, 2.0): "double-near-1",
    }
    bad = []
    for (g, a), kind in expectations.items():
        res = oracle_cache(g, a)
        got_oracle = peak_census(res.x, res.psi).kind
        rep = solve_cache(g, a, "II")
        got_hier = peak_census(rep.grid.nodes, rep.psi_final).kind
        if got_oracle != kind:
            bad.append(f"reference ({g},{a}): {got_oracle} != {kind}")
        if got_hier != kind:
            bad.append(f"iterated ({g},{a}): {got_hier} != {kind}")
    record("9 (peak structure)", not bad,
           "all five shapes as published" if not bad else "; ".join(bad))


def test_criterion_10_grid_robustness(solve_cache):
    worst = 0.0
    for g, a, bc in ALL_CASES:
        base = solve_cache(g, a, bc, 4.0, 2000, 30, 1e-9).energies[-1]
        dbl = solve_cache(g, a, bc, 4.0, 4000, 30, 1e-9).energies[-1]
        wide = solve_cache(g, a, bc, 5.0, 2000, 30, 1e-9).energies[-1]
        worst = max(worst, abs(dbl - base), abs(wide - base))
    record("10 (grid robustness)", worst <= 1e-6,
           f"largest converged-energy shift {worst:.1e} (tol 1e-6)")
