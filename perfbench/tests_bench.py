"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q perfbench/tests_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from gdwell import region  # noqa: E402

# wrapped names each workload must reach; the rest of spans.TARGETS is
# reached by none at this commit (the oracle imports eval_potential itself)
SOLVE_PATH = {
    "gdwell.solver.solve", "gdwell.solver.build_trial", "gdwell.solver.energy_step",
    "gdwell.solver.f_step", "gdwell.solver.check_hierarchy",
    "gdwell.solver.nested_origin", "gdwell.solver.nested_tail",
    "gdwell.solver.integrate_against_phi2",
    *(f"gdwell.closed_forms.{n}" for n in (
        "eval_S0", "eval_S0_mirror", "eval_S0_prime", "eval_S1", "eval_S1_prime",
        "eval_u", "eval_ghat")),
}
EXPECTED = {
    "paper_tables": SOLVE_PATH | {
        "gdwell.oracle.oracle_ground_state", "gdwell.oracle.peak_census",
        "gdwell.solver.SolveReport.to_json_dict", "gdwell._io.write_json"},
    "strong_coupling": SOLVE_PATH,
    "region_map": {
        "gdwell.region.trace_curves", "gdwell.region.find_a_c", "gdwell.region.find_a_g",
        "gdwell.region.RegionReport.to_json_dict", "gdwell._io.write_json"},
}
NOT_CALLED = {"gdwell.closed_forms.eval_potential", "gdwell.closed_forms.eval_w",
              "gdwell.closed_forms.eval_S1_prime_quotient"}


def _sup_u_prime(a: float) -> float:
    x = np.linspace(1e-3, 5.0, 20001)
    return float(np.max(region.eval_u_prime(a, x)))


def test_a_c_reference_is_the_sextic_root():
    a, s = sp.symbols("a s")
    # gamma_tilde's coefficients are integer polynomials in a of degree <= 6;
    # recover them exactly from the package's table at a = 0..7
    coeffs = [
        sp.interpolate(
            [(i, sp.Integer(round(float(region.gamma_tilde_coeffs(float(i))[k]))))
             for i in range(8)], a)
        for k in range(7)
    ]
    disc = sp.discriminant(sp.Poly(sum(c * s**k for k, c in enumerate(coeffs)), s))
    sextics = [f for f, _ in sp.factor_list(disc)[1] if sp.degree(f, a) == 6]
    assert len(sextics) == 1
    roots = [sp.N(r, 30) for r in sp.Poly(sextics[0], a).real_roots() if 0.3 < r < 1.0]
    ref = sp.Float(wl.A_C_REF, 30)
    (a_c,) = [r for r in roots if abs(r - ref) < sp.Float("1e-24")]
    assert abs(a_c - sp.Float("0.66377071781175")) < 1e-14
    # the sign of u' selects it: sup u' changes sign there, and not at the
    # other root in (0.3, 1)
    assert _sup_u_prime(float(a_c) - 1e-6) > 0.0 > _sup_u_prime(float(a_c) + 1e-6)
    for other in (r for r in roots if r != a_c):
        assert _sup_u_prime(float(other) - 1e-4) > 0.0
        assert _sup_u_prime(float(other) + 1e-4) > 0.0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    assert wl.generate(workload, 7) == wl.generate(workload, 7)
    assert wl.generate(workload, 7) != wl.generate(workload, 8)


def test_every_wrapped_name_is_expected_somewhere():
    ids = {spans.target_id(owner, attr) for owner, attr, _, _ in spans.TARGETS}
    assert ids == set().union(*EXPECTED.values()) | NOT_CALLED


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_wrapped_names_reached(workload, tmp_path):
    ops = wl.generate(workload, 3)
    if workload == "strong_coupling":
        ops = [op for op in ops if op.n_per_panel == 2000]
    elif workload == "region_map":
        ops = [min(ops, key=lambda op: op.resolution)]
    refs = wl.references(ops)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for op in ops:
            path = wl.out_file(str(tmp_path), op)
            wl.check(op, wl.run_op(op, path)[1], path, refs)
    assert set(tracer.reached) == EXPECTED[workload]
    # the wrappers are gone again
    assert wl.solver.solve.__module__ == "gdwell.solver"
    assert not hasattr(wl.solver.solve, "__wrapped__")


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
        sum(range(20000))
    secs, calls = tracer.self_seconds()
    (_, _, _, o0, o1), (_, _, parent, i0, i1) = tracer.spans
    assert parent == 0
    assert secs["inner"] == pytest.approx(i1 - i0)
    assert secs["outer"] == pytest.approx((o1 - o0) - (i1 - i0))
    assert calls == {"outer": 1, "inner": 1}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_names_every_metric(trace):
    proc = _run(ROOT, "--workload", "strong_coupling", "--seed", "5",
                "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = bench["per_layer" if trace == "1" else "end_to_end"]
    assert res["metrics"] == {
        m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in want}
    assert res["correct"] is True
    # 120 ops per pass; the same inputs fail the same way every run
    assert res["attempted"] == 120
    assert 0 < res["failed"] < 120
    if trace == "1":
        layers = {k: v["value"] for k, v in res["metrics"].items()}
        assert layers["oracle.calls"] == 0.0 and layers["oracle.ground_state_ms"] == 0.0
        assert layers["fail_ratio"] == res["failed"] / res["attempted"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "paper_tables", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
