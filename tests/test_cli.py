"""Command-line behavior: printed sequences, exit codes, file outputs,
determinism, and config handling."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gdwell
from gdwell import Grid, OracleConfig, PotentialParams, oracle_ground_state, solve
from gdwell import reference
from gdwell._io import format_float
from gdwell.closed_forms import find_a_g
from gdwell.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_table1_row_ii_sequence(self, capsys):
        code, out, _ = run(capsys, "solve", "--g", "1", "--a", "2", "--bc", "II")
        assert code == 0
        assert out.split()[:6] == ["1.7321", "1.0163", "0.9981", "1.0002", "1.0000", "1.0000"]

    def test_table1_row_i_sequence(self, capsys):
        code, out, _ = run(capsys, "solve", "--g", "1", "--a", "2", "--bc", "I")
        assert code == 0
        toks = out.split()
        assert toks[0] == "1.7321"
        assert toks[1] == "1.0163"
        assert abs(float(toks[2]) - 1.0031) <= 5e-4
        assert abs(float(toks[3]) - 1.0005) <= 5e-4

    def test_mixing_constraint_rejected_with_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--g", "1", "--a", "1", "--bc", "II")
        assert code == 2
        assert "g*a > sqrt(1+a)" in err

    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    def test_max_iter_below_one_exit_2(self, capsys, tmp_path, max_iter):
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "solve", "--max-iter", max_iter, "--out", str(out))
        assert code == 2
        assert "configuration error" in err and "max_iter" in err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_negative_or_nan_tol_exit_2(self, capsys, tmp_path, tol):
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "solve", "--tol", tol, "--out", str(out))
        assert code == 2
        assert "configuration error" in err and "tol" in err
        assert not out.exists()

    def test_json_report_and_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            code, _, _ = run(capsys, "solve", "--g", "1", "--a", "2", "--bc", "II",
                             "--out", str(out))
            assert code == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        doc = json.loads(b1)
        assert doc["schema"] == "gdwell-solve-report-v3"
        assert "f_final" not in doc
        assert doc["config"]["bc"] == "II"
        assert doc["converged"] is True

    def test_csv_report(self, capsys, tmp_path):
        out = tmp_path / "row.csv"
        code, _, _ = run(capsys, "solve", "--g", "1", "--a", "2", "--bc", "II",
                         "--out", str(out), "--format", "csv")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# schema=gdwell-csv-v1")
        assert lines[1].startswith("bc,E0,E1")
        assert lines[2].split(",")[1] == "1.7321"

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": 1.0, "a": 2.0, "bc": "II"}))
        code, out, _ = run(capsys, "solve", "--config", str(cfg), "--bc", "I")
        assert code == 0
        assert abs(float(out.split()[2]) - 1.0031) <= 5e-4  # row I shape

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"coupling": 1.0}))
        code, _, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err

    @pytest.mark.parametrize("bad", [
        {"n_points": "2000"},
        {"n_points": 2000.0},
        {"n_points": True},
        {"g": True},
        {"g": "1"},
        {"bc": 2},
        {"format": None},
        {"out": 1.5},
        [1.0, 2.0],
    ], ids=repr)
    def test_config_value_of_wrong_type_exit_2(self, capsys, tmp_path, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        code, _, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "configuration error" in err

    def test_config_file_takes_int_for_float_and_null_out(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": 1, "a": 2, "out": None}))
        code, out, _ = run(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert out.split()[:2] == ["1.7321", "1.0163"]

    def test_same_run_to_two_paths_gives_identical_csv(self, capsys, tmp_path):
        # the preamble holds the run keys, not where or how the run is written
        for d in ("d1", "d2"):
            (tmp_path / d).mkdir()
            code, _, _ = run(capsys, "solve", "--n-points", "400", "--format", "csv",
                             "--out", str(tmp_path / d / "s.csv"),
                             "--dump-psi", str(tmp_path / d / "psi.csv"))
            assert code == 0
        for name in ("s.csv", "psi.csv"):
            b1 = (tmp_path / "d1" / name).read_bytes()
            assert b1 == (tmp_path / "d2" / name).read_bytes()
            assert b1.startswith(b"# schema=gdwell-csv-v1 g=1.0,a=2.0,bc=II,x_max=4.0,"
                                 b"n_points=400,tol=1e-06,max_iter=20\n")

    def test_infinite_tol_exit_2(self, capsys, tmp_path):
        # an infinite tol would reach the JSON report, which has no literal for it
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "solve", "--tol", "inf", "--out", str(out))
        assert code == 2
        assert "configuration error" in err and "tol" in err
        assert not out.exists()

    def test_psi_dump(self, capsys, tmp_path):
        out = tmp_path / "psi.csv"
        code, _, _ = run(capsys, "solve", "--g", "1", "--a", "2", "--bc", "II",
                         "--n-points", "400", "--dump-psi", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "x,psi0,psi2,psi_final,psi_oracle"
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0  # psi0(0)
        assert abs(float(first[4]) - 1.0) < 1e-12  # oracle psi normalized at 0
        # (1, 2) is the exact case psi = exp(-x^4/4); inside the oracle's
        # half-domain the column is the oracle's sinc interpolant
        data = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        x, psi_oracle = data[:, 0], data[:, 4]
        half = oracle_ground_state(PotentialParams(1.0, 2.0), OracleConfig(L=6.0)).x[-1]
        inside = x <= half
        assert inside.sum() > 700
        assert float(np.max(np.abs(psi_oracle - np.exp(-x**4 / 4.0))[inside])) <= 1e-10

    def test_psi_dump_iterate_columns(self, capsys, tmp_path):
        # psi2 and psi_final to the CSV's 17 digits: psi2 is psi_2 of the
        # run, and psi_1 when the run made one iterate
        def columns(*extra):
            out = tmp_path / "psi.csv"
            code, _, _ = run(capsys, "solve", "--g", "1", "--a", "2", "--bc", "II",
                             "--n-points", "400", "--dump-psi", str(out), *extra)
            assert code == 0
            return list(zip(*(line.split(",") for line in out.read_text().splitlines()[2:])))

        def cells(psi):
            return tuple(map(format_float, psi.tolist()))

        p, grid = PotentialParams(1.0, 2.0), Grid(4.0, 400)
        _, _, psi2, psi_final, _ = columns()
        assert psi2 == cells(solve(p, grid, max_iter=2, tol=0.0).psi_final)
        assert psi_final == cells(solve(p, grid).psi_final)
        # at (1, 2) psi_final is e^{-x^4/4}, and psi2 a distinct column
        final, second = np.array(psi_final, dtype=float), np.array(psi2, dtype=float)
        assert second[0] == 1.0
        assert float(np.max(np.abs(final - np.exp(-grid.nodes**4 / 4.0)))) <= 1e-6
        assert float(np.max(np.abs(second - final))) > 1e-4
        _, _, psi2, psi_final, _ = columns("--max-iter", "1", "--tol", "0")
        assert psi2 == psi_final == cells(solve(p, grid, max_iter=1, tol=0.0).psi_final)

    @pytest.mark.parametrize("x_max", ["inf", "nan"])
    def test_non_finite_x_max_exit_2(self, capsys, tmp_path, x_max):
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "solve", "--x-max", x_max, "--out", str(out))
        assert code == 2
        assert "configuration error" in err and "x_max" in err
        assert not out.exists()

    def test_too_coarse_grid_exit_2(self, capsys):
        # at g = 12 a 400-interval panel takes steps of 2 log phi beyond the cap
        code, _, err = run(capsys, "solve", "--g", "12", "--a", "2", "--n-points", "400")
        assert code == 2
        assert "configuration error" in err and "grid spacing too coarse" in err
        assert "use n_per_panel >= " in err

    def test_deep_well_exit_2(self, capsys):
        # at g = 1e150 no x_max helps; build_trial's psi0 overflow is left aside
        with np.errstate(over="ignore"):
            code, _, err = run(capsys, "solve", "--g", "1e150", "--a", "2")
        assert code == 2
        assert "configuration error" in err
        assert "the steps on [0, 1] need more intervals" in err and "decrease x_max" not in err

    @pytest.mark.parametrize("argv", [["--n-points", "100000000000000000000"],
                                      ["--x-max", "50"]])
    def test_grid_beyond_the_size_bound_exit_2(self, capsys, argv):
        code, _, err = run(capsys, "solve", *argv)
        assert code == 2
        assert "configuration error" in err and f"MAX_N_PER_PANEL = {2**20}" in err

    def test_a_whose_fourth_power_overflows_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--g", "2", "--a", "1e300", "--n-points", "400")
        assert code == 2
        assert "configuration error" in err and "shape parameter a" in err

    @pytest.mark.parametrize("flag", ["--out", "--config"])
    def test_directory_as_file_path_exit_2(self, capsys, tmp_path, flag):
        code, _, err = run(capsys, "solve", "--n-points", "200", flag, str(tmp_path))
        assert code == 2
        assert "configuration error" in err


def src_env() -> dict:
    """The environment with gdwell's source directory first on PYTHONPATH,
    for a fresh interpreter."""
    src = str(Path(gdwell.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def test_import_solve_and_region_never_load_scipy(tmp_path):
    # scipy is a test-only dependency: no command may load it
    out = str(tmp_path)
    code = (
        "import sys, gdwell, gdwell.cli\n"
        "assert gdwell.cli.main(['solve', '--n-points', '200']) == 0\n"
        f"assert gdwell.cli.main(['region', '--resolution', '50', '--out-dir', {out!r}]) == 0\n"
        "assert gdwell.cli.main(['oracle', '--g', '3', '--a', '2']) == 0\n"
        "assert gdwell.cli.main(['verify']) == 0\n"
        f"assert gdwell.cli.main(['table', '2', '--out-dir', {out!r}]) == 0\n"
        "assert gdwell.cli.main(['solve', '--n-points', '200', '--dump-psi', "
        f"{str(tmp_path / 'psi.csv')!r}]) == 0\n"
        "print('loaded:', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "loaded: []"


def test_solve_prints_each_warning_once(tmp_path):
    # Python's warning display prints it; the report keeps it as data
    out = tmp_path / "r.json"
    argv = ["solve", "--g", "3", "--a", "0.6", "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "gdwell", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    text = "a = 0.6 is at or below the critical shape value"
    assert proc.stderr.count(text) == 1, proc.stderr
    assert [w[: len(text)] for w in json.loads(out.read_text())["warnings"]] == [text]


def test_python_m_gdwell_runs_the_cli(capsys):
    argv = ["solve", "--g", "1", "--a", "2", "--n-points", "400"]
    proc = subprocess.run([sys.executable, "-m", "gdwell", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert proc.stdout == out


class TestTableCommand:
    def test_table1_reproduces(self, capsys, tmp_path):
        code, out, _ = run(capsys, "table", "1", "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "table1.csv").exists()
        worst = float(out.splitlines()[-1].split()[-1])
        assert worst <= 5e-4

    def test_table2_flags_known_discrepant_row(self, capsys, tmp_path):
        code, out, _ = run(capsys, "table", "2", "--out-dir", str(tmp_path))
        assert code == 0
        assert "known-discrepant-reference" in out
        assert "known-discrepant-reference" in (tmp_path / "table2.csv").read_text()
        worst = float(out.splitlines()[-1].split()[-1])
        assert worst <= 5e-4  # over the reproducible rows

    def test_table3_reproduces(self, capsys, tmp_path):
        code, out, _ = run(capsys, "table", "3", "--out-dir", str(tmp_path))
        assert code == 0
        worst = float(out.splitlines()[-1].split()[-1])
        assert worst <= 5e-4

    def test_row_off_by_more_than_the_cell_tolerance_exit_1(self, capsys, tmp_path,
                                                            monkeypatch):
        # row II's expected energies moved by 1e-3, twice reference.CELL_TOL
        expected = reference.expected_energies
        monkeypatch.setattr(reference, "expected_energies", lambda row: tuple(
            e + 1e-3 * (row.label == "II") for e in expected(row)))
        code, _, err = run(capsys, "table", "1", "--out-dir", str(tmp_path))
        assert code == 1
        assert err.startswith("table 1 row failed: II (max cell diff 1.")
        assert len(err.splitlines()) == 1
        assert (tmp_path / "table1.csv").exists()

    def test_file_as_out_dir_exit_2(self, capsys, tmp_path):
        out_dir = tmp_path / "taken"
        out_dir.write_text("")
        code, _, err = run(capsys, "table", "1", "--out-dir", str(out_dir))
        assert code == 2
        assert "configuration error" in err


class TestRegionCommand:
    def test_outputs(self, capsys, tmp_path):
        code, out, _ = run(capsys, "region", "--resolution", "60",
                           "--out-dir", str(tmp_path))
        assert code == 0
        for name in ("beta_zero", "gamma_zero", "alpha_tilde_zero",
                      "beta_tilde_zero", "gamma_tilde_zero"):
            path = tmp_path / f"{name}.csv"
            assert path.exists()
            rows = path.read_text().splitlines()
            assert len(rows) - 2 >= 60  # preamble + header
        doc = json.loads((tmp_path / "region.json").read_text())
        assert 0.654 <= doc["a_c"] <= 0.674
        sweep = {round(e["g"], 3): e["a_g"] for e in doc["a_g_sweep"]}
        assert sweep[2.0] == pytest.approx((1.0 + math.sqrt(17.0)) / 8.0, rel=1e-12)

    def test_csv_rows_equal_the_json_curve_points(self, capsys, tmp_path):
        code, _, _ = run(capsys, "region", "--resolution", "60", "--out-dir", str(tmp_path))
        assert code == 0
        curves = json.loads((tmp_path / "region.json").read_text())["curves"]
        for name, points in curves.items():
            rows = list(csv.reader((tmp_path / f"{name}.csv").read_text().splitlines()[2:]))
            assert [[float(v) for v in row] for row in rows] == points, name


class TestOracleCommand:
    def test_prints_energy_and_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "psi.csv"
        code, text, _ = run(capsys, "oracle", "--g", "1", "--a", "2",
                            "--n", "1500", "--out", str(out))
        assert code == 0
        assert text.startswith("E = 1.0000")
        assert "single-at-0" in text
        assert out.exists()

    def test_default_n_writes_the_exact_ground_state(self, capsys, tmp_path):
        # at (1, 2) psi is e^{-x^4/4} and E = 1
        out = tmp_path / "o.csv"
        code, text, _ = run(capsys, "oracle", "--g", "1", "--a", "2", "--out", str(out))
        assert code == 0
        assert text.startswith("E = 1.000000 ")
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert len(rows) > 100
        dev = max(abs(float(r["psi"]) - math.exp(-float(r["x"]) ** 4 / 4.0)) for r in rows)
        assert dev <= 1e-4

    @pytest.mark.parametrize("g,a", [("inf", "2"), ("2", "inf")])
    def test_non_finite_parameter_exit_2(self, capsys, g, a):
        code, _, err = run(capsys, "oracle", "--g", g, "--a", a)
        assert code == 2
        assert "configuration error" in err and "finite" in err

    @pytest.mark.parametrize("g", ["1e200", "1e-200"])
    def test_g_whose_square_is_not_finite_and_nonzero_exit_2(self, capsys, g):
        code, _, err = run(capsys, "oracle", "--g", g, "--a", "2")
        assert code == 2
        assert "configuration error" in err and "coupling g" in err

    def test_nan_L_exit_2(self, capsys):
        code, _, err = run(capsys, "oracle", "--g", "1", "--a", "2", "--L", "nan")
        assert code == 2
        assert "configuration error" in err and "L must" in err


VERIFY_CHECKS = [
    "u-factorization-identity", "uprime-factorization-identity", "gamma-tilde-table",
    "a2-positivity-chain", "uprime-a2-route-match", "uprime-a2-negative", "u-positive-all-a",
    "critical-shape-value", "table1-bcI", "table1-bcII", "oracle-cross-check", "exact-case",
]


def verdicts(out: str) -> list[tuple[str, str]]:
    """The (PASS or FAIL, check name) of each verdict line of verify's output."""
    return [(line.split()[0], line.split()[1].rstrip(":")) for line in out.splitlines()
            if line.split()[:1] in (["PASS"], ["FAIL"])]


class TestVerifyCommand:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0, out
        assert "FAIL" not in [line.split()[0] for line in out.splitlines() if line]
        assert "EXPECTED-FAIL (demo)" in out
        assert "checks passed" in out

    def test_one_verdict_line_per_check(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0, out
        assert verdicts(out) == [("PASS", name) for name in VERIFY_CHECKS]
        assert out.splitlines()[-1] == "verify: 12/12 checks passed"

    def test_one_failing_check_exits_1(self, capsys, monkeypatch):
        import dataclasses

        import gdwell.cli as cli

        real = cli.region.find_a_c
        monkeypatch.setattr(cli.region, "find_a_c",
                            lambda: dataclasses.replace(real(), a_c=0.5))
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "FAIL critical-shape-value: a_c = 0.5000, width 2.2e-16" in out.splitlines()
        assert verdicts(out) == [("FAIL" if name == "critical-shape-value" else "PASS", name)
                                 for name in VERIFY_CHECKS]
        assert out.splitlines()[-1] == "verify: 11/12 checks passed"


class TestViolationExitCode:
    def test_solve_exits_1_on_hierarchy_violations(self, capsys, monkeypatch):
        import gdwell.cli as cli
        from gdwell.solver import HierarchyViolation

        real_solve = cli.solve

        def doctored(*args, **kwargs):
            rep = real_solve(*args, **kwargs)
            rep.violations = [HierarchyViolation("energy-ascending", "injected", 1.0)]
            return rep

        monkeypatch.setattr(cli, "solve", doctored)
        code = cli.main(["solve", "--g", "1", "--a", "2", "--bc", "II",
                         "--n-points", "200"])
        captured = capsys.readouterr()
        assert code == 1
        assert "hierarchy violation" in captured.err

    def test_non_finite_report_exits_3_and_writes_nothing(self, capsys, monkeypatch, tmp_path):
        import gdwell.cli as cli

        real_solve = cli.solve

        def doctored(*args, **kwargs):
            rep = real_solve(*args, **kwargs)
            rep.psi0 = rep.psi0.copy()
            rep.psi0[7] = np.inf
            return rep

        monkeypatch.setattr(cli, "solve", doctored)
        out = tmp_path / "r.json"
        code = cli.main(["solve", "--g", "1", "--a", "2", "--bc", "II",
                         "--n-points", "200", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert "numeric error" in captured.err and "inf" in captured.err
        assert not out.exists()

    def test_non_finite_psi_dump_exits_3_and_writes_nothing(self, capsys, monkeypatch,
                                                            tmp_path):
        """The CSV writer refuses an inf cell as the JSON writer does."""
        import gdwell.cli as cli

        real_solve = cli.solve

        def doctored(*args, **kwargs):
            rep = real_solve(*args, **kwargs)
            rep.psi0 = rep.psi0.copy()
            rep.psi0[-3] = np.inf
            return rep

        monkeypatch.setattr(cli, "solve", doctored)
        out = tmp_path / "psi.csv"
        code = cli.main(["solve", "--g", "1", "--a", "2", "--bc", "II",
                         "--n-points", "200", "--dump-psi", str(out)])
        captured = capsys.readouterr()
        assert code == 3
        assert "numeric error" in captured.err and "inf" in captured.err
        assert not out.exists()

    def test_one_iterate_run_exits_1(self, capsys):
        # just above a_g(5), below the critical shape value, f_1 rises in x
        a = repr(1.001 * find_a_g(5.0))
        with pytest.warns(gdwell.OutsideRegionWarning):
            code, _, err = run(capsys, "solve", "--g", "5", "--a", a, "--n-points", "2000",
                               "--max-iter", "1", "--tol", "0")
        assert code == 1
        assert "f_1 increases in x" in err and "f_1/f_0" not in err
