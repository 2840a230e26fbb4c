"""Iteration driver: energy/f steps against published values and mocks,
boundary-value exactness, hierarchy checking, and failure modes."""

import dataclasses
import hashlib
import re
import warnings

import numpy as np
import pytest

from gdwell import (
    BoundaryCondition,
    ConvergenceDomainError,
    DegenerateDenominatorError,
    GridError,
    NonConvergenceWarning,
    OutsideRegionWarning,
    PositivityLossError,
    PotentialParams,
)
from conftest import TABLE_CASES, iterates, nested_arrays
from gdwell import closed_forms as cf
from gdwell import quadrature
from gdwell import solver as solver_module
from gdwell.quadrature import integrate_against_phi2
from gdwell.solver import (
    check_hierarchy,
    energy_step,
    f_step,
    solve,
    w_samples,
)
from gdwell.trial import MAX_N_PER_PANEL, Grid, TrialFunction, build_trial

P12 = PotentialParams(1.0, 2.0)
# shapes just above a_g, below the critical shape value, where runs on fine
# grids break the hierarchy (or, at g = 10 under II, lose positivity)
A5, A3, A10 = 1.001 * cf.find_a_g(5.0), 1.001 * cf.find_a_g(3.0), 1.05 * cf.find_a_g(10.0)
# SHA-256 of the violation lists in TestHierarchy.test_violation_lists_are_pinned
PINNED_VIOLATIONS_SHA256 = "c68212df3cde46e6b0c74e38e9742428d149e97a749e2154a9a5c0d347977995"


def flat_trial(grid: Grid) -> TrialFunction:
    return TrialFunction(P12, grid, np.zeros(grid.n_points), np.ones(grid.n_points))


def const_samples(grid: Grid, c: float) -> np.ndarray:
    return np.full((2, grid.n_per_panel + 1), c)


class TestEnergyStep:
    def test_first_energy_matches_published_value(self):
        grid = Grid()
        t = build_trial(P12, grid)
        curly = energy_step(t, w_samples(P12, grid), np.ones(grid.n_points))
        assert P12.g * P12.E0 - curly == pytest.approx(1.0163, abs=5e-4)

    def test_first_energy_other_shape(self):
        p = PotentialParams(1.0, 3.0)
        grid = Grid()
        t = build_trial(p, grid)
        curly = energy_step(t, w_samples(p, grid), np.ones(grid.n_points))
        assert p.g * p.E0 - curly == pytest.approx(1.2974, abs=5e-4)

    def test_constant_w_mock(self):
        grid = Grid(4.0, 64)
        t = flat_trial(grid)
        c = 0.8125
        curly = energy_step(t, const_samples(grid, c), np.ones(grid.n_points))
        assert curly == pytest.approx(c, rel=1e-14)

    def test_degenerate_denominator(self):
        grid = Grid(4.0, 64)
        t = flat_trial(grid)
        with pytest.raises(DegenerateDenominatorError):
            energy_step(t, const_samples(grid, 1.0), -np.ones(grid.n_points))


class TestFStep:
    def test_bc_endpoints_pinned_to_one(self):
        grid = Grid()
        t = build_trial(P12, grid)
        w = w_samples(P12, grid)
        f0 = np.ones(grid.n_points)
        curly = energy_step(t, w, f0)
        f1_ii = f_step(t, w, curly, f0, BoundaryCondition.II)
        f1_i = f_step(t, w, curly, f0, BoundaryCondition.I)
        assert f1_ii[0] == 1.0
        assert f1_i[-1] == 1.0
        # a bc given by its value runs that boundary condition
        assert f_step(t, w, curly, f0, "I").tobytes() == f1_i.tobytes()

    @pytest.mark.parametrize("bc", [1, "III", None])
    def test_unknown_bc_rejected(self, bc):
        grid = Grid(4.0, 64)
        ones = np.ones(grid.n_points)
        with pytest.raises(ValueError):
            f_step(flat_trial(grid), const_samples(grid, 0.0), 0.0, ones, bc)
        with pytest.raises(ValueError):
            solve(P12, grid, bc)

    def test_second_iteration_bc_i_energy(self, solve_cache):
        rep = solve_cache(1.0, 2.0, "I")
        assert rep.energies[2] == pytest.approx(1.0031, abs=5e-4)

    def test_positivity_loss_raises(self):
        grid = Grid(4.0, 64)
        t = flat_trial(grid)
        with pytest.raises(PositivityLossError):
            f_step(t, const_samples(grid, 0.0), 100.0, np.ones(grid.n_points),
                   BoundaryCondition.II)
        with pytest.raises(PositivityLossError):
            f_step(t, const_samples(grid, 0.0), -100.0, np.ones(grid.n_points),
                   BoundaryCondition.I)


class TestSolve:
    def test_table1_row_ii(self, solve_cache):
        rep = solve_cache(1.0, 2.0, "II")
        expect = [1.7321, 1.0163, 0.9981, 1.0002, 1.0000, 1.0000]
        for got, ref in zip(rep.energies, expect):
            assert got == pytest.approx(ref, abs=5e-4)
        assert rep.converged
        assert not rep.violations

    def test_small_coupling_row(self, solve_cache):
        rep = solve_cache(0.88, 2.0, "II")
        assert rep.energies[5] == pytest.approx(0.8527, abs=5e-4)

    def test_shape_18_agrees_with_independent_solver(self, solve_cache, oracle_cache):
        # dual-route agreement (the published row for this shape is offset
        # by ~2.2e-3 from what the stated parameters give; the corrected row
        # and its evidence are in gdwell.reference.ERRATA)
        rep = solve_cache(1.0, 1.8, "II")
        res = oracle_cache(1.0, 1.8)
        assert rep.energies[-1] == pytest.approx(res.energy, abs=5e-4)

    def test_rejects_nonpositive_mixing(self):
        with pytest.raises(ConvergenceDomainError):
            solve(PotentialParams(1.0, 1.0), Grid(4.0, 16))

    def test_rejects_too_small_domain(self):
        with pytest.raises(GridError):
            solve(P12, Grid(1.5, 64), max_iter=2, tol=0.0)

    def test_warns_outside_monotone_region(self):
        # mildly outside the critical shape value: runs, but with a warning
        p = PotentialParams(2.2, 0.62)
        with pytest.warns(OutsideRegionWarning):
            rep = solve(p, Grid(4.0, 400), max_iter=2, tol=0.0)
        assert rep.warnings

    def test_warning_threshold_is_a_c(self):
        # a_c = 0.66377...: just above it no warning, just below it one
        def region_warnings(a):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                solve(PotentialParams(2.0, a), Grid(4.0, 400), max_iter=1, tol=0.0)
            return [w for w in caught if issubclass(w.category, OutsideRegionWarning)]

        assert not region_warnings(0.6639)
        assert region_warnings(0.6637)

    def test_positivity_loss_deep_outside_region(self):
        # far outside, the iterate turns negative and the run must stop
        with pytest.warns(OutsideRegionWarning):
            with pytest.raises(PositivityLossError):
                solve(PotentialParams(10.0, A10), Grid(4.0, 2000), max_iter=4, tol=0.0)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_rejects_max_iter_below_one(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            solve(P12, Grid(4.0, 64), max_iter=max_iter)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_rejects_negative_or_nan_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            solve(P12, Grid(4.0, 64), tol=tol)

    @pytest.mark.parametrize("max_iter", [2.5, True, "5"])
    def test_rejects_non_integer_or_bool_max_iter(self, max_iter):
        # True would otherwise run one iteration, 2.5 fail inside range()
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            solve(P12, Grid(4.0, 64), max_iter=max_iter)

    @pytest.mark.parametrize("tol", ["1e-6", True, None, 1j])
    def test_rejects_non_real_or_bool_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be a real number"):
            solve(P12, Grid(4.0, 64), tol=tol)

    def test_takes_numpy_integer_max_iter_and_float_tol(self):
        rep = solve(P12, Grid(4.0, 200), max_iter=np.int64(3), tol=np.float32(0.0))
        assert rep.iterations == 3

    def test_rejects_infinite_tol(self):
        with pytest.raises(ValueError, match="finite"):
            solve(P12, Grid(4.0, 64), tol=float("inf"))

    def test_warns_on_nonconvergence(self):
        with pytest.warns(NonConvergenceWarning):
            rep = solve(P12, Grid(4.0, 200), max_iter=2, tol=1e-12)
        assert not rep.converged

    def test_report_shape(self, solve_cache):
        rep = solve_cache(1.0, 2.0, "II")
        assert len(rep.energies) == rep.iterations + 1
        assert rep.energies[0] == P12.g * P12.E0
        assert len(rep.curly_energies) == rep.iterations
        assert rep.f2.shape == rep.f_final.shape == rep.grid.nodes.shape

    def test_psi_normalization_bc_ii(self, solve_cache):
        rep = solve_cache(1.0, 2.0, "II")
        for f in iterates(rep):
            assert (rep.psi0 * f)[0] == 1.0
        assert rep.psi_final[0] == 1.0

    @pytest.mark.parametrize("max_iter, n2", [(1, 1), (2, 2), (3, 2)])
    def test_report_keeps_f2_and_the_last_iterate(self, max_iter, n2):
        rep = solve(P12, Grid(4.0, 200), max_iter=max_iter, tol=0.0)
        fs = iterates(rep)
        assert len(fs) == max_iter + 1
        assert rep.f2.tobytes() == fs[n2].tobytes()
        assert (rep.f2 is rep.f_final) == (max_iter <= 2)

    def test_report_holds_three_arrays(self):
        # a 20-iteration solve keeps psi0, f_2 and f_20, not the history
        rep = solve(P12, Grid(4.0, 2000), max_iter=20, tol=0.0)
        assert rep.iterations == 20
        held = [a for fld in dataclasses.fields(rep)
                for a in nested_arrays(getattr(rep, fld.name))]
        assert len(held) == 3
        assert all(any(a is b for a in held) for b in (rep.psi0, rep.f2, rep.f_final))

    def test_extreme_coupling_dynamic_range(self, solve_cache, oracle_cache):
        # at g=5 the squared trial function spans ~e^-623 across the grid;
        # the folded recurrences must still agree with the independent solver
        rep = solve_cache(5.0, 2.0, "II")
        assert rep.converged and not rep.violations
        res = oracle_cache(5.0, 2.0)
        assert abs(rep.energies[-1] - res.energy) <= 5e-4

    def test_deterministic(self):
        a = solve(P12, Grid(4.0, 400), max_iter=4, tol=0.0)
        b = solve(P12, Grid(4.0, 400), max_iter=4, tol=0.0)
        assert a.energies == b.energies
        assert np.array_equal(a.f_final, b.f_final)

    def test_json_roundtrip(self, solve_cache):
        import json

        from gdwell._io import dumps_json

        rep = solve_cache(1.0, 2.0, "II")
        doc = json.loads(dumps_json(rep.to_json_dict()))
        assert doc["schema"] == "gdwell-solve-report-v3"
        assert "f_final" not in doc
        assert doc["config"]["g"] == 1.0
        assert len(doc["energies"]) == rep.iterations + 1


# deep double wells: phi^2(0)/phi^2(peak) reaches e^-53 here, so an inner
# integral formed from the peak side would amplify its rounding near x = 0
STRONG_CASES = [(8.0, 12.0), (12.0, 6.0), (12.0, 12.0), (20.0, 3.0), (20.0, 6.0)]


@pytest.mark.parametrize("bc", ["I", "II"])
@pytest.mark.parametrize("g,a", STRONG_CASES)
def test_strong_coupling_agrees_with_oracle(g, a, bc, oracle_cache):
    rep = solve(PotentialParams(g, a), Grid(4.0, 8000), BoundaryCondition(bc))
    assert rep.converged
    assert not rep.violations, [str(v) for v in rep.violations]
    res = oracle_cache(g, a, L=3.0, n=6000)
    assert abs(rep.energies[-1] - res.energy) <= res.error_estimate + rep.tol


# SHA-256 of the energies, curly_energies, f_final bytes and violations of
# two deep-well solves on Grid(4, 8000): their scans cross many bands, take
# dozens of fix-ups and run both nested operators, which the default report
# pin never reaches
STRONG_RUN_SHA256 = {
    (12.0, 12.0, "I"): "c7867ec94c8ecd7a049da8fab2998b3ef6fd932cfe1ccdea38fdbac5221d6c5e",
    (8.0, 6.0, "II"): "312addad0cb6441afe03793b569ea692d61314bd820f226a1d996397c2774a0a",
}


def hash_run(h, rep) -> None:
    """Feed a solve's energies, curly_energies, f_final bytes and violations
    into the hash h."""
    for e in rep.energies + rep.curly_energies:
        h.update(e.hex().encode())
    h.update(rep.f_final.tobytes())
    for v in rep.violations:
        h.update(f"{v.check}|{v.detail}|{v.magnitude.hex()}\n".encode())


@pytest.mark.pins
@pytest.mark.parametrize("g,a,bc", list(STRONG_RUN_SHA256))
def test_strong_coupling_runs_are_pinned(g, a, bc):
    rep = solve(PotentialParams(g, a), Grid(4.0, 8000), BoundaryCondition(bc))
    h = hashlib.sha256()
    hash_run(h, rep)
    assert h.hexdigest() == STRONG_RUN_SHA256[(g, a, bc)]


# SHA-256 of hash_run over a census of small and mid-size solves, in order:
# the table cases at tol = 0 and max_iter = 5 and the 24 lattice draws at the
# default tol, all on Grid(4, 2000), then (1, 2, I) and (1, 2, II) on
# Grid(4, 200) and Grid(4, 800)
CENSUS_SHA256 = "d488854b4486941a95289b505f4ff55292e5134ad5b0e3957d2dee6e6d8e9db4"


def census_runs():
    """(params, grid, bc, max_iter, tol) of every solve the census pins."""
    runs = [(PotentialParams(g, a), Grid(4.0, 2000), bc, 5, 0.0) for g, a, bc in TABLE_CASES]
    for g in np.linspace(0.88, 3.0, 4):
        a_g = cf.find_a_g(float(g))
        for a in np.linspace(max(1.8, 1.05 * a_g), 3.0, 3):
            runs += [(PotentialParams(float(g), float(a)), Grid(4.0, 2000), bc, 20, 1e-6)
                     for bc in ("I", "II")]
    runs += [(P12, Grid(4.0, n), bc, 20, 1e-6) for n in (200, 800) for bc in ("I", "II")]
    return runs


@pytest.mark.pins
def test_solve_census_is_pinned():
    h = hashlib.sha256()
    for p, grid, bc, max_iter, tol in census_runs():
        hash_run(h, solve(p, grid, BoundaryCondition(bc), max_iter=max_iter, tol=tol))
        h.update(b"--\n")
    assert h.hexdigest() == CENSUS_SHA256


# every (g, a) of the built-in tables, and deep double wells
ZERO_TOTAL_CASES = sorted({(g, a) for g, a, _ in TABLE_CASES}) + [
    (8.0, 12.0), (12.0, 12.0), (20.0, 3.0), (20.0, 6.0)]


@pytest.mark.parametrize("bc", ["I", "II"])
@pytest.mark.parametrize("g,a", ZERO_TOTAL_CASES)
def test_f_step_integrands_have_zero_phi2_total(g, a, bc, monkeypatch):
    # the nested operators require integral(h phi^2) = 0 up to rounding; this
    # pins that curly_E establishes it for every h that f_step passes them
    p = PotentialParams(g, a)
    grid = Grid(4.0, 8000)
    t, w = build_trial(p, grid), w_samples(p, grid)
    op = "nested_tail" if bc == "I" else "nested_origin"
    real = getattr(solver_module, op)
    seen = []

    def spy(h, t_):
        seen.append(h)
        return real(h, t_)

    monkeypatch.setattr(solver_module, op, spy)
    f = np.ones(grid.n_points)
    for _ in range(8):
        f = f_step(t, w, energy_step(t, w, f), f, BoundaryCondition(bc))
    assert len(seen) == 8
    for h in seen:
        total = integrate_against_phi2(h, t)
        scale = integrate_against_phi2(np.abs(h), t)
        assert abs(total) <= 1e-12 * scale


@pytest.mark.parametrize("bc,nested", [("I", "nested_tail"), ("II", "nested_origin")])
def test_solve_calls_quadrature_by_position(bc, nested, monkeypatch):
    # a traced benchmark wraps these names on gdwell.solver and reads the
    # grid of each call as args[1].grid, so solve must pass them
    # (samples, trial) by position
    calls = []
    for name in (nested, "integrate_against_phi2"):
        def spy(*args, _real=getattr(solver_module, name), _name=name, **kwargs):
            calls.append((_name, args, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(solver_module, name, spy)
    grid = Grid(4.0, 200)
    solve(P12, grid, BoundaryCondition(bc), max_iter=2, tol=0.0)
    assert {name for name, _, _ in calls} == {nested, "integrate_against_phi2"}
    for _, args, kwargs in calls:
        assert kwargs == {} and len(args) == 2
        samples, t = args
        assert isinstance(t, TrialFunction) and args[1].grid == grid
        assert np.shape(samples) in {(401,), (2, 201)}


def _count_energy_steps(monkeypatch) -> list:
    """Count the energy_step calls of every solve from here on."""
    calls = []
    real = solver_module.energy_step

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(solver_module, "energy_step", counted)
    return calls


# coarse explicit grids on which the iteration used to run and then break the
# hierarchy or lose positivity; (1, 2) and (0.88, 2) are published table cases
# the last four have their largest step in (2 ln(2 + sqrt 3), 2.7], which a
# cap of 2.7 admitted: the first three then listed hierarchy violations
COARSE_CASES = [(1.0, 2.0, 64), (0.88, 2.0, 64), (3.0, 2.0, 200), (3.0, 2.0, 400),
                (3.0, 2.0, 428), (12.0, 12.0, 2164), (20.0, 3.0, 2972), (0.88, 30.0, 200)]


@pytest.mark.parametrize("g,a,n", COARSE_CASES)
def test_coarse_grid_is_rejected_before_iterating(g, a, n, monkeypatch):
    calls = _count_energy_steps(monkeypatch)
    p = PotentialParams(g, a)
    with pytest.raises(GridError, match="step of 2 log phi .* grid spacing too coarse") as exc:
        solve(p, Grid(4.0, n))
    assert calls == []
    advised = int(re.search(r"use n_per_panel >= (\d+)", str(exc.value)).group(1))
    assert advised > n and advised % 2 == 0
    if (g, a, n) == (3.0, 2.0, 428):
        assert str(exc.value).endswith("(use n_per_panel >= 436)")
    for bc in BoundaryCondition:
        rep = solve(p, Grid(4.0, advised), bc)
        assert len(calls) == rep.iterations and rep.converged
        assert not rep.violations, [str(v) for v in rep.violations]
        calls.clear()


@pytest.mark.parametrize("g,a,n", COARSE_CASES)
def test_step_rejection_builds_no_factors_for_the_rejected_grid(g, a, n, monkeypatch):
    # the step is read from log phi: the rejected grid's trial function never
    # reaches the quadrature factors (the named grid's tail check may)
    grids = []
    real = quadrature._factors

    def spy(t):
        grids.append(t.grid)
        return real(t)

    monkeypatch.setattr(quadrature, "_factors", spy)
    with pytest.raises(GridError, match="use n_per_panel >= "):
        solve(PotentialParams(g, a), Grid(4.0, n))
    assert Grid(4.0, n) not in grids


def _count_trial_builds(monkeypatch) -> list:
    """The grid of every build_trial call of every solve from here on."""
    grids = []
    real = solver_module.build_trial

    def counted(p, grid):
        grids.append(grid)
        return real(p, grid)

    monkeypatch.setattr(solver_module, "build_trial", counted)
    return grids


def test_named_n_is_bounded(monkeypatch):
    # at x_max = 50 the estimate alone passes MAX_N_PER_PANEL: the rejection
    # names x_max and the bound at once, with no trial function but the one
    # judged; at x_max = 20 the named n is as it was
    grids = _count_trial_builds(monkeypatch)
    with pytest.raises(GridError) as exc:
        solve(P12, Grid(50.0, 2000))
    msg = str(exc.value)
    assert f"no n_per_panel up to MAX_N_PER_PANEL = {MAX_N_PER_PANEL} passes at x_max=50.0" \
        in msg
    assert msg.endswith("decrease x_max") and "use n_per_panel" not in msg
    assert grids == [Grid(50.0, 2000)]
    with pytest.raises(GridError, match=r"\(use n_per_panel >= 115418\)$"):
        solve(P12, Grid(20.0, 2000))


def test_confirmation_stops_at_the_bound(monkeypatch):
    # at (12, 100) on Grid(1.5, 8) the estimate names 88 and the confirmation
    # steps to 92; under a bound of 90 it builds 88 and 90 and then says that
    # no n_per_panel up to the bound passes
    grids = _count_trial_builds(monkeypatch)
    monkeypatch.setattr(solver_module, "MAX_N_PER_PANEL", 90)
    with pytest.raises(GridError, match="no n_per_panel up to MAX_N_PER_PANEL = 90 passes"):
        solve(PotentialParams(12.0, 100.0), Grid(1.5, 8))
    assert [g.n_per_panel for g in grids] == [8, 88, 90]


@pytest.mark.parametrize("g,a,grid,bound,inner", [
    # the confirmation fails at 88 and 90, whose inner steps alone need 90.2
    (12.0, 100.0, Grid(1.5, 8), 90, True),
    # the estimate alone passes the bound: [0, 1] needs 146 intervals
    (20.0, 100.0, Grid(1.5, 8), 140, True),
    # the outer panel needs 115418 intervals and [0, 1] needs 1
    (1.0, 2.0, Grid(20.0, 2000), 100000, False),
])
def test_no_grid_advice_names_the_panel(g, a, grid, bound, inner, monkeypatch):
    monkeypatch.setattr(solver_module, "MAX_N_PER_PANEL", bound)
    with pytest.raises(GridError, match=f"no n_per_panel up to MAX_N_PER_PANEL = {bound} "
                       f"passes at x_max={grid.x_max}; ") as exc:
        solve(PotentialParams(g, a), grid)
    msg = str(exc.value)
    if inner:
        assert msg.endswith("; the steps on [0, 1] need more intervals at this (g, a)")
        assert "decrease x_max" not in msg
    else:
        assert msg.endswith("; decrease x_max") and "[0, 1]" not in msg


def test_deep_well_rejection_is_readable_and_blames_the_inner_panel():
    # at g = 1e150 the steps of 2 log phi reach 1.4e147 on [0, 1], which no
    # x_max shortens; build_trial's psi0 overflow is left aside here
    with np.errstate(over="ignore"), pytest.raises(GridError) as exc:
        solve(PotentialParams(1e150, 2.0))
    msg = str(exc.value)
    assert msg.startswith("step of 2 log phi 1.908e+149 exceeds 2.634 in size")
    assert not re.search(r"\d{11}", msg), msg
    assert msg.endswith("; the steps on [0, 1] need more intervals at this (g, a)")
    assert "decrease x_max" not in msg


# short grids from a very coarse start, where the 1/n estimate of the step
# named an n that the step check rejected again (88 at (12, 100), 36 at
# (5, 100), 32 at (8, 30)); at (2, 100) the named n fails the tail check
SHORT_CASES = [(12.0, 100.0, 8, 92), (5.0, 100.0, 8, 38), (8.0, 30.0, 8, 34),
               (2.0, 100.0, 8, 16)]


@pytest.mark.parametrize("g,a,n,named", SHORT_CASES)
def test_named_n_passes_the_step_check(g, a, n, named):
    p, fine = PotentialParams(g, a), Grid(1.5, named)
    with pytest.raises(GridError, match=rf"use n_per_panel >= {named}\)"):
        solve(p, Grid(1.5, n))
    assert solver_module._largest_step(build_trial(p, fine)) <= solver_module.STEP_CAP
    try:
        rep = solve(p, fine)
    except GridError as exc:
        assert "truncation tail" in str(exc)
    else:
        assert rep.converged and not rep.violations


@pytest.mark.parametrize("g,a,n,named", SHORT_CASES)
def test_step_rejection_gives_the_named_grids_tail_verdict(g, a, n, named):
    """The message ends with the named grid's own tail error, if it has one:
    (2, 100) names n = 16, whose tail at x_max = 1.5 is 2.57e-05."""
    p = PotentialParams(g, a)
    with pytest.raises(GridError) as rejected:
        solve(p, Grid(1.5, n))
    try:
        solve(p, Grid(1.5, named))
    except GridError as exc:
        tail = f"; on that grid the {exc}"
    else:
        tail = ""
    assert bool(tail) == ((g, a) == (2.0, 100.0))
    assert str(rejected.value).endswith(f"(use n_per_panel >= {named}){tail}")


@pytest.mark.parametrize("bc", list(BoundaryCondition))
@pytest.mark.parametrize("g,a,n,step", [(12.0, 6.0, 2000, 2.532), (20.0, 3.0, 2980, 2.633)])
def test_steps_just_under_the_cap_run_clean(g, a, n, step, bc):
    p, grid = PotentialParams(g, a), Grid(4.0, n)
    s = solver_module._largest_step(build_trial(p, grid))
    assert s == pytest.approx(step, abs=1e-3) and s <= solver_module.STEP_CAP
    rep = solve(p, grid, bc)
    assert rep.converged
    assert not rep.violations, [str(v) for v in rep.violations]


# the census lattice of (g, a) on the default grid, Gamma > 0 only
CENSUS = [(g, a) for g in (0.6, 1.0, 2.0, 5.0, 8.0, 12.0, 20.0)
          for a in (0.665, 0.7, 1.0, 3.0, 12.0, 30.0, 100.0)
          if PotentialParams(g, a).Gamma > 0]


def test_census_runs_are_clean_or_rejected_before_iterating(monkeypatch):
    calls = _count_energy_steps(monkeypatch)
    outcomes = {"clean": 0, "rejected": 0}
    for (g, a), bc in ((ga, bc) for ga in CENSUS for bc in BoundaryCondition):
        calls.clear()
        try:
            rep = solve(PotentialParams(g, a), Grid(4.0, 2000), bc)
        except GridError as exc:
            assert calls == [] and "step of 2 log phi" in str(exc), (g, a, bc)
            outcomes["rejected"] += 1
            continue
        assert not rep.violations, (g, a, bc, [str(v) for v in rep.violations])
        outcomes["clean"] += 1
    assert outcomes == {"clean": 62, "rejected": 22}


def test_w_is_positive_on_every_checked_grid():
    # u > 0 and ghat >= 0 where Gamma > 0, so the tail verdict reads w as |w|
    checked = [(g, a, Grid(4.0, 2000)) for g, a in CENSUS]
    checked += [(g, a, Grid(4.0, n)) for g, a, n in COARSE_CASES]
    checked += [(g, a, Grid(1.5, m)) for g, a, n, named in SHORT_CASES for m in (n, named)]
    for g, a, grid in checked:
        assert w_samples(PotentialParams(g, a), grid).min() > 0.0, (g, a, grid)


def test_tail_verdict_integrates_w_as_the_first_energy_step_does(monkeypatch):
    # the tail check integrates w itself, both rows, and gets the first
    # iteration's numerator, the integral of w phi^2 f_0, bit for bit
    seen = []
    real = solver_module.integrate_against_phi2

    def spy(values, t):
        seen.append((values.tobytes(), real(values, t)))
        return seen[-1][1]

    monkeypatch.setattr(solver_module, "integrate_against_phi2", spy)
    p, grid = PotentialParams(12.0, 6.0), Grid(4.0, 2000)
    solve(p, grid, max_iter=1, tol=0.0)
    (tail_w, tail_peak), _, (num_w, num) = seen
    assert tail_w == num_w == w_samples(p, grid).tobytes()
    assert tail_peak == num


def _bits(obj):
    """obj with every array in it, however nested, as (dtype, shape, bytes)."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (tuple, list)):
        return type(obj).__name__, [_bits(x) for x in obj]
    return obj


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_solve_path_writes_only_into_arrays_it_owns(bc):
    # the kernels work in place, but only on arrays they allocated: never on
    # an argument, nor on what the TrialFunction keeps
    p, grid = PotentialParams(12.0, 6.0), Grid(4.0, 2000)
    t, w = build_trial(p, grid), w_samples(p, grid)
    ones = np.ones(grid.n_points)
    f_prev = f_step(t, w, energy_step(t, w, ones), ones, bc)
    curly = energy_step(t, w, f_prev)
    h = (w - curly) * grid.panels(f_prev)
    f = quadrature._factors(t)
    kept = [w, f_prev, h, t.log_phi, t.psi0, t.quadrature_factors]
    before = _bits(kept)
    calls = {
        "energy_step": lambda: energy_step(t, w, f_prev),
        "f_step": lambda: f_step(t, w, curly, f_prev, bc),
        "nested_tail": lambda: quadrature.nested_tail(h, t),
        "nested_origin": lambda: quadrature.nested_origin(h, t),
        "integrate_against_phi2 (nodes)": lambda: integrate_against_phi2(f_prev, t),
        "integrate_against_phi2 (panels)": lambda: integrate_against_phi2(w, t),
        "_inner_scaled": lambda: quadrature._inner_scaled(f, grid, h),
        "_node_cumulative (from x_max)": lambda: quadrature._node_cumulative(grid, f_prev, True),
        "_node_cumulative (from 0)": lambda: quadrature._node_cumulative(grid, f_prev, False),
    }
    for name, call in calls.items():
        call()
        assert _bits(kept) == before, f"{name} wrote into an array it does not own"
    report = solve(p, grid, bc)
    assert report.iterations > 2
    kept = [report.psi0, report.f2, report.f_final]
    for i, a in enumerate(kept):
        for b in kept[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_setup_writes_only_into_arrays_it_owns():
    # build_trial, w_samples, the factors and the closed forms work in place
    # too, in arrays they allocated: never in the grid's nodes, an argument
    # or h, and no two of the arrays they return share memory
    p, grid = PotentialParams(12.0, 6.0), Grid(4.0, 2000)
    x = np.array(grid.nodes)
    x_inner = x[: grid.n_per_panel + 1].copy()
    h = w_samples(p, grid) - 0.5
    kept = [grid.nodes, x, x_inner, h]
    before = _bits(kept)
    t = build_trial(p, grid)
    w = w_samples(p, grid)
    f = quadrature._factors(t)
    assert _bits(kept) == before, "the setup wrote into an array it does not own"
    calls = {
        "_check_grid": lambda: solver_module._check_grid(p, t, h),
        **{f"{name} (nodes)": lambda name=name: getattr(cf, name)(p, x)
           for name in ("eval_S0", "eval_S0_mirror", "eval_S1", "eval_u", "eval_ghat")},
        **{f"{name} (inner)": lambda name=name: getattr(cf, name)(p, x_inner)
           for name in ("eval_u", "eval_ghat")},
    }
    for name, call in calls.items():
        call()
        assert _bits(kept) == before, f"{name} wrote into an array it does not own"
    arrays = [t.log_phi, t.psi0, w, *nested_arrays(f)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


# the closed forms the benchmark's SOLVE_PATH (perfbench/tests_bench.py)
# expects one solve to reach through the closed_forms module
SOLVE_PATH_CLOSED_FORMS = ("eval_S0", "eval_S0_mirror", "eval_S0_prime", "eval_S1",
                           "eval_S1_prime", "eval_u", "eval_ghat")


def test_solve_reaches_each_closed_form_through_the_module(monkeypatch):
    counts = dict.fromkeys(SOLVE_PATH_CLOSED_FORMS, 0)
    for name in SOLVE_PATH_CLOSED_FORMS:
        def counted(*args, _real=getattr(cf, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cf, name, counted)
    solve(PotentialParams(3.0, 2.0), Grid(4.0, 800), BoundaryCondition.II)
    assert all(counts.values()), counts


def hierarchy_rows(bc, fs):
    """The iterate rows of f_1, ..., f_n in fs = [f_0, f_1, ..., f_n]."""
    return [row for n in range(1, len(fs))
            for row in solver_module._iterate_rows(BoundaryCondition(bc), n, fs[n - 1], fs[n])]


def recheck(rep, curly=None, fs=None):
    """check_hierarchy on a report's curly_E and iterates, or on injected ones."""
    fs = iterates(rep) if fs is None else fs
    curly = rep.curly_energies if curly is None else curly
    return check_hierarchy(rep.bc, curly, hierarchy_rows(rep.bc, fs))


class TestHierarchy:
    def test_clean_reference_runs(self, solve_cache):
        for g, a, bc in [(1.0, 2.0, "I"), (1.0, 2.0, "II"), (3.0, 2.0, "II")]:
            rep = solve_cache(g, a, bc)
            assert rep.violations == []
            assert recheck(rep) == []

    def test_bc_i_energies_strictly_decreasing(self, solve_cache):
        rep = solve_cache(1.0, 2.0, "I")
        e = rep.energies[1:]
        assert all(e[i] > e[i + 1] - 1e-9 for i in range(len(e) - 1))
        # the published sequence shape: 1.0163 > 1.0031 > 1.0005 > 1.0001
        assert e[0] > e[1] > e[2] > e[3]

    def test_bc_ii_bracketing(self, solve_cache):
        rep = solve_cache(1.0, 2.0, "II")
        e = rep.energies
        assert e[2] < 1.0 < e[3]
        assert e[2] < e[4] < e[3] < e[1]

    def test_tie_within_tolerance_is_not_a_violation(self, solve_cache):
        rep = solve_cache(1.0, 2.0, "II")
        ones = [np.ones(rep.grid.n_points)] * 5
        found = recheck(rep, [0.5, 0.7, 0.5 + 5e-10, 0.7 - 5e-10], ones)
        assert all(v.check != "odd-energy-ascending" for v in found)
        assert all(v.check != "even-energy-descending" for v in found)

    def test_detects_injected_order_violation(self, solve_cache):
        rep = solve_cache(1.0, 2.0, "II")
        ones = [np.ones(rep.grid.n_points)] * 5
        # odd sequence descends
        checks = {v.check for v in recheck(rep, [0.7, 0.8, 0.6, 0.75], ones)}
        assert "odd-energy-ascending" in checks

    def test_ratio_monotonicity_signs_bc_ii(self, solve_cache):
        rep = solve_cache(1.0, 2.0, "II")
        fs = iterates(rep)
        for n in range(len(fs) - 1):
            d = np.diff(fs[n + 1] / fs[n])
            if n % 2 == 0:
                assert float(d.max()) <= 1e-9   # odd-over-even decreasing
            else:
                assert float(d.min()) >= -1e-9  # even-over-odd increasing

    def test_detects_injected_bc_i_violation(self, solve_cache):
        rep = solve_cache(1.0, 2.0, "I")
        ones = [np.ones(rep.grid.n_points)] * 4
        checks = {v.check for v in recheck(rep, [0.7, 0.6, 0.8], ones)}  # not ascending
        assert "energy-ascending" in checks

    def test_ratio_monotonicity_signs_bc_i(self, solve_cache):
        rep = solve_cache(1.0, 2.0, "I")
        fs = iterates(rep)
        for n in range(1, len(fs) - 1):
            d = np.diff(fs[n + 1] / fs[n])
            assert float(d.max()) <= 1e-9

    def test_energy_drop_of_exactly_the_tolerance_is_a_violation(self, solve_cache):
        rep = solve_cache(1.0, 2.0, "I")
        # curly_E_2 - curly_E_1 is -1e-9 exactly
        found = recheck(rep, [1e-9, 0.0], iterates(rep)[:3])
        assert [(v.check, v.magnitude) for v in found] == [("energy-ascending", 1e-9)]

    @pytest.mark.parametrize("bc, checks", [
        ("I", ["iterate-nonincreasing-in-x"]),
        ("II", ["iterate-upper-bound", "iterate-nonincreasing-in-x"]),
    ])
    def test_one_iterate_run_is_checked(self, bc, checks):
        with pytest.warns(OutsideRegionWarning):
            rep = solve(PotentialParams(5.0, A5), Grid(4.0, 2000), BoundaryCondition(bc),
                        max_iter=1, tol=0.0)
        assert rep.iterations == 1
        assert [v.check for v in rep.violations] == checks
        assert all(v.detail.startswith("f_1") for v in rep.violations)

    @pytest.mark.pins
    def test_violation_lists_are_pinned(self, solve_cache):
        """Every check name, detail string, magnitude bit pattern and their
        order, over natural runs that break the iterate relations and two
        injected reports that break every energy relation and
        iterate-ascending."""
        with pytest.warns(OutsideRegionWarning):
            reports = [
                solve_cache(g, a, bc)
                for g, a, bc in [
                    (5.0, A5, "I"), (5.0, A5, "II"), (3.0, A3, "I"), (3.0, A3, "II"),
                    (10.0, A10, "I"),
                ]
            ]
        lists = []
        for rep in reports:
            assert recheck(rep) == rep.violations
            lists.append(rep.violations)
        for bc, curly in [("I", [0.7, 0.6, 0.8]), ("II", [0.7, 0.65, 0.6, 0.9])]:
            rep = solve_cache(1.0, 2.0, bc)
            fs = iterates(rep)
            lists.append(recheck(rep, curly, [fs[0], fs[2], fs[1]] + fs[3:len(curly) + 1]))
        h = hashlib.sha256()
        for found in lists:
            for v in found:
                h.update(f"{v.check}|{v.detail}|{v.magnitude.hex()}\n".encode())
            h.update(b"--\n")
        assert h.hexdigest() == PINNED_VIOLATIONS_SHA256
