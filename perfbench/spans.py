"""Spans around the calls into each gdwell layer, for the traced run.

Each wrapper replaces a module or class attribute at the place where the
caller looks the name up.  ``solver.py`` imports ``nested_origin``,
``nested_tail``, ``integrate_against_phi2`` and ``build_trial`` into its own
namespace, so those are wrapped on ``gdwell.solver``; wrapping them on
``gdwell.quadrature`` or ``gdwell.trial`` would never fire.  ``trial`` and
``solver`` call the closed forms as ``cf.eval_*``, so those are wrapped on
``gdwell.closed_forms``.  ``gdwell.oracle`` imports ``eval_potential``
directly; the oracle's potential evaluations therefore count as oracle time.

Spans are kept in memory with a parent link and the id of the op they belong
to; self time is a span's duration minus the durations of its direct
children (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from gdwell import _io, closed_forms, oracle, region, solver


def _grid_nodes(args, kwargs) -> int:
    return args[1].grid.n_points  # (trial, rule, values)


def _file_bytes(args, kwargs) -> int:
    return os.path.getsize(args[0])  # (path, obj)


# (owner, attribute, span name, counter fed after each call)
TARGETS = [
    (solver, "solve", "solver.solve", None),
    (solver, "build_trial", "trial.build_trial", None),
    (solver, "energy_step", "solver.energy_step", None),
    (solver, "f_step", "solver.f_step", None),
    (solver, "check_hierarchy", "solver.check_hierarchy", None),
    (solver, "nested_origin", "quadrature.nested", _grid_nodes),
    (solver, "nested_tail", "quadrature.nested", _grid_nodes),
    (solver, "integrate_against_phi2", "quadrature.phi2_integral", _grid_nodes),
    *[(closed_forms, name, "closed_forms.eval", None)
      for name in sorted(dir(closed_forms)) if name.startswith("eval_")],
    (oracle, "oracle_ground_state", "oracle.ground_state", None),
    (oracle, "peak_census", "oracle.peak_census", None),
    (region, "trace_curves", "region.trace_curves", None),
    (region, "find_a_c", "region.find_a_c", None),
    (region, "find_a_g", "region.find_a_g", None),
    (solver.SolveReport, "to_json_dict", "io.to_json_dict", None),
    (region.RegionReport, "to_json_dict", "io.to_json_dict", None),
    (_io, "write_json", "io.write_json", _file_bytes),
]


def target_id(owner, attr: str) -> str:
    """Dotted name of a wrapped attribute, e.g. 'gdwell.solver.nested_tail'."""
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []  # (op, name, parent, start, end)
        self.counters: dict[str, int] = defaultdict(int)
        self.reached: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (self.op, name, parent, t0, t1)

    def wrap(self, fn, name: str, tid: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.reached[tid] += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counters[name] += count(args, kwargs)
            return result

        return traced

    def self_seconds(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for _, _, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, (_, name, _, t0, t1) in enumerate(self.spans):
            total[name] += (t1 - t0) - child[sid]
            calls[name] += 1
        return total, calls


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, count in TARGETS:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, name, target_id(owner, attr), count))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer, outcomes: list) -> dict[str, float]:
    """Per-op per-layer values of a traced run (times are self times)."""
    n = len(outcomes)
    secs, calls = tracer.self_seconds()

    def ms(name):
        return 1e3 * secs.get(name, 0.0) / n

    quad_s = secs.get("quadrature.nested", 0.0) + secs.get("quadrature.phi2_integral", 0.0)
    quad_nodes = (tracer.counters["quadrature.nested"]
                  + tracer.counters["quadrature.phi2_integral"])
    sweeps = sum(o.sweep_samples for o in outcomes)
    return {
        "closed_forms.eval_ms": ms("closed_forms.eval"),
        "closed_forms.calls": calls.get("closed_forms.eval", 0) / n,
        "trial.build_trial_ms": ms("trial.build_trial"),
        "quadrature.nested_ms": ms("quadrature.nested"),
        "quadrature.phi2_integral_ms": ms("quadrature.phi2_integral"),
        "quadrature.calls": (calls.get("quadrature.nested", 0)
                             + calls.get("quadrature.phi2_integral", 0)) / n,
        "quadrature.nodes_per_s": quad_nodes / quad_s if quad_s > 0 else 0.0,
        "solver.energy_step_ms": ms("solver.energy_step"),
        "solver.f_step_ms": ms("solver.f_step"),
        "solver.check_hierarchy_ms": ms("solver.check_hierarchy"),
        "solver.solve_self_ms": ms("solver.solve"),
        "solver.iterations": sum(o.iterations for o in outcomes) / n,
        "solver.violations": sum(o.violations for o in outcomes) / n,
        "solver.errors": sum(o.errors for o in outcomes) / n,
        "oracle.ground_state_ms": ms("oracle.ground_state"),
        "oracle.peak_census_ms": ms("oracle.peak_census"),
        "oracle.calls": (calls.get("oracle.ground_state", 0)
                         + calls.get("oracle.peak_census", 0)) / n,
        "region.trace_curves_ms": ms("region.trace_curves"),
        "region.find_a_c_ms": ms("region.find_a_c"),
        "region.find_a_g_ms": ms("region.find_a_g"),
        "region.curve_points": sum(o.curve_points for o in outcomes) / n,
        "region.miss_ratio": sum(o.misses for o in outcomes) / sweeps if sweeps else 0.0,
        "io.to_json_dict_ms": ms("io.to_json_dict"),
        "io.write_json_ms": ms("io.write_json"),
        "io.bytes_written": tracer.counters["io.write_json"] / n,
    }
