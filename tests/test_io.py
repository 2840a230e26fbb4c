"""Deterministic report writers: float precision, schema lines, structure."""

import csv
import hashlib
import json
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdwell import Grid, PotentialParams, build_trial, region
from gdwell import _io
from gdwell._io import csv_preamble, dumps_json, format_float, write_csv, write_json
from gdwell.errors import NonFiniteOutputError


def test_float_formatting_round_trips():
    for v in (1.0, 1/3, 2**-52, 6.022140857e23, -0.9981426, 1e-300):
        assert float(format_float(v)) == v


def test_seventeen_significant_digits():
    s = format_float(1/3)
    assert s == "0.33333333333333331"


def test_dumps_json_is_valid_and_deterministic():
    doc = {
        "schema": "x-v1",
        "config": {"g": 1.0, "a": 2.0, "bc": "II"},
        "values": [1.0, 2.5, -3.125],
        "nested": [{"k": 1}, {"k": 2}],
        "flag": True,
        "none": None,
        "count": 7,
    }
    s1 = dumps_json(doc)
    s2 = dumps_json(doc)
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed == doc


# SHA-256 of the default solve report in schema v3, with the phi^2 integral
# as one node-weighted sum, 200-wide scan bands, the closed forms free of
# float powers, u by Horner in x^2, the inner sums' terms and closures in
# band units from kept term factors and scales, and the cumulative integrals
# as one running node sum across both panels with ghost-closed ends; its
# text is the v2 report's with the f_final member dropped and the schema
# string swapped, byte for byte; any other change to the report's bytes
# shows here
DEFAULT_REPORT_SHA256 = "6c5b71f5fd004becfff7fbcf1d0d3b8f1ad9c7581b0be5cbd40b2030e1a3d7be"
# SHA-256 of region.trace_curves(50)'s report, with every coefficient table
# read by numpy's polyval (Horner in a) and the coefficients in z = s/a
# scaled by repeated products, not powers
TRACE_50_REPORT_SHA256 = "c841b1f1fef650fe9097292035bbdda6b936a3f6f7e3ed6c6e15c10ef1525d02"
# and of trace_curves(200)'s, the default resolution of `gdwell region`
TRACE_200_REPORT_SHA256 = "2fd8e1167557730dcc25880b5e32a9a5f0010e919bafbf5faa3bdcb5f985e3c1"


@pytest.mark.pins
def test_default_solve_report_bytes_are_pinned(solve_cache):
    text = dumps_json(solve_cache(1.0, 2.0, "II").to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_REPORT_SHA256


@pytest.mark.pins
def test_trace_curves_report_bytes_are_pinned():
    text = dumps_json(region.trace_curves(50).to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_50_REPORT_SHA256


@pytest.mark.pins
def test_default_resolution_trace_curves_report_bytes_are_pinned():
    text = dumps_json(region.trace_curves(200).to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_200_REPORT_SHA256


def test_solve_report_nodes_rebuild_from_config(solve_cache, tmp_path):
    rep = solve_cache(1.0, 2.0, "II")
    path = tmp_path / "r.json"
    write_json(str(path), rep.to_json_dict())
    doc = json.loads(path.read_text())
    assert "x" not in doc and "rule" not in doc["config"]
    nodes = Grid(doc["config"]["x_max"], doc["config"]["n_per_panel"]).nodes
    assert np.array_equal(nodes, rep.grid.nodes)
    assert len(doc["psi_final"]) == nodes.size
    assert "f_final" not in doc


@pytest.mark.parametrize("g, a, bc", [(1.0, 2.0, "I"), (1.0, 2.0, "II"),
                                      (3.0, 2.0, "II"), (0.88, 2.0, "II")])
def test_f_final_recovers_from_report(solve_cache, g, a, bc):
    """f = psi_final / psi0, with psi0 rebuilt from the report's config."""
    rep = solve_cache(g, a, bc)
    doc = json.loads(dumps_json(rep.to_json_dict()))
    cfg = doc["config"]
    psi0 = build_trial(PotentialParams(cfg["g"], cfg["a"]),
                       Grid(cfg["x_max"], cfg["n_per_panel"])).psi0
    f = np.array(doc["psi_final"]) / psi0
    assert np.all(np.abs(f - rep.f_final) <= np.finfo(float).eps * np.abs(rep.f_final))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _per_element(rows) -> str:
    """dumps_json of a top-level list of scalar rows, element by element."""
    def cell(v):
        return str(v) if type(v) is int else format_float(v)
    return "[\n" + ",\n".join(
        "  [" + ", ".join(map(cell, r)) + "]" for r in rows) + "\n]\n"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda w: st.lists(st.lists(FINITE, min_size=w, max_size=w), min_size=1)))
def test_float_rows_match_per_element_format(rows):
    assert dumps_json(rows) == _per_element(rows)
    assert dumps_json([tuple(r) for r in rows]) == _per_element(rows)


@settings(max_examples=200, deadline=None)
@example([[0.5, 1], [2.0, 3.0]])
@given(st.one_of(
    st.lists(st.lists(FINITE, min_size=1, max_size=4), min_size=2).filter(
        lambda rows: len(set(map(len, rows))) > 1),
    st.lists(st.lists(st.one_of(FINITE, st.integers()), min_size=2, max_size=2),
             min_size=1).filter(lambda rows: any(type(v) is int for r in rows for v in r)),
))
def test_ragged_or_int_rows_fall_back(rows):
    assert dumps_json(rows) == _per_element(rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda w: st.lists(st.lists(FINITE, min_size=w, max_size=w), min_size=1)))
def test_float_arrays_match_per_element_format(rows):
    """The array kernel writes what the per-element path writes
    for the same values as Python floats: a 2-D array a row to a line, a
    1-D one on one line, also nested in a document."""
    arr = np.array(rows, dtype=float)
    assert dumps_json(arr) == _per_element(rows)
    assert dumps_json(arr[0]) == dumps_json(rows[0]) \
        == "[" + ", ".join(map(format_float, rows[0])) + "]\n"
    doc = {"k": {"rows": arr, "flat": arr.ravel()}}
    plain = {"k": {"rows": rows, "flat": [v for r in rows for v in r]}}
    assert dumps_json(doc) == dumps_json(plain)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda w: st.lists(st.lists(FINITE, min_size=w, max_size=w), min_size=1)))
def test_csv_array_rows_are_format_float_cells(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(str(path), {"g": 1.0}, ["c"] * len(rows[0]), np.array(rows, dtype=float))
    assert path.read_text().splitlines()[2:] == [",".join(map(format_float, r)) for r in rows]


def _assert_per_element_text(values, tmp_path):
    """values as a 1-D JSON array, as the rows of a 2-D JSON array and as CSV
    rows (values repeated to fill 3 columns) are the per-element "%.17g"
    text."""
    assert dumps_json(values) == "[" + ", ".join(map(format_float, values.tolist())) + "]\n"
    rows = np.resize(values, (-(-values.size // 3), 3))
    assert dumps_json(rows) == _per_element(rows.tolist())
    path = tmp_path / "t.csv"
    write_csv(str(path), {"g": 1.0}, ["a", "b", "c"], rows)
    assert path.read_text().splitlines()[2:] == [",".join(map(format_float, r))
                                                 for r in rows.tolist()]


def test_random_bit_patterns_match_per_element_format(tmp_path):
    """250 000 seeded random finite doubles of both signs, and 5000
    subnormals, in all three layouts."""
    rng = np.random.default_rng(30)
    values = rng.integers(0, 2**64, 250_000, dtype=np.uint64, endpoint=False).view(np.float64)
    subnormal = (rng.integers(1, 2**52, 5000, dtype=np.uint64)
                 | (rng.integers(0, 2, 5000, dtype=np.uint64) << np.uint64(63))).view(np.float64)
    values = np.concatenate([values[np.isfinite(values)], subnormal])
    assert (values < 0).mean() > 0.45 and (np.abs(values) < 2.3e-308).sum() > 5000
    _assert_per_element_text(values, tmp_path)


# every power of ten a double reaches and its neighbours, the decade carries,
# exact ties at the 17th digit, signed zeros and the ends of the range
EDGES = [w for p in range(-323, 309) for v in [float(f"1e{p}")]
         for w in (np.nextafter(v, 0.0), v, np.nextafter(v, np.inf))]
EDGES += [9.9999999999999999e-5, 99999999999999999.0, 1 + 2**-17, 4 + 7 * 2**-17,
          0.0, -0.0, 5e-324, sys.float_info.max]


def test_edge_values_match_per_element_format(tmp_path):
    edges = np.array(EDGES)
    _assert_per_element_text(np.concatenate([edges, -edges]), tmp_path)
    assert _io._format_array(edges[-8:-4], "[{}]") == (
        "[0.0001, 1e+17, 1.0000076293945312, 4.0000534057617188]")
    assert _io._format_array(np.zeros((0, 3)), "{}\n", ",") == ""
    assert _io._format_array(np.zeros(0), "[{}]") == "[]"


def _plain(obj):
    """obj with its numpy arrays and scalars as the Python lists and values
    that the element-by-element path writes."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def test_document_arrays_are_formatted_in_one_pass(monkeypatch):
    """A document that mixes 1-D and 2-D arrays, empty ones, arrays nested in
    lists and dicts, numpy scalars and strings holding every control
    character (the slot mark among them) takes one kernel pass and reads as
    the per-element "%.17g" text."""
    rng = np.random.default_rng(31)
    rows = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-30, 30, (7, 3))
    control = "".join(map(chr, range(32)))
    doc = {
        "schema": control,
        control: [control, np.float64(0.1), np.int64(-3), np.bool_(False)],
        "psi": rng.random(11),
        "empty": np.zeros(0),
        "no rows": np.zeros((0, 3)),
        "empty rows": np.zeros((2, 0)),
        "rows": rows,
        "nested": [{"a": rows[:2], "b": [rows[2], np.float64(2.5)]},
                   [rows[3:5, :2], -rows[5]]],
        "edges": np.array(EDGES),
        "last": rng.random((2, 2)),
    }
    passes = []
    kernel = _io._array_text
    monkeypatch.setattr(_io, "_array_text", lambda jobs: passes.append(jobs) or kernel(jobs))
    assert dumps_json(doc) == dumps_json(_plain(doc))
    assert [len(jobs) for jobs in passes] == [8]


def test_first_bad_array_in_document_order_raises(tmp_path):
    """Every array is checked where the serializer meets it: a non-finite
    value in the last array raises and leaves no file, and an int array
    after a float one raises TypeError with the one-array message."""
    doc = {"a": np.ones(3), "b": np.ones((2, 2)), "c": np.array([0.5, np.inf])}
    with pytest.raises(NonFiniteOutputError, match="inf"):
        dumps_json(doc)
    path = tmp_path / "r.json"
    with pytest.raises(NonFiniteOutputError):
        write_json(str(path), doc)
    assert not path.exists()
    with pytest.raises(TypeError, match="^a report writes 1-D or 2-D float64 arrays, "
                                        "not a 1-D int64 one$"):
        dumps_json({"f": np.ones(4), "i": np.arange(3, dtype=np.int64), "c": doc["c"]})
    with pytest.raises(NonFiniteOutputError):
        dumps_json({"c": doc["c"], "i": np.arange(3, dtype=np.int64)})


def test_power_of_ten_table_is_within_2_to_the_minus_104():
    """hi + lo is 10^s within 2^-104 10^s, the bound _decimal's 1e-9 tie
    margin rests on; hi is the double nearest 10^s, and its two halves add
    up to it."""
    hi, lo, hi_top, hi_low = _io._P10
    assert np.array_equal(hi_top + hi_low, hi)
    for i, (h, l) in enumerate(zip(hi.tolist(), lo.tolist())):
        exact = Fraction(10) ** (16 - _io._KMIN - i)
        assert h == float(exact)
        assert abs(Fraction(h) + Fraction(l) - exact) <= exact / 2**104


def test_empty_curve_writes_an_empty_list_and_a_bare_csv(tmp_path):
    empty = np.column_stack([np.zeros(0), np.zeros(0)])
    assert empty.shape == (0, 2)
    assert dumps_json({"curve": empty}) == '{\n  "curve": []\n}\n'
    assert dumps_json(np.zeros((0, 2))) == "[]\n"
    assert dumps_json(np.zeros((2, 0))) == "[\n  [],\n  []\n]\n"
    assert dumps_json(np.zeros(0)) == "[]\n"
    path = tmp_path / "c.csv"
    write_csv(str(path), {"curve": "x"}, ["a", "x"], empty)
    assert path.read_text().splitlines() == [csv_preamble({"curve": "x"}), "a,x"]


@pytest.mark.parametrize("arr", [np.arange(3), np.ones(3, dtype=np.float32),
                                 np.ones((2, 2, 2)), np.array(1.0), np.array(["s"]),
                                 np.zeros((0, 3), np.int64), np.zeros((0, 2), np.float32),
                                 np.zeros(0, np.int64)],
                         ids=["int", "float32", "3-D", "0-D", "str", "empty-2-D-int",
                              "empty-2-D-float32", "empty-1-D-int"])
def test_array_the_formatter_cannot_write_raises(arr, tmp_path):
    """No array is written as its str()."""
    with pytest.raises(TypeError, match="float64"):
        dumps_json({"a": arr})
    with pytest.raises(TypeError, match="float64"):
        write_csv(str(tmp_path / "t.csv"), {}, ["a"], arr)
    assert not (tmp_path / "t.csv").exists()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_float_list_matches_per_element_format(values):
    assert dumps_json(values) == "[" + ", ".join(map(format_float, values)) + "]\n"


def test_mixed_scalar_lists_serialise_as_before():
    doc = {
        "mixed": [1, True, None, np.float64(0.1), 2.5, False, "s", -0.0, 5e-324,
                  1e300, np.float64(1 / 3)],
        "pair": [[0.5, 1], [2.0, 3.0]],
        "np": [np.float64(2.0), np.float64(-1e-7)],
    }
    assert dumps_json(doc) == (
        '{\n'
        '  "mixed": [1, true, null, 0.10000000000000001, 2.5, false, "s", -0, '
        '4.9406564584124654e-324, 1.0000000000000001e+300, 0.33333333333333331],\n'
        '  "pair": [\n'
        '    [0.5, 1],\n'
        '    [2, 3]\n'
        '  ],\n'
        '  "np": [2, -9.9999999999999995e-08]\n'
        '}\n'
    )


def test_numpy_scalars_written_as_their_python_values(solve_cache):
    doc = {"n": np.int64(400), "flag": np.bool_(True), "f32": np.float32(0.1),
           "ints": [np.int64(1), np.int32(-2), 3], "floats": [np.float64(0.5), 1.5],
           "rows": [[np.float64(0.5), 2.0], [1.0, np.float32(0.25)]]}
    plain = {"n": 400, "flag": True, "f32": float(np.float32(0.1)), "ints": [1, -2, 3],
             "floats": [0.5, 1.5], "rows": [[0.5, 2.0], [1.0, 0.25]]}
    assert dumps_json(doc) == dumps_json(plain)
    assert json.loads(dumps_json(doc)) == plain
    assert '"resolution": 50' in dumps_json(region.trace_curves(np.int64(50)).to_json_dict())
    # the report's config rebuilds its grid
    rep = solve_cache(1.0, 2.0, "II", n=np.int64(400))
    config = json.loads(dumps_json(rep.to_json_dict()))["config"]
    assert Grid(config["x_max"], config["n_per_panel"]) == rep.grid


@pytest.mark.parametrize("doc", [
    [float("inf")],
    [1.0, float("nan")],
    {"tol": float("-inf")},
    [1, float("inf")],
    [np.float64("nan")],
    [[0.5, float("inf")]],
], ids=["inf", "nan-in-floats", "scalar", "mixed-list", "numpy", "nested"])
def test_non_finite_float_raises(doc):
    with pytest.raises(ValueError, match="non-finite"):
        dumps_json(doc)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("shape", [(7,), (3, 2)])
def test_non_finite_array_raises_in_both_writers(tmp_path, bad, shape):
    arr = np.linspace(0.0, 1.0, int(np.prod(shape))).reshape(shape)
    arr.flat[-2] = bad
    with pytest.raises(NonFiniteOutputError, match=repr(float(bad))):
        dumps_json({"psi": arr})
    path = tmp_path / "r.json"
    with pytest.raises(NonFiniteOutputError):
        write_json(str(path), {"psi": arr})
    assert not path.exists()
    path = tmp_path / "r.csv"
    with pytest.raises(NonFiniteOutputError, match=repr(float(bad))):
        write_csv(str(path), {"g": 1.0}, ["x", "y"], arr.reshape(len(arr), -1))
    assert not path.exists()


def test_csv_preamble_and_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), {"g": 1.0}, ["a", "b"], [["1", "2"], ["3", "4"]])
    lines = path.read_text().splitlines()
    assert lines[0] == csv_preamble({"g": 1.0})
    assert lines[0].startswith("# schema=gdwell-csv-v1")
    assert lines[1] == "a,b"
    assert lines[2:] == ["1,2", "3,4"]


def test_csv_cell_with_comma_reads_back_intact(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), {"g": 1.0}, ["a", "note"], [["1", "p, q"], ["2", "r"]])
    with open(path, newline="", encoding="utf-8") as fh:
        fh.readline()  # schema/config comment line
        rows = list(csv.reader(fh))
    assert rows == [["a", "note"], ["1", "p, q"], ["2", "r"]]
