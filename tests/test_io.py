"""Deterministic report writers: float precision, schema lines, structure."""

import csv
import json

import pytest

from gdwell._io import csv_preamble, dumps_json, format_float, write_csv


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
