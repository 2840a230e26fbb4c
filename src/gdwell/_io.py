"""Deterministic report writers.

JSON is emitted by a small recursive serializer so every float is printed
with 17 significant digits (lossless round-trip) and identical configs
produce byte-identical files.  A list of Python floats, such as a
wavefunction, is written by one %-format over the whole list, not element by
element.  So is a list of equal-length lists or tuples of Python floats,
such as the region report's (a, x) curve pairs, one row to a line; any
other list of lists (ragged rows, or a row that holds an int) takes the
per-element path, which writes the same bytes.  A numpy scalar, alone or in
a list, is written as the Python value its .item() gives.  A non-finite
float raises NonFiniteOutputError, because JSON has no literal for it.  That
error is a GdwellError, a numeric failure upstream (the CLI exits 3), and a
ValueError; write_json formats the whole document before it opens the file,
so it leaves no file behind.  CSV files start with a schema/config comment
line followed by a header row; table cells carry 4 decimals, and a cell
that holds a comma or a quote is quoted.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import NonFiniteOutputError

SCHEMA_CSV = "gdwell-csv-v1"
_SCALARS = (int, float, bool, str, type(None))


def format_float(v: float) -> str:
    return f"{v:.17g}"


def _non_finite(v: Any) -> NonFiniteOutputError:
    return NonFiniteOutputError(f"JSON has no literal for the non-finite float {v!r}")


def _format_floats(fmt: str, values: Sequence[float]) -> str:
    """fmt % values, where fmt holds one "%.17g" per value; "%.17g" formats
    as format_float does, and only inf and nan hold an "n"."""
    text = fmt % tuple(values)
    if "n" in text:
        raise _non_finite(next(v for v in values if not math.isfinite(v)))
    return text


def _float_rows(obj: Sequence) -> list[float] | None:
    """The values of a list of equal-length, non-empty lists of Python
    floats, row by row; None for any other list."""
    width = len(obj[0]) if type(obj[0]) in (list, tuple) else 0
    if not width or any(type(r) not in (list, tuple) or len(r) != width for r in obj):
        return None
    flat = [v for r in obj for v in r]
    return flat if set(map(type, flat)) == {float} else None


def _serialize(obj: Any, indent: int) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_serialize(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if any(issubclass(k, np.generic) for k in kinds):
            return _serialize([v.item() if isinstance(v, np.generic) else v for v in obj],
                              indent)
        if kinds == {float}:
            return "[" + _format_floats(", ".join(["%.17g"] * len(obj)), obj) + "]"
        if all(issubclass(k, _SCALARS) for k in kinds):
            return "[" + ", ".join(_serialize(v, indent) for v in obj) + "]"
        flat = _float_rows(obj)
        if flat is not None:
            row = f"{pad}  [" + ", ".join(["%.17g"] * len(obj[0])) + "]"
            return "[\n" + _format_floats(",\n".join([row] * len(obj)), flat) + f"\n{pad}]"
        items = [f"{pad}  {_serialize(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, np.generic):
        return _serialize(obj.item(), indent)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise _non_finite(obj)
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def dumps_json(obj: Any) -> str:
    return _serialize(obj, 0) + "\n"


def write_json(path: str, obj: Any) -> None:
    text = dumps_json(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def csv_preamble(config: dict) -> str:
    cfg = ",".join(f"{k}={v}" for k, v in config.items())
    return f"# schema={SCHEMA_CSV} {cfg}"


def write_csv(path: str, config: dict, header: list[str],
              rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_preamble(config) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
