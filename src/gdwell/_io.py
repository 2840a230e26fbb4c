"""Deterministic report writers.

JSON is emitted by a small recursive serializer so every float is printed
with 17 significant digits (lossless round-trip) and identical configs
produce byte-identical files.  A float64 numpy array, such as a wavefunction
or a region curve's (a, x) rows, is written by one %-format, _format_array:
a 1-D array on one line, a 2-D one a row to a line.  Any other array raises
TypeError.  A list of Python scalars is written element by element, in the
same text, and a numpy scalar, alone or in a list, as the Python value its
.item() gives.  A non-finite float raises NonFiniteOutputError, since a
report has no text for it.  That error is a GdwellError, a numeric failure
upstream (the CLI exits 3), and a ValueError.  CSV files start with a
schema/config comment line followed by a header row; their rows are a float
array, written by _format_array with commas, or str cells (table cells carry
4 decimals), and a cell that holds a comma or a quote is quoted.  Both
writers format the whole file before they open it, so a refusal leaves no
file behind.
"""

from __future__ import annotations

import csv
import io
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
    return NonFiniteOutputError(f"a report has no text for the non-finite float {v!r}")


def _format_array(values: np.ndarray, row: str, sep: str = ", ", row_sep: str = "") -> str:
    """A 1-D (one row) or 2-D float64 array as text, by one %-format: each row
    is row with its values, "%.17g" each (format_float's text), joined by sep
    in place of "{}", and the rows are joined by row_sep."""
    if values.dtype != np.float64 or values.ndim not in (1, 2):
        raise TypeError(f"a report writes 1-D or 2-D float64 arrays, not a "
                        f"{values.ndim}-D {values.dtype} one")
    rows = np.atleast_2d(values)
    if not np.isfinite(rows).all():
        raise _non_finite(rows[~np.isfinite(rows)][0].item())
    fmt = row.replace("{}", sep.join(["%.17g"] * rows.shape[1]))
    return row_sep.join([fmt] * rows.shape[0]) % tuple(rows.ravel().tolist())


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
        if all(issubclass(k, _SCALARS) for k in kinds):
            return "[" + ", ".join(_serialize(v, indent) for v in obj) + "]"
        items = [f"{pad}  {_serialize(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2:
            return _format_array(obj, "[{}]")
        if not len(obj):
            return "[]"
        return "[\n" + _format_array(obj, f"{pad}  [{{}}]", row_sep=",\n") + f"\n{pad}]"
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
              rows: np.ndarray | Iterable[Sequence[str]]) -> None:
    """rows are a 2-D float64 array, a row to a line, or rows of str cells."""
    buf = io.StringIO()
    buf.write(csv_preamble(config) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if isinstance(rows, np.ndarray):
        buf.write(_format_array(rows, "{}\n", ","))
    else:
        writer.writerows(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())
