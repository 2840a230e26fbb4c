"""Deterministic report writers.

JSON is emitted by a small recursive serializer so every float is printed
with 17 significant digits (lossless round-trip) and identical configs
produce byte-identical files.  A list of Python floats, such as a grid or a
wavefunction, is written by one %-format over the whole list, not element by
element.  A non-finite float raises ValueError, because JSON has no literal
for it.  CSV files start with a schema/config comment line followed by a
header row; table cells carry 4 decimals, and a cell that holds a comma or a
quote is quoted.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Any, Iterable, Sequence

SCHEMA_CSV = "gdwell-csv-v1"
_SCALARS = (int, float, bool, str, type(None))


def format_float(v: float) -> str:
    return f"{v:.17g}"


def _non_finite(v: Any) -> ValueError:
    return ValueError(f"JSON has no literal for the non-finite float {v!r}")


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
        if kinds == {float}:
            # "%.17g" formats as format_float does; only inf and nan hold an "n"
            text = ", ".join(["%.17g"] * len(obj)) % tuple(obj)
            if "n" in text:
                raise _non_finite(next(v for v in obj if not math.isfinite(v)))
            return "[" + text + "]"
        if all(issubclass(k, _SCALARS) for k in kinds):
            return "[" + ", ".join(_serialize(v, indent) for v in obj) + "]"
        items = [f"{pad}  {_serialize(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(obj))


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
