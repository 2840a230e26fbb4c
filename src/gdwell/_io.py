"""Deterministic report writers.

JSON is emitted by a small recursive serializer so every float is printed
with 17 significant digits (lossless round-trip) and identical configs
produce byte-identical files.  CSV files start with a schema/config comment
line followed by a header row; table cells carry 4 decimals, and a cell that
holds a comma or a quote is quoted.
"""

from __future__ import annotations

import csv
import json
from typing import Any

SCHEMA_CSV = "gdwell-csv-v1"


def format_float(v: float) -> str:
    return f"{v:.17g}"


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
        flat = all(isinstance(v, (int, float, bool, str, type(None))) for v in obj)
        if flat:
            return "[" + ", ".join(_serialize(v, indent) for v in obj) + "]"
        items = [f"{pad}  {_serialize(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
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


def write_csv(path: str, config: dict, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_preamble(config) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
