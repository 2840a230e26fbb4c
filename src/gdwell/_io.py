"""Deterministic report writers.

JSON is emitted by a small recursive serializer so every float is printed
with 17 significant digits (lossless round-trip) and identical configs
produce byte-identical files.  A float64 numpy array, such as a wavefunction
or a region curve's (a, x) rows, is written by _format_array: a 1-D array on
one line, a 2-D one a row to a line, each value as the text "%.17g" gives
it.  _format_array is a numpy kernel: it rounds each value to 17 digits
through a double-double product with a table of powers of ten, lays the
digits out in a byte matrix, and hands the few values whose rounding it
cannot be sure of (near-ties, neighbours of powers of ten, zeros and
subnormals) to Python's "%.17g".  Any other array raises TypeError.  A list
of Python scalars is written element by element, in the same text, and a
numpy scalar, alone or in a list, as the Python value its .item() gives.  A
non-finite float raises NonFiniteOutputError, since a report has no text for
it.  That error is a GdwellError, a numeric failure upstream (the CLI exits
3), and a ValueError.  CSV files start with a schema/config comment line
followed by a header row; their rows are a float array, written by
_format_array with commas, or str cells (table cells carry 4 decimals), and
a cell that holds a comma or a quote is quoted.  Both writers format the
whole file before they open it, so a refusal leaves no file behind.
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


# the decimal exponents k of _format_array's tables: over this range the
# scale 10^(16 - k) is a normal double
_KMIN, _KMAX = -292, 308
# clears the low 27 of the 52 fraction bits, leaving 26 significant bits
_SPLIT = np.int64(-1 << 27)


def _powers_of_ten() -> np.ndarray:
    """Rows hi and lo of 10^s = hi + lo for s = 16 - k, k = _KMIN.._KMAX:
    hi is the double nearest 10^s and lo the double nearest the remainder
    10^s - hi, from Python ints (the float of the exact remainder for s < 0)."""
    hi, lo = [], []
    p = 1
    for _ in range(17 - _KMIN):                 # s = 0 .. 16 - _KMIN
        h = float(p)
        hi.append(h)
        lo.append(float(p - int(h)))
        p *= 10
    hi.reverse()
    lo.reverse()
    q = 10
    for _ in range(_KMAX - 16):                 # s = -1 .. 16 - _KMAX
        e = q.bit_length() + 52                 # 1/q = (num + r/q) 2^-e, num of 53 bits
        num = ((1 << e) + q // 2) // q
        hi.append(math.ldexp(num, -e))
        lo.append(math.ldexp(((1 << e) - num * q) / q, -e))
        q *= 10
    return np.array([hi, lo])


def _exponent_layout() -> np.ndarray:
    """By k, as uint8: rows 0-4 the "e+XX" or "e+XXX" text, NUL-padded, and
    all NUL for -4 <= k <= 16, which "%.17g" writes without an exponent;
    row 5 the digit the point follows (17: none); row 6 the digits always
    shown, the integer part; row 7 the length of the "0.000" lead."""
    k = np.arange(_KMIN, _KMAX + 1)
    e = np.abs(k)
    layout = np.zeros((8, k.size), np.uint8)
    layout[0] = ord("e")
    layout[1] = np.where(k < 0, ord("-"), ord("+"))
    layout[2:5] = e // [[100], [10], [1]] % 10 + ord("0")
    layout[2] *= e >= 100
    fixed = slice(-4 - _KMIN, 17 - _KMIN)       # k = -4 .. 16
    layout[:5, fixed] = 0
    layout[5, fixed] = [17] * 4 + list(range(17))
    layout[6, fixed] = [0] * 4 + list(range(1, 18))
    layout[7, fixed][:4] = [5, 4, 3, 2]         # "0.000" .. "0."
    return layout


_P10 = np.empty((4, _KMAX - _KMIN + 1))      # hi, lo and hi's two halves
_P10[:2] = _powers_of_ten()
_P10[2] = (_P10[0].view(np.int64) & _SPLIT).view(np.float64)
_P10[3] = _P10[0] - _P10[2]
_LAYOUT = _exponent_layout()
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]
_POS = np.arange(18, dtype=np.uint8)[:, None]
_TIE = 0.5 - 1e-9


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For |v| = a: the row k - _KMIN of the tables, the 17 significant
    digits of |v| as an integer d, |v| = d 10^(k-16) to within half a unit,
    and a mask of the elements whose d is uncertain.

    d is a 10^(16-k) rounded half up, with the product formed in double-double
    arithmetic: Dekker's exact product of a and hi, plus a lo.  hi + lo is
    within 2^-104 10^(16-k) of 10^(16-k), so below 10^17 the product is
    within 1e-14 of exact.  d is uncertain where its fraction lies within
    1e-9 of 1/2, which every exact tie does (Python rounds those half to
    even), and where d is outside (10^16, 10^17): k off by one next to a
    power of ten, rounding carried to 10^17, or a zero or below the tables,
    as a subnormal is."""
    t = np.log10(a + 5e-324)
    t -= _KMIN
    np.maximum(t, 0.0, out=t)
    k = t.astype(np.intp)
    hi, lo, bh, bl = np.take(_P10, k, axis=1)
    ah = (a.view(np.int64) & _SPLIT).view(np.float64)
    al = a - ah
    ph = a * hi
    err = ah * bh - ph
    err += ah * bl
    err += al * bh
    err += al * bl
    err += a * lo
    near = np.floor(err + 0.5)
    d = ph.astype(np.int64)
    d += near.astype(np.int64)
    err -= near
    uncertain = np.abs(err) > _TIE
    uncertain |= (d <= 10**16) | (d >= 10**17)
    return k, d, uncertain


def _ascii_digits(d: np.ndarray) -> np.ndarray:
    """The 17 digits of each d < 10^17 as ASCII, digit j in row 1 + j, by
    scalar floor divisions into halves, quarters, pairs and digits; rows 0
    and 18 are NUL."""
    d0 = d // 10**16
    rest = d - d0 * 10**16
    hi8 = rest // 10**8
    h8 = np.array([hi8, rest - hi8 * 10**8], np.int32)
    h4 = np.empty((4, d.size), np.int32)
    np.floor_divide(h8, 10**4, out=h4[0::2])
    np.subtract(h8, h4[0::2] * 10**4, out=h4[1::2])
    h2 = np.empty((8, d.size), np.uint8)
    q = h4 // 100
    h2[0::2] = q
    h2[1::2] = h4 - q * 100
    dig = np.empty((19, d.size), np.uint8)
    dig[0] = dig[18] = 0
    dig[1] = d0
    np.floor_divide(h2, 10, out=dig[2:18:2])
    np.subtract(h2, dig[2:18:2] * 10, out=dig[3:18:2])
    dig[1:18] += ord("0")
    return dig


def _format_array(values: np.ndarray, row: str, sep: str = ", ", row_sep: str = "") -> str:
    """A 1-D (one row) or 2-D float64 array as text: each row is row with its
    values, "%.17g" each (format_float's text), joined by sep in place of
    "{}", and the rows are joined by row_sep.

    The text is built as a byte matrix, a column per value: the sign, the
    "0.000" lead, 17 digits with the point, the exponent and the separator
    that follows, with NUL in every unused place; one bytes.translate drops
    the NULs.  The values whose digits _decimal is not sure of are formatted
    by Python."""
    if values.dtype != np.float64 or values.ndim not in (1, 2):
        raise TypeError(f"a report writes 1-D or 2-D float64 arrays, not a "
                        f"{values.ndim}-D {values.dtype} one")
    rows = np.atleast_2d(values)
    if not np.isfinite(rows).all():
        raise _non_finite(rows[~np.isfinite(rows)][0].item())
    head, tail = row.split("{}")
    if not rows.size:
        return row_sep.join([head + tail] * rows.shape[0])
    x = rows.ravel()
    k, d, uncertain = _decimal(np.abs(x))
    dig = _ascii_digits(d)
    # the digits up to the last nonzero one, and at least the integer part
    nd = ((dig[1:18] != ord("0")) * _POS[1:]).max(axis=0)
    layout = np.take(_LAYOUT, k, axis=1)
    point = np.where(nd > layout[5] + 1, layout[5], 17)
    shown = np.maximum(nd, layout[6])
    enc = [s.encode() for s in (sep, tail + row_sep + head, tail)]
    w = max(map(len, enc))
    text = np.empty((29 + w, x.size), np.uint8)
    np.multiply(np.signbit(x).view(np.uint8), ord("-"), out=text[0])
    np.multiply(_POS[:5] < layout[7], _LEAD, out=text[1:6])
    # digit j at place j up to the point, at place j + 1 after it
    body = text[6:24]
    after = _POS > point
    np.copyto(body, dig[1:])
    np.copyto(body, dig[:-1], where=after)
    body *= _POS < shown + after
    np.copyto(body, ord("."), where=_POS == point + 1)
    text[24:29] = layout[:5]
    sep_col, row_end, last = (np.frombuffer(s.ljust(w, b"\0"), np.uint8)[:, None] for s in enc)
    text[29:] = sep_col
    text[29:, rows.shape[1] - 1::rows.shape[1]] = row_end
    text[29:, -1:] = last
    python = np.flatnonzero(uncertain)
    text[:29, python] = np.array(["%.17g" % v for v in x[python].tolist()],
                                 "S29").view(np.uint8).reshape(-1, 29).T
    return head + text.T.tobytes().translate(None, b"\0").decode()


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
