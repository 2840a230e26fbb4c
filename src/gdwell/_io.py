"""Deterministic report writers.

JSON is emitted by a small recursive serializer so every float is printed
with 17 significant digits (lossless round-trip) and identical configs
produce byte-identical files.  A float64 numpy array, such as a wavefunction
or a region curve's (a, x) rows, is written a 1-D array on one line and a
2-D one a row to a line, each value as the text "%.17g" gives it.  The
serializer checks each array where it meets it and leaves a slot in its
text; dumps_json then formats every array of the document in one pass of a
numpy kernel and fills the slots.  The kernel rounds each value to 17 digits
through a double-double product with a table of powers of ten, lays the
digits and each array's separators out in one byte matrix, and hands the
few values whose rounding it cannot be sure of (near-ties, neighbours of
powers of ten, zeros and subnormals) to Python's "%.17g".  _format_array is
the same kernel on one array.  Any other array raises TypeError.  A list of
Python scalars is written element by element, in the same text, and a numpy
scalar, alone or in a list, as the Python value its .item() gives.  A
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
# the types a list is written inline for; each numpy one's .item() is a Python one
_SCALARS = (int, float, bool, str, type(None), np.bool_, np.integer, np.floating)


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
    row 5 the place of the point among the digits (18: none); row 6 the
    digits always shown, the integer part; row 7 the length of the "0.000"
    lead."""
    k = np.arange(_KMIN, _KMAX + 1)
    e = np.abs(k)
    layout = np.zeros((8, k.size), np.uint8)
    layout[0] = ord("e")
    layout[1] = np.where(k < 0, ord("-"), ord("+"))
    layout[2:5] = e // [[100], [10], [1]] % 10 + ord("0")
    layout[2] *= e >= 100
    fixed = slice(-4 - _KMIN, 17 - _KMIN)       # k = -4 .. 16
    layout[:5, fixed] = 0
    layout[5] = 1
    layout[5, fixed] = [18] * 4 + list(range(1, 18))
    layout[6, fixed] = [0] * 4 + list(range(1, 18))
    layout[7, fixed][:4] = [5, 4, 3, 2]         # "0.000" .. "0."
    return layout


_P10 = np.empty((4, _KMAX - _KMIN + 1))      # hi, lo and hi's two halves
_P10[:2] = _powers_of_ten()
_P10[2] = (_P10[0].view(np.int64) & _SPLIT).view(np.float64)
_P10[3] = _P10[0] - _P10[2]
_LAYOUT = _exponent_layout()
# _decimal's one lookup by k: lo and hi's two halves (hi is their sum), then
# the eight _LAYOUT bytes of each k packed into one float64, never a number
_BY_K = np.vstack([_P10[1:], _LAYOUT.T.copy().view(np.float64).T])
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]
_POS = np.arange(18, dtype=np.uint8)[:, None]
_TIE = 0.5 - 1e-9
# ends each array's text in the kernel's output, and marks where it goes in
# the text around it; json.dumps escapes it in every key and string
_MARK = "\x01"


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For |v| = a: the (8, n) _LAYOUT bytes of each element's decimal
    exponent k, the 17 significant digits of |v| as an integer d, |v| = d
    10^(k-16) to within half a unit, and a mask of the elements whose d is
    uncertain.

    d is a 10^(16-k) rounded to nearest, with the product formed in
    double-double arithmetic: Dekker's exact product of a and hi, plus a lo.
    hi + lo is within 2^-104 10^(16-k) of 10^(16-k), so below 10^17 the
    product is within 1e-14 of exact.  d is uncertain where its fraction
    lies within 1e-9 of 1/2, which every exact tie does (Python rounds those
    half to even), and where d is outside (10^16, 10^17): k off by one next
    to a power of ten, rounding carried to 10^17, or a zero or below the
    tables, as a subnormal is."""
    t = np.log10(a + 5e-324)
    t -= _KMIN
    np.maximum(t, 0.0, out=t)
    lo, bh, bl, layout = np.take(_BY_K, t.astype(np.intp), axis=1)
    layout = layout.view(np.uint8).reshape(-1, 8).T.copy()
    ph = np.multiply(a, np.add(bh, bl, out=t), out=t)
    # Dekker: a's halves times hi's, each product exact, summed exactly in
    # this order into a hi - ph; the halves' buffers take the products
    ah = (a.view(np.int64) & _SPLIT).view(np.float64)
    al = a - ah
    err = ah * bh
    err -= ph
    err += np.multiply(ah, bl, out=ah)
    err += np.multiply(al, bh, out=ah)
    err += np.multiply(al, bl, out=al)
    err += np.multiply(a, lo, out=ah)
    del lo, bh, bl, ah, al
    near = np.rint(err)
    d = ph.astype(np.int64)
    d += near.astype(np.int64)
    err -= near
    uncertain = np.abs(err) > _TIE
    # d outside (10^16, 10^17), as one unsigned comparison
    uncertain |= (d - (10**16 + 1)).view(np.uint64) > 9 * 10**16 - 2
    return layout, d, uncertain


def _ascii_digits(d: np.ndarray) -> np.ndarray:
    """The 17 digits of each d < 10^17 as ASCII, digit j in row 1 + j; rows 0
    and 18 are NUL.  The first digit is d's scalar floor division by 10^16;
    the other 16 are split by scalar floor divisions into halves, quarters,
    pairs and digits, each level in the narrowest integer type that holds
    it."""
    dig = np.zeros((19, d.size), np.int8)
    np.floor_divide(d, 10**16, out=dig[1])
    part = (d - np.multiply(dig[1], 10**16, dtype=np.int64))[None]
    for base, kind in ((10**8, np.int32), (10**4, np.int16), (100, np.int8), (10, None)):
        out = np.empty((2 * len(part), d.size), kind) if kind else dig[2:18]
        np.floor_divide(part, base, out=out[0::2])
        np.subtract(part, np.multiply(out[0::2], base, dtype=part.dtype), out=out[1::2])
        part = out
    dig[1:18] += ord("0")
    return dig.view(np.uint8)


def _array_text(jobs: list[tuple[np.ndarray, bytes, bytes, bytes]]) -> bytes:
    """The text of every job's nonempty float64 rows, in one kernel pass:
    each value "%.17g" (format_float's text), followed by the job's sep, its
    row end after a row's last value, or its last (which ends with _MARK)
    after the array's last value.

    The text is built as a byte matrix, a column per value: the sign, the
    "0.000" lead, 17 digits with the point, the exponent and the separator
    that follows, with NUL in every unused place; one bytes.translate drops
    the NULs.  The values whose digits _decimal is not sure of are formatted
    by Python.  Each temporary is dropped once used, since the pass holds
    every array of a document at once."""
    x = np.concatenate([rows.ravel() for rows, *_ in jobs])
    sign = np.signbit(x).view(np.uint8)
    layout, d, uncertain = _decimal(np.abs(x, out=x))
    python = np.flatnonzero(uncertain)
    python_text = ["%.17g" % v for v in x[python].tolist()]
    del x, uncertain
    dig = _ascii_digits(d)
    del d
    # the digits up to the last nonzero one, and at least the integer part
    nd = ((dig[1:18] != ord("0")) * _POS[1:]).max(axis=0)
    dig[1:18] *= _POS[:17] < np.maximum(nd, layout[6])
    point = np.where(nd > layout[5], layout[5], 18)
    w = max(len(s) for job in jobs for s in job[1:])
    text = np.empty((29 + w, sign.size), np.uint8)
    np.multiply(sign, ord("-"), out=text[0])
    np.multiply(_POS[:5] < layout[7], _LEAD, out=text[1:6])
    text[24:29] = layout[:5]
    del sign, layout
    # digit j at place j before the point, at place j + 1 after it
    np.copyto(text[6:24], dig[1:])
    np.copyto(text[6:24], dig[:-1], where=_POS >= point)
    del dig
    np.copyto(text[6:24], ord("."), where=_POS == point)
    start = 0
    for rows, *seps in jobs:
        sep, row_end, last = (np.frombuffer(s.ljust(w, b"\0"), np.uint8)[:, None]
                              for s in seps)
        end = start + rows.size
        text[29:, start:end] = sep
        text[29:, start + rows.shape[1] - 1:end:rows.shape[1]] = row_end
        text[29:, end - 1:end] = last
        start = end
    if python_text:
        # the text of |v|, after the sign in row 0
        text[1:29, python] = np.array(python_text, "S28").view(np.uint8).reshape(-1, 28).T
    text = text.T.tobytes()
    return text.translate(None, b"\0")


def _slot(values: np.ndarray, row: str, sep: str, row_sep: str, jobs: list) -> str:
    """values as _format_array writes them, but with _MARK in place of the
    values and their separators; their job goes on jobs.  values is checked
    here: any array but a 1-D or 2-D float64 one raises TypeError, and a
    non-finite value NonFiniteOutputError."""
    if values.dtype != np.float64 or values.ndim not in (1, 2):
        raise TypeError(f"a report writes 1-D or 2-D float64 arrays, not a "
                        f"{values.ndim}-D {values.dtype} one")
    rows = np.atleast_2d(values)
    if not np.isfinite(rows).all():
        raise _non_finite(rows[~np.isfinite(rows)][0].item())
    head, tail = row.split("{}")
    if not rows.size:
        return row_sep.join([head + tail] * rows.shape[0])
    jobs.append((rows, sep.encode(), (tail + row_sep + head).encode(),
                 (tail + _MARK).encode()))
    return head + _MARK


def _fill(text: str, jobs: list) -> str:
    """text with each _MARK replaced by its job's text, from one _array_text
    call over every job, cut where str.find meets each _MARK."""
    if not jobs:
        return text
    values = _array_text(jobs).decode()
    parts = text.split(_MARK)
    out = [parts[0]]
    start = 0
    for part in parts[1:]:
        end = values.find(_MARK, start)
        out += values[start:end], part
        start = end + 1
    return "".join(out)


def _format_array(values: np.ndarray, row: str, sep: str = ", ", row_sep: str = "") -> str:
    """A 1-D (one row) or 2-D float64 array as text: each row is row with its
    values, "%.17g" each (format_float's text), joined by sep in place of
    "{}", and the rows are joined by row_sep."""
    jobs: list = []
    return _fill(_slot(values, row, sep, row_sep, jobs), jobs)


def _serialize(obj: Any, indent: int, jobs: list) -> str:
    """obj's JSON text, with a _MARK slot for each nonempty float array, whose
    job goes on jobs; each array is checked where it is met, so the first
    bad one in document order raises."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_serialize(v, indent + 2, jobs)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(issubclass(k, _SCALARS) for k in set(map(type, obj))):
            return "[" + ", ".join(_serialize(v, indent, jobs) for v in obj) + "]"
        items = [f"{pad}  {_serialize(v, indent + 2, jobs)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2:
            return _slot(obj, "[{}]", ", ", "", jobs)
        rows = _slot(obj, f"{pad}  [{{}}]", ", ", ",\n", jobs)
        return "[\n" + rows + f"\n{pad}]" if len(obj) else "[]"
    if isinstance(obj, np.generic):
        return _serialize(obj.item(), indent, jobs)
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
    """obj as JSON text; its float arrays are formatted in one kernel pass."""
    jobs: list = []
    return _fill(_serialize(obj, 0, jobs) + "\n", jobs)


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
