"""Artifact text format: every CSV and JSON file is written through here.

CSV: one header row, then one row per record; cells joined by ",", rows
ended by "\\n".  A text cell is written as it is, a number as "%.9g".
The rows come in one of two forms, with the same text from either:
- an iterable of rows, each an iterable of cells, formatted cell by
  cell: the form for tables that hold text;
- a 2-D float64 ndarray, one table row per array row: numpy encodes it,
  about 32k cells at a time, into the bytes that "%.9g" gives.
JSON: keys sorted; compact for grids and decompositions, indent=1 plus a
trailing newline for summaries and manifests.

A non-finite number never reaches an artifact: both writers raise
NumericalError (CLI exit 2) before anything is written.
"""

from __future__ import annotations

import json
import os
import re
from functools import cache

import numpy as np

from .errors import NumericalError

# a whole cell reading nan, inf or -inf
_NON_FINITE_CELL = re.compile(r"(?:^|,)-?(?:nan|inf)(?=,|$)", re.M)


def _line(cells) -> str:
    return ",".join([c if isinstance(c, str) else "%.9g" % c for c in cells])


# An array table is encoded this many cells at a time (rounded to whole
# rows), so the working arrays stay near 1 MB whatever the table's size.
_CHUNK_CELLS = 32768

# The scaled mantissa has a relative error below 5e-16 (two correctly
# rounded powers of ten, two products), so below 5e-7 under 1e9.  A cell
# within this distance of a rounding half is formatted by Python instead.
_TIE_MARGIN = 4e-6

# the per-exponent tables cover the decimal exponents -_EXP_SPAN.._EXP_SPAN
_EXP_SPAN = 330


def _packed(text: str) -> int:
    """``text`` (at most 8 ASCII characters) as a little-endian word."""
    return int.from_bytes(text.encode("ascii"), "little")


@cache
def _tables() -> dict[str, np.ndarray]:
    """The encoder's lookup tables, built on first use and not at import.

    Each cell is written as four little-endian 8-byte words; a byte a cell
    does not use holds NUL, and every NUL is deleted afterwards:
    - head: sign, "0." and the zeros of a fixed number below 1, and the
      first digit in the last byte;
    - before: the next digits up to the point, then the point;
    - after: the digits after the point;
    - tail: "e", sign and digits of the exponent, then the separator.
    Tables indexed by e + _EXP_SPAN hold what the decimal exponent e alone
    decides: "%g" writes e < -4 and e >= 9 in exponent form.
    """
    n = np.arange(10000)
    digits = n[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48
    group = (digits << np.array([0, 8, 16, 24])).sum(axis=1).astype(np.uint64)
    # head, by (zeros after "0.", plus one; sign; first digit)
    head = [
        _packed("-" * sign + ("0." + "0" * (z - 1) if z else "").ljust(6, "\0"))
        | (48 + first) << 56
        for z in range(5)
        for sign in (0, 1)
        for first in range(10)
    ]
    exps = range(-_EXP_SPAN, _EXP_SPAN + 1)
    fixed = [-4 <= e < 9 for e in exps]
    tables = {
        "group_lo": group,
        "group_hi": group << np.uint64(32),
        "trailing": sum((n % j == 0).astype(np.int64) for j in (10, 100, 1000, 10000)),
        # the low k bytes, k = 0..8: the digits shown, or those before the point
        "keep": np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64),
        # a point after the next q digits, q = 0..7; 8: no point
        "point": np.array([46 << 8 * q for q in range(8)] + [0], dtype=np.uint64),
        "head": np.array(head, dtype=np.uint64),
        # 10**(8 - e) as two correctly rounded factors, neither of which
        # overflows or underflows the product for a finite float64
        "scale_a": np.array([float(f"1e{(8 - e) // 2}") for e in exps]),
        "scale_b": np.array([float(f"1e{8 - e - (8 - e) // 2}") for e in exps]),
        "head_row": np.array(
            [-20 * e if f and e < 0 else 0 for e, f in zip(exps, fixed)]
        ),
        # digits a cell shows at least: a fixed number keeps its integer part
        "int_digits": np.array(
            [e + 1 if f and e > 0 else 1 for e, f in zip(exps, fixed)]
        ),
        # digits before the point; 9 (none) for "0.000ddd", whose point is
        # in the head
        "point_after": np.array(
            [(e + 1 if e >= 0 else 9) if f else 1 for e, f in zip(exps, fixed)]
        ),
        "exponent": np.array(
            [0 if f else _packed("e%+03d" % e) for e, f in zip(exps, fixed)],
            dtype=np.uint64,
        ),
    }
    for table in tables.values():  # shared by every caller
        table.flags.writeable = False
    return tables


def _encode(values: np.ndarray, seps: np.ndarray) -> bytes:
    """ASCII of each finite float64 in ``values`` as "%.9g" gives it, cell
    i followed by the separator in byte 5 of ``seps[i]``."""
    t = _tables()
    a = np.abs(values)
    # 9-digit integer mantissa and decimal exponent: a = mant * 10**(e-8),
    # and 0 for zero.  log10 puts e one off only within a few ulps of a
    # power of ten, where m rounds to 1e8 (e one high, right as it is) or
    # to 1e9 (e one low, mended by the carry)
    ei = np.floor(np.log10(np.where(a > 0.0, a, 1.0))).astype(np.int64) + _EXP_SPAN
    m = a * t["scale_a"][ei] * t["scale_b"][ei]
    mant = np.rint(m)
    tie = np.flatnonzero(np.abs(np.abs(m - mant) - 0.5) < _TIE_MARGIN)
    mant = mant.astype(np.int64)
    carry = mant == 10**9
    mant[carry] = 10**8
    ei += carry
    for i in tie.tolist():
        text = "%.8e" % a[i]
        mant[i] = int(text[0] + text[2:10])
        ei[i] = int(text[11:]) + _EXP_SPAN

    # "//" by a constant is several times faster than np.divmod
    high = mant // 10000
    low = mant - high * 10000
    first = high // 10000
    mid = high - first * 10000
    # significant digits, trailing zeros dropped as "%g" drops them
    nd = 9 - np.where(low > 0, t["trailing"][low], 4 + t["trailing"][mid])
    shown = np.maximum(nd, t["int_digits"][ei])
    # the point shows only before a further digit
    point = t["point_after"][ei]
    q = np.where(nd > point, point - 1, 8)

    digits = (t["group_lo"][mid] | t["group_hi"][low]) & t["keep"][shown - 1]
    before = t["keep"][q]
    out = np.empty((values.size, 4), dtype="<u8")
    out[:, 0] = t["head"][t["head_row"][ei] + np.signbit(values) * 10 + first]
    out[:, 1] = digits & before | t["point"][q]
    out[:, 2] = digits & ~before
    out[:, 3] = t["exponent"][ei] | seps
    return out.tobytes().translate(None, b"\0")


def _table_text(table: np.ndarray, path: str | None) -> str:
    """CSV body of a 2-D float64 table, after refusing a non-finite cell."""
    finite = np.isfinite(table)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise NumericalError(f"non-finite number on line {row + 2} of {_where(path)}")
    n_rows, n_cols = table.shape
    step = max(1, _CHUNK_CELLS // n_cols)
    seps = np.full((step, n_cols), 44 << 40, dtype=np.uint64)
    seps[:, -1] = 10 << 40
    seps = seps.ravel()
    chunks = []
    for start in range(0, n_rows, step):
        cells = table[start : start + step].ravel()
        chunks.append(_encode(cells, seps[: cells.size]).decode("ascii"))
    return "".join(chunks)


def _save(text: str, path: str | None) -> str:
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _where(path: str | None) -> str:
    return "the artifact" if path is None else os.path.basename(path)


def _refuse_non_finite(text: str, first_line: int, path: str | None) -> None:
    # a finite "%.9g" number holds neither "n" nor "i": the substring test
    # spares the exact search on all-numeric text
    if "n" in text or "i" in text:
        bad = _NON_FINITE_CELL.search(text)
        if bad:
            line = first_line + text.count("\n", 0, bad.start())
            raise NumericalError(f"non-finite number on line {line} of {_where(path)}")


def to_csv(header, rows, path: str | None = None) -> str:
    """CSV text of ``header`` (an iterable of cells) and ``rows`` (an
    iterable of such rows, or a 2-D float64 ndarray), written to ``path``
    when given."""
    head = _line(header)
    _refuse_non_finite(head, 1, path)
    if (
        isinstance(rows, np.ndarray)
        and rows.ndim == 2
        and rows.dtype == np.float64
        and rows.shape[1] > 0
    ):
        body = _table_text(rows, path)
    else:
        body = "".join([_line(row) + "\n" for row in rows])
        _refuse_non_finite(body, 2, path)
    return _save(f"{head}\n{body}", path)


def to_json(obj, path: str | None = None, indent: int | None = None) -> str:
    """Key-sorted JSON text of ``obj``, written to ``path`` when given;
    with ``indent``, the text ends in a newline."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError:
        raise NumericalError(f"non-finite number in {_where(path)}") from None
    if indent is not None:
        text += "\n"
    return _save(text, path)
