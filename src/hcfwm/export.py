"""Artifact text format: every CSV and JSON file is written through here.

CSV: one header row, then one row per record; cells joined by ",", rows
ended by "\\n".  A text cell is written as it is, a number as "%.9g".
The rows come in one of two forms, with the same text from either:
- an iterable of rows, each an iterable of cells, formatted cell by
  cell: the form for tables that hold text;
- a 2-D float64 ndarray, or a tuple of them with equal row counts laid
  side by side, one table row per array row: numpy encodes it, a chunk
  of whole rows at a time, into the bytes that "%.9g" gives.
JSON: keys sorted; compact for grids and decompositions, indent=1 plus a
trailing newline for summaries and manifests.  Compact JSON takes a
mapping with string keys and writes it key by key: a value that is a 1-D
or 2-D float64 ndarray is encoded by numpy, a chunk at a time, into
exactly the bytes json.dumps gives for its .tolist(), every number as its
shortest round-trip repr; any other value, and all of an indented
object, goes through json.

Both writers hand ``save`` their text as a stream of encoded pieces, and
``save`` writes each piece as it comes: an array is never held as text
whole, so a grid artifact costs one chunk of working memory, not one
file.  A chunk is 8,192 cells (``_CHUNK_CELLS``) for both encoders,
and each keeps about 17 chunk-sized arrays alive, so writing any table
or array holds about 2 MiB of working memory.  Given no path, ``save``
joins the pieces and every exporter returns the text; given a path, it
writes the file, closes it and returns None; given ``CHECK_ONLY``, it
drops the pieces unread, so an exporter runs its checks and encodes
nothing.

A non-finite number never reaches an artifact: both writers raise
NumericalError (CLI exit 2) before the file is opened.  They check
numbers as numbers: an array by numpy, a number in a text row as it is
formatted, anything else by json; a text cell is written as given.  A
file that cannot be written raises ValidationError (CLI exit 1); ``save``
is the one place that opens an artifact for writing.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import chain

import numpy as np

from .errors import NumericalError, ValidationError

# The path that checks an artifact without writing it.  A NUL can be in
# no file name, so no real path equals it.
CHECK_ONLY = "\0check only"


def _line(cells, number: int, path: str | None) -> str:
    """CSV line ``number`` of a file; a NaN or infinite number raises."""
    text = []
    for c in cells:
        if not isinstance(c, str):
            if not math.isfinite(c):
                raise NumericalError(
                    f"non-finite number on line {number} of {_where(path)}"
                )
            c = "%.9g" % c
        text.append(c)
    return ",".join(text)


# Both encoders take an array this many cells at a time (a CSV table
# rounded to whole rows), so their working arrays stay near 2 MiB whatever
# the array's size.
_CHUNK_CELLS = 8192

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


def _refuse_non_finite_table(blocks: tuple, path: str | None) -> None:
    finite = np.isfinite(blocks[0]).all(axis=1)
    for b in blocks[1:]:
        finite &= np.isfinite(b).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NumericalError(f"non-finite number on line {row + 2} of {_where(path)}")


def _table_pieces(blocks: tuple) -> Iterator[bytes]:
    """CSV body of a finite table, given as 2-D float64 column blocks laid
    side by side, a chunk of rows at a time; no block is copied whole."""
    n_rows, n_cols = blocks[0].shape[0], sum(b.shape[1] for b in blocks)
    step = max(1, _CHUNK_CELLS // n_cols)
    seps = np.full((step, n_cols), 44 << 40, dtype=np.uint64)
    seps[:, -1] = 10 << 40
    seps = seps.ravel()
    for start in range(0, n_rows, step):
        cells = np.hstack([b[start : start + step] for b in blocks]).ravel()
        yield _encode(cells, seps[: cells.size])


# ------------------------------------------------ JSON float arrays
#
# repr writes the shortest digits that read back to the same float64 and,
# of those, the ones nearest to it.  With x = f * 2**e2 (f in [0.5, 1)),
# e10 = floor(log10 x) and v = x * 10**(16 - e10) in [1e16, 1e17), a
# decimal text reads back to x when its scaled value lies within half a
# scaled ulp, h, of v (Ryu: Adams, PLDI 2018).  The interval always holds
# an integer, and v is formed exactly enough as a double-double (Dekker,
# Numer. Math. 18 (1971)) to decide the rest.

# v and h are good to about 1e-14; a cell whose interval bound or rounding
# lies within this distance of the decision goes through Python's repr
_REPR_UNSURE = 1e-6

# the Dekker split of a float64 into two 26-bit halves
_SPLIT = 134217729.0


@cache
def _repr_tables() -> dict[str, np.ndarray]:
    """The repr encoder's tables, built on first use and not at import.

    By e10 + _EXP_SPAN: 10**(16 - e10) = (hi + lo) * 2**b with hi in
    [1, 2], from exact integers, and what e10 decides of the layout.  By
    q = 0..16: the bytes of the first q of the 16 digits after the first,
    in the low and the high word, and a point after them.
    """
    rows = []
    for k in range(16 + _EXP_SPAN, 15 - _EXP_SPAN, -1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        b = num.bit_length() - den.bit_length()
        if num << max(-b, 0) < den << max(b, 0):
            b -= 1
        # 10**k * 2**(106 - b), rounded to an integer below 2**107
        num <<= max(106 - b, 0)
        den <<= max(b - 106, 0)
        t = (2 * num + den) // (2 * den)
        hi = float(t)
        rows.append((math.ldexp(hi, -106), math.ldexp(float(t - int(hi)), -106), b))
    hi, lo, b = (np.array(col) for col in zip(*rows))
    c = hi * _SPLIT
    hi_h = c - (c - hi)
    exps = range(-_EXP_SPAN, _EXP_SPAN + 1)
    q = np.arange(17)
    keep = _tables()["keep"]
    tables = {
        "hi": hi,
        "hi_h": hi_h,
        "hi_l": hi - hi_h,
        "lo": lo,
        "b": b.astype(np.int32),  # np.ldexp is slower with int64 exponents
        # digits after the first that fixed notation shows at least
        "int_after": np.array([e + 1 if 0 <= e < 16 else 0 for e in exps]),
        # digits after the first before the point; 16: none, or in the head
        "point_at": np.array(
            [e if 0 <= e < 16 else 16 if -4 <= e < 0 else 0 for e in exps]
        ),
        # "e", sign and exponent digits, from byte 1
        "exponent": np.array(
            [0 if -4 <= e < 16 else _packed("e%+03d" % e) << 8 for e in exps],
            dtype=np.uint64,
        ),
        "first_lo": keep[np.minimum(q, 8)],
        "first_hi": keep[np.clip(q - 8, 0, 8)],
        "point_lo": np.where(q < 8, 46 << 8 * (q % 8), 0).astype(np.uint64),
        "point_hi": np.where((8 <= q) & (q < 16), 46 << 8 * (q % 8), 0).astype(
            np.uint64
        ),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _shortest(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """repr's digits of each positive float64 in ``a``: the digits, then
    zeros, as a 17-digit integer; e10 + _EXP_SPAN; and the cells this
    cannot decide."""
    t = _repr_tables()
    f, e2 = np.frexp(a)
    k = np.floor(np.log10(a)).astype(np.int64) + _EXP_SPAN
    hi, lo = t["hi"][k], t["lo"][k]
    # p + err = f * hi exactly
    c = f * _SPLIT
    fh = c - (c - f)
    fl = f - fh
    hh, hl = t["hi_h"][k], t["hi_l"][k]
    p = f * hi
    err = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl
    s = t["b"][k] + e2
    v = np.ldexp(p, s).astype(np.int64)  # an integer, since v >= 2**53
    vl = np.ldexp(err + f * lo, s)
    h = np.ldexp(hi, s - 54)  # ulp(x) = 2**(e2 - 53)
    below, above = vl - h, vl + h
    low = v + np.ceil(below).astype(np.int64)
    high = v + np.floor(above).astype(np.int64)
    unsure = (
        (np.abs(below - np.rint(below)) < _REPR_UNSURE)
        | (np.abs(above - np.rint(above)) < _REPR_UNSURE)
        | (f == 0.5)  # a power of two: the interval below is half as wide
        | (a < 2.2250738585072014e-308)  # subnormal
        | (high < 10**16)  # e10 one off, or digits that reach 10**17
        | (high >= 10**17)
    )
    # [low, high] is at most 23 wide, so it holds at most one multiple of
    # 100: that one, if any, has the most trailing zeros.  Otherwise take
    # the multiple of 10, or else the integer, nearest to v.
    hundreds = high // 100 * 100
    tens = high // 10 * 10
    has_ten = tens >= low
    d = 1 + 9 * has_ten
    top = high - has_ten * (high - tens)
    g = ((top - v) - vl) / d
    r = np.rint(g)
    unsure |= np.abs(np.abs(g - r) - 0.5) < _REPR_UNSURE
    nearest = top - d * r.astype(np.int64)
    return np.where(hundreds >= low, hundreds, nearest), k, unsure


def _repr_digits(x: float) -> tuple[int, int]:
    """_shortest's digits and exponent index for one float, read from repr."""
    mant, _, exp = repr(x).partition("e")
    ip, _, fp = mant.partition(".")
    if ip == "0":
        e10 = len(fp.lstrip("0")) - len(fp) - 1
    else:
        e10 = len(ip) - 1 + int(exp or 0)
    digits = (ip + fp).strip("0")
    return int(digits) * 10 ** (17 - len(digits)), e10 + _EXP_SPAN


def _repr_encode(values: np.ndarray, seps: np.ndarray) -> bytes:
    """ASCII of each finite float64 in ``values`` as repr gives it, cell i
    followed by the separator in bytes 6-7 of ``seps[i]``."""
    t = _tables()
    rt = _repr_tables()
    a = np.abs(values)
    zero = a == 0.0
    mult, ei, unsure = _shortest(np.where(zero, 1.0, a))
    mult[zero] = 0  # 1.0 has the exponent and layout of 0.0
    for i in np.flatnonzero(unsure & ~zero).tolist():
        mult[i], ei[i] = _repr_digits(float(a[i]))

    first = mult // 10**16
    rest = mult - first * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    g1 = high // 10000
    g2 = high - g1 * 10000
    g3 = low // 10000
    g4 = low - g3 * 10000
    # trailing zeros of the 16 digits after the first (trailing[0] is 4)
    tr = t["trailing"]
    zeros = tr[g4]
    i = np.flatnonzero(g4 == 0)
    zeros[i] += tr[g3[i]] + (low[i] == 0) * (tr[g2[i]] + (g2[i] == 0) * tr[g1[i]])
    # digits after the first, the shown ones only: the significant digits,
    # and in fixed notation the integer part and one after the point
    shown = np.maximum(16 - zeros, rt["int_after"][ei])
    w_lo = (t["group_lo"][g1] | t["group_hi"][g2]) & rt["first_lo"][shown]
    w_hi = (t["group_lo"][g3] | t["group_hi"][g4]) & rt["first_hi"][shown]
    # the point shows only before a further digit; the digits after it
    # move up one byte to make room
    p = np.where(shown > 0, rt["point_at"][ei], 16)
    stay_lo, stay_hi = rt["first_lo"][p], rt["first_hi"][p]
    move_lo, move_hi = w_lo & ~stay_lo, w_hi & ~stay_hi
    out = np.empty((values.size, 4), dtype="<u8")
    # repr, like "%g", writes "0." and zeros before the digits for e10 in [-4, -1]
    out[:, 0] = t["head"][t["head_row"][ei] + np.signbit(values) * 10 + first]
    out[:, 1] = w_lo & stay_lo | move_lo << np.uint64(8) | rt["point_lo"][p]
    out[:, 2] = (
        move_lo >> np.uint64(56)
        | w_hi & stay_hi
        | move_hi << np.uint64(8)
        | rt["point_hi"][p]
    )
    out[:, 3] = move_hi >> np.uint64(56) | rt["exponent"][ei] | seps
    return out.tobytes().translate(None, b"\0")


def _array_pieces(arr: np.ndarray) -> Iterator[bytes]:
    """json.dumps(arr.tolist()) of a finite 1-D or 2-D float64 array, a
    chunk at a time."""
    if arr.size == 0:
        yield json.dumps(arr.tolist()).encode()
        return
    flat = arr.ravel()
    n_cols = arr.shape[-1]
    yield b"[[" if arr.ndim == 2 else b"["
    for start in range(0, flat.size, _CHUNK_CELLS):
        cells = flat[start : start + _CHUNK_CELLS]
        # ", " after a cell, "\x01" (for "], [") after a row, none at the end
        seps = np.full(cells.size, 0x202C << 48, dtype=np.uint64)
        seps[(n_cols - 1 - start) % n_cols :: n_cols] = 1 << 48
        if start + cells.size == flat.size:
            seps[-1] = 0
        yield _repr_encode(cells, seps).replace(b"\x01", b"], [")
    yield b"]]" if arr.ndim == 2 else b"]"


def save(pieces: Iterable[bytes], path: str | None) -> str | None:
    """Write ``pieces`` to ``path`` one by one as they come, close the file
    and return None; with no path, return their text; with ``CHECK_ONLY``,
    return None and leave them unread.  A file that cannot be written (a
    directory in its place, a full disk) raises ValidationError naming it."""
    if path is None:
        return b"".join(pieces).decode()
    if path == CHECK_ONLY:
        return None
    try:
        with open(path, "wb") as fh:
            for piece in pieces:
                fh.write(piece)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None
    return None


def _where(path: str | None) -> str:
    return "the artifact" if path in (None, CHECK_ONLY) else os.path.basename(path)


def to_csv(header, rows, path: str | None = None) -> str | None:
    """CSV of ``header`` (an iterable of cells) and ``rows`` (an iterable
    of such rows, or a 2-D float64 ndarray, or a tuple of them to lay side
    by side): written to ``path`` when given, else returned as text."""
    head = _line(header, 1, path) + "\n"
    blocks = rows if isinstance(rows, tuple) else (rows,)
    if all(
        isinstance(b, np.ndarray) and b.ndim == 2 and b.dtype == np.float64
        for b in blocks
    ) and sum(b.shape[1] for b in blocks) > 0:
        _refuse_non_finite_table(blocks, path)
        body = _table_pieces(blocks)
    else:
        text = "".join([_line(row, i, path) + "\n" for i, row in enumerate(rows, 2)])
        body = (text.encode(),)
    return save(chain((head.encode(),), body), path)


def to_json(obj, path: str | None = None, indent: int | None = None) -> str | None:
    """Key-sorted JSON of ``obj``: written to ``path`` when given, else
    returned as text; with ``indent``, the text ends in a newline.  Without
    ``indent``, ``obj`` must be a dict with string keys (else TypeError),
    and a value of it that is a 1-D or 2-D float64 ndarray is written as
    its ``.tolist()``; json refuses an array anywhere else."""
    non_finite = NumericalError(f"non-finite number in {_where(path)}")
    if indent is not None:
        try:
            text = json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False)
        except ValueError:
            raise non_finite from None
        return save(((text + "\n").encode(),), path)
    if not isinstance(obj, dict) or not all(isinstance(k, str) for k in obj):
        raise TypeError("compact JSON takes a dict with string keys")
    # all is checked before save opens the file; arrays encode as it writes
    parts = []
    for i, key in enumerate(sorted(obj)):
        value = obj[key]
        parts.append([b", " * (i > 0) + json.dumps(key).encode() + b": "])
        array = isinstance(value, np.ndarray) and value.dtype == np.float64
        if array and value.ndim in (1, 2):
            if not np.isfinite(value).all():
                raise non_finite
            parts.append(_array_pieces(value))
        else:
            try:
                text = json.dumps(value, sort_keys=True, allow_nan=False)
            except ValueError:
                raise non_finite from None
            parts.append([text.encode()])
    return save(chain([b"{"], *parts, [b"}"]), path)
