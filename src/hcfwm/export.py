"""Artifact text format: every CSV and JSON file is written through here.

CSV: one header row, then one row per record; cells joined by ",", rows
ended by "\\n".  A text cell is written as it is, a number as "%.9g".
JSON: keys sorted; compact for grids and decompositions, indent=1 plus a
trailing newline for summaries and manifests.

A non-finite number never reaches an artifact: both writers raise
NumericalError (CLI exit 2) before anything is written.
"""

from __future__ import annotations

import json
import os
import re

from .errors import NumericalError

# a whole cell reading nan, inf or -inf
_NON_FINITE_CELL = re.compile(r"(?:^|,)-?(?:nan|inf)(?=,|$)", re.M)


# cells per row -> "%.9g,...,%.9g", the format of an all-numeric row
_ROW_FORMATS: dict[int, str] = {}


def _line(cells) -> str:
    cells = tuple(cells)
    fmt = _ROW_FORMATS.get(len(cells))
    if fmt is None:
        fmt = _ROW_FORMATS[len(cells)] = ",".join(["%.9g"] * len(cells))
    try:
        return fmt % cells
    except TypeError:
        # a text cell: "%.9g" refuses it, so join cell by cell
        return ",".join([c if isinstance(c, str) else "%.9g" % c for c in cells])


def _save(text: str, path: str | None) -> str:
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _where(path: str | None) -> str:
    return "the artifact" if path is None else os.path.basename(path)


def to_csv(header, rows, path: str | None = None) -> str:
    """CSV text of ``header`` and ``rows`` (iterables of cells), written
    to ``path`` when given."""
    head = _line(header)
    body = "".join([_line(row) + "\n" for row in rows])
    for first_line, text in ((1, head), (2, body)):
        # a finite "%.9g" number holds neither "n" nor "i": the substring
        # test spares the exact search on all-numeric text
        if "n" in text or "i" in text:
            bad = _NON_FINITE_CELL.search(text)
            if bad:
                line = first_line + text.count("\n", 0, bad.start())
                raise NumericalError(
                    f"non-finite number on line {line} of {_where(path)}"
                )
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
