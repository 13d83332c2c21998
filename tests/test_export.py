"""Artifact writer: byte identity with the per-cell CSV writer, JSON layout,
and refusal of non-finite numbers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from _oracles import csv_writer_text
from hcfwm import export, jsa
from hcfwm.errors import NumericalError

EDGE_VALUES = [
    -0.0,
    5e-324,
    1e300,
    -1e-300,
    0.1 + 0.2,
    123456789.5,
    1e16,
    2.0**53 + 1.0,
    3.0,
    -7.0,
    1.0 / 3.0,
    np.float64(2.0 / 3.0),
    np.float64(-1e-7),
]


def test_csv_matches_per_cell_writer_on_edge_values():
    header = ("band", "index", "value", "empty", "0")
    rows = [("II", 2, v, "", 0.5) for v in EDGE_VALUES]
    rows.append(("I", 1, 1e-5, "text cell", np.float64(1e22)))
    assert export.to_csv(header, rows) == csv_writer_text(header, rows)


def test_csv_header_only_and_numeric_header():
    assert export.to_csv(("a", "b"), []) == csv_writer_text(("a", "b"), [])
    header = ["0", 1500.25, np.float64(1600.125)]
    rows = [[1400.5, 1e-3, -0.0]]
    assert export.to_csv(header, rows) == csv_writer_text(header, rows)


def test_grid_exporter_matches_per_cell_writer(grid128, tmp_path):
    values = jsa.jsi(grid128)
    header = ["0"] + grid128.lambda_i_nm.tolist()
    rows = [
        [x] + row.tolist() for x, row in zip(grid128.lambda_s_nm.tolist(), values)
    ]
    path = tmp_path / "jsi.csv"
    text = jsa.jsi_to_csv(grid128, str(path))
    assert text == csv_writer_text(header, rows)
    assert path.read_text() == text


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", ["header", "first", "last"])
def test_csv_refuses_non_finite(bad, where, tmp_path):
    header = ["0", 1.0, 2.0] if where != "header" else ["0", 1.0, bad]
    rows = [["I", 1.5, 2.5], ["II", 3.5, 4.5]]
    if where == "first":
        rows[0][1] = bad
    elif where == "last":
        rows[1][2] = np.float64(bad)
    line = {"header": 1, "first": 2, "last": 3}[where]
    path = tmp_path / "grid.csv"
    with pytest.raises(NumericalError, match=f"line {line} of grid.csv"):
        export.to_csv(header, rows, str(path))
    assert not path.exists()


# cells an all-numeric row may hold besides Python floats
ODD_NUMBERS = [
    True,
    False,
    np.float32(0.1),
    np.int64(-7),
    np.uint8(255),
    np.float64(1e-300),
    2**53 + 1,
    2**60,
    -(2**64),
]


def test_csv_numeric_and_text_rows_format_numbers_alike():
    """An all-numeric row is formatted in one call, a row with a text
    cell cell by cell; a number must come out the same either way."""
    header = [f"c{i}" for i in range(len(ODD_NUMBERS))]
    numeric = export.to_csv(header, [ODD_NUMBERS]).splitlines()[1]
    mixed = export.to_csv(header + ["t"], [ODD_NUMBERS + ["t"]])
    assert mixed.splitlines()[1] == numeric + ",t"
    assert numeric == (
        "1,0,0.100000001,-7,255,1e-300,9.00719925e+15,1.1529215e+18,"
        "-1.84467441e+19"
    )


def test_csv_text_among_numbers_matches_per_cell_writer():
    header = ("a", "b", "c", "d")
    rows = [
        (1.0, "x", np.float64(2.5), 3),
        (np.float32(0.1), np.int64(-7), "", 1e300),
        (0.1 + 0.2, 4.0, 5.0, "tail"),
    ]
    assert export.to_csv(header, rows) == csv_writer_text(header, rows)


def test_csv_rows_of_differing_lengths():
    rows = [[1.0], [1.0, 2.5, 1e-7], [], [np.float64(3.0), 4.0], [0.5]]
    assert export.to_csv(("a",), rows) == csv_writer_text(("a",), rows)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("row", [0, 3, 6])
def test_csv_refuses_non_finite_in_numeric_rows(bad, row, tmp_path):
    rows = [[1.5 * i, 2.5, np.float64(3.5)] for i in range(7)]
    rows[row][row % 3] = bad
    path = tmp_path / "table.csv"
    with pytest.raises(NumericalError, match=f"line {row + 2} of table.csv"):
        export.to_csv(("a", "b", "c"), rows, str(path))
    assert not path.exists()


def test_csv_text_cells_are_not_numbers():
    text = export.to_csv(("param", "info"), [("length_m", "inflated nano")])
    assert text == "param,info\nlength_m,inflated nano\n"


def test_json_layouts(tmp_path):
    obj = {"b": [1.5, -0.0], "a": {"z": 1, "y": "nan"}}
    compact = export.to_json(obj)
    assert compact == json.dumps(obj, sort_keys=True)
    path = tmp_path / "manifest.json"
    pretty = export.to_json(obj, str(path), indent=1)
    assert pretty == json.dumps(obj, sort_keys=True, indent=1) + "\n"
    assert path.read_text() == pretty


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_refuses_non_finite(bad, tmp_path):
    path = tmp_path / "sweep.json"
    with pytest.raises(NumericalError, match="sweep.json"):
        export.to_json({"fit": {"r_squared": bad}}, str(path), indent=1)
    assert not path.exists()
