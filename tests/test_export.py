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
