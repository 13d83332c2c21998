"""Artifact writer: byte identity with the per-cell CSV writer and with
json.dumps of .tolist() lists, JSON layout, and refusal of non-finite
numbers."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import csv_writer_text, tolist_jsa_json
from hcfwm import cli, config, export, jsa, sweeps
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
    text = jsa.jsi_to_csv(grid128)
    assert text == csv_writer_text(header, rows)
    path = tmp_path / "jsi.csv"
    assert jsa.jsi_to_csv(grid128, str(path)) is None
    assert path.read_text() == text


# ------------------------------------------------ streaming to a file

_TABLE = np.random.default_rng(23).normal(size=(3000, 25)) * 1e-7  # 3 chunks
_ARRAY = np.random.default_rng(29).normal(size=(91, 97))  # 2 chunks

WRITERS = {
    "csv-array": lambda path: export.to_csv(
        [f"c{j}" for j in range(25)], _TABLE, path
    ),
    "csv-text": lambda path: export.to_csv(
        ("band", "lo_nm", "hi_nm"),
        [("I", 1e3 * k, 1e3 * k + 0.5) for k in range(200)],
        path,
    ),
    "json-compact": lambda path: export.to_json(
        {"grid": _ARRAY, "axis": _ARRAY[0], "meta": {"mode": "full"}}, path
    ),
    "json-indented": lambda path: export.to_json(
        {"fit": {"slope": -1.5, "r_squared": 0.999}, "gaps": []}, path, indent=1
    ),
    "yaml": lambda path: config.dump_config(cli.resolve_config("map_t300"), path),
}


@pytest.mark.parametrize("form", WRITERS)
def test_file_holds_the_text_returned_without_a_path(form, tmp_path):
    write = WRITERS[form]
    text = write(None)
    path = tmp_path / "artifact"
    assert write(str(path)) is None
    assert path.read_bytes() == text.encode()


@pytest.fixture(scope="module")
def grid1024(fiber, xenon, pump, branch):
    return jsa.build_jsa(fiber, xenon, pump, branch, L_m=1.0, n=1024)


def _traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_jsa_json_streams_to_its_file(grid1024, tmp_path):
    """Only the magnitude and phase arrays and one chunk of text are held
    at once, not the 46 MB file."""
    path = tmp_path / "jsa.json"
    peak = _traced_peak(lambda: jsa.jsa_to_json(grid1024, str(path)))
    assert peak < 0.6 * path.stat().st_size


def test_grid_csv_streams_to_its_file(grid1024, tmp_path):
    """The wavelength column joins the grid one chunk of rows at a time, so
    only that chunk and its text are held at once: neither a copy of the
    8 MB grid nor the 16 MB file."""
    lam_s, lam_i = grid1024.lambda_s_nm, grid1024.lambda_i_nm
    values = jsa.jsi(grid1024)
    path = tmp_path / "jsi.csv"
    peak = _traced_peak(lambda: jsa.grid_to_csv(lam_s, lam_i, values, str(path)))
    assert peak < 0.75 * path.stat().st_size


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
    # only numbers are checked: a text cell is written as given
    assert export.to_csv(("nan", "b"), [("inf", 1.5)]) == "nan,b\ninf,1.5\n"


# ------------------------------------------------ 2-D float64 tables


def assert_encoded_alike(table):
    """The array encoder, the row path and the per-cell oracle give the
    same text for ``table``; a failure names the first differing cell."""
    header = [f"c{j}" for j in range(table.shape[1])]
    rows = table.tolist()
    encoded = export.to_csv(header, table)
    for other in (export.to_csv(header, rows), csv_writer_text(header, rows)):
        if encoded != other:
            pairs = zip(encoded.splitlines(), other.splitlines())
            for line, (got, want) in enumerate(pairs, start=1):
                for j, (a, b) in enumerate(zip(got.split(","), want.split(","))):
                    assert a == b, f"line {line} cell {j}: {rows[line - 2][j]!r}"
            assert encoded == other


def test_table_random_bit_patterns_of_every_exponent():
    rng = np.random.default_rng(20261018)
    # 16 random mantissas and signs for each of the 2047 finite exponent
    # fields (field 0: zero and the subnormals)
    exponent = np.repeat(np.arange(2047, dtype=np.uint64), 16)
    mantissa = rng.integers(0, 2**52, size=exponent.size, dtype=np.uint64)
    sign = rng.integers(0, 2, size=exponent.size, dtype=np.uint64)
    bits = sign << np.uint64(63) | exponent << np.uint64(52) | mantissa
    tiny = np.finfo(float).tiny
    big = np.finfo(float).max
    special = [0.0, -0.0, 5e-324, -5e-324, big, -big, tiny, np.nextafter(tiny, 0)]
    cells = np.concatenate([bits.view(np.float64), special])
    rng.shuffle(cells)
    assert_encoded_alike(cells.reshape(-1, 24))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=48
    ),
    st.integers(1, 6),
)
def test_table_property_against_row_writers(cells, n_cols):
    cells = cells * n_cols
    assert_encoded_alike(np.array(cells).reshape(-1, n_cols))


def test_table_ninth_digit_ties():
    rng = np.random.default_rng(9)
    mantissa = rng.integers(10**8, 10**9, size=3000)
    scale = np.array([float(f"1e{k}") for k in rng.integers(-40, 30, size=3000)])
    near = (mantissa + 0.5) * scale
    # exact binary halves at the 9th digit, which round half to even
    exact = [123456789.5, 123456788.5, 12345678.25, 12345678.75, 1234567.125,
             1234567.375, 999999998.5, 100000000.5, 0.5, 2.5]
    cells = np.concatenate([
        near, np.nextafter(near, 0), np.nextafter(near, np.inf), exact,
        np.negative(exact),
    ])
    assert_encoded_alike(cells.reshape(-1, 10))


def test_table_format_switches():
    """Where "%g" changes between fixed and exponent form, and where
    rounding carries into a new exponent."""
    switches = np.array([1e-5, 9.999999995e-5, 9.9999999949e-5, 1e-4, 1e-3,
                         0.1, 1.0, 99999999.95, 999999999.4, 999999999.5,
                         1e9, 1e16, 1e22, 1e100, 1e-100, 1e308, 1e-308])
    cells = np.concatenate([switches, np.nextafter(switches, 0),
                            np.nextafter(switches, np.inf)])
    assert_encoded_alike(np.concatenate([cells, -cells]).reshape(-1, 6))


@pytest.mark.parametrize("recipe", cli.bundled_recipes())
def test_table_of_each_recipe_jsi_grid(recipe):
    cfg = cli.resolve_config(recipe)
    fiber = sweeps.fiber_from_config(cfg)
    gas = sweeps.gas_from_config(cfg)
    pump = sweeps.pump_from_config(cfg)
    branch = sweeps.solve_branch(cfg, fiber, gas, pump)
    grid = sweeps.build_grid(cfg, fiber, gas, pump, branch, cfg.fiber_length_m)
    table = np.column_stack((grid.lambda_s_nm, jsa.jsi(grid)))
    assert table.size > export._CHUNK_CELLS  # several chunks
    assert_encoded_alike(table)


def test_other_arrays_keep_the_row_path():
    for table in (np.arange(12.0).reshape(3, 4).astype(np.float32) / 3,
                  np.arange(-6, 6).reshape(4, 3), np.empty((3, 0))):
        rows = [list(row) for row in table]
        assert export.to_csv(["a"], table) == export.to_csv(["a"], rows)
    assert export.to_csv(["a", "b"], np.empty((0, 2))) == "a,b\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("shape", [(5, 3), (20000, 3)])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_table_refuses_non_finite(bad, shape, where, tmp_path):
    table = np.arange(shape[0] * shape[1], dtype=float).reshape(shape) / 7.0
    row = {"first": 0, "middle": shape[0] // 2, "last": shape[0] - 1}[where]
    table[row, row % 3] = bad
    if where != "last":
        table[-1, 0] = bad  # a later bad cell is not the one named
    path = tmp_path / "table.csv"
    with pytest.raises(NumericalError, match=f"line {row + 2} of table.csv"):
        export.to_csv(("a", "b", "c"), table, str(path))
    assert not path.exists()


def test_json_layouts(tmp_path):
    obj = {"b": [1.5, -0.0], "a": {"z": 1, "y": "nan"}}
    compact = export.to_json(obj)
    assert compact == json.dumps(obj, sort_keys=True)
    pretty = export.to_json(obj, indent=1)
    assert pretty == json.dumps(obj, sort_keys=True, indent=1) + "\n"
    path = tmp_path / "manifest.json"
    assert export.to_json(obj, str(path), indent=1) is None
    assert path.read_text() == pretty


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_refuses_non_finite(bad, tmp_path):
    path = tmp_path / "sweep.json"
    with pytest.raises(NumericalError, match="sweep.json"):
        export.to_json({"fit": {"r_squared": bad}}, str(path), indent=1)
    assert not path.exists()


# ------------------------------------------------ JSON float arrays


def assert_json_alike(arr):
    """to_json writes ``arr`` as json.dumps writes ``arr.tolist()``; a
    failure names the first differing cell."""
    got = export.to_json({"a": arr})
    want = json.dumps({"a": arr.tolist()}, sort_keys=True)
    if got != want:
        cells = arr.ravel().tolist()
        split = [t.replace("[", "").replace("]", "").split(", ") for t in (got, want)]
        for x, a, b in zip(cells, *split):
            assert a == b, f"{x!r}: {a!r}"
        assert got == want


def test_json_random_bit_patterns_of_every_exponent():
    rng = np.random.default_rng(20261019)
    # 512 random mantissas and signs for each of the 2047 finite exponent
    # fields (field 0: zero and the subnormals), about 10**6 cells
    exponent = np.repeat(np.arange(2047, dtype=np.uint64), 512)
    mantissa = rng.integers(0, 2**52, size=exponent.size, dtype=np.uint64)
    sign = rng.integers(0, 2, size=exponent.size, dtype=np.uint64)
    bits = sign << np.uint64(63) | exponent << np.uint64(52) | mantissa
    cells = bits.view(np.float64)
    rng.shuffle(cells)
    assert_json_alike(cells)


def test_json_edge_values():
    tiny = np.finfo(float).tiny
    edges = np.array(
        [5e-324, np.nextafter(tiny, 0), tiny, 2.2250738585072014e-308,
         1.7976931348623157e308, 9999999999999998.0, 1e16, 1e-4, 1e-5,
         3.0, 0.1, 0.0]
        + [2.0**k for k in range(-1074, 1024)]
        + [float(f"1e{k}") for k in range(-323, 309)]
    )
    near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1e308)])
    assert_json_alike(np.concatenate([near, -near]))
    assert export.to_json({"a": np.array([-0.0, 3.0, 0.1, 1e16, 1e-5, 5e-324])}) == (
        '{"a": [-0.0, 3.0, 0.1, 1e+16, 1e-05, 5e-324]}'
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
@example(np.empty(0))
@example(np.empty((0, 3)))
@example(np.empty((3, 0)))
@example(np.ones((1, 1)))
def test_json_array_property(arr):
    assert_json_alike(arr)


def test_json_arrays_only_without_indent():
    """json refuses every array of an indented object, and without
    indent every array that is not 1-D or 2-D float64."""
    arr = np.linspace(-1.0, 2.0, 7)
    with pytest.raises(TypeError):
        export.to_json({"a": arr}, indent=1)
    with pytest.raises(TypeError):
        export.to_json({"a": np.arange(3)})


@pytest.mark.parametrize("first", range(6))
def test_json_mixed_values_at_every_sorted_position(first):
    """Arrays and other values sit before, between and after each other
    in key order; the text is json.dumps of the .tolist() form."""
    arr = np.linspace(-1.0, 2.0, 7)
    values = [arr, {"z": [1, "s"], "y": None}, arr.reshape(7, 1), "x", 2.5, arr[:0]]
    obj = {f"k{(first + i) % len(values)}": v for i, v in enumerate(values)}
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in obj.items()}
    assert export.to_json(obj) == json.dumps(plain, sort_keys=True)
    assert export.to_json({}) == "{}"


@pytest.mark.parametrize(
    "obj",
    [np.ones(3), [np.ones(3)], {1: np.ones(3)}, {"a": [np.ones(3)]},
     {"a": {"b": np.ones(3)}}],
    ids=["bare-array", "list", "int-key", "array-in-list", "array-in-dict"],
)
def test_json_refuses_other_shapes_and_leaves_no_file(obj, tmp_path):
    """Compact JSON takes a dict with string keys whose arrays are its
    values; any other shape is a TypeError before the file is opened."""
    path = tmp_path / "jsa.json"
    with pytest.raises(TypeError):
        export.to_json(obj, str(path))
    assert not path.exists()


@pytest.mark.parametrize("mode", ["linearized", "full"])
@pytest.mark.parametrize("recipe", cli.bundled_recipes())
def test_jsa_json_of_each_recipe_matches_tolist_dumps(recipe, mode):
    cfg = cli.resolve_config(recipe)
    cfg = dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, mode=mode))
    fiber = sweeps.fiber_from_config(cfg)
    gas = sweeps.gas_from_config(cfg)
    pump = sweeps.pump_from_config(cfg)
    branch = sweeps.solve_branch(cfg, fiber, gas, pump)
    grid = sweeps.build_grid(cfg, fiber, gas, pump, branch, cfg.fiber_length_m)
    assert grid.mode == mode
    text = jsa.jsa_to_json(grid)
    assert text == tolist_jsa_json(grid, json.loads(text)["metadata"])


@pytest.mark.parametrize("field", ["values", "omega_s", "omega_i"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_jsa_json_refuses_non_finite(grid128, field, bad, tmp_path):
    arr = getattr(grid128, field).copy()
    arr.flat[arr.size // 2] = bad
    grid = dataclasses.replace(grid128, **{field: arr})
    path = tmp_path / "jsa.json"
    with pytest.raises(NumericalError, match="^non-finite number in jsa.json$"):
        jsa.jsa_to_json(grid, str(path))
    assert not path.exists()
