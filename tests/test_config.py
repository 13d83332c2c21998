"""Config schema: strict parsing, defaults, round trips, error paths."""

from __future__ import annotations

import dataclasses
import pathlib
import re
from importlib.resources import files as resource_files

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcfwm import config, gasmedia
from hcfwm.errors import ValidationError

MINIMAL = {"fiber": {}, "gas": {}, "pump": {}}

FULL = {
    "fiber": {"R_eff_um": 21.3, "t_nm": 641.2, "mode_m": 1, "mode_n": 2},
    "gas": {"species": "argon", "pressure_bar": 19.0, "temperature_K": 300.0},
    "pump": {
        "lambda_nm": 1030.0,
        "sigma_THz": 5.5,
        "modulation": {"depth": 0.2, "period_THz": 2.5},
    },
    "fiber_length_m": 0.8,
    "grid": {"N": 64, "span": 3.5, "mode": "full"},
    "phasematch": {
        "grid_points": 2000,
        "pump_peak_power_W": 100.0,
        "detuning_min_THz": 550.0,
        "detuning_max_THz": 650.0,
        "seed_idler_nm": 1540.0,
    },
    "output": {"dir": "out", "formats": ["json"]},
    "sweep_length": {"lengths_m": [0.2, 0.4, 0.8]},
    "sweep_pressure": {"pressures_bar": [1.0, 2.0, 3.0]},
    "density_map": {"pump_min_nm": 900.0, "pump_max_nm": 1100.0,
                    "pump_steps": 11},
    "set_sim": {
        "seed_min_nm": 1500.0,
        "seed_max_nm": 1580.0,
        "steps": 21,
        "pump_power_W": 0.5,
        "seed_power_W": 1e-6,
        "duty_cycle": 0.5,
        "noise": {"rel_sigma": 0.01, "dark_floor": 1e-12, "seed": 5},
        "power_check_seed_W": [1e-6, 2e-6, 4e-6, 8e-6, 1.6e-5],
        "power_check_pump_W": [0.1, 0.2, 0.4, 0.8, 1.6],
    },
}


def test_minimal_config_takes_reference_defaults():
    cfg = config.config_from_dict(dict(MINIMAL))
    assert cfg.fiber == config.FiberConfig(22.0, 630.0, 1, 1)
    assert cfg.gas == config.GasConfig("xenon", 3.4, 293.15)
    assert cfg.pump.lambda_nm == 1030.0
    assert cfg.pump.pulse_fwhm_fs == 280.0
    assert cfg.pump.sigma_THz is None
    assert cfg.fiber_length_m == 1.0
    assert cfg.grid == config.GridConfig(512, 4.0, "linearized")
    assert cfg.phasematch.grid_points == 4000
    assert cfg.phasematch.detuning_window() is None
    assert cfg.output == config.OutputConfig("runs", ("csv", "json"))
    assert cfg.sweep_length is None
    assert cfg.sweep_pressure is None
    assert cfg.density_map is None
    assert cfg.set_sim is None


def test_full_round_trip_is_lossless():
    first = config.config_from_dict(dict(FULL))
    text = config.dump_config(first)
    second = config.loads_config(text)
    assert first == second
    # and dict-level: a second dump is byte-identical
    assert config.dump_config(second) == text


def test_round_trip_with_pressure_range():
    d = dict(MINIMAL)
    d["sweep_pressure"] = {"start_bar": 3.0, "stop_bar": 3.65,
                           "step_bar": 0.05}
    cfg = config.config_from_dict(d)
    axis = cfg.sweep_pressure.pressures_bar
    assert len(axis) == 14
    assert axis[0] == 3.0 and axis[-1] == 3.65
    again = config.loads_config(config.dump_config(cfg))
    assert again == cfg
    # a stop_bar between two steps ends the axis at the step below it
    d["sweep_pressure"] = {"start_bar": 3.0, "stop_bar": 3.27, "step_bar": 0.1}
    axis = config.config_from_dict(d).sweep_pressure.pressures_bar
    assert axis == (3.0, 3.1, 3.2)


def test_empty_config_message():
    with pytest.raises(ValidationError, match="config file is empty"):
        config.config_from_dict({})
    with pytest.raises(
        ValidationError,
        match="missing required sections: 'fiber', 'gas', 'pump'",
    ):
        config.loads_config("")


def test_missing_section_listed_by_name():
    with pytest.raises(ValidationError, match="required section.*'gas'"):
        config.config_from_dict({"fiber": {}, "pump": {}})


def test_null_section_parses_as_empty():
    """A section key with no value (YAML null) is present and empty: a
    required one takes its defaults, an optional one is built from them."""
    cfg = config.loads_config("fiber:\ngas:\npump:\nset_sim:\n")
    assert cfg == config.config_from_dict({**MINIMAL, "set_sim": {}})
    assert cfg.set_sim is not None


def test_unknown_keys_use_full_dotted_paths():
    d = {"fiber": {"t_um": 0.63}, "gas": {}, "pump": {}}
    with pytest.raises(ValidationError, match="'fiber.t_um'"):
        config.config_from_dict(d)
    d = {"fiber": {}, "gas": {}, "pump": {"modulation": {"depht": 0.2}}}
    with pytest.raises(ValidationError, match="'pump.modulation.depht'"):
        config.config_from_dict(d)
    d = {"fiber": {}, "gas": {}, "pump": {}, "fibre_length_m": 1.0}
    with pytest.raises(ValidationError, match="'fibre_length_m'"):
        config.config_from_dict(d)


def test_section_must_be_mapping():
    with pytest.raises(ValidationError, match="'fiber' must be a mapping"):
        config.config_from_dict({"fiber": 5, "gas": {}, "pump": {}})


def test_exactly_one_pump_width():
    d = dict(MINIMAL)
    d["pump"] = {"pulse_fwhm_fs": 280.0, "sigma_THz": 5.9}
    with pytest.raises(ValidationError, match="exactly one pump width"):
        config.config_from_dict(d)
    d["pump"] = {"sigma_THz": 5.9}
    cfg = config.config_from_dict(d)
    assert cfg.pump.pulse_fwhm_fs is None
    assert cfg.pump.sigma_THz == 5.9
    d["pump"] = {}
    cfg = config.config_from_dict(d)
    assert cfg.pump.pulse_fwhm_fs == 280.0  # neither given: default width


@pytest.mark.parametrize(
    "section, raw",
    [
        ("phasematch", {"detuning_min_THz": 550.0}),
        ("phasematch", {"detuning_max_THz": 650.0}),
        ("set_sim", {"power_check_seed_W": [1e-6, 2e-6, 4e-6, 8e-6, 1.6e-5]}),
        ("set_sim", {"power_check_pump_W": [0.1, 0.2, 0.4, 0.8, 1.6]}),
    ],
)
def test_half_set_pairs_are_refused_at_load(section, raw):
    """A pair of keys that only work together is refused when the config
    is loaded, not when (or whether) a subcommand reads it."""
    d = dict(MINIMAL)
    d[section] = raw
    pair = {
        "phasematch": ("detuning_min_THz", "detuning_max_THz"),
        "set_sim": ("power_check_seed_W", "power_check_pump_W"),
    }[section]
    with pytest.raises(ValidationError) as err:
        config.config_from_dict(d)
    assert str(err.value) == (
        f"config keys '{section}.{pair[0]}' and '{section}.{pair[1]}' "
        "must be set together"
    )


def test_detuning_keys_must_pair():
    d = dict(MINIMAL)  # half-set pairs: test_half_set_pairs_are_refused_at_load
    d["phasematch"] = {"detuning_min_THz": 550.0, "detuning_max_THz": 650.0}
    lo, hi = config.config_from_dict(d).phasematch.detuning_window()
    assert (lo, hi) == (550.0e12, 650.0e12)
    d["phasematch"] = {"detuning_min_THz": 650.0, "detuning_max_THz": 550.0}
    with pytest.raises(ValidationError, match="must exceed"):
        config.config_from_dict(d)


def test_pressure_axis_modes_are_exclusive():
    d = dict(MINIMAL)
    d["sweep_pressure"] = {"pressures_bar": [1.0, 2.0], "start_bar": 1.0,
                           "stop_bar": 2.0, "step_bar": 0.5}
    with pytest.raises(ValidationError, match="not both"):
        config.config_from_dict(d)
    d["sweep_pressure"] = {}
    with pytest.raises(ValidationError, match="missing a pressure axis"):
        config.config_from_dict(d)
    d["sweep_pressure"] = {"start_bar": 1.0, "step_bar": 0.5}
    with pytest.raises(ValidationError, match="needs all of"):
        config.config_from_dict(d)
    d["sweep_pressure"] = {"start_bar": 2.0, "stop_bar": 1.0,
                           "step_bar": 0.5}
    with pytest.raises(ValidationError, match="'sweep_pressure.stop_bar'"):
        config.config_from_dict(d)


def test_pressure_sanity_and_ordering():
    d = dict(MINIMAL)
    d["sweep_pressure"] = {"pressures_bar": [3.0, 25.0]}
    with pytest.raises(ValidationError, match="sanity range"):
        config.config_from_dict(d)
    d["sweep_pressure"] = {"pressures_bar": [3.0, 2.0]}
    with pytest.raises(ValidationError, match="strictly increasing"):
        config.config_from_dict(d)
    d["sweep_pressure"] = {"pressures_bar": []}
    with pytest.raises(ValidationError, match="non-empty"):
        config.config_from_dict(d)


def test_lengths_validation():
    d = dict(MINIMAL)
    d["sweep_length"] = {}
    with pytest.raises(ValidationError, match="lengths_m"):
        config.config_from_dict(d)
    d["sweep_length"] = {"lengths_m": [0.4, 0.4]}
    with pytest.raises(ValidationError, match="strictly increasing"):
        config.config_from_dict(d)
    d["sweep_length"] = {"lengths_m": [0.4, -0.5]}
    with pytest.raises(ValidationError, match="> 0"):
        config.config_from_dict(d)


def test_output_validation():
    d = dict(MINIMAL)
    d["output"] = {"formats": ["xml"]}
    with pytest.raises(ValidationError, match="allows only"):
        config.config_from_dict(d)
    d["output"] = {"formats": []}
    with pytest.raises(ValidationError, match="non-empty"):
        config.config_from_dict(d)
    d["output"] = {"dir": ""}
    with pytest.raises(ValidationError, match="directory name"):
        config.config_from_dict(d)


def test_grid_and_pump_bounds():
    d = dict(MINIMAL)
    d["grid"] = {"N": 8}
    with pytest.raises(ValidationError, match=">= 16"):
        config.config_from_dict(d)
    d["grid"] = {"mode": "exact"}
    with pytest.raises(ValidationError, match="'linearized' or"):
        config.config_from_dict(d)
    d["grid"] = {"span": -1.0}
    with pytest.raises(ValidationError, match="> 0"):
        config.config_from_dict(d)
    d = dict(MINIMAL)
    d["pump"] = {"lambda_nm": 0.0}
    with pytest.raises(ValidationError, match="'pump.lambda_nm'"):
        config.config_from_dict(d)
    d["pump"] = {"modulation": {"depth": 1.0}}
    with pytest.raises(ValidationError, match=r"\[0, 1\)"):
        config.config_from_dict(d)
    d = dict(MINIMAL)
    d["gas"] = {"species": 42}
    with pytest.raises(ValidationError, match="gas name"):
        config.config_from_dict(d)


def test_set_sim_bounds():
    d = dict(MINIMAL)
    d["set_sim"] = {"seed_min_nm": 1560.0, "seed_max_nm": 1530.0}
    with pytest.raises(ValidationError, match="seed_max_nm"):
        config.config_from_dict(d)
    d["set_sim"] = {"steps": 1}
    with pytest.raises(ValidationError, match=">= 2"):
        config.config_from_dict(d)
    d["set_sim"] = {"duty_cycle": 0.0}
    with pytest.raises(ValidationError, match=r"\(0, 1\]"):
        config.config_from_dict(d)
    d["set_sim"] = {"power_check_seed_W": [1e-6, 2e-6, 3e-6]}
    with pytest.raises(ValidationError, match=">= 5"):
        config.config_from_dict(d)
    d["set_sim"] = {"noise": {"seed": 1.5}}
    with pytest.raises(ValidationError, match="integer"):
        config.config_from_dict(d)
    d["set_sim"] = {"noise": {"rel_sigma": -0.1}}
    with pytest.raises(ValidationError, match="rel_sigma"):
        config.config_from_dict(d)
    # PyYAML reads 50e-9 (no dot in the mantissa) as a string
    cfg = config.loads_config(
        "{fiber: {}, gas: {}, pump: {}, "
        "set_sim: {seed_power_W: 50e-9, duty_cycle: '0.5'}}"
    )
    assert cfg.set_sim.seed_power_W == 50e-9
    assert cfg.set_sim.duty_cycle == 0.5


def test_invalid_yaml_and_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="not valid YAML"):
        config.loads_config("fiber: [unclosed")
    with pytest.raises(ValidationError, match="cannot read"):
        config.load_config(str(tmp_path / "does-not-exist.yaml"))
    path = tmp_path / "ok.yaml"
    config.dump_config(config.config_from_dict(dict(FULL)), str(path))
    assert config.load_config(str(path)) == config.config_from_dict(
        dict(FULL)
    )


def _bundled_yaml_texts():
    root = resource_files("hcfwm")
    paths = [root.joinpath("data", "gases.yaml")]
    paths += sorted(
        (p for p in root.joinpath("recipes").iterdir() if p.name.endswith(".yaml")),
        key=lambda p: p.name,
    )
    return [p.read_text() for p in paths]


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
def test_yaml_loader_reads_bundled_files_as_safe_load(monkeypatch, libyaml):
    """The one YAML reader of configs and gas tables gives what
    yaml.safe_load gives, with libyaml's loader and without it."""
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    texts = _bundled_yaml_texts()
    assert len(texts) == 6  # the gas table and five recipes
    for text in texts:
        assert gasmedia._load_yaml(text) == yaml.safe_load(text)
    for text in texts[1:]:
        assert config.loads_config(text) == config.config_from_dict(
            yaml.safe_load(text)
        )


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
@pytest.mark.parametrize(
    "scalar, detail",
    [
        ("1" + "0" * 5000, "Exceeds the limit (4300 digits) for integer string "
                           "conversion: value has 5001 digits"),
        ("2020-13-45", "month must be in 1..12"),
    ],
    ids=["long-integer", "bad-date"],
)
def test_unconstructible_scalar_is_invalid_yaml(monkeypatch, libyaml, scalar, detail):
    """A scalar that parses but whose value cannot be built is reported as
    invalid YAML, without the interpreter's advice to raise its limit."""
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    with pytest.raises(ValidationError) as exc:
        config.loads_config(f"fiber_length_m: [1, {scalar}]", origin="c.yaml")
    assert str(exc.value) == (
        f"config c.yaml is not valid YAML: a value cannot be constructed: {detail}"
    )


def test_invalid_yaml_message_quotes_the_source(tmp_path, monkeypatch):
    """libyaml's parse errors drop the source line and the caret; the
    messages keep them, for config files and gas tables alike."""
    path = tmp_path / "bad.yaml"
    path.write_text("fiber:\n  R_eff_um: 20\n   t_nm: 300\n")
    detail = (
        "is not valid YAML: mapping values are not allowed here\n"
        '  in "<unicode string>", line 3, column 8:\n'
        "       t_nm: 300\n"
        "           ^"
    )
    with pytest.raises(ValidationError) as exc:
        config.load_config(str(path))
    assert str(exc.value) == f"config {path} {detail}"
    monkeypatch.setenv("HCFWM_GAS_DATA", str(path))
    with pytest.raises(ValidationError) as exc:
        gasmedia.load_gas_data()
    assert str(exc.value) == f"gas data file {path} {detail}"


def _readme_schema_block() -> str:
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("### Config schema", 1)[1]
    return section.split("```yaml", 1)[1].split("```", 1)[0]


def test_readme_key_table_lists_every_schema_key():
    block = _readme_schema_block()
    keys = {"start_bar", "stop_bar", "step_bar"}
    todo = [config.RunConfig]
    while todo:
        for f in dataclasses.fields(todo.pop()):
            keys.add(f.name)
            if "section" in f.metadata:
                todo.append(f.metadata["section"])
    missing = sorted(k for k in keys if not re.search(rf"\b{k}:", block))
    assert not missing


def test_pressure_range_length_cap():
    d = dict(MINIMAL)
    d["sweep_pressure"] = {"start_bar": 1.0, "stop_bar": 10.999,
                           "step_bar": 0.001}
    axis = config.config_from_dict(d).sweep_pressure.pressures_bar
    assert len(axis) == config.MAX_PRESSURE_POINTS
    d["sweep_pressure"]["stop_bar"] = 11.0  # one point more
    with pytest.raises(ValidationError, match="'sweep_pressure.step_bar'"):
        config.config_from_dict(d)


@pytest.mark.parametrize(
    "section, key, cap",
    [
        ("grid", "N", config.MAX_GRID_N),
        ("fiber", "mode_n", config.MAX_MODE_N),
        ("phasematch", "grid_points", config.MAX_GRID_POINTS),
        ("density_map", "pump_steps", config.MAX_PUMP_STEPS),
        ("set_sim", "steps", config.MAX_GRID_N),
    ],
)
def test_size_caps(section, key, cap):
    """Checked before a grid, a scan or an eigensolve is allocated; the cap
    itself is valid."""
    d = dict(MINIMAL)
    d[section] = {key: cap + 1}
    with pytest.raises(ValidationError, match=f"'{section}.{key}' must be <= {cap}"):
        config.config_from_dict(d)
    d[section] = {key: cap}
    assert getattr(getattr(config.config_from_dict(d), section), key) == cap


def test_density_map_scan_cap():
    """pump_steps x grid_points is bounded, though each key is in range;
    the cap itself is valid, and a config without a density map is not
    checked."""
    d = dict(MINIMAL)
    d["phasematch"] = {"grid_points": config.MAX_GRID_POINTS}
    d["density_map"] = {"pump_steps": config.MAX_PUMP_STEPS}
    with pytest.raises(
        ValidationError,
        match=r"'density_map.pump_steps' x 'phasematch.grid_points' must be "
        r"<= 100000000, got 10000 x 1000000",
    ):
        config.config_from_dict(d)
    d["density_map"] = {"pump_steps": config.MAX_MAP_POINTS // config.MAX_GRID_POINTS}
    assert config.config_from_dict(d).density_map.pump_steps == 100
    del d["density_map"]
    assert config.config_from_dict(d).phasematch.grid_points == config.MAX_GRID_POINTS


def test_noise_seed_must_be_nonnegative():
    d = dict(MINIMAL)
    d["set_sim"] = {"noise": {"seed": -1}}
    with pytest.raises(ValidationError, match="'set_sim.noise.seed' must be >= 0"):
        config.config_from_dict(d)
    d["set_sim"] = {"noise": {"seed": 0}}
    assert config.config_from_dict(d).set_sim.noise.seed == 0


def test_unknown_keys_of_mixed_types_are_listed():
    d = {"fiber": {1: 2.0, "x": 3.0}, "gas": {}, "pump": {}}
    with pytest.raises(ValidationError, match="'fiber.1', 'fiber.x'"):
        config.config_from_dict(d)


# ------------------------------------------------ config.yaml through libyaml

RECIPES = sorted(
    entry.name for entry in resource_files("hcfwm").joinpath("recipes").iterdir()
    if entry.name.endswith(".yaml")
)


def _python_dump(cfg):
    """The reference: PyYAML's pure-Python emitter."""
    return yaml.safe_dump(
        config.config_to_dict(cfg), default_flow_style=False, sort_keys=True
    )


def test_dump_config_goes_through_libyaml(monkeypatch):
    calls = []

    class Spy(yaml.CSafeDumper):
        def __init__(self, *args, **kwargs):
            calls.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(yaml, "CSafeDumper", Spy)
    config.dump_config(config.config_from_dict(dict(FULL)))
    assert calls == [1]


@pytest.mark.parametrize("recipe", RECIPES)
def test_dump_config_equals_python_emitter_on_recipes(recipe):
    text = resource_files("hcfwm").joinpath("recipes", recipe).read_text()
    cfg = config.loads_config(text)
    for grid_mode in ("linearized", "full"):
        cfg = dataclasses.replace(
            cfg, grid=dataclasses.replace(cfg.grid, mode=grid_mode)
        )
        assert config.dump_config(cfg) == _python_dump(cfg)


# long runs of printable ASCII with spaces and YAML indicators, which the
# emitters fold and quote; st.text() alone seldom builds them
_ASCII_TEXT = st.lists(
    st.sampled_from([" ", "  ", ": ", "# ", "'", '"', "\\", "- ", "yes", "null",
                     "~", "1e3", "[", "{", "&", "!", "%", "@", "`", "ab", "c"])
    | st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=150,
).map("".join)
_ANY_TEXT = st.text() | _ASCII_TEXT


@settings(max_examples=200, deadline=None)
@given(
    out_dir=_ANY_TEXT,
    formats=st.lists(_ANY_TEXT, min_size=1, max_size=4),
    species=_ANY_TEXT,
)
@example(out_dir="\ufeffruns: # yes", formats=["null", " csv", "\x85"],
         species="xenon")
@example(out_dir="y" * 200 + " \u2028 ü", formats=["on", "1e3", "- x"],
         species="xenon")
@example(out_dir="y" * 100 + " ü", formats=["csv"], species="a " * 60)
def test_dump_config_equals_python_emitter_on_any_text(out_dir, formats, species):
    """Any text in output.dir, output.formats and gas.species (the dump does
    not check them) comes out as the pure-Python emitter writes it."""
    cfg = config.config_from_dict(dict(MINIMAL))
    cfg = dataclasses.replace(
        cfg,
        gas=dataclasses.replace(cfg.gas, species=species),
        output=config.OutputConfig(dir=out_dir, formats=tuple(formats)),
    )
    assert config.dump_config(cfg) == _python_dump(cfg)
