"""Smoke test of tools/identity.py on two runs, one that exits 0 and one
that exits 1, and of its peak-RSS notes.  No hashes are frozen here: SVD
bits depend on the BLAS build, so only records made on one machine are
compared."""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest
import yaml

from hcfwm import cli, config

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUNS = [("dispersion", "map_t300", "bundled"), ("set-sim", "map_t300", "full")]


def _identity():
    spec = importlib.util.spec_from_file_location(
        "identity", ROOT / "tools" / "identity.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_and_compare(tmp_path, capsys):
    identity = _identity()
    assert len(identity.all_runs(str(ROOT / "src"))) == 120
    rec = identity.record(str(ROOT / "src"), RUNS)
    ok = rec["runs"]["dispersion/map_t300/bundled"]
    refused = rec["runs"]["set-sim/map_t300/full"]
    assert ok["exit"] == 0 and refused["exit"] == 1
    assert sorted(ok["files"]) == [
        f"dispersion/run/{name}" for name in (
            "bands.csv", "config.yaml", "dispersion.csv", "manifest.json", "zdw.csv"
        )
    ]
    assert refused["files"] == {}
    assert ok["artifacts"] == ["bands.csv", "dispersion.csv", "zdw.csv", "config.yaml"]
    assert refused["artifacts"] is None
    assert ok["peak_rss_kb"] > 0 and refused["peak_rss_kb"] > 0
    assert identity.summary(rec) == "2 runs (1 exit 0, 1 exit 1), 5 files"
    threads = rec["blas_threads"]
    assert threads is None or threads >= 1

    # a rerun in fresh interpreters and work directories is identical
    assert identity.differences(rec, identity.record(str(ROOT / "src"), RUNS)) == []

    changed = copy.deepcopy(rec)
    runs = changed["runs"]
    runs["dispersion/map_t300/bundled"]["files"]["dispersion/run/zdw.csv"] = "0"
    runs["dispersion/map_t300/bundled"]["artifacts"].reverse()
    runs["set-sim/map_t300/full"]["exit"] = 2
    runs["set-sim/map_t300/full"]["files"] = {"set-sim/run/scan.csv": "0"}
    runs["set-sim/map_t300/full"]["artifacts"] = ["scan.csv"]
    assert identity.differences(rec, changed) == [
        "dispersion/map_t300/bundled: artifact order differs",
        "dispersion/map_t300/bundled: dispersion/run/zdw.csv differs",
        "set-sim/map_t300/full: exit 1 -> 2",
        "set-sim/map_t300/full: artifact list differs",
        "set-sim/map_t300/full: set-sim/run/scan.csv added",
    ]

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(rec))
    new.write_text(json.dumps(changed))
    assert identity.main(["compare", str(old), str(old)]) == 0
    assert capsys.readouterr().out.endswith("identical\n")
    assert identity.main(["compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.endswith("5 difference(s)\n")

    # another BLAS thread count is a note, not a difference; so is a
    # record made before the count was recorded
    for other in [n for n in ((threads or 1) + 1, None) if n != threads]:
        elsewhere = copy.deepcopy(rec)
        if other is None:
            del elsewhere["blas_threads"]
        else:
            elsewhere["blas_threads"] = other
        new.write_text(json.dumps(elsewhere))
        assert identity.main(["compare", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"note: blas_threads {threads} -> {other}; ")
        assert out.endswith("identical\n")

    # peak RSS is noted when it moves by more than 5%, and never differs
    ok["peak_rss_kb"] = 20480
    heavier = copy.deepcopy(rec)
    heavier["runs"]["dispersion/map_t300/bundled"]["peak_rss_kb"] = 40960
    heavier["runs"]["set-sim/map_t300/full"]["peak_rss_kb"] = int(
        refused["peak_rss_kb"] * 1.04
    )
    old.write_text(json.dumps(rec))
    new.write_text(json.dumps(heavier))
    assert identity.differences(rec, heavier) == []
    assert identity.rss_moves(rec, heavier) == [
        "note: dispersion/map_t300/bundled: peak RSS 20.0 -> 40.0 MiB (+100%)"
    ]
    assert identity.subcommand_peaks(rec, heavier) == [
        "peak: dispersion: 20.0 -> 40.0 MiB (+100.0%)",
        f"peak: set-sim: {refused['peak_rss_kb'] / 1024:.1f} -> "
        f"{int(refused['peak_rss_kb'] * 1.04) / 1024:.1f} MiB (+4.0%)",
    ]
    assert identity.main(["compare", str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("note: dispersion/map_t300/bundled: peak RSS")
    assert "\npeak: dispersion: 20.0 -> 40.0 MiB (+100.0%)\npeak: set-sim: " in out
    assert out.endswith("identical\n")


def test_line_counts(tmp_path, capsys):
    """A record holds the line count of every module of the package, and
    compare prints both totals, or nothing where a record has none."""
    identity = _identity()
    rec = identity.record(str(ROOT / "src"), [])
    modules = sorted((ROOT / "src" / "hcfwm").glob("*.py"))
    assert list(rec["lines"]) == [p.name for p in modules]
    for path in modules:
        assert rec["lines"][path.name] == len(path.read_text().splitlines())
    total = sum(rec["lines"].values())
    longer = copy.deepcopy(rec)
    longer["lines"]["errors.py"] += 3
    assert identity.line_totals(rec, longer) == [
        f"lines: src/hcfwm {total} -> {total + 3} (+3)"
    ]
    older = copy.deepcopy(rec)
    del older["lines"]
    assert identity.line_totals(older, rec) == identity.line_totals(rec, older) == []

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(longer))
    new.write_text(json.dumps(rec))
    assert identity.main(["compare", str(old), str(new)]) == 0
    assert capsys.readouterr().out == (
        f"lines: src/hcfwm {total + 3} -> {total} (-3)\n"
        "old: 0 runs (), 0 files\nnew: 0 runs (), 0 files\nidentical\n"
    )
    old.write_text(json.dumps(older))
    assert identity.main(["compare", str(old), str(new)]) == 0
    assert "lines:" not in capsys.readouterr().out


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc")
def test_peak_rss_is_the_runs_own():
    """A run's peak RSS does not grow with the recorder's: Linux carries
    the pre-exec high-water mark into ru_maxrss, but not into VmHWM."""
    identity = _identity()
    run = [RUNS[0]]
    key = "/".join(RUNS[0])
    before = identity.record(str(ROOT / "src"), run)["runs"][key]["peak_rss_kb"]
    ballast = np.ones(100 * 2**20 // 8)  # about 100 MB, every page touched
    after = identity.record(str(ROOT / "src"), run)["runs"][key]["peak_rss_kb"]
    del ballast
    assert after == pytest.approx(before, rel=0.05)


def test_runs_cover_every_subcommand_and_variant():
    """Every subcommand of the command line is recorded, and every variant
    loads on every bundled recipe, so no run exits 1 for its override."""
    identity = _identity()
    assert identity.SUBCOMMANDS == cli.SUBCOMMANDS
    recipes = sorted((ROOT / "src" / "hcfwm" / "recipes").glob("*.yaml"))
    assert recipes
    for recipe in recipes:
        for variant, keys in identity.VARIANTS.items():
            raw = yaml.safe_load(recipe.read_text())
            identity._set_keys(raw, keys)
            # the parse is strict: a key it does not know is refused
            assert isinstance(config.config_from_dict(raw), config.RunConfig)
