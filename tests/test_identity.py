"""Smoke test of tools/identity.py on two runs, one that exits 0 and one
that exits 1, and of its peak-RSS notes.  No hashes are frozen here: SVD
bits depend on the BLAS build, so only records made on one machine are
compared."""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib

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
    assert len(identity.all_runs(str(ROOT / "src"))) == 80
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
    assert identity.main(["compare", str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("note: dispersion/map_t300/bundled: peak RSS")
    assert out.endswith("identical\n")
