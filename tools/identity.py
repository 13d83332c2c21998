"""Byte-identity check of the command line on the bundled recipes.

``record`` runs every subcommand on every bundled recipe, once as bundled
and once with ``grid.mode: full``, each run in a fresh interpreter and
its own work directory.  For each run it stores the exit code, the
sha256 of stdout and of stderr (with the work directory replaced by
``<work>``), the sha256 of every file the run wrote, and the file names
its ``manifest.json`` lists, in order.  It also stores the run's peak
resident set size, read from ``os.wait4`` on the child.  ``compare``
prints every difference between two records and exits 1 if there is any;
where a manifest lists the same files in another order, it says
"artifact order differs", which accounts for the manifest and stdout
lines that differ with it.  It also lists, as notes, the runs whose peak
RSS moved by more than 5%; memory is not part of byte identity and never
fails the comparison::

    python tools/identity.py record new.json
    python tools/identity.py record old.json --src old-checkout/src
    python tools/identity.py compare old.json new.json
    python tools/identity.py compare --against HEAD~1

``--against REV`` exports REV with ``git archive`` into a temporary
directory, records it and this checkout (or compares with a given
record), with the same interpreter.

SVD bits depend on the BLAS build, so a record also stores the numpy
version and the BLAS name; ``compare`` notes when they differ, and
hashes are never checked in.  Runs do not see ``HCFWM_GAS_DATA``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import yaml

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
SUBCOMMANDS = (
    "dispersion", "phasematch", "jsa", "schmidt", "set-sim",
    "sweep-length", "sweep-pressure", "density-map",
)
VARIANTS = ("bundled", "full")
# peak RSS moves beyond this fraction are noted by compare
RSS_NOTE_FRACTION = 0.05


def all_runs(src: str) -> list[tuple[str, str, str]]:
    """(subcommand, recipe, variant) of every run, for the recipes that
    ``src``'s package bundles."""
    recipes = sorted(
        name[: -len(".yaml")]
        for name in os.listdir(os.path.join(src, "hcfwm", "recipes"))
        if name.endswith(".yaml")
    )
    return [(s, r, v) for s in SUBCOMMANDS for r in recipes for v in VARIANTS]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_one(src: str, subcommand: str, recipe: str, variant: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HCFWM_GAS_DATA"}
    env["PYTHONPATH"] = src
    with tempfile.TemporaryDirectory() as work:
        config = recipe
        if variant == "full":
            path = os.path.join(src, "hcfwm", "recipes", f"{recipe}.yaml")
            with open(path, encoding="utf-8") as fh:
                raw = yaml.safe_load(fh)
            raw.setdefault("grid", {})["mode"] = "full"
            config = os.path.join(work, "config-full.yaml")
            with open(config, "w", encoding="utf-8") as fh:
                yaml.safe_dump(raw, fh, sort_keys=True)
        out = os.path.join(work, "out")
        with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "hcfwm.cli", subcommand, "--config",
                 config, "--out", out, "--label", "run"],
                cwd=work, env=env, stdout=stdout, stderr=stderr,
            )
            # wait4 rather than proc.wait: it also gives the child's usage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            streams = []
            for fh in (stdout, stderr):
                fh.seek(0)
                streams.append(fh.read())
        files, artifacts = {}, None
        for root, _, names in os.walk(out):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, out)] = _sha256(fh.read())
                if name == "manifest.json":
                    with open(path, encoding="utf-8") as fh:
                        artifacts = [a["file"] for a in json.load(fh)["artifacts"]]
        placeholder = work.encode()
        return {
            "exit": proc.returncode,
            "stdout": _sha256(streams[0].replace(placeholder, b"<work>")),
            "stderr": _sha256(streams[1].replace(placeholder, b"<work>")),
            "files": dict(sorted(files.items())),
            "artifacts": artifacts,
            "peak_rss_kb": usage.ru_maxrss,  # KiB on Linux
        }


def _blas_name() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def record(src: str, runs=None) -> dict:
    """Run ``runs`` (default ``all_runs(src)``) against the package in
    ``src`` and return the record."""
    import numpy as np

    src = os.path.abspath(src)
    return {
        "numpy": np.__version__,
        "blas": _blas_name(),
        "runs": {
            "/".join(run): _run_one(src, *run)
            for run in (all_runs(src) if runs is None else runs)
        },
    }


def differences(old: dict, new: dict) -> list[str]:
    """One line per run, exit code, stream or file that differs."""
    lines = []
    for key in sorted(old["runs"].keys() | new["runs"].keys()):
        a, b = old["runs"].get(key), new["runs"].get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in the {'new' if a is None else 'old'} record")
            continue
        if a["exit"] != b["exit"]:
            lines.append(f"{key}: exit {a['exit']} -> {b['exit']}")
        lines += [f"{key}: {s} differs" for s in ("stdout", "stderr") if a[s] != b[s]]
        listed = a["artifacts"], b["artifacts"]
        if listed[0] != listed[1]:
            same = None not in listed and sorted(listed[0]) == sorted(listed[1])
            lines.append(f"{key}: artifact {'order' if same else 'list'} differs")
        for name in sorted(a["files"].keys() | b["files"].keys()):
            if name not in b["files"]:
                lines.append(f"{key}: {name} missing")
            elif name not in a["files"]:
                lines.append(f"{key}: {name} added")
            elif a["files"][name] != b["files"][name]:
                lines.append(f"{key}: {name} differs")
    return lines


def rss_moves(old: dict, new: dict) -> list[str]:
    """One note per run in both records whose peak RSS moved by more than
    RSS_NOTE_FRACTION; a record without peak RSS gives none."""
    lines = []
    for key in sorted(old["runs"].keys() & new["runs"].keys()):
        a = old["runs"][key].get("peak_rss_kb")
        b = new["runs"][key].get("peak_rss_kb")
        if a and b and abs(b - a) > RSS_NOTE_FRACTION * a:
            lines.append(
                f"note: {key}: peak RSS {a / 1024:.1f} -> {b / 1024:.1f} MiB "
                f"({b / a - 1:+.0%})"
            )
    return lines


def summary(rec: dict) -> str:
    runs = rec["runs"].values()
    exits = sorted({r["exit"] for r in runs})
    counts = ", ".join(
        f"{sum(r['exit'] == e for r in runs)} exit {e}" for e in exits
    )
    files = sum(len(r["files"]) for r in runs)
    return f"{len(rec['runs'])} runs ({counts}), {files} files"


def _record_rev(rev: str) -> dict:
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    with tempfile.TemporaryDirectory() as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        return record(os.path.join(tree, "src"))


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run every recipe and write a record")
    rec.add_argument("out", help="record file to write")
    rec.add_argument("--src", default=SRC,
                     help="directory holding the hcfwm package (default: ./src)")
    cmp = sub.add_parser("compare", help="print the differences of two records")
    cmp.add_argument("records", nargs="*", help="OLD NEW, or NEW with --against")
    cmp.add_argument("--against", metavar="REV",
                     help="record git revision REV as the old side")
    args = parser.parse_args(argv)

    if args.command == "record":
        result = record(args.src)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{args.out}: {summary(result)}")
        return 0

    if args.against and len(args.records) <= 1:
        old = _record_rev(args.against)
        new = _load(args.records[0]) if args.records else record(SRC)
    elif not args.against and len(args.records) == 2:
        old, new = map(_load, args.records)
    else:
        parser.error("compare takes OLD NEW, or --against REV and at most NEW")
    for field in ("numpy", "blas"):
        if old[field] != new[field]:
            print(f"note: {field} {old[field]} -> {new[field]}; SVD bits may differ")
    lines = differences(old, new)
    for line in lines + rss_moves(old, new):
        print(line)
    print(f"old: {summary(old)}\nnew: {summary(new)}")
    print(f"{len(lines)} difference(s)" if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
