"""Byte-identity check of the command line on the bundled recipes.

``record`` runs every subcommand on every bundled recipe in each variant
of ``VARIANTS`` (as bundled, with ``grid.mode: full``, and with a
modulated pump), each run in a fresh interpreter and its own work
directory.  For each run it stores the exit code, the
sha256 of stdout and of stderr (with the work directory replaced by
``<work>``), the sha256 of every file the run wrote, and the file names
its ``manifest.json`` lists, in order.  It also stores the run's peak
resident set size: the ``VmHWM`` of the CLI process, which the child
reads at exit.  ``ru_maxrss`` would not do, because Linux carries the
high-water mark from before ``exec`` into it, so every small run would
report the recorder's own size.  ``compare``
prints every difference between two records and exits 1 if there is any;
where a manifest lists the same files in another order, it says
"artifact order differs", which accounts for the manifest and stdout
lines that differ with it.  It also lists, as notes, the runs whose peak
RSS moved by more than 5%, then each subcommand's largest peak RSS in
both records, then the line count of ``src/hcfwm/*.py`` in both records
(a record stores it per file); neither memory nor size is part of byte
identity, and neither fails the comparison::

    python tools/identity.py record new.json
    python tools/identity.py record old.json --src old-checkout/src
    python tools/identity.py compare old.json new.json
    python tools/identity.py compare --against HEAD~1

``--against REV`` exports REV with ``git archive`` into a temporary
directory, records it and this checkout (or compares with a given
record), with the same interpreter.

SVD bits depend on the BLAS build and on its thread count (the complex
SVD of ``schmidt`` gives other last digits at 1 and 2 OpenBLAS threads),
so a record also stores the numpy version, the BLAS name and the
recorder's OpenBLAS thread count, which its runs inherit through the
environment; ``compare`` notes when they differ, and hashes are never
checked in.  Runs do not see ``HCFWM_GAS_DATA``.
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
# variant -> config keys it sets over the recipe's
VARIANTS = {
    "bundled": {},
    "full": {"grid": {"mode": "full"}},
    "modulated": {"pump": {"modulation": {"depth": 0.3, "period_THz": 3.0}}},
}
# peak RSS moves beyond this fraction are noted by compare
RSS_NOTE_FRACTION = 0.05
# Runs `python -m hcfwm.cli` and, at exit, writes the process's VmHWM (the
# peak RSS of this process image alone, in KiB) to the file named by
# {peak!r}; without /proc, it writes nothing.
_CHILD = """\
import atexit, runpy

def _peak():
    try:
        with open('/proc/self/status') as fh:
            hwm = [line.split()[1] for line in fh if line.startswith('VmHWM:')]
    except OSError:
        return
    with open({peak!r}, 'w') as fh:
        fh.write(''.join(hwm))

atexit.register(_peak)
runpy.run_module('hcfwm.cli', run_name='__main__', alter_sys=True)
"""


def all_runs(src: str) -> list[tuple[str, str, str]]:
    """(subcommand, recipe, variant) of every run, for the recipes that
    ``src``'s package bundles."""
    recipes = sorted(
        name[: -len(".yaml")]
        for name in os.listdir(os.path.join(src, "hcfwm", "recipes"))
        if name.endswith(".yaml")
    )
    return [(s, r, v) for s in SUBCOMMANDS for r in recipes for v in VARIANTS]


def _set_keys(raw: dict, keys: dict) -> None:
    """Set the nested ``keys`` in ``raw``, keeping its other keys."""
    for key, value in keys.items():
        if isinstance(value, dict):
            _set_keys(raw.setdefault(key, {}), value)
        else:
            raw[key] = value


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_one(src: str, subcommand: str, recipe: str, variant: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HCFWM_GAS_DATA"}
    env["PYTHONPATH"] = src
    with tempfile.TemporaryDirectory() as work:
        config = recipe
        if VARIANTS[variant]:
            path = os.path.join(src, "hcfwm", "recipes", f"{recipe}.yaml")
            with open(path, encoding="utf-8") as fh:
                raw = yaml.safe_load(fh)
            _set_keys(raw, VARIANTS[variant])
            config = os.path.join(work, f"config-{variant}.yaml")
            with open(config, "w", encoding="utf-8") as fh:
                yaml.safe_dump(raw, fh, sort_keys=True)
        out = os.path.join(work, "out")
        peak = os.path.join(work, "peak_rss_kb")
        with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD.format(peak=peak), subcommand,
                 "--config", config, "--out", out, "--label", "run"],
                cwd=work, env=env, stdout=stdout, stderr=stderr,
            )
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
        try:
            with open(peak, encoding="utf-8") as fh:
                peak_rss_kb = int(fh.read())
        except (OSError, ValueError):  # no /proc: no peak
            peak_rss_kb = None
        placeholder = work.encode()
        return {
            "exit": proc.returncode,
            "stdout": _sha256(streams[0].replace(placeholder, b"<work>")),
            "stderr": _sha256(streams[1].replace(placeholder, b"<work>")),
            "files": dict(sorted(files.items())),
            "artifacts": artifacts,
            "peak_rss_kb": peak_rss_kb,
        }


def _blas_name() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if none is
    found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.dirname(numpy.__file__) + ".libs"
    for lib in glob.glob(os.path.join(libs, "*blas*")):
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def line_counts(src: str) -> dict[str, int]:
    """The number of lines of each ``*.py`` file of the package in
    ``src``, by file name."""
    package = os.path.join(src, "hcfwm")
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                counts[name] = fh.read().count(b"\n")
    return counts


def record(src: str, runs=None) -> dict:
    """Run ``runs`` (default ``all_runs(src)``) against the package in
    ``src`` and return the record."""
    import numpy as np

    src = os.path.abspath(src)
    return {
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "lines": line_counts(src),
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


def subcommand_peaks(old: dict, new: dict) -> list[str]:
    """One line per subcommand: the largest peak RSS of its runs in each
    record, so a memory change can cite every op's peak at once; a
    subcommand without peak RSS on either side gives none."""
    lines = []
    for sub in SUBCOMMANDS:
        a, b = (
            max((r.get("peak_rss_kb") or 0 for key, r in rec["runs"].items()
                 if key.split("/")[0] == sub), default=0)
            for rec in (old, new)
        )
        if a and b:
            lines.append(
                f"peak: {sub}: {a / 1024:.1f} -> {b / 1024:.1f} MiB "
                f"({b / a - 1:+.1%})"
            )
    return lines


def line_totals(old: dict, new: dict) -> list[str]:
    """The package's total line count in each record and the change, as
    one line; none if either record lacks line counts."""
    if "lines" not in old or "lines" not in new:
        return []
    a, b = sum(old["lines"].values()), sum(new["lines"].values())
    return [f"lines: src/hcfwm {a} -> {b} ({b - a:+d})"]


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
    for field in ("numpy", "blas", "blas_threads"):
        if old.get(field) != new.get(field):
            print(f"note: {field} {old.get(field)} -> {new.get(field)}; "
                  "SVD bits may differ")
    lines = differences(old, new)
    notes = rss_moves(old, new) + subcommand_peaks(old, new)
    for line in lines + notes + line_totals(old, new):
        print(line)
    print(f"old: {summary(old)}\nnew: {summary(new)}")
    print(f"{len(lines)} difference(s)" if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
