"""Record the reference results that the benchmark checks every op against.

Runs every op any seed can produce (see ``workloads.lattice_ops``) once, in
this process, at one thread, and writes each run's manifest ``results`` to
``reference.json``.  It refuses to record a lattice point where an op
fails, finds no phase-matched branch, or leaves a gap in a sweep, because
the workloads promise that no op fails.

Run from the repository root:  python3 perfbench/record_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hcfwm.cli  # noqa: E402

from workloads import lattice_ops  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def _problem(op, rc: int, results: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if op.subcommand == "phasematch" and results["n_branches"] < 1:
        return "no phase-matched branch"
    if op.subcommand == "density-map" and results["n_records"] < 1:
        return "empty density map"
    if op.subcommand.startswith("sweep-") and results["sweep"]["gaps"]:
        return f"sweep gaps {results['sweep']['gaps']}"
    return None


def main() -> int:
    work = os.path.join(ROOT, ".perfbench_out", "record")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    reference: dict[str, dict] = {}
    problems = []
    try:
        for i, op in enumerate(lattice_ops(ROOT)):
            cfg_path = os.path.join(work, f"{i}.yaml")
            with open(cfg_path, "w") as fh:
                fh.write(op.config_yaml())
            out = os.path.join(work, str(i))
            argv = [op.subcommand, "--config", cfg_path, "--out", out, "--label", "run"]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = hcfwm.cli.main(argv)
            results = {}
            if rc == 0:
                with open(os.path.join(out, op.subcommand, "run", "manifest.json")) as fh:
                    results = json.load(fh)["results"]
            problem = _problem(op, rc, results)
            if problem:
                problems.append(f"{op.key}: {problem}")
            reference[op.key] = results
            shutil.rmtree(out)
            print(f"{i:4d} {op.key}: {problem or 'ok'}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        print("not recorded; failing lattice points:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"recorded {len(reference)} reference results in {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
