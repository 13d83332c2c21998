"""Benchmark of the hcfwm command line, as a physicist uses it.

    python3 perfbench/run.py --workload design-map --seed 1 --seconds 38 --trace 0

Run it from the root of a checkout.  Each op is one ``hcfwm <subcommand>``
run on one generated config, in a fresh interpreter (``child.py``), one
after another from this process: a closed loop with one client.  The
workload's ops run in turn, pass after pass, until ``--seconds`` is used
up; the first pass always completes.  Each op is timed from outside and
its outputs are checked:

* the exit code is 0;
* no number in its CSV or JSON artifacts is NaN or infinite;
* its manifest ``results`` match ``reference.json`` (floats to 1e-9
  relative, everything else exactly);
* every repeat of the op writes byte-identical artifacts, and an op that
  ran on several threads matches a rerun on one thread.

With ``--trace 0`` it prints the end-to-end metrics: sums over the ops of
each op's median, except ``setup_s`` (median over all runs) and
``peak_rss_mb`` (highest of any run).  With ``--trace 1`` every op runs
untraced and then traced, and it prints the per-layer metrics of
``tracer.py`` summed the same way, with the tracing overhead.

``--workload all`` runs every workload in turn.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (context, determinism, artifact hashes,
per-op figures) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

from tracer import DRIVER_FIGURES, Span, metric_units, op_metrics
from workloads import WORKLOADS, workload_ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(ROOT, ".perfbench_out")

OP_TIMEOUT_S = 60
REL_TOL = 1e-9
# The spans on the main thread tile cli.main, so they must explain the
# traced op's compute time up to the cost of one wrapper call.
UNACCOUNTED_TOL_S = 1e-3
NONFINITE = re.compile(
    rb"(?<![A-Za-z0-9_.])[-+]?(?:nan|inf(?:inity)?)(?![A-Za-z0-9_])", re.IGNORECASE
)

END_TO_END = {
    "wall_s": "s",
    "compute_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "ok_rate": "ratio",
}


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def drift(got, ref, where: str = "results") -> list[str]:
    """Differences of a manifest ``results`` value from its reference."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or got.keys() != ref.keys():
            return [f"{where}: {got!r} != reference {ref!r}"]
        return [p for k in ref for p in drift(got[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: {got!r} != reference {ref!r}"]
        return [p for i, (g, r) in enumerate(zip(got, ref)) for p in drift(g, r, f"{where}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, ref, rel_tol=REL_TOL):
            return []
    elif type(got) is type(ref) and got == ref:
        return []
    return [f"{where}: {got!r} != reference {ref!r}"]


def check_artifacts(run_dir: str, reference: dict | None) -> tuple[dict, int, list[str]]:
    """sha256 per artifact, total bytes, and what is wrong with them."""
    hashes, size, problems = {}, 0, []
    for name in sorted(os.listdir(run_dir)):
        with open(os.path.join(run_dir, name), "rb") as fh:
            data = fh.read()
        hashes[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
        lowered = data.lower()  # a cheap test first: the regex is slow on 10 MB
        if (
            name.endswith((".csv", ".json"))
            and (b"nan" in lowered or b"inf" in lowered)
            and NONFINITE.search(data)
        ):
            problems.append(f"{name}: non-finite number")
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        results = json.load(fh)["results"]
    if reference is None:
        problems.append("no reference result recorded for this op")
    else:
        problems += drift(results, reference)
    return hashes, size, problems


def run_op(op, cfg_path: str, work: str, reference: dict, trace: bool, threads: int) -> dict:
    """Run one op in a fresh interpreter; time it from outside and check it."""
    out = os.path.join(work, "out")
    report = os.path.join(work, "report.json")
    log = os.path.join(work, "log.txt")
    shutil.rmtree(out, ignore_errors=True)
    if os.path.exists(report):
        os.remove(report)
    cmd = [
        sys.executable, CHILD, report, op.key, "1" if trace else "0",
        op.subcommand, "--config", cfg_path, "--out", out,
        "--label", "run", "--threads", str(threads),
    ]
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = f"timeout after {OP_TIMEOUT_S} s"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.monotonic() - t0
    sample = {"wall": wall, "problems": []}
    if rc != 0 or not os.path.exists(report):
        with open(log, errors="replace") as fh:
            tail = fh.read()[-400:]
        sample["problems"].append(f"exit code {rc}: {tail}")
        return sample
    with open(report) as fh:
        rep = json.load(fh)
    sample.update(
        setup=rep["imported"] - t0,
        compute=rep["compute_s"],
        rss_mb=rep["maxrss_kb"] * 1024 / 1e6,
    )
    hashes, size, problems = check_artifacts(
        os.path.join(out, op.subcommand, "run"), reference.get(op.key)
    )
    sample.update(hashes=hashes, bytes=size)
    sample["problems"] += problems
    if trace:
        m = op_metrics([Span(*s) for s in rep["spans"]], rep["main_thread"])
        m["unaccounted"] = rep["compute_s"] - m.pop("main_thread_self_s")
        if abs(m["unaccounted"]) > UNACCOUNTED_TOL_S:
            sample["problems"].append(
                f"spans leave {m['unaccounted']:.4f} s of compute unexplained"
            )
        sample["layers"] = m
    return sample


def measure(ops, cfg_paths, work, reference, deadline: float, trace: bool):
    """Untraced (and, with trace, traced) samples per op, until ``deadline``."""
    plain = {op.key: [] for op in ops}
    traced = {op.key: [] for op in ops}
    first_pass = True
    while True:
        for op in ops:
            if not first_pass:
                expected = statistics.median(s["wall"] for s in plain[op.key])
                if time.monotonic() + expected * (2 if trace else 1) > deadline:
                    return plain, traced
            for traced_run in (False, True) if trace else (False,):
                sample = run_op(op, cfg_paths[op.key], work, reference, traced_run, op.threads)
                (traced if traced_run else plain)[op.key].append(sample)
        first_pass = False


def _ok(samples):
    return [s for s in samples if not s["problems"]]


def _sum_of_medians(per_op, field) -> float:
    return sum(
        statistics.median(s[field] for s in ok) for ok in map(_ok, per_op.values()) if ok
    )


def end_to_end(plain: dict, attempted: int, failed: int) -> dict:
    ok = [s for samples in plain.values() for s in _ok(samples)]
    return {
        "wall_s": _sum_of_medians(plain, "wall"),
        "compute_s": _sum_of_medians(plain, "compute"),
        "setup_s": statistics.median(s["setup"] for s in ok) if ok else 0.0,
        "peak_rss_mb": max((s["rss_mb"] for s in ok), default=0.0),
        "artifact_mb": _sum_of_medians(plain, "bytes") / 1e6,
        "ok_rate": (attempted - failed) / attempted,
    }


def per_layer(plain: dict, traced: dict) -> dict:
    layers = {op: [s["layers"] for s in _ok(samples)] for op, samples in traced.items()}
    names = [n for n in metric_units() if n not in dict(DRIVER_FIGURES)]
    out = {
        n: sum(statistics.median(m[n] for m in ms) for ms in layers.values() if ms)
        for n in names
    }
    out["trace.overhead_s"] = _sum_of_medians(traced, "wall") - _sum_of_medians(plain, "wall")
    out["trace.unaccounted_s"] = sum(
        statistics.median(m["unaccounted"] for m in ms) for ms in layers.values() if ms
    )
    return out


def determinism(ops, plain, traced, single_thread) -> dict:
    """Whether repeats match byte for byte, and one thread matches several."""

    def digests(samples):
        return {json.dumps(s["hashes"], sort_keys=True) for s in samples if "hashes" in s}

    repeats = all(len(digests(plain[o.key] + traced[o.key])) == 1 for o in ops)
    threads = None
    if single_thread:
        threads = all(
            digests(plain[key]) == digests([s]) for key, s in single_thread.items()
        )
    return {"same_seed_identical": repeats, "threads_1_vs_n_identical": threads}


def context(work: str) -> dict:
    path = os.path.join(work, "context.json")
    subprocess.run([sys.executable, CHILD, "--context", path], cwd=ROOT, check=True)
    with open(path) as fh:
        ctx = json.load(fh)
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "hcfwm")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    ctx.update(
        git_sha=sha,
        nproc=len(os.sched_getaffinity(0)),
        src_hcfwm_lines=lines,
        env={
            k: v for k, v in sorted(os.environ.items())
            if k.startswith(("PYTHON", "HCFWM_")) or k.endswith("_NUM_THREADS")
        },
    )
    return ctx


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = load_reference()
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        ops = workload_ops(ROOT, name, seed)
        cfg_paths = {}
        for i, op in enumerate(ops):
            cfg_paths[op.key] = os.path.join(work, f"config-{i}.yaml")
            with open(cfg_paths[op.key], "w") as fh:
                fh.write(op.config_yaml())
        # The context child, inside the measured time, is the warm-up: it
        # imports hcfwm.cli, which fills the file cache (and the bytecode
        # cache, where it is on).
        deadline = time.monotonic() + seconds
        ctx = context(work)
        plain, traced = measure(ops, cfg_paths, work, reference, deadline, trace)
        # after the measured time: each op that used several threads runs
        # once on one thread, to compare its artifacts
        single_thread = {
            op.key: run_op(op, cfg_paths[op.key], work, reference, False, 1)
            for op in ops if op.threads > 1
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = [s for v in (plain, traced) for ss in v.values() for s in ss]
    samples += list(single_thread.values())
    attempted = len(samples)
    problems = sorted({p for s in samples for p in s["problems"]})
    failed = sum(1 for s in samples if s["problems"])
    det = determinism(ops, plain, traced, single_thread)
    metrics = per_layer(plain, traced) if trace else end_to_end(plain, attempted, failed)
    units = metric_units() if trace else END_TO_END
    result = {
        "correct": failed == 0
        and det["same_seed_identical"]
        and det["threads_1_vs_n_identical"] is not False,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "context": ctx,
        "determinism": det,
        "problems": problems,
        "ops": {
            op.key: {
                "subcommand": op.subcommand,
                "threads": op.threads,
                "runs": len(plain[op.key]),
                "sha256": next((s["hashes"] for s in plain[op.key] if "hashes" in s), None),
                "samples": {
                    f: [s.get(f) for s in plain[op.key]] for f in ("wall", "compute", "setup")
                },
            }
            for op in ops
        },
        "result": result,
    }
    with open(os.path.join(OUT, f"report-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"[{name}] context {json.dumps(ctx, sort_keys=True)}")
    print(f"[{name}] determinism {json.dumps(det, sort_keys=True)}")
    for p in problems:
        print(f"[{name}] problem: {p}")
    print(f"[{name}] {attempted} ops run, {failed} failed")
    for n, m in result["metrics"].items():
        print(f"[{name}] {n} = {m['value']:.6g} {m['unit']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hcfwm", "cli.py")):
        print(f"no hcfwm source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
