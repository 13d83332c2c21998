"""One op of the benchmark: run one hcfwm subcommand in this fresh interpreter.

    python3 child.py REPORT OP_ID TRACE HCFWM_ARGS...
    python3 child.py --context REPORT

The first form imports ``hcfwm.cli`` from the checkout's ``src``, notes the
monotonic clock when the import is done, times ``hcfwm.cli.main`` (traced
when TRACE is 1), and writes those times, the exit code, the peak RSS and
any spans to REPORT.  It exits with main's exit code.  The clock is
CLOCK_MONOTONIC, shared with the driver, which noted it before spawning.

The second form imports ``hcfwm.cli`` and writes what the CLI's numerical
stack reports about itself: Python, numpy and scipy versions, and the BLAS
library and its threads.
"""

import json
import os
import resource
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _write(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*blas*"))
    for lib in libs:
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


def context(path: str) -> None:
    sys.path.insert(0, SRC)
    import hcfwm.cli  # noqa: F401  (warms the caches the ops read)
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    _write(
        path,
        {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {
                "name": blas.get("name"),
                "version": blas.get("version"),
                "threads": _blas_threads(),
            },
        },
    )


def run(report: str, op_id: str, trace: bool, argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    import hcfwm.cli

    t_imported = time.monotonic()
    if not os.path.abspath(hcfwm.cli.__file__).startswith(SRC + os.sep):
        print(f"hcfwm imported from {hcfwm.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    main = hcfwm.cli.main
    tracer = None
    if trace:
        from tracer import MAIN_SPAN, Tracer

        tracer = Tracer(op_id)
        tracer.install()
        main = tracer.wrap(MAIN_SPAN, main)
    t0 = time.monotonic()
    rc = main(argv)
    t1 = time.monotonic()
    _write(
        report,
        {
            "rc": rc,
            "imported": t_imported,
            "compute_s": t1 - t0,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "main_thread": threading.main_thread().ident,
            "spans": tracer.dump() if tracer else None,
        },
    )
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "--context":
        context(sys.argv[2])
        sys.exit(0)
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:]))
