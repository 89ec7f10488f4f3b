#!/usr/bin/env python3
"""Run one workload of the qcrack benchmark and print its metrics.

    python3 perfbench/run.py --workload epoch-paramshift --seed 1 \
        --seconds 24 --trace 0

Run it from the root of a checkout: the package is imported from ./src,
never from an installed copy. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it holds the environment and details. Exit code 0 means every
output check passed, 1 that a check failed, 2 that the benchmark could not
start (bad arguments, or no ./src to import).
"""

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def prepare() -> None:
    """Cap BLAS threads at the CPUs this process may use, before numpy
    loads, and put the checkout's src/ and this directory on the path."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    # tests/dense_oracle.py is imported read-only; write no bytecode beside
    # it, here or in the child process that runs the cross-check
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def main(argv=None) -> int:
    t_start = time.perf_counter()
    if not (ROOT / "src" / "qcrack" / "__init__.py").is_file():
        print(f"perfbench: no qcrack package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    prepare()
    try:
        # numpy's import is timed apart and left out of setup_s: no change
        # to qcrack moves it, and it drifts with the host's file-system
        # state by more than set-up's bound between two sets of runs
        t_numpy = time.perf_counter()
        import numpy  # noqa: F401
        numpy_s = time.perf_counter() - t_numpy
        import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    return harness.main(argv, import_s=time.perf_counter() - t_start - numpy_s,
                        numpy_import_s=numpy_s)


if __name__ == "__main__":
    sys.exit(main())
