"""Locate the program under test in the checkout that holds this benchmark.

The benchmark measures the `gmineq` package in `src/` of the same checkout
and compares it with the mpmath oracle in `tests/oracle.py`.  It never falls
back to an installed copy: if either is missing the run stops with exit
code 2 before it prints a result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORKDIR = ROOT / ".perfbench_run"

# Every workload runs single-threaded BLAS; the variable is read when numpy
# loads OpenBLAS, so it must be set before numpy is imported.
BLAS_THREADS = "1"


def prepare() -> None:
    """Pin BLAS threads and put the checkout's package and oracle on sys.path."""
    missing = [p for p in (SRC / "gmineq" / "__init__.py", TESTS / "oracle.py") if not p.is_file()]
    if missing:
        names = ", ".join(str(p.relative_to(ROOT)) for p in missing)
        print(f"perfbench: cannot find {names} in {ROOT}", file=sys.stderr)
        raise SystemExit(2)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import gmineq

    if Path(gmineq.__file__).resolve().parent != SRC / "gmineq":
        print(f"perfbench: imported gmineq from {gmineq.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
