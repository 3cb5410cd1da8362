"""Where the benchmark finds the library, and the thread settings it runs under.

The benchmark always measures the library in the checkout it sits in
(``<root>/src/walkweights``), never an installed copy: a checkout without
the source fails loudly instead of timing something else.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# One BLAS/OpenMP thread: the workloads are single-process and serial, and
# the numbers must not depend on how many cores a box happens to have.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class MissingLibrary(RuntimeError):
    """The checkout holds no importable ``src/walkweights``."""


def pin_threads() -> None:
    """Pin BLAS to one thread. Must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_library():
    """Import ``walkweights`` from this checkout's ``src`` and return it."""
    if not (SRC / "walkweights" / "__init__.py").is_file():
        raise MissingLibrary(f"no library source at {SRC / 'walkweights'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ww = importlib.import_module("walkweights")
    origin = Path(ww.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingLibrary(f"walkweights was imported from {origin}, not {SRC}")
    importlib.import_module("walkweights.cli")  # not imported by the package
    return ww
