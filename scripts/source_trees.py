"""The ``--src`` option of the comparison scripts and the environment each
source tree runs in.

``cli_startup.py``, ``mc_engines.py`` and ``solve_sweep.py`` run every
source tree in fresh processes that import ``walkweights`` from it, with
BLAS pinned to one thread by the benchmark's own list of thread variables.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from checkout import THREAD_VARS  # noqa: E402


def add_src_option(parser) -> None:
    parser.add_argument("--src", type=Path, action="append")


def tree_envs(srcs: list[Path] | None) -> dict[str, dict]:
    """Each source tree's absolute path and the environment to run it in,
    in the order given; this checkout's ``src`` when none is given."""
    pinned = dict.fromkeys(THREAD_VARS, "1")
    envs = {}
    for src in srcs or [ROOT / "src"]:
        path = str(src.resolve())
        envs[path] = dict(os.environ, PYTHONPATH=path, **pinned)
    return envs
