"""Wall time of each ``walkweights`` CLI command, start-up included.

    python scripts/cli_startup.py [--src DIR] > table.json

Every subcommand runs on a committed instance in a fresh Python process,
RUNS times, the commands taking turns so that drift on a shared box
spreads over all of them.  The script prints one JSON object: per command
its arguments, the median and all wall times of the process, and the scipy
subpackages loaded when the command returned.  The ``import`` row imports
``walkweights.cli`` and runs nothing; ``check hull`` runs ``check`` without
a target, so it reports the hull dimension and runs no LP.

``--src`` is the source tree ``walkweights`` is imported from (default: this
checkout's ``src``), so one script can time two checkouts.  BLAS is pinned
to one thread, as in the benchmark.  The targets of ``reconstruct``,
``solve`` and ``check`` are the instances' own fixed-point occupation times,
written by an untimed ``expect`` run first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
RUNS = 5
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Runs the CLI on argv[2:], then writes the scipy subpackages in
# sys.modules to the file argv[1] and exits with the command's code.
PROBE = """
import sys
from walkweights.cli import main
code = main(sys.argv[2:]) if len(sys.argv) > 2 else 0
loaded = sorted(
    name[6:] for name in sys.modules
    if name.startswith("scipy.") and name.count(".") == 1
    and not name[6:].startswith("_") and name != "scipy.version"
)
with open(sys.argv[1], "w") as fh:
    fh.write(" ".join(loaded))
sys.exit(code)
"""


def commands(tmp: Path) -> dict[str, list[str]]:
    grid = str(INSTANCES / "grid3x3.json")
    path = str(INSTANCES / "p4_uniform.json")
    grid_tau, path_tau = str(tmp / "grid_tau.json"), str(tmp / "p4_tau.json")
    out = str(tmp / "out.json")
    return {
        "import": [],
        "expect fixedpoint": ["expect", "--instance", grid, "--method", "fixedpoint", "--out", out],
        "expect green": ["expect", "--instance", grid, "--method", "green", "--out", out],
        "expect montecarlo": ["expect", "--instance", grid, "--method", "montecarlo",
                              "--N", "2000", "--seed", "42", "--out", out],
        "reconstruct": ["reconstruct", "--instance", grid, "--target", grid_tau, "--out", out],
        "solve": ["solve", "--instance", path, "--target", path_tau, "--out", out],
        "check": ["check", "--instance", grid, "--target", grid_tau, "--out", out],
        "check hull": ["check", "--instance", grid, "--out", out],
        "gradcheck": ["gradcheck", "--instance", grid, "--seed", "1", "--out", out],
    }


def run(argv: list[str], env: dict, loaded_file: Path) -> float:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(loaded_file), *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv) or 'import'} exited {proc.returncode}: {proc.stderr}")
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    env.update({var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        loaded_file = tmp / "loaded.txt"
        for instance, target in (("grid3x3", "grid_tau"), ("p4_uniform", "p4_tau")):
            run(["expect", "--instance", str(INSTANCES / f"{instance}.json"),
                 "--method", "fixedpoint", "--out", str(tmp / f"{target}.json")],
                env, loaded_file)
        cmds = commands(tmp)
        walls: dict[str, list[float]] = {label: [] for label in cmds}
        table = {}
        for _ in range(RUNS):
            for label, cmd in cmds.items():
                walls[label].append(run(cmd, env, loaded_file))
                table[label] = {
                    "argv": " ".join(Path(a).name if "/" in a else a for a in cmd),
                    "scipy_loaded": loaded_file.read_text().split(),
                }
        for label, row in table.items():
            row["wall_s_median"] = round(statistics.median(walls[label]), 4)
            row["wall_s"] = [round(w, 4) for w in walls[label]]

    report = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "blas_threads": 1,
        "runs": RUNS,
        "commands": table,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
