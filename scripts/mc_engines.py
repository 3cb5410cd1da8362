"""Wall time and walk-steps/s of both Monte Carlo engines, and where they
cross.

    python scripts/mc_engines.py > table.json

Times ``occupation``'s per-walk engine and its count engine on the same
inputs, whatever ``mc_engine`` would route them to, and prints one JSON
object.  Every row gives, per engine, the median seconds (``<engine>_s``),
the walk steps its run took (``<engine>_steps`` = N * sum(mean) - N, each
visit but a walk's first being one step) and their ratio
(``<engine>_steps_per_s``).

* ``sample``: the benchmark's ``sample`` operations at seed 1 (the four
  graphs, three weight draws each, the benchmark's N), with the engine
  ``empirical_occupation`` routes each to.  ``sample_totals`` sums them
  per engine, and for the routed engine of each operation.
* ``sweep``: the first ``sample`` draw on the dense 9-vertex graph and on
  the 10x10 grid, at N = ratio * B * n * max degree (B = COUNT_BATCHES) for
  each ratio in RATIOS.  ``crossover`` is, per graph, the smallest ratio
  from which on the count engine is the faster at every larger ratio; the
  routing constant ``COUNT_ROUTE`` should be at least twice the larger of
  the two.

Each time is the median of REPEATS calls, the two engines taking turns, on
one process with BLAS pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import walkweights as ww  # noqa: E402
import workloads  # noqa: E402
from walkweights import occupation  # noqa: E402

SEED = 1
REPEATS = 3
RATIOS = (0.5, 1, 2, 4, 8, 16, 32)
SWEPT = ("dense9", "grid10x10")


def sample_cases(seed: int):
    """(name, g, w, N, mc_seed) of every ``sample`` operation, in the
    benchmark's order: the same draws as ``workloads.setup_sample``."""
    rng = inputs.seeded_rng(seed, "sample")
    cases = []
    for base in inputs.sample_catalogue():
        for _ in range(workloads.SAMPLE_DRAWS):
            inst = base.relabel(rng)
            rho = inputs.hidden_weights(rng, inst, pull=workloads.SAMPLE_PULL)
            mc_seed = int(rng.integers(2**31))
            mom = reference.moments(inst.n, inst.edges, inst.v_in, inst.v_out, rho)
            length = float(mom.mean.sum()) - 1.0
            N = max(math.ceil(workloads.SAMPLE_STEPS[inst.name] / length),
                    math.ceil(workloads.MIN_EXPECTED_HITS / float(mom.hit.min())))
            g = ww.build_graph(inst.n, inst.edges, inst.v_in, inst.v_out)
            cases.append((inst.name, g, ww.derived_weights(g, rho), N, mc_seed))
    return cases


def cells(g) -> int:
    """B * n * max degree: the cells one count-engine round may draw for."""
    return occupation.COUNT_BATCHES * g.n * max(len(nbrs) for nbrs in g.neighbors)


def walk_steps(N: int, mean) -> int:
    """Steps of N walks whose mean visit vector is ``mean``."""
    return round(N * float(mean.sum())) - N


def time_engines(g, w, N: int, seed: int) -> dict:
    engines = {
        "walks": lambda: occupation._walk_estimate(
            g, w, N, seed, 1, occupation.DEFAULT_STEP_LIMIT, occupation.DEFAULT_CHUNK),
        "counts": lambda: occupation._count_estimate(
            g, w, N, seed, occupation.DEFAULT_STEP_LIMIT),
    }
    seconds = {name: [] for name in engines}
    steps = {}
    for k in range(REPEATS):
        order = list(engines) if k % 2 == 0 else list(engines)[::-1]
        for name in order:
            start = time.perf_counter()
            mean, _ = engines[name]()
            seconds[name].append(time.perf_counter() - start)
            steps[name] = walk_steps(N, mean)
    row = {}
    for name, s in seconds.items():
        median = statistics.median(s)
        row[f"{name}_s"] = round(median, 5)
        row[f"{name}_steps"] = steps[name]
        row[f"{name}_steps_per_s"] = round(steps[name] / median)
    return row


def totals(rows: list[dict]) -> dict:
    """Seconds, steps and steps/s summed over ``rows``, per engine and for
    the engine each row is routed to."""
    out = {}
    for name in ("walks", "counts", "routed"):
        engines = [row["routed"] if name == "routed" else name for row in rows]
        s = sum(row[f"{e}_s"] for row, e in zip(rows, engines))
        steps = sum(row[f"{e}_steps"] for row, e in zip(rows, engines))
        out[name] = {"s": round(s, 5), "steps": steps, "steps_per_s": round(steps / s)}
    return out


def crossover(rows: list[dict]) -> float | None:
    """Smallest swept ratio from which on counts is faster at every ratio."""
    best = None
    for row in reversed(rows):
        if row["counts_s"] >= row["walks_s"]:
            break
        best = row["ratio"]
    return best


def main() -> int:
    cases = sample_cases(SEED)
    sample = []
    for name, g, w, N, mc_seed in cases:
        row = {"graph": name, "N": N, "ratio": round(N / cells(g), 3),
               "routed": occupation.mc_engine(g, N)}
        row.update(time_engines(g, w, N, mc_seed))
        sample.append(row)

    sweep = {}
    for swept in SWEPT:
        name, g, w, _, mc_seed = next(c for c in cases if c[0] == swept)
        rows = []
        for ratio in RATIOS:
            N = max(1, round(ratio * cells(g)))
            row = {"ratio": ratio, "N": N, "routed": occupation.mc_engine(g, N)}
            row.update(time_engines(g, w, N, mc_seed))
            rows.append(row)
        sweep[name] = {"cells": cells(g), "rows": rows, "crossover": crossover(rows)}

    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "blas_threads": 1,
        "repeats": REPEATS,
        "count_batches": occupation.COUNT_BATCHES,
        "count_route": occupation.COUNT_ROUTE,
        "sample": sample,
        "sample_totals": totals(sample),
        "sweep": sweep,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
