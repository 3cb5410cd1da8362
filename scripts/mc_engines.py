"""Wall time and walk-steps/s of both Monte Carlo engines, and where they
cross.

    python scripts/mc_engines.py [--src DIR ...] > table.json

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
* ``small``: the first ``sample`` draw on the 200-vertex tree at each N in
  SMALL_N.  Its walks are long, so few walks run for many steps: the
  per-walk engine's scalar tail and its first, short rounds dominate.

Each time is the median of REPEATS calls, the two engines taking turns, in
a fresh process per row with BLAS pinned to one thread, as in the
benchmark.  ``--src`` is a source tree ``walkweights`` is imported from
(default: this checkout's ``src``).  Given more than once, as in ``--src
parent/src --src src``, the trees take turns on every row, so a comparison
of two checkouts shares the box's drift; the output then has one block per
tree under ``trees`` and, under ``walks_ratio``, each later tree's per-walk
seconds over the first tree's, row by row.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from source_trees import add_src_option, tree_envs  # noqa: E402

SEED = 1
REPEATS = 3
RATIOS = (0.5, 1, 2, 4, 8, 16, 32)
SWEPT = ("dense9", "grid10x10")
SMALL_N = (24, 100, 400)

# Times one row with the walkweights on PYTHONPATH: reads the row from
# stdin and writes it back with its timings as JSON.
WORKER = """
import json, pickle, sys
sys.path.insert(0, sys.argv[1])
import mc_engines
print(json.dumps(mc_engines.time_row(pickle.load(sys.stdin.buffer))))
"""


def sample_cases(seed: int) -> list[dict]:
    """Every ``sample`` operation as a row: graph name, instance, weights,
    N and Monte Carlo seed, in the benchmark's order, from the same draws
    as ``workloads.setup_sample``."""
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
            cases.append({"graph": inst.name, "n": inst.n, "edges": inst.edges,
                          "v_in": inst.v_in, "v_out": inst.v_out, "rho": rho,
                          "N": N, "mc_seed": mc_seed})
    return cases


def cells(case: dict, batches: int) -> int:
    """B * n * max degree: the cells one count-engine round may draw for."""
    degree = np.bincount(np.ravel(case["edges"]), minlength=case["n"])
    return batches * case["n"] * int(degree.max())


def walk_steps(N: int, mean) -> int:
    """Steps of N walks whose mean visit vector is ``mean``."""
    return round(N * float(mean.sum())) - N


def time_row(case: dict) -> dict:
    """Time both engines on one row; return the row's label fields, the
    engine ``mc_engine`` routes it to and each engine's timings."""
    import walkweights as ww
    from walkweights import occupation

    g = ww.build_graph(case["n"], case["edges"], case["v_in"], case["v_out"])
    w = ww.derived_weights(g, case["rho"])
    N, seed = case["N"], case["mc_seed"]
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
    row = {key: case[key] for key in ("graph", "ratio", "N") if key in case}
    row["routed"] = occupation.mc_engine(g, N)
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


def count_route(env: dict) -> int:
    """``occupation.COUNT_ROUTE`` of the walkweights on env's PYTHONPATH."""
    proc = subprocess.run(
        [sys.executable, "-c", "from walkweights import occupation; print(occupation.COUNT_ROUTE)"],
        env=env, capture_output=True, check=True, text=True,
    )
    return int(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    add_src_option(parser)
    args = parser.parse_args(argv)

    envs = tree_envs(args.src)
    srcs = list(envs)
    sys.path.insert(0, srcs[0])
    from walkweights import occupation

    batches = occupation.COUNT_BATCHES
    cases = sample_cases(SEED)
    sections = {"sample": cases, "sweep": [], "small": []}
    for swept in SWEPT:
        case = next(c for c in cases if c["graph"] == swept)
        sections["sweep"] += [dict(case, ratio=ratio, N=max(1, round(ratio * cells(case, batches))))
                              for ratio in RATIOS]
    tree = next(c for c in cases if c["graph"] == "tree200")
    sections["small"] = [dict(tree, N=N) for N in SMALL_N]

    rows = {src: {name: [] for name in sections} for src in srcs}
    for name, section in sections.items():
        for case in section:
            for src in srcs:
                proc = subprocess.run(
                    [sys.executable, "-c", WORKER, str(ROOT / "scripts")],
                    input=pickle.dumps(case), env=envs[src], capture_output=True, check=True,
                )
                rows[src][name].append(json.loads(proc.stdout))

    def tree_report(src: str) -> dict:
        sample, small = rows[src]["sample"], rows[src]["small"]
        for row, case in zip(sample, cases):
            row["ratio"] = round(case["N"] / cells(case, batches), 3)
        sweep = {}
        for swept in SWEPT:
            swept_rows = [r for r in rows[src]["sweep"] if r["graph"] == swept]
            case = next(c for c in cases if c["graph"] == swept)
            sweep[swept] = {"cells": cells(case, batches), "rows": swept_rows,
                            "crossover": crossover(swept_rows)}
        return {"src": src, "count_route": count_route(envs[src]), "sample": sample,
                "sample_totals": totals(sample), "sweep": sweep, "small": small}

    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "blas_threads": 1,
        "repeats": REPEATS,
        "count_batches": batches,
        "trees": [tree_report(src) for src in srcs],
    }
    if len(srcs) > 1:
        first = rows[srcs[0]]
        report["walks_ratio"] = {
            src: {name: [round(r["walks_s"] / f["walks_s"], 3)
                         for r, f in zip(rows[src][name], first[name])]
                  for name in sections}
            for src in srcs[1:]
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
