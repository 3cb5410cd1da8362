"""Fingerprint of ``solve_reducible`` on every graph with at most 7 vertices.

    python scripts/solve_sweep.py [--src DIR ...] > sweep.json

The sweep covers every connected graph of networkx's graph atlas (all
graphs on up to 7 vertices) and, on each, every ordered pair (v_in, v_out)
whose graph minus v_out is connected.  Each pair gets two targets from a generator
seeded by (SEED, atlas index, v_in, v_out): the image tau(rho) of weights
rho = 10^U(-1, 1), and that image with every entry but r(v_out) scaled by
e^N(0, 0.1).  The targets are built once, by the first tree's fixed-point
forward map, so every tree solves the same floats.

For each source tree the script prints the count of each outcome (``ok``,
or the name of the raised error's type) and one SHA-256 over the outcomes
in order, image target first: the bytes of the solved rho, or the error's
type and message.  Equal digests mean bit-identical solver output.  It
also prints the time spent inside ``solve_reducible`` and the workers'
wall time, start-up included.  On 2 cores one tree takes about 14 s: 5 s
to build the targets and 7 s to solve them.

``--src`` is a source tree ``walkweights`` is imported from (default: this
checkout's ``src``).  Given more than once, as in ``--src parent/src --src
src``, the trees take turns on each of CHUNKS slices of the pairs, each
slice in a fresh Python process, so a comparison of two checkouts shares
the box's drift.  The workers' BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import networkx as nx
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 2009
CHUNKS = 4
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# Solves the pairs argv[2]:argv[3] of the pickled pair list in the file
# argv[1] and pickles (outcomes, seconds inside solve_reducible) to stdout;
# an outcome is (label, bytes).
WORKER = """
import pickle, sys, time
import walkweights as ww
with open(sys.argv[1], "rb") as fh:
    pairs = pickle.load(fh)[int(sys.argv[2]):int(sys.argv[3])]
outcomes, solve_s = [], 0.0
for n, edges, v_in, v_out, targets in pairs:
    g = ww.build_graph(n, edges, v_in=v_in, v_out=v_out)
    for target in targets:
        start = time.perf_counter()
        try:
            out = ("ok", ww.solve_reducible(g, target).rho.tobytes())
        except Exception as exc:
            out = (type(exc).__name__, f"{type(exc).__name__}: {exc}".encode())
        solve_s += time.perf_counter() - start
        outcomes.append(out)
pickle.dump((outcomes, solve_s), sys.stdout.buffer)
"""


def build_pairs(ww) -> list[tuple]:
    """(n, edges, v_in, v_out, (image target, perturbed target)) per pair."""
    pairs = []
    for index, graph in enumerate(nx.graph_atlas_g()):
        n = graph.number_of_nodes()
        if n < 2 or not nx.is_connected(graph):
            continue
        edges = sorted(graph.edges())
        for v_out in range(n):
            for v_in in range(n):
                if v_in == v_out:
                    continue
                g = ww.build_graph(n, edges, v_in=v_in, v_out=v_out)
                if not g.out_removed_connected:
                    continue
                rng = np.random.default_rng((SEED, index, v_in, v_out))
                rho = 10.0 ** rng.uniform(-1.0, 1.0, n)
                image = ww.expected_occupation_fixed_point(g, ww.derived_weights(g, rho)).values
                perturbed = image * np.exp(rng.normal(0.0, 0.1, n))
                perturbed[v_out] = 1.0
                pairs.append((n, edges, v_in, v_out, (image, perturbed)))
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, action="append")
    args = parser.parse_args(argv)

    srcs = [str(src.resolve()) for src in args.src or [ROOT / "src"]]
    envs = {src: dict(os.environ, PYTHONPATH=src) for src in srcs}
    for env in envs.values():
        env.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, srcs[0])
    import walkweights as ww

    pairs = build_pairs(ww)
    bounds = np.linspace(0, len(pairs), CHUNKS + 1).astype(int)
    digests = {src: hashlib.sha256() for src in srcs}
    counts = {src: Counter() for src in srcs}
    solve_s = dict.fromkeys(srcs, 0.0)
    wall_s = dict.fromkeys(srcs, 0.0)
    with tempfile.TemporaryDirectory() as tmp_name:
        pair_file = Path(tmp_name) / "pairs.pkl"
        pair_file.write_bytes(pickle.dumps(pairs))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            for src in srcs:
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-c", WORKER, str(pair_file), str(lo), str(hi)],
                    env=envs[src], capture_output=True, check=True,
                )
                wall_s[src] += time.perf_counter() - start
                outcomes, seconds = pickle.loads(proc.stdout)
                solve_s[src] += seconds
                for label, payload in outcomes:
                    counts[src][label] += 1
                    digests[src].update(payload)

    report = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "blas_threads": 1,
        "pairs": len(pairs),
        "targets": 2 * len(pairs),
        "seed": SEED,
        "trees": [
            {
                "src": src,
                "counts": dict(sorted(counts[src].items())),
                "sha256": digests[src].hexdigest(),
                "solve_s": round(solve_s[src], 3),
                "wall_s": round(wall_s[src], 3),
            }
            for src in srcs
        ],
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
