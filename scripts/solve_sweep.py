"""Fingerprint of ``solve_reducible`` and ``relint_membership`` on every
graph with at most 7 vertices, and of ``solve_reducible`` on random trees.

    python scripts/solve_sweep.py [--src DIR ...] > sweep.json

The sweep covers every connected graph of networkx's graph atlas (all
graphs on up to 7 vertices) and, on each, every ordered pair (v_in, v_out)
whose graph minus v_out is connected.  Each pair gets two targets from a generator
seeded by (SEED, atlas index, v_in, v_out): the image tau(rho) of weights
rho = 10^U(-1, 1), and that image with every entry but r(v_out) scaled by
e^N(0, 0.1).  A second family holds TREES random recursive trees (vertex k
joins a uniform earlier vertex), TREES / 3 for each spread s = 1, 2, 3, each
from a generator seeded by (TREE_SEED, s, k): n = U{3..40}, v_out a uniform
leaf, v_in a uniform other vertex, and one target, the image of
rho = 10^U(-s, s).  At these spreads some forward round trips miss and
raise VerificationError, which no atlas target does, so the random trees
see a change to the solver's round trips.  The targets are built once, by
the first tree's fixed-point forward map, so every tree solves the same
floats.

For each source tree the script prints the count of each outcome (``ok``,
or the name of the raised error's type) and one SHA-256 over the outcomes
in order, image target first: the bytes of the solved rho, or the error's
type and message.  Equal digests mean bit-identical solver output.  The
random trees get their own counts and digest (``random_tree_counts``,
``random_tree_sha256``), so the atlas's stay comparable with earlier
versions of this script.  It does the same for ``relint_membership``'s
statuses on the atlas (``relint_counts``, ``relint_sha256``: equal digests
mean equal verdicts) and prints the time spent inside each function and
the workers' wall time, start-up included.  With two trees it also prints
the largest difference between their relint certificates, relative to
max(1, max r), over the targets both place in the hull.  On 2 cores, in
two runs that compared two source trees, building the targets took about
8 s and each source tree's workers 16-21 s: 2.3-3.4 s of them inside
``solve_reducible`` on the atlas, 0.7-1.0 s on the random trees, and
8.7-11.2 s inside ``relint_membership``.  A tree whose relint is the
HiGHS LP spends 166 s inside it.

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

from source_trees import add_src_option, tree_envs

ROOT = Path(__file__).resolve().parent.parent
SEED = 2009
TREE_SEED = 2023
TREES = 3000
CHUNKS = 4

# Solves the pairs argv[2]:argv[3] of the pickled pair list in the file
# argv[1], relint-tests them too when argv[4] is "1", and pickles
# (outcomes, verdicts, seconds inside solve_reducible, seconds inside
# relint_membership) to stdout; an outcome is (label, bytes), a verdict
# (status, certificate).
WORKER = """
import pickle, sys, time
import walkweights as ww
with open(sys.argv[1], "rb") as fh:
    pairs = pickle.load(fh)[int(sys.argv[2]):int(sys.argv[3])]
relint = sys.argv[4] == "1"
outcomes, verdicts, solve_s, relint_s = [], [], 0.0, 0.0
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
        if relint:
            start = time.perf_counter()
            res = ww.relint_membership(g, target)
            relint_s += time.perf_counter() - start
            verdicts.append((res.status, res.certificate))
pickle.dump((outcomes, verdicts, solve_s, relint_s), sys.stdout.buffer)
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


def build_random_trees(ww) -> list[tuple]:
    """(n, edges, v_in, v_out, (image target,)) per random recursive tree."""
    trees = []
    for spread in (1, 2, 3):
        for k in range(TREES // 3):
            rng = np.random.default_rng((TREE_SEED, spread, k))
            n = int(rng.integers(3, 41))
            edges = [(int(rng.integers(v)), v) for v in range(1, n)]
            degree = np.bincount(np.ravel(edges), minlength=n)
            v_out = int(rng.choice(np.flatnonzero(degree == 1)))
            v_in = int(rng.choice([v for v in range(n) if v != v_out]))
            g = ww.build_graph(n, edges, v_in=v_in, v_out=v_out)
            rho = 10.0 ** rng.uniform(-spread, spread, n)
            image = ww.expected_occupation_fixed_point(g, ww.derived_weights(g, rho)).values
            trees.append((n, edges, v_in, v_out, (image,)))
    return trees


def run_workers(items, srcs, envs, relint: bool, wall_s: dict) -> dict:
    """Each source tree's (outcomes, verdicts, solve seconds, relint
    seconds) on ``items``, the trees taking turns on each of CHUNKS slices;
    adds the workers' wall time to ``wall_s``."""
    bounds = np.linspace(0, len(items), CHUNKS + 1).astype(int)
    results = {src: [[], [], 0.0, 0.0] for src in srcs}
    with tempfile.TemporaryDirectory() as tmp_name:
        item_file = Path(tmp_name) / "items.pkl"
        item_file.write_bytes(pickle.dumps(items))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            for src in srcs:
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-c", WORKER, str(item_file), str(lo), str(hi),
                     str(int(relint))],
                    env=envs[src], capture_output=True, check=True,
                )
                wall_s[src] += time.perf_counter() - start
                for k, part in enumerate(pickle.loads(proc.stdout)):
                    results[src][k] += part
    return results


def fingerprint(outcomes) -> tuple[dict, str]:
    """Outcome counts and the SHA-256 over the outcomes' payloads."""
    digest = hashlib.sha256()
    for _, payload in outcomes:
        digest.update(payload)
    return dict(sorted(Counter(label for label, _ in outcomes).items())), digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    add_src_option(parser)
    args = parser.parse_args(argv)

    envs = tree_envs(args.src)
    srcs = list(envs)
    sys.path.insert(0, srcs[0])
    import walkweights as ww

    pairs = build_pairs(ww)
    random_trees = build_random_trees(ww)
    wall_s = dict.fromkeys(srcs, 0.0)
    atlas = run_workers(pairs, srcs, envs, True, wall_s)
    trees = run_workers(random_trees, srcs, envs, False, wall_s)

    def tree_report(src: str) -> dict:
        outcomes, verdicts, solve_s, relint_s = atlas[src]
        counts, sha256 = fingerprint(outcomes)
        tree_counts, tree_sha256 = fingerprint(trees[src][0])
        statuses = [(status, status.encode() + b"\n") for status, _ in verdicts]
        relint_counts, relint_sha256 = fingerprint(statuses)
        return {
            "src": src,
            "counts": counts,
            "sha256": sha256,
            "relint_counts": relint_counts,
            "relint_sha256": relint_sha256,
            "random_tree_counts": tree_counts,
            "random_tree_sha256": tree_sha256,
            "solve_s": round(solve_s, 3),
            "random_tree_solve_s": round(trees[src][2], 3),
            "relint_s": round(relint_s, 3),
            "wall_s": round(wall_s[src], 3),
        }

    report = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "blas_threads": 1,
        "pairs": len(pairs),
        "targets": 2 * len(pairs),
        "seed": SEED,
        "random_trees": len(random_trees),
        "tree_seed": TREE_SEED,
        "trees": [tree_report(src) for src in srcs],
    }
    if len(srcs) > 1:
        # Targets in the order the workers saw them; NaN (outside the hull)
        # drops out of the maximum.
        scale = np.array([max(1.0, np.abs(t).max()) for *_, ts in pairs for t in ts])
        cert = np.array([[c for _, c in atlas[src][1]] for src in srcs])
        gap = np.abs(cert - cert[0]).max(axis=0) / scale
        report["relint_certificate_max_rel_diff"] = float(np.nanmax(gap, initial=0.0))
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
