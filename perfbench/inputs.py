"""Benchmark inputs: graph families, fixed catalogues and seeded weights.

Graph *shapes* come from fixed catalogues (drawn once from
``CATALOGUE_SEED``), so every seed asks for the same amount of structural
work.  For ``sample`` and ``exact`` the run's ``--seed`` then draws the rest:
a relabelling of each graph's vertices, the hidden weights, and the Monte
Carlo seeds.  ``reconstruct`` is fixed apart from its order (see
``reconstruct_catalogue``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import reference

CATALOGUE_SEED = 2009


@dataclass(frozen=True)
class Instance:
    """A graph with marked in/out vertices, as the benchmark hands it out."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    v_in: int
    v_out: int

    def relabel(self, rng: np.random.Generator) -> "Instance":
        """The same graph under a uniformly random vertex permutation."""
        new = rng.permutation(self.n)
        edges = tuple(
            sorted(
                (min(int(new[a]), int(new[b])), max(int(new[a]), int(new[b])))
                for a, b in self.edges
            )
        )
        return Instance(self.name, self.n, edges, int(new[self.v_in]), int(new[self.v_out]))

    def out_removed_connected(self) -> bool:
        rest = [(a, b) for a, b in self.edges if self.v_out not in (a, b)]
        keep = [v for v in range(self.n) if v != self.v_out]
        index = {v: k for k, v in enumerate(keep)}
        sub = [(index[a], index[b]) for a, b in rest]
        return bool(np.all(reference.distances(len(keep), sub, 0) >= 0))


def _instance(name, n, edges, v_in, v_out) -> Instance:
    edges = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
    return Instance(name, n, edges, v_in, v_out)


def path(n: int) -> Instance:
    return _instance(f"P{n}", n, [(i, i + 1) for i in range(n - 1)], n - 1, 0)


def complete(n: int) -> Instance:
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return _instance(f"K{n}", n, edges, n - 1, 0)


def cycle(n: int) -> Instance:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return _instance(f"C{n}", n, edges, n // 2, 0)


def grid(rows: int, cols: int) -> Instance:
    """Corner-to-opposite-corner walk on a rows x cols grid."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return _instance(f"grid{rows}x{cols}", rows * cols, edges, rows * cols - 1, 0)


def _tree_edges(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Random recursive tree: vertex v hangs off a uniform earlier vertex."""
    return [(int(rng.integers(0, v)), v) for v in range(1, n)]


def random_tree(rng: np.random.Generator, n: int, name: str) -> Instance:
    """Random tree with v_out a leaf and v_in a uniform other vertex."""
    edges = _tree_edges(rng, n)
    degree = np.bincount(np.asarray(edges).ravel(), minlength=n)
    leaves = np.flatnonzero(degree == 1)
    v_out = int(rng.choice(leaves))
    v_in = int(rng.choice([v for v in range(n) if v != v_out]))
    return _instance(name, n, edges, v_in, v_out)


def random_graph(rng: np.random.Generator, n: int, extra: int, name: str) -> Instance:
    """Random connected graph (tree plus ``extra`` chords) with the graph
    minus v_out still connected."""
    edges = set(_tree_edges(rng, n))
    chords = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    for k in rng.choice(len(chords), size=min(extra, len(chords)), replace=False):
        edges.add(chords[k])
    while True:
        v_out, v_in = (int(v) for v in rng.choice(n, size=2, replace=False))
        inst = _instance(name, n, edges, v_in, v_out)
        if inst.out_removed_connected():
            return inst


def hidden_weights(
    rng: np.random.Generator, inst: Instance, spread: float = 0.29, pull: float = 0.0
) -> np.ndarray:
    """Positive weights, normalised so rho(v_out) = 1.

    log rho(x) = U(-spread, spread) - pull * d(x, v_out): ``spread`` 0.29
    keeps every ratio within about 1.8x, and ``pull`` > 0 makes vertices
    nearer the exit heavier, which shortens the walks.
    """
    dist = reference.distances(inst.n, inst.edges, inst.v_out)
    rho = np.exp(rng.uniform(-spread, spread, inst.n) - pull * dist)
    return rho / rho[inst.v_out]


def seeded_rng(seed: int, workload: str) -> np.random.Generator:
    """One independent stream per (seed, workload)."""
    return np.random.default_rng([seed, sum(map(ord, workload))])


# -- fixed catalogues ----------------------------------------------------------


def reconstruct_catalogue() -> list[tuple[Instance, np.ndarray]]:
    """Random trees (v_out a leaf) and random graphs with n = 5..10, two of
    each size, with their hidden weights.

    Unlike the other catalogues this one fixes the weights and labels too.
    The iteration count of one reconstruction moves by 30-40 % (standard
    deviation over mean) under any change of its input, even a relabelling,
    so a batch drawn afresh for each seed timed 15-20 % apart from seed to
    seed and would hide any change smaller than that.
    """
    rng = np.random.default_rng([CATALOGUE_SEED, 1])
    out = []
    for k in range(2):
        for n in range(5, 11):
            out.append(random_tree(rng, n, f"tree{n}.{k}"))
            out.append(random_graph(rng, n, int(rng.integers(1, n)), f"graph{n}.{k}"))
    return [(inst, hidden_weights(rng, inst)) for inst in out]


def sample_catalogue() -> list[Instance]:
    """A small dense graph, two grids and a random tree (n = 9..400)."""
    rng = np.random.default_rng([CATALOGUE_SEED, 2])
    dense = random_graph(rng, 9, 18, "dense9")
    tree = random_tree(rng, 200, "tree200")
    return [dense, grid(10, 10), tree, grid(20, 20)]


def exact_catalogue() -> list[Instance]:
    """Paths, complete graphs, small trees and twin-reducible non-trees."""
    trees = [
        _instance("star4", 4, [(0, 1), (0, 2), (0, 3)], 1, 2),
        _instance("fork5", 5, [(0, 1), (1, 2), (1, 3), (3, 4)], 4, 0),
        _instance("star5", 5, [(0, 1), (0, 2), (0, 3), (0, 4)], 1, 2),
        _instance("caterpillar6", 6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)], 3, 0),
        _instance("spider7", 7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)], 4, 0),
    ]
    k23 = _instance(
        "K2,3", 5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)], 1, 0
    )
    return (
        [path(n) for n in range(3, 7)]
        + [complete(4), complete(5)]
        + trees
        + [cycle(4), k23]
    )


def long_walk_cases() -> list[tuple[Instance, np.ndarray]]:
    """Solvable targets whose expected walk length sum(r) - 1 exceeds 8n.

    These do not depend on the seed.  Each is the image of the listed
    weights, so an exact solution exists by construction.
    """
    cases = [
        (path(3), [1.0, 1.0, 13.0]),
        (path(4), [1.0, 1.0, 6.0, 6.0]),
        (cycle(4), [1.0, 1.0, 20.0, 1.0]),
    ]
    return [(replace(inst, name="long-" + inst.name), np.array(rho)) for inst, rho in cases]
