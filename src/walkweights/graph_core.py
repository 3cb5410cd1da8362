"""Graph representation, vertex-weight bookkeeping, and walk matrices.

Vertices are dense integer ids ``0..n-1`` with two distinguished vertices:
``v_in`` where walks start and ``v_out`` where they are absorbed.  A
positive vertex weighting ``rho`` induces edge weights
``wt(x, y) = rho(x) * rho(y)``, the degree-like quantity
``tilde_rho(x) = rho(x) * sum_{y ~ x} rho(y)``, and the transition rule
``P(x, y) = rho(y) / sum_{z ~ x} rho(z)``.

Instances and weight assignments are immutable after construction (their
arrays are write-protected), so they are safe to share across workers.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    Disconnected,
    DuplicateEdge,
    InOutCoincide,
    NonpositiveWeight,
    SelfLoop,
)

__all__ = [
    "GraphInstance",
    "WeightAssignment",
    "build_graph",
    "derived_weights",
    "transition_matrix",
    "laplacians",
    "load_instance",
    "instance_to_dict",
    "save_instance",
]


@dataclass(frozen=True)
class GraphInstance:
    """A validated, connected, simple undirected graph with in/out vertices.

    ``adjacency`` is a dense 0/1 float matrix (convenient for the linear
    algebra downstream); ``neighbors`` gives sorted neighbor tuples.
    ``distances`` holds BFS hop counts to ``v_out``; ``bipartition`` is a
    +/-1 coloring when the graph is bipartite, else None.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    v_in: int
    v_out: int
    adjacency: np.ndarray
    neighbors: tuple[tuple[int, ...], ...]
    out_removed_connected: bool
    bipartite: bool
    bipartition: np.ndarray | None
    distances: np.ndarray


@dataclass(frozen=True)
class WeightAssignment:
    """Positive vertex weights plus every derived quantity the model uses.

    Invariants (checked at construction):
      * ``tilde_rho(x) = rho(x) * sum_{y~x} rho(y)``
      * ``rho_star(x) = tilde_rho(x) / rho(x)``
      * ``edge_wt[x, y] = rho(x) * rho(y)`` on edges, 0 elsewhere
      * ``vol = sum(tilde_rho) = 2 * total edge weight``

    Solvers normalize so ``rho(v_out) = 1``; the constructor itself accepts
    any positive weighting (the induced walk only depends on ratios).
    """

    rho: np.ndarray
    tilde_rho: np.ndarray
    rho_star: np.ndarray
    vol: float
    edge_wt: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _bfs_depths(neighbors, start: int, skip: int | None = None) -> dict[int, int]:
    """Hop counts from ``start`` to every vertex it reaches without entering
    ``skip``; ``neighbors`` maps each vertex to its neighbours."""
    depth = {start: 0}
    q = deque([start])
    while q:
        u = q.popleft()
        for v in neighbors[u]:
            if v != skip and v not in depth:
                depth[v] = depth[u] + 1
                q.append(v)
    return depth


def _check_vertex(n: int, v: int, name: str) -> None:
    """Raise ValueError naming the argument ``name`` unless ``v`` is one of
    the vertex ids 0..n-1."""
    if not 0 <= v < n:
        raise ValueError(f"{name}={v} outside 0..{n - 1}")


def _integer(value, name: str) -> int:
    """``value`` as an int; ValueError naming the argument ``name`` unless it
    is a Python or numpy integer (a float is refused even when whole)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}={value!r} is not an integer") from None


def build_graph(n: int, edges, v_in: int, v_out: int) -> GraphInstance:
    """Validate and assemble a GraphInstance.

    Raises SelfLoop, DuplicateEdge, InOutCoincide, or Disconnected with the
    offending vertices named, and ValueError naming a count, vertex id or
    edge endpoint that is not an integer.  Bipartiteness, the bipartition
    coloring, and BFS distances to ``v_out`` are computed eagerly since
    several downstream operations branch on them.
    """
    n, v_in, v_out = _integer(n, "n"), _integer(v_in, "v_in"), _integer(v_out, "v_out")
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got n={n}")
    for v, name in ((v_in, "v_in"), (v_out, "v_out")):
        _check_vertex(n, v, name)
    if v_in == v_out:
        raise InOutCoincide(f"v_in and v_out are both {v_in}")

    canon: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
    for e in edges:
        try:
            x, y = operator.index(e[0]), operator.index(e[1])
        except TypeError:
            raise ValueError(f"edge {tuple(e)} has a non-integer endpoint") from None
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"edge ({x},{y}) outside 0..{n - 1}")
        if x == y:
            raise SelfLoop(f"edge ({x},{y}) is a self-loop")
        key = (min(x, y), max(x, y))
        if key in seen_edges:
            raise DuplicateEdge(f"edge {key} appears more than once")
        seen_edges.add(key)
        canon.append(key)
    canon.sort()

    adjacency = np.zeros((n, n))
    for x, y in canon:
        adjacency[x, y] = 1.0
        adjacency[y, x] = 1.0
    neighbors = tuple(
        tuple(int(v) for v in np.flatnonzero(adjacency[u])) for u in range(n)
    )

    depth = _bfs_depths(neighbors, v_out)
    if len(depth) != n:
        missing = sorted(set(range(n)) - depth.keys())
        raise Disconnected(f"vertices {missing} unreachable from v_out={v_out}")
    out_removed_connected = len(_bfs_depths(neighbors, v_in, skip=v_out)) == n - 1

    # A connected graph is bipartite exactly when every edge joins depths of
    # different parity; the coloring is then +1 at even depth, -1 at odd.
    parity = [depth[v] % 2 for v in range(n)]
    bipartite = all(parity[x] != parity[y] for x, y in canon)
    distances = np.array([depth[v] for v in range(n)], dtype=np.int64)
    bipartition = _freeze(1 - 2 * (distances % 2)) if bipartite else None

    return GraphInstance(
        n=n,
        edges=tuple(canon),
        v_in=v_in,
        v_out=v_out,
        adjacency=_freeze(adjacency),
        neighbors=neighbors,
        out_removed_connected=out_removed_connected,
        bipartite=bipartite,
        bipartition=bipartition,
        distances=_freeze(distances),
    )


def derived_weights(g: GraphInstance, rho) -> WeightAssignment:
    """Compute tilde_rho, rho_star, edge weights, and volume for ``rho``."""
    rho = np.asarray(rho, dtype=float).copy()
    if rho.shape != (g.n,):
        raise ValueError(f"rho has shape {rho.shape}, expected ({g.n},)")
    if np.any(rho <= 0) or not np.all(np.isfinite(rho)):
        bad = int(np.flatnonzero(~(rho > 0) | ~np.isfinite(rho))[0])
        raise NonpositiveWeight(f"rho[{bad}] = {rho[bad]} is not a positive real")
    edge_wt = np.outer(rho, rho) * g.adjacency
    tilde_rho = edge_wt.sum(axis=1)
    rho_star = tilde_rho / rho
    vol = float(tilde_rho.sum())
    return WeightAssignment(
        rho=_freeze(rho),
        tilde_rho=_freeze(tilde_rho),
        rho_star=_freeze(rho_star),
        vol=vol,
        edge_wt=_freeze(edge_wt),
    )


def transition_matrix(g: GraphInstance, w: WeightAssignment) -> np.ndarray:
    """Row-stochastic P with P(x, y) = rho(y) / sum_{z ~ x} rho(z).

    Invariant under global rescaling of rho: the edge weights
    rho(x)rho(y) define the same walk.
    """
    denom = g.adjacency @ w.rho
    return g.adjacency * w.rho[None, :] / denom[:, None]


def laplacians(g: GraphInstance, w: WeightAssignment):
    """Return (L, T, normL).

    L is the combinatorial Laplacian: diag(tilde_rho) minus the edge-weight
    matrix.  T = diag(tilde_rho).  normL = T^{-1/2} L T^{-1/2} is symmetric
    positive semidefinite with a zero eigenvalue along sqrt(tilde_rho).
    """
    T = np.diag(w.tilde_rho)
    L = T - w.edge_wt
    inv_sqrt = 1.0 / np.sqrt(w.tilde_rho)
    normL = L * inv_sqrt[:, None] * inv_sqrt[None, :]
    return L, T, normL


def _induced_subgraph(g: GraphInstance, keep) -> GraphInstance:
    """The subgraph of ``g`` induced on the sorted vertex ids ``keep``,
    re-indexed ``0..len(keep)-1`` in that order; ``keep`` must contain
    v_in and v_out."""
    index = {v: k for k, v in enumerate(keep)}
    edges = [(index[x], index[y]) for x, y in g.edges if x in index and y in index]
    return build_graph(len(keep), edges, index[g.v_in], index[g.v_out])


# -- JSON instance files ---------------------------------------------------
#
# {"n": int, "edges": [[i, j], ...], "v_in": int, "v_out": int,
#  "rho": [floats]}    with "rho" optional.
# By convention shipped instance files use v_out = 0, but the loader accepts
# any valid id and never permutes vertices (outputs stay aligned with the
# caller's ids).


def load_instance(path) -> tuple[GraphInstance, WeightAssignment | None]:
    """Load and validate an instance file; returns (graph, weights-or-None)."""
    data = json.loads(Path(path).read_text())
    for key in ("n", "edges", "v_in", "v_out"):
        if key not in data:
            raise ValueError(f"instance file missing required field '{key}'")
    g = build_graph(data["n"], data["edges"], data["v_in"], data["v_out"])
    w = None
    if data.get("rho") is not None:
        w = derived_weights(g, np.asarray(data["rho"], dtype=float))
    return g, w


def instance_to_dict(g: GraphInstance, rho=None) -> dict:
    d = {
        "n": g.n,
        "edges": [list(e) for e in g.edges],
        "v_in": g.v_in,
        "v_out": g.v_out,
    }
    if rho is not None:
        d["rho"] = [float(x) for x in np.asarray(rho)]
    return d


def save_instance(path, g: GraphInstance, rho=None) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(g, rho), indent=2) + "\n")
