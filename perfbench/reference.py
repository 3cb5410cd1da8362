"""The benchmark's own forward map, written apart from the library.

Everything here is built straight from an edge list and a weight vector
with plain numpy, so a fault in the library's forward maps cannot hide in
the checks that use it.

The walk is an absorbing Markov chain: from x it steps to a neighbour y
with probability rho(y) / sum_{z ~ x} rho(z) and stops at v_out.  With Q
the transition matrix restricted to the transient vertices (all but
v_out), the fundamental matrix F = (I - Q)^{-1} gives the expected number
of visits F[i, j] to j of a walk started at i (the start counts as a
visit), and the second moment of that count is F[i, j] (2 F[j, j] - 1)
(Kemeny & Snell, *Finite Markov Chains*, ch. 3).  The occupation vector
is tau = e_in^T F on the transient vertices and tau(v_out) = 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Moments:
    """Per-walk visit statistics of every vertex for walks started at v_in.

    ``mean`` is the occupation vector tau, ``var`` the variance of one
    walk's visit count, and ``hit`` the probability that a walk visits the
    vertex at all.  At v_out they are 1, 0 and 1.
    """

    mean: np.ndarray
    var: np.ndarray
    hit: np.ndarray


def _adjacency(n: int, edges) -> np.ndarray:
    A = np.zeros((n, n))
    for a, b in edges:
        A[a, b] = A[b, a] = 1.0
    return A


def _transient_system(n, edges, v_out, rho):
    rho = np.asarray(rho, dtype=float)
    A = _adjacency(n, edges)
    P = A * rho[None, :] / (A @ rho)[:, None]
    keep = np.array([v for v in range(n) if v != v_out])
    return keep, np.eye(len(keep)) - P[np.ix_(keep, keep)]


def occupation(n: int, edges, v_in: int, v_out: int, rho) -> np.ndarray:
    """tau = e_in^T (I - Q)^{-1} on the transient vertices, tau(v_out) = 1."""
    keep, IQ = _transient_system(n, edges, v_out, rho)
    e_in = (keep == v_in).astype(float)
    tau = np.ones(n)
    tau[keep] = np.linalg.solve(IQ.T, e_in)
    return tau


def moments(n: int, edges, v_in: int, v_out: int, rho) -> Moments:
    """Mean, variance and hit probability of the visit counts (see module doc)."""
    keep, IQ = _transient_system(n, edges, v_out, rho)
    F = np.linalg.inv(IQ)
    row = F[int(np.flatnonzero(keep == v_in)[0])]
    diag = np.diag(F)
    mean, var, hit = np.ones(n), np.zeros(n), np.ones(n)
    mean[keep] = row
    var[keep] = row * (2.0 * diag - 1.0) - row**2
    hit[keep] = row / diag
    return Moments(mean=mean, var=np.maximum(var, 0.0), hit=hit)


def distances(n: int, edges, source: int) -> np.ndarray:
    """BFS hop counts from ``source`` (-1 where unreachable)."""
    nbrs = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    dist = np.full(n, -1, dtype=int)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def is_bipartite(n: int, edges) -> bool:
    """Two-colour a connected graph by BFS parity; False on an odd cycle."""
    dist = distances(n, edges, 0)
    return all((dist[a] - dist[b]) % 2 == 1 for a, b in edges)
