"""Exact solvability of occupation-time targets.

A target r (with r(v_out) = 1) is solvable when strictly positive weights
reproduce it.  Necessarily r lies in the relative interior of the convex
hull of proper-walk traces.  This module decides that membership exactly
with a max flow (see ``relint_membership``), gives the hull's dimension in
closed form from a BFS (the dimension lemma, see ``hull_dimension``), and
constructs exact solutions on paths, complete graphs, and anything that
pendant stripping plus twin merging reduces to one of those base cases
(all trees included).  Those shapes are read off degrees, neighbour sets
and the BFS distances to v_out that every ``GraphInstance`` holds; the
flow's comparisons with zero, under one tolerance derived from their
rounding, are the module's only numerical decision.

The arc-flow system: a proper walk's trace is e_{v_in} plus the arrivals of
the arcs it crosses, and by flow decomposition into one v_in-v_out path
plus cycles (Ahuja, Magnanti & Orlin, *Network Flows*, 3.5) the closed
trace hull is the image of the unit v_in-v_out flows on the arcs a proper
walk can use.  Every such arc lies on some proper walk, so the relative
interior of the hull is the image of the strictly positive flows
(Rockafellar, *Convex Analysis*, Thms 6.3 and 6.6).  Whether some flow
keeps every arc at or above t is a transportation problem, so Gale's
supply-demand theorem turns membership into a sequence of max flows, and
Newton's method over their min cuts finds the largest such t exactly.

Existence (a proof sketch of the paper's conjecture; tested on every graph
with n <= 5).  With x = log rho, walks with mean occupation vector r have
the concave log-likelihood L(x) = a . x - sum_{v != v_out} r(v) log
sum_{z~v} e^{x_z}, a = r - e_{v_in}, stationary exactly where tau(rho) = r
(see ``reconstruct``).  Let r be a relative-interior target with full
support, so r is the image of a flow f strictly positive on every usable
arc.  For any direction d, a . d = sum_arcs f(v, y) d_y
<= sum_{v != v_out} r(v) max_{z~v} d_z, with equality iff d is constant on
every N(v), v != v_out, which is exactly L's lineality space.  So L's
recession function is negative off its lineality space, L attains its
maximum (Rockafellar, Thm 27.1), and the maximiser solves tau(rho) = r.
The forward image always lies in the relative interior, so on every graph
whose graph minus v_out is connected the solvable targets are exactly the
relative interior.  The Bradley-Terry analogue is Zermelo's and Ford's
existence condition (Ford 1957, *Amer. Math. Monthly* 64).

Apart from the ``linprog`` wrapper, which no code here calls, this module
loads no scipy submodule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapTooSmall, Irreducible, NotInPsi, VerificationError
from .graph_core import (
    GraphInstance,
    WeightAssignment,
    _bfs_depths,
    _induced_subgraph,
    derived_weights,
)
from .occupation import (
    WalkTrace,
    _target_array,
    expected_occupation_fixed_point,
    make_walk_trace,
)

__all__ = [
    "RelintResult",
    "enumerate_proper_walks",
    "hull_dimension",
    "relint_membership",
    "detect_family",
    "solve_path",
    "solve_complete",
    "solve_reducible",
]

RELINT_CERT_TOL = 1e-9
_HYPERPLANE_ATOL = 1e-9
# Relative forward round-trip bound of the complete-graph and reduction
# solvers, and the bisection's interval width and step cap.
_VERIFY_TOL = 1e-8
_BISECT_TOL = 1e-15
_MAX_BISECT = 200


# -- traces and walks -------------------------------------------------------


def enumerate_proper_walks(g: GraphInstance, length_cap: int) -> list[WalkTrace]:
    """All proper walks of at most ``length_cap`` steps, sorted by
    (length, vertex sequence).

    Exhaustive over walks, so only suitable for small caps and graphs; it
    serves as an oracle for the arc-flow hull.
    """
    shortest = int(g.distances[g.v_in])
    if length_cap < shortest:
        raise CapTooSmall(
            f"cap {length_cap} is below d(v_in, v_out) = {shortest}"
        )
    out = []
    path = [g.v_in]

    def extend(v: int) -> None:
        if len(path) - 1 >= length_cap:
            return
        for u in g.neighbors[v]:
            path.append(u)
            if u == g.v_out:
                out.append(tuple(path))
            else:
                extend(u)
            path.pop()

    extend(g.v_in)
    if not out:
        raise CapTooSmall(f"no proper walk of length <= {length_cap} exists")
    out.sort(key=lambda seq: (len(seq), seq))
    return [make_walk_trace(g, seq) for seq in out]


# -- arc-flow hull ------------------------------------------------------------


def hull_dimension(g: GraphInstance) -> int:
    """Affine dimension of the proper-walk trace hull: |R| - [R + v_out
    induces a bipartite graph], R the vertices a walk reaches from v_in
    without passing v_out.

    Traces are 1 at v_out and 0 off R + v_out, so the dimension is |R| less
    that of the directions d on R orthogonal to the hull.  Inserting a
    back-and-forth step u -> v -> u into a walk adds d(u) + d(v) to
    d . trace, so d(u) + d(v) = 0 on every edge inside R.  R is connected,
    so d is c times a +/-1 colouring of R, and d = 0 when R is not
    bipartite.  A walk x_0, ..., x_k = v_out then has d . trace
    = c colour(x_0) [k odd], and k is odd exactly when x_{k-1} has x_0's
    colour.  Every neighbour of v_out in R ends some walk, so d . trace is
    constant exactly when those neighbours all have one colour.  When the
    graph minus v_out is connected this is the paper's n - 1 - [bipartite].
    """
    depth = _bfs_depths(g.neighbors, g.v_in, skip=g.v_out)
    exit_parities = {depth[u] % 2 for u in g.neighbors[g.v_out] if u in depth}
    bipartite = len(exit_parities) == 1 and all(
        (depth[u] - depth[v]) % 2 for u in depth for v in g.neighbors[u] if v in depth
    )
    return len(depth) - bipartite


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use.

    No library code calls it; relint runs on a max flow.  It stays as the
    name the benchmark's tracer (``perfbench/tracing.py``) wraps, and the
    tier-1 LP oracle for ``relint_membership`` calls it.
    """
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


@dataclass(frozen=True)
class RelintResult:
    """Outcome of the arc-flow membership test.

    ``status`` is "relative_interior", "boundary" (r is in the closed hull
    but no flow keeps every arc above ``RELINT_CERT_TOL``), or
    "outside_hull" (no flow reproduces r).  ``certificate`` is the largest
    attainable minimum arc flow (NaN outside the hull).  Truthiness equals
    ``member``.
    """

    member: bool
    status: str
    certificate: float

    def __bool__(self) -> bool:
        return self.member


def _max_flow(adj, to, res, sink: int) -> list[int]:
    """Dinic's max flow from node 0 to ``sink``.

    ``adj[x]`` lists the edges leaving node x, ``to[e]`` is edge e's head,
    and ``res[e]``, its residual capacity, is augmented in place; edge e's
    reverse is e ^ 1.  Returns the BFS levels of the final residual graph:
    the nodes of level >= 0 are the source side of a minimum cut.
    """
    while True:
        level = [-1] * len(adj)
        level[0] = 0
        queue = [0]
        for x in queue:
            for e in adj[x]:
                if level[to[e]] < 0 and res[e] > 0:
                    level[to[e]] = level[x] + 1
                    queue.append(to[e])
        if level[sink] < 0:
            return level
        # A blocking flow by iterative DFS along level-raising edges; a dead
        # end leaves the level graph.
        ptr = [0] * len(adj)
        path: list[int] = []
        x = 0
        while True:
            if x == sink:
                push = min(res[e] for e in path)
                for e in path:
                    res[e] -= push
                    res[e ^ 1] += push
                # A bottleneck edge's residual drops to exactly 0 (x - x is
                # exact): resume at the tail of the first one.
                del path[next(i for i, e in enumerate(path) if res[e] == 0):]
                x = to[path[-1]] if path else 0
                continue
            edges, up = adj[x], level[x] + 1
            for i in range(ptr[x], len(edges)):
                e = edges[i]
                if level[to[e]] == up and res[e] > 0:
                    ptr[x] = i
                    path.append(e)
                    x = to[e]
                    break
            else:
                if not path:
                    break
                level[x] = -1
                x = to[path.pop() ^ 1]


def relint_membership(g: GraphInstance, r) -> RelintResult:
    """Is r in the relative interior of the proper-walk trace hull?

    The certificate is the largest t such that a flow x >= t on the usable
    arcs has arrivals(v) = a(v) = r(v) - [v = v_in] at every vertex and
    departures(u) = r(u) at every u != v_out.  With x = y + t this is a
    transportation problem in y >= 0: each u in R (the vertices a walk
    reaches before v_out) supplies r(u) - t deg(u), each v demands
    a(v) - t k(v), k(v) the number of v's neighbours in R, and the arcs are
    uncapacitated.  By Gale's supply-demand theorem (Gale 1957, *Pacific J.
    Math.* 7) it is feasible exactly when supply and demand balance, none is
    negative, and a max flow saturates the supplies; a minimum cut's source
    side S then has slack a(N(S)) - r(S) - t (k(N(S)) - deg(S)) >= 0.

    Newton's method over min cuts (Dinkelbach 1967; Radzik 1992, "Newton's
    method for fractional combinatorial optimization") finds t*: from t0,
    the largest t with no negative supply or demand, each infeasible t
    moves to the root t = (a(N(S)) - r(S)) / (k(N(S)) - deg(S)) of its
    min cut's slack, or to 0 if that root is negative.  The denominator is
    an integer in 0..arcs that falls strictly from step to step, so at most
    arcs + 2 flows run, each warm started: capacities only grow as t falls,
    so the last flow stays feasible.  A deficient cut with zero denominator
    (such as a missed parity hyperplane of a bipartite R + v_out) or at
    t = 0 puts r outside the hull.

    Every quantity compared with zero (r(v_out) - 1, an entry of a, a cut's
    slack) and every flow value is a sum of at most 2|E| terms whose
    magnitudes add up to at most n max(1, max|r|), so its rounding error is
    at most 2|E| u n max(1, max|r|) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 4.2).  The comparisons allow twice
    that: arcs n eps max(1, max|r|), with eps = 2u and the count of usable
    arcs, at most 2|E|.
    """
    r = _target_array(r, g.n)
    reach = sorted(_bfs_depths(g.neighbors, g.v_in, skip=g.v_out))
    a = r.tolist()
    a[g.v_in] -= 1.0
    k_in = [0] * g.n
    for u in reach:
        for v in g.neighbors[u]:
            k_in[v] += 1
    heads = [v for v in range(g.n) if k_in[v]]
    arcs = sum(k_in)
    tol = arcs * g.n * np.finfo(float).eps * max(1.0, float(np.abs(r).max()))
    outside = RelintResult(False, "outside_hull", float("nan"))
    # Balance, no negative demand, and no demand where no arc arrives.
    if abs(r[g.v_out] - 1.0) > tol or any(
        x < -tol or (x > tol and not k) for x, k in zip(a, k_in)
    ):
        return outside

    # Nodes: 0 the source, 1..|R| the departures, then the heads, then the
    # sink; edge 2j feeds supply or demand j, edge 2j + 1 is its reverse.
    base = [float(r[u]) for u in reach] + [a[v] for v in heads]
    count = [len(g.neighbors[u]) for u in reach] + [k_in[v] for v in heads]
    sign = [-1] * len(reach) + [1] * len(heads)
    sink = len(base) + 1
    node = {v: len(reach) + 1 + j for j, v in enumerate(heads)}
    links = [(0, j + 1) for j in range(len(reach))]
    links += [(node[v], sink) for v in heads]
    links += [(j + 1, node[v]) for j, u in enumerate(reach) for v in g.neighbors[u]]
    adj: list[list[int]] = [[] for _ in range(sink + 1)]
    to: list[int] = []
    for x, y in links:
        adj[x].append(len(to))
        adj[y].append(len(to) + 1)
        to += [y, x]
    res = [0.0] * (2 * len(base)) + [math.inf, 0.0] * arcs

    t = max(min(b / k for b, k in zip(base, count)), 0.0)
    for _ in range(arcs + 2):
        for j, (b, k) in enumerate(zip(base, count)):
            res[2 * j] = max(b - t * k - res[2 * j + 1], 0.0)
        level = _max_flow(adj, to, res, sink)
        side = [j for j in range(len(base)) if level[j + 1] >= 0]
        c = sum(sign[j] * base[j] for j in side)
        k = sum(sign[j] * count[j] for j in side)
        if c - t * k >= -tol:
            break
        if k == 0 or t == 0.0:
            return outside
        t = max(c / k, 0.0)
    else:  # pragma: no cover - the strictly falling denominator forbids it
        raise RuntimeError("relint: Newton over min cuts exceeded arcs + 2 flows")
    if t > RELINT_CERT_TOL:
        return RelintResult(True, "relative_interior", t)
    return RelintResult(False, "boundary", t)


# -- base-case shape detection ----------------------------------------------


def _path_order(adj, g: GraphInstance) -> list[int] | None:
    """Vertex order from v_out to v_in when the neighbour mapping ``adj``, a
    connected subgraph of ``g`` that keeps every distance to v_out, is a
    path with those ends."""
    leaves = {v for v, nbrs in adj.items() if len(nbrs) == 1}
    if leaves != {g.v_in, g.v_out} or max(len(nbrs) for nbrs in adj.values()) > 2:
        return None
    return sorted(adj, key=g.distances.__getitem__)


def _is_complete(adj) -> bool:
    n = len(adj)
    return n >= 3 and all(len(nbrs) == n - 1 for nbrs in adj.values())


def _family(adj, g: GraphInstance) -> str:
    if _path_order(adj, g) is not None:
        return "path"
    if _is_complete(adj):
        return "complete"
    return "other"


def detect_family(g: GraphInstance) -> str:
    return _family(dict(enumerate(g.neighbors)), g)


# -- closed forms on the reduction's residual ------------------------------------


def _path_rho(order: list[int], rr: dict[int, float]) -> dict[int, float]:
    """Weights reproducing the targets ``rr`` on the path ``order``, written
    v_1 = v_out, ..., v_n = v_in, with rho(v_out) = 1.

    A path target is r = 1 + sum_j alpha_j (e_j + e_{j+1}) over
    j = 2..n-1, and a triangular solve reads the alphas off; then
    rho(v_1) = rho(v_2) = 1 and rho(v_j) = rho(v_{j-2}) alpha_{j-1}
    / (1 + alpha_{j-2}), reading alpha_1 = 0.  Raises NotInPsi when some
    alpha is nonpositive or the last equation fails (relative to r(v_in),
    whose rounding the alphas carry).
    """
    r = [rr[v] for v in order]
    n = len(r)
    if n == 2:
        if abs(r[1] - 1.0) > _HYPERPLANE_ATOL:
            raise NotInPsi(
                f"single edge admits only r = (1, 1); got r(v_in) = {r[1]}"
            )
        return dict.fromkeys(order, 1.0)
    alpha = [0.0, 0.0]  # alpha[j] is alpha_j
    for j in range(2, n):
        alpha.append(r[j - 1] - 1.0 - alpha[j - 1])
        if not alpha[j] > 0:
            raise NotInPsi(f"alpha_{j} = {alpha[j]} is not positive")
    if abs(r[n - 1] - 1.0 - alpha[n - 1]) > _HYPERPLANE_ATOL * abs(r[n - 1]):
        raise NotInPsi(
            f"consistency failed: r(v_in) = {r[n - 1]} but "
            f"1 + alpha_{n - 1} = {1.0 + alpha[n - 1]}"
        )
    rho = [1.0, 1.0]
    for j in range(3, n + 1):
        rho.append(rho[j - 3] * alpha[j - 1] / (1.0 + alpha[j - 2]))
    return dict(zip(order, rho))


def _complete_betas(t: float, r_rest: np.ndarray, j_max: int, r_max: float):
    """beta_1 and the betas of the non-out, non-in vertices when the vertex
    ``j_max`` of largest target has beta = t.

    beta_1 = t (1 - t) / r_max, and every other vertex takes the root
    beta_j = (1 - sqrt(1 - 4 r_j beta_1)) / 2 of beta_j (1 - beta_j)
    = r_j beta_1, which is at most 1/2.
    """
    b1 = t * (1.0 - t) / r_max
    c = 4.0 * r_rest * b1
    betas = c / (2.0 * (1.0 + np.sqrt(np.maximum(1.0 - c, 0.0))))  # stable form
    betas[j_max] = t
    return b1, betas


def _complete_rho(rr: dict[int, float], v_in: int, v_out: int) -> dict[int, float]:
    """Weights reproducing the targets ``rr`` on the complete graph on its
    vertices, with rho(v_out) = 1.

    Solves r_j = beta_j (1 - beta_j) / beta_1 for j not in {out, in} and
    r(v_in) = (1 + beta_in/beta_1)(1 - beta_in) on the open simplex.  Only
    the vertex j_max of largest r_j can have beta_j > 1/2, so its beta
    t in (0, 1) fixes every other beta; r(v_in) tends to 1 + sum_j r_j as
    t -> 0 and to r_max - (sum of the other r_j) as t -> 1, so the two
    bounds bracket a root, found by bisection on t.  Unlike beta_1, t keeps
    every beta a smooth function of the unknown, also where beta(j_max) is
    near 1/2.  A root has beta_in > 0 exactly when r(v_in) > 1.  The
    weights are the betas over beta_1.
    """
    rest = [v for v in sorted(rr) if v not in (v_out, v_in)]
    r_rest = np.array([rr[v] for v in rest])
    r2 = rr[v_in]
    if np.any(r_rest <= 0):
        bad = rest[int(np.flatnonzero(r_rest <= 0)[0])]
        raise NotInPsi(f"r({bad}) must be positive")
    j_max = int(np.argmax(r_rest))
    r_max = float(r_rest[j_max])
    s_all = float(r_rest.sum())
    s_others = s_all - r_max
    if not r2 < 1.0 + s_all:
        raise NotInPsi(
            f"upper bound violated: r(v_in) = {r2} must be < 1 + {s_all}"
        )
    if not r_max - s_others < r2:
        raise NotInPsi(
            f"lower bound violated: r(v_in) = {r2} must be > {r_max - s_others}"
        )
    if not r2 > 1.0:
        raise NotInPsi(f"r(v_in) = {r2} must exceed 1")

    def residual(t: float) -> float:
        b1, betas = _complete_betas(t, r_rest, j_max, r_max)
        s = float(betas.sum())  # 1 - beta_in - beta_1
        return (1.0 - s) * (b1 + s) / b1 - r2

    lo, hi = 0.0, 1.0  # residual > 0 as t -> 0 and < 0 as t -> 1
    for _ in range(_MAX_BISECT):
        if hi - lo <= _BISECT_TOL:
            break
        t = 0.5 * (lo + hi)
        if residual(t) > 0:
            lo = t
        else:
            hi = t
    t = 0.5 * (lo + hi)
    b1, betas = _complete_betas(t, r_rest, j_max, r_max)
    beta = np.array([b1, 1.0 - b1 - float(betas.sum()), *betas])
    return dict(zip([v_out, v_in, *rest], (beta / b1).tolist()))


# -- reduction engine --------------------------------------------------------------


def _verify_forward(
    g: GraphInstance, w: WeightAssignment, target: np.ndarray, tol: float, stage: str
) -> None:
    """Raise VerificationError unless the forward map of w reproduces target
    within tol relative to max|target|: the solve's rounding scales with the
    target, which reaches ~1e4 on long-walk targets."""
    tau = expected_occupation_fixed_point(g, w).values
    gap = float(np.abs(tau - target).max() / np.abs(target).max())
    if gap > tol:
        raise VerificationError(
            f"{stage}: forward map misses target by {gap:.3e} relative (tol {tol:.0e})"
        )


def _solve(g: GraphInstance, r) -> WeightAssignment:
    """The one exact solver behind ``solve_reducible``, ``solve_path`` and
    ``solve_complete`` (see ``solve_reducible``).  The shape-checked two
    call it rather than ``solve_reducible``, so that each public call is one
    span for a tracer that wraps all three (``perfbench/tracing.py``)."""
    r = _target_array(r, g.n)
    adj: dict[int, set[int]] = {v: set(g.neighbors[v]) for v in range(g.n)}
    rr: dict[int, float] = {v: float(r[v]) for v in range(g.n)}
    records: list[tuple] = []

    while True:
        # Neither reduction changes a survivor's distance d to v_out: a pendant
        # lies on no shortest path, and a merged twin's paths run through its
        # partner.  Stripping u can make only its neighbour v, d(v) = d(u) - 1,
        # a pendant, so each strip of this pass takes the deepest pendant left.
        for u in sorted(adj, key=lambda t: (g.distances[t], t), reverse=True):
            if len(adj[u]) != 1 or u in (g.v_in, g.v_out):
                continue
            (v,) = adj[u]
            alpha = rr[u]
            if not alpha > 0:
                raise NotInPsi(f"pendant strip at {u}: r({u}) = {alpha} not positive")
            if not rr[v] - alpha > 0:
                raise NotInPsi(
                    f"pendant strip at {u}: r({v}) - r({u}) = {rr[v] - alpha} "
                    "not positive"
                )
            records.append(("pendant", u, v, alpha, rr[v]))
            rr[v] -= alpha
            del rr[u]
            adj[v].discard(u)
            del adj[u]
        # Twins share a neighbourhood, so they are never adjacent.
        groups: dict[frozenset[int], list[int]] = {}
        for v in sorted(adj):
            if v not in (g.v_in, g.v_out):
                groups.setdefault(frozenset(adj[v]), []).append(v)
        twins = [grp[:2] for grp in groups.values() if len(grp) > 1]
        if not twins:
            break
        v, w_vtx = min(twins)
        if not (rr[v] > 0 and rr[w_vtx] > 0):
            raise NotInPsi(
                f"twin merge ({v},{w_vtx}): targets must be positive"
            )
        alpha = rr[v] / (rr[v] + rr[w_vtx])
        records.append(("twin", v, w_vtx, alpha))
        rr[v] += rr[w_vtx]
        del rr[w_vtx]
        for z in adj[w_vtx]:
            adj[z].discard(w_vtx)
        del adj[w_vtx]

    # A path or a complete graph has no non-terminal pendant and no twins.
    kind = _family(adj, g)
    if kind == "other":
        raise Irreducible(
            "residual graph has no pendant, no twins, and is neither a "
            "path (v_out..v_in) nor complete"
        )
    try:
        if abs(rr[g.v_out] - 1.0) > _HYPERPLANE_ATOL:
            raise NotInPsi(f"r(v_out) = {rr[g.v_out]} but must equal 1")
        if kind == "path":
            rho = _path_rho(sorted(adj, key=g.distances.__getitem__), rr)
        else:
            rho = _complete_rho(rr, g.v_in, g.v_out)
    except NotInPsi as exc:
        raise NotInPsi(f"{kind} base case: {exc}") from exc

    # Both reductions only delete vertices, so the residual graph is the
    # subgraph of g induced on the survivors, and g itself when nothing was
    # reduced.  Its round trip is the whole check of an unreduced solve.
    ids = sorted(adj)
    residual = _induced_subgraph(g, ids) if records else g
    w = derived_weights(residual, [rho[v] for v in ids])
    tol = 1e-9 if kind == "path" else _VERIFY_TOL
    _verify_forward(residual, w, np.array([rr[v] for v in ids]), tol, f"{kind} solver")
    if not records:
        return w

    # Replaying the records in reverse, the vertices that already have a
    # weight are exactly the residual graph right after that record.
    rho = dict(zip(ids, w.rho.tolist()))
    for rec in reversed(records):
        if rec[0] == "pendant":
            _, u, v, alpha, rv_pre = rec
            rho_star_v = sum(rho[z] for z in g.neighbors[v] if z in rho)
            rho[u] = rho_star_v * alpha / (rv_pre - alpha)
        else:
            _, v, w_vtx, alpha = rec
            rho[w_vtx] = (1.0 - alpha) * rho[v]
            rho[v] = alpha * rho[v]

    w_full = derived_weights(g, np.array([rho[v] for v in range(g.n)]))
    _verify_forward(g, w_full, r, _VERIFY_TOL, "reduction replay")
    return w_full


def solve_reducible(g: GraphInstance, r) -> WeightAssignment:
    """Exact weights via pendant stripping and twin merging.

    Greedily strips pendant vertices (deepest from v_out first), merges
    twin pairs when no pendant remains, solves the residual path or
    complete graph in closed form, then replays the reductions in reverse.
    Covers all trees: they strip down to the v_out..v_in path, which the
    path closed form solves.  The forward map checks the residual's
    weights (relative 1e-9 on a path, 1e-8 on a complete graph) and, after
    any reduction, the replayed ones (1e-8), raising VerificationError on
    a miss.  Raises NotInPsi naming the failing stage, or Irreducible when
    stuck.
    """
    return _solve(g, r)


def solve_path(g: GraphInstance, r) -> WeightAssignment:
    """``solve_reducible`` on a path from v_out to v_in; ValueError on any
    other graph."""
    if detect_family(g) != "path":
        raise ValueError("graph is not a path with endpoints v_out, v_in")
    return _solve(g, r)


def solve_complete(g: GraphInstance, r) -> WeightAssignment:
    """``solve_reducible`` on a complete graph (n >= 3); ValueError on any
    other graph."""
    if detect_family(g) != "complete":
        raise ValueError("graph is not complete (n >= 3)")
    return _solve(g, r)
