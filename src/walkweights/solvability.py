"""Exact solvability of occupation-time targets.

A target r (with r(v_out) = 1) is solvable when strictly positive weights
reproduce it.  Necessarily r lies in the relative interior of the convex
hull of proper-walk traces.  This module decides that membership exactly
with an arc-flow LP, gives the hull's dimension in closed form from a BFS
(the dimension lemma, see ``hull_dimension``), and constructs exact
solutions on paths, complete graphs, and anything that pendant stripping
plus twin merging reduces to one of those base cases (all trees included).
Those shapes are read off degrees, neighbour sets and the BFS distances to
v_out that every ``GraphInstance`` holds; the LP is the module's only
numerical decision.

The arc-flow system: a proper walk's trace is e_{v_in} plus the arrivals of
the arcs it crosses, and by flow decomposition into one v_in-v_out path
plus cycles (Ahuja, Magnanti & Orlin, *Network Flows*, 3.5) the closed
trace hull is the image of the unit v_in-v_out flows on the arcs a proper
walk can use.  Every such arc lies on some proper walk, so the relative
interior of the hull is the image of the strictly positive flows
(Rockafellar, *Convex Analysis*, Thms 6.3 and 6.6).

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

The LP solver, ``scipy.optimize.linprog``, is imported on the first
membership test, so importing this module loads no scipy submodule.
"""

from __future__ import annotations

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
    "PathDecomposition",
    "RelintResult",
    "enumerate_proper_walks",
    "hull_dimension",
    "relint_membership",
    "detect_family",
    "path_decompose",
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


def _arc_incidence(g: GraphInstance) -> tuple[np.ndarray, np.ndarray]:
    """(head, tail): n x arcs incidence of the arcs a proper walk can use.

    Those are the arcs (u, v) leaving every u that a walk reaches from v_in
    without passing v_out.
    """
    reach = sorted(_bfs_depths(g.neighbors, g.v_in, skip=g.v_out))
    arcs = np.array([(u, v) for u in reach for v in g.neighbors[u]])
    cols = np.arange(len(arcs))
    head = np.zeros((g.n, len(arcs)))
    tail = np.zeros((g.n, len(arcs)))
    head[arcs[:, 1], cols] = 1.0
    tail[arcs[:, 0], cols] = 1.0
    return head, tail


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
    """``scipy.optimize.linprog``, imported on first use."""
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


def relint_membership(g: GraphInstance, r) -> RelintResult:
    """Is r in the relative interior of the proper-walk trace hull?

    Maximizes the smallest flow t over flows x on the usable arcs with
    arrivals(v) = r(v) - [v = v_in] at every vertex and departures(v) = r(v)
    at every v != v_out.  Those equations force r(v_out) = 1 and r = 0 off
    the vertices a walk can reach, so no other check is needed.
    """
    r = _target_array(r, g.n)
    head, tail = _arc_incidence(g)
    keep = np.arange(g.n) != g.v_out
    flow = np.vstack([head, tail[keep]])
    arrivals = r.copy()
    arrivals[g.v_in] -= 1.0
    # Variables (y, t) >= 0 with x = y + t: maximize t subject to
    # flow @ y + t * flow @ 1 = b.
    A_eq = np.hstack([flow, flow.sum(axis=1, keepdims=True)])
    c = np.zeros(A_eq.shape[1])
    c[-1] = -1.0
    res = linprog(c, A_eq=A_eq, b_eq=np.concatenate([arrivals, r[keep]]), method="highs")
    if res.status == 2:
        return RelintResult(False, "outside_hull", float("nan"))
    if res.status != 0:  # pragma: no cover - solver trouble
        raise RuntimeError(f"relint LP failed: {res.message}")
    t_star = float(res.x[-1])
    if t_star > RELINT_CERT_TOL:
        return RelintResult(True, "relative_interior", t_star)
    return RelintResult(False, "boundary", t_star)


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


# -- path solver --------------------------------------------------------------


@dataclass(frozen=True)
class PathDecomposition:
    """Coefficients of r = 1 + sum_j alpha_j (e_j + e_{j+1}) along a path.

    ``alphas[k]`` is the coefficient for path position j = k + 2 with the
    path written v_1 = v_out, ..., v_n = v_in; ``order`` maps positions to
    vertex ids.
    """

    alphas: np.ndarray
    order: tuple[int, ...]


def path_decompose(g: GraphInstance, r) -> PathDecomposition:
    """Triangular solve for the backtrack coefficients of a path target.

    Raises NotInPsi when some alpha is nonpositive, the final consistency
    equation fails (relative to r(v_in), whose rounding the alphas carry),
    or r(v_out) differs from 1.
    """
    order = _path_order(dict(enumerate(g.neighbors)), g)
    if order is None:
        raise ValueError("graph is not a path with endpoints v_out, v_in")
    r = _target_array(r, g.n)
    rr = r[list(order)]
    n = g.n
    if abs(rr[0] - 1.0) > _HYPERPLANE_ATOL:
        raise NotInPsi(f"r(v_out) = {rr[0]} but must equal 1")
    if n == 2:
        if abs(rr[1] - 1.0) > _HYPERPLANE_ATOL:
            raise NotInPsi(
                f"single edge admits only r = (1, 1); got r(v_in) = {rr[1]}"
            )
        return PathDecomposition(alphas=np.zeros(0), order=tuple(order))
    alphas = np.empty(n - 2)
    alphas[0] = rr[1] - 1.0
    for j in range(3, n):
        alphas[j - 2] = rr[j - 1] - 1.0 - alphas[j - 3]
    for k, a in enumerate(alphas):
        if not a > 0:
            raise NotInPsi(f"alpha_{k + 2} = {a} is not positive")
    if abs(rr[n - 1] - 1.0 - alphas[n - 3]) > _HYPERPLANE_ATOL * abs(rr[n - 1]):
        raise NotInPsi(
            f"consistency failed: r(v_in) = {rr[n - 1]} but "
            f"1 + alpha_{n - 1} = {1.0 + alphas[n - 3]}"
        )
    return PathDecomposition(alphas=alphas, order=tuple(order))


def solve_path(g: GraphInstance, r) -> WeightAssignment:
    """Exact weights for a path target via the closed-form product formula.

    rho(v_1) = rho(v_2) = 1 and rho(v_j) = rho(v_{j-2})
    * alpha_{j-1} / (1 + alpha_{j-2}), reading alpha_1 = 0.  The result is
    verified against the fixed-point forward map before returning.
    """
    dec = path_decompose(g, r)
    n = g.n
    rho_pos = np.ones(n)
    alpha = {j: float(dec.alphas[j - 2]) for j in range(2, n)}
    alpha[1] = 0.0
    for j in range(3, n + 1):
        rho_pos[j - 1] = rho_pos[j - 3] * alpha[j - 1] / (1.0 + alpha[j - 2])
    rho = np.empty(n)
    rho[list(dec.order)] = rho_pos
    w = derived_weights(g, rho)
    _verify_forward(g, w, _target_array(r, n), 1e-9, "path solver")
    return w


# -- complete-graph solver -----------------------------------------------------


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


def solve_complete(g: GraphInstance, r) -> WeightAssignment:
    """Exact simplex weights for a complete-graph target.

    Solves r_j = beta_j (1 - beta_j) / beta_1 for j not in {out, in} and
    r(v_in) = (1 + beta_in/beta_1)(1 - beta_in) on the open simplex.  Only
    the vertex j_max of largest r_j can have beta_j > 1/2, so its beta
    t in (0, 1) fixes every other beta; r(v_in) tends to 1 + sum_j r_j as
    t -> 0 and to r_max - (sum of the other r_j) as t -> 1, so the two
    bounds bracket a root, found by bisection on t.  Unlike beta_1, t keeps
    every beta a smooth function of the unknown, also where beta(j_max) is
    near 1/2.  A root has beta_in > 0 exactly when r(v_in) > 1.  The result
    is verified by the fixed-point forward map; the returned weights are
    normalized so rho(v_out) = 1.
    """
    if not _is_complete(dict(enumerate(g.neighbors))):
        raise ValueError("graph is not complete (n >= 3)")
    r = _target_array(r, g.n)
    out, vin = g.v_out, g.v_in
    if abs(r[out] - 1.0) > _HYPERPLANE_ATOL:
        raise NotInPsi(f"r(v_out) = {r[out]} but must equal 1")
    rest = [v for v in range(g.n) if v not in (out, vin)]
    r_rest = r[rest]
    r2 = float(r[vin])
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
    beta = np.empty(g.n)
    beta[out] = b1
    beta[vin] = 1.0 - b1 - float(betas.sum())
    beta[rest] = betas
    w = derived_weights(g, beta / b1)
    _verify_forward(g, w, r, _VERIFY_TOL, "complete solver")
    return w


# -- reduction driver ----------------------------------------------------------


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


def solve_reducible(g: GraphInstance, r) -> WeightAssignment:
    """Exact weights via pendant stripping and twin merging.

    Greedily strips pendant vertices (deepest from v_out first), merges
    twin pairs when no pendant remains, solves the residual path or
    complete graph in closed form, then replays the reductions in reverse.
    Covers all trees: they strip down to the v_out..v_in path, which the
    path closed form solves.  Raises NotInPsi naming the failing stage, or
    Irreducible when stuck.
    """
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

    # Both reductions only delete vertices, so the residual graph is the
    # subgraph of g induced on the survivors.  With no reduction it is g,
    # and the base solver's verified weights are the answer.
    base = solve_path if kind == "path" else solve_complete
    ids = sorted(adj)
    try:
        if not records:
            return base(g, r)
        w_sub = base(_induced_subgraph(g, ids), np.array([rr[old] for old in ids]))
    except NotInPsi as exc:
        raise NotInPsi(f"{kind} base case: {exc}") from exc

    # Replaying the records in reverse, the vertices that already have a
    # weight are exactly the residual graph right after that record.
    rho: dict[int, float] = {old: float(w_sub.rho[k]) for k, old in enumerate(ids)}
    for rec in reversed(records):
        if rec[0] == "pendant":
            _, u, v, alpha, rv_pre = rec
            rho_star_v = sum(rho[z] for z in g.neighbors[v] if z in rho)
            rho[u] = rho_star_v * alpha / (rv_pre - alpha)
        else:
            _, v, w_vtx, alpha = rec
            rho[w_vtx] = (1.0 - alpha) * rho[v]
            rho[v] = alpha * rho[v]

    rho_full = np.array([rho[v] for v in range(g.n)])
    w_full = derived_weights(g, rho_full)
    _verify_forward(g, w_full, r, _VERIFY_TOL, "reduction replay")
    return w_full
