"""Exact solvability of occupation-time targets.

A target r (with r(v_out) = 1) is solvable when strictly positive weights
reproduce it.  Necessarily r lies in the relative interior of the convex
hull of proper-walk traces.  This module decides that membership, and the
hull's dimension, exactly with an arc-flow LP, and constructs exact
solutions on paths, complete graphs, and anything that pendant stripping
plus twin merging reduces to one of those base cases (all trees included).

The arc-flow system: a proper walk's trace is e_{v_in} plus the arrivals of
the arcs it crosses, and by flow decomposition into one v_in-v_out path
plus cycles (Ahuja, Magnanti & Orlin, *Network Flows*, 3.5) the closed
trace hull is the image of the unit v_in-v_out flows on the arcs a proper
walk can use.  Every such arc lies on some proper walk, so the relative
interior of the hull is the image of the strictly positive flows
(Rockafellar, *Convex Analysis*, Thms 6.3 and 6.6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from .errors import (
    AlphaOutOfRange,
    BracketFailure,
    CapTooSmall,
    Irreducible,
    NotInPsi,
    NotTwins,
    VerificationError,
)
from .graph_core import (
    GraphInstance,
    WeightAssignment,
    _bfs_components,
    build_graph,
    derived_weights,
)
from .occupation import (
    OccupationVector,
    WalkTrace,
    expected_occupation_fixed_point,
    make_walk_trace,
)

__all__ = [
    "PathDecomposition",
    "RelintResult",
    "TwinSplit",
    "trace_vector",
    "enumerate_proper_walks",
    "hull_dimension",
    "relint_membership",
    "detect_family",
    "path_decompose",
    "solve_path",
    "solve_complete",
    "extend_pendant",
    "reduce_twins",
    "solve_reducible",
]

RELINT_CERT_TOL = 1e-9
_HYPERPLANE_ATOL = 1e-9


# -- traces and walks -------------------------------------------------------


def trace_vector(walk: WalkTrace) -> np.ndarray:
    """Visit-count vector of a walk (recomputed from the vertex sequence)."""
    n = len(walk.trace)
    return np.bincount(np.asarray(walk.vertices), minlength=n).astype(np.int64)


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
    reach = sorted(_bfs_components(g.n, g.neighbors, g.v_in, skip=g.v_out))
    arcs = np.array([(u, v) for u in reach for v in g.neighbors[u]])
    cols = np.arange(len(arcs))
    head = np.zeros((g.n, len(arcs)))
    tail = np.zeros((g.n, len(arcs)))
    head[arcs[:, 1], cols] = 1.0
    tail[arcs[:, 0], cols] = 1.0
    return head, tail


def hull_dimension(g: GraphInstance) -> int:
    """Affine dimension of the proper-walk trace hull.

    Traces are e_{v_in} + head x over the unit v_in-v_out flows x, whose
    directions are the circulations: the null space of head - tail on every
    vertex but v_out.
    """
    head, tail = _arc_incidence(g)
    keep = np.arange(g.n) != g.v_out
    circulations = scipy.linalg.null_space(head[keep] - tail[keep])
    return int(np.linalg.matrix_rank(head @ circulations))


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
    r = _as_target(r, g.n)
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


def _as_target(r, n: int) -> np.ndarray:
    if isinstance(r, OccupationVector):
        arr = np.asarray(r.values, dtype=float)
    else:
        arr = np.asarray(r, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"target has shape {arr.shape}, expected ({n},)")
    return arr


# -- base-case shape detection ----------------------------------------------


def _path_order(adj, v_in: int, v_out: int) -> list[int] | None:
    """Vertex order from v_out to v_in when the neighbour mapping ``adj`` is
    a path with those ends."""
    if len(adj) == 2:
        return [v_out, v_in]
    leaves = {v for v, nbrs in adj.items() if len(nbrs) == 1}
    if max(len(nbrs) for nbrs in adj.values()) > 2 or leaves != {v_out, v_in}:
        return None
    order = [v_out]
    prev = -1
    while order[-1] != v_in:
        nbrs = [u for u in adj[order[-1]] if u != prev]
        if len(nbrs) != 1:
            return None
        prev = order[-1]
        order.append(nbrs[0])
    return order if len(order) == len(adj) else None


def _is_complete(adj) -> bool:
    n = len(adj)
    return n >= 3 and all(len(nbrs) == n - 1 for nbrs in adj.values())


def _family(adj, v_in: int, v_out: int) -> str:
    if _path_order(adj, v_in, v_out) is not None:
        return "path"
    if _is_complete(adj):
        return "complete"
    return "other"


def detect_family(g: GraphInstance) -> str:
    return _family(dict(enumerate(g.neighbors)), g.v_in, g.v_out)


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


def path_decompose(g: GraphInstance, r, atol: float = 1e-9) -> PathDecomposition:
    """Triangular solve for the backtrack coefficients of a path target.

    Raises NotInPsi when some alpha is nonpositive, the final consistency
    equation fails, or r(v_out) differs from 1.
    """
    order = _path_order(dict(enumerate(g.neighbors)), g.v_in, g.v_out)
    if order is None:
        raise ValueError("graph is not a path with endpoints v_out, v_in")
    r = _as_target(r, g.n)
    rr = r[list(order)]
    n = g.n
    if abs(rr[0] - 1.0) > atol:
        raise NotInPsi(f"r(v_out) = {rr[0]} but must equal 1")
    if n == 2:
        if abs(rr[1] - 1.0) > atol:
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
    if abs(rr[n - 1] - 1.0 - alphas[n - 3]) > atol:
        raise NotInPsi(
            f"consistency failed: r(v_in) = {rr[n - 1]} but "
            f"1 + alpha_{n - 1} = {1.0 + alphas[n - 3]}"
        )
    return PathDecomposition(alphas=alphas, order=tuple(order))


def solve_path(g: GraphInstance, r, atol: float = 1e-9) -> WeightAssignment:
    """Exact weights for a path target via the closed-form product formula.

    rho(v_1) = rho(v_2) = 1 and rho(v_j) = rho(v_{j-2})
    * alpha_{j-1} / (1 + alpha_{j-2}), reading alpha_1 = 0.  The result is
    verified against the fixed-point forward map before returning.
    """
    dec = path_decompose(g, r, atol=atol)
    n = g.n
    rho_pos = np.ones(n)
    alpha = {j: float(dec.alphas[j - 2]) for j in range(2, n)}
    alpha[1] = 0.0
    for j in range(3, n + 1):
        rho_pos[j - 1] = rho_pos[j - 3] * alpha[j - 1] / (1.0 + alpha[j - 2])
    rho = np.empty(n)
    rho[list(dec.order)] = rho_pos
    w = derived_weights(g, rho)
    _verify_forward(g, w, _as_target(r, n), 1e-9, "path solver")
    return w


# -- complete-graph solver -----------------------------------------------------


def _complete_r2(b1: float, r_rest: np.ndarray, j_plus: int | None) -> float:
    """r(v_in) induced by beta_1 = b1 on a complete graph.

    ``r_rest`` holds the targets for the non-out, non-in vertices;
    ``j_plus`` selects which of them (if any) takes the addition branch
    beta_j = (1 + sqrt(1 - 4 r_j b1)) / 2.
    """
    c = 4.0 * r_rest * b1
    disc = np.sqrt(np.maximum(1.0 - c, 0.0))
    u = c / (1.0 + disc)  # stable form of 1 - sqrt(1 - c)
    if j_plus is not None:
        u = u.copy()
        u[j_plus] = 1.0 + disc[j_plus]
    U = float(u.sum())
    return (2.0 - U) * (2.0 * b1 + U) / (4.0 * b1)


def _betas_from_b1(
    b1: float, r_rest: np.ndarray, j_plus: int | None
) -> np.ndarray:
    c = 4.0 * r_rest * b1
    disc = np.sqrt(np.maximum(1.0 - c, 0.0))
    betas = (c / (1.0 + disc)) / 2.0
    if j_plus is not None:
        betas = betas.copy()
        betas[j_plus] = (1.0 + disc[j_plus]) / 2.0
    return betas


def _bisect(f, lo: float, hi: float, f_lo: float, tol: float, iters: int) -> float:
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_complete(
    g: GraphInstance,
    r,
    *,
    verify_tol: float = 1e-8,
    bisect_tol: float = 1e-12,
    max_bisect: int = 200,
) -> WeightAssignment:
    """Exact simplex weights for a complete-graph target.

    Solves r_j = beta_j (1 - beta_j) / beta_1 for j not in {out, in} and
    r(v_in) = (1 + beta_2/beta_1)(1 - beta_2) by bracketing beta_1 on
    (0, 1/(4 max r_j)].  Both square-root branches are scanned: either all
    beta_j <= 1/2, or exactly the maximal-r vertex takes the addition
    branch.  Every candidate root is validated by the fixed-point forward
    map; the returned weights are normalized so rho(v_out) = 1.
    """
    if not _is_complete(dict(enumerate(g.neighbors))):
        raise ValueError("graph is not complete (n >= 3)")
    r = _as_target(r, g.n)
    out, vin = g.v_out, g.v_in
    if abs(r[out] - 1.0) > _HYPERPLANE_ATOL:
        raise NotInPsi(f"r(v_out) = {r[out]} but must equal 1")
    rest = [v for v in range(g.n) if v not in (out, vin)]
    r_rest = r[rest]
    r2 = float(r[vin])
    if np.any(r_rest <= 0) or r2 <= 0:
        bad = rest[int(np.flatnonzero(r_rest <= 0)[0])] if np.any(r_rest <= 0) else vin
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

    b1_max = 1.0 / (4.0 * r_max)

    def residual(branch):
        j_plus = j_max if branch == "plus" else None
        return lambda b1: _complete_r2(b1, r_rest, j_plus) - r2

    def try_root(b1: float, branch) -> WeightAssignment | None:
        j_plus = j_max if branch == "plus" else None
        betas = _betas_from_b1(b1, r_rest, j_plus)
        b_in = 1.0 - b1 - float(betas.sum())
        if b1 <= 0 or b_in <= 0 or np.any(betas <= 0):
            return None
        beta = np.empty(g.n)
        beta[out] = b1
        beta[vin] = b_in
        beta[rest] = betas
        w = derived_weights(g, beta / b1)
        tau = expected_occupation_fixed_point(g, w).values
        if np.abs(tau - r).max() <= verify_tol:
            return w
        return None

    endpoint_notes = []
    # Primary sweep: bracket against the known limits at b1 -> 0+
    # (sub branch -> 1 + s_all, plus branch -> r_max - s_others).
    for branch, lo_sign in (("sub", +1), ("plus", -1)):
        f = residual(branch)
        f_hi = f(b1_max)
        endpoint_notes.append(f"{branch}: f({b1_max:.3e}) = {f_hi:.3e}")
        if f_hi == 0.0:
            w = try_root(b1_max, branch)
            if w is not None:
                return w
        if (f_hi > 0) != (lo_sign > 0):
            lo = b1_max
            f_lo = None
            for _ in range(200):
                lo *= 0.5
                f_lo = f(lo)
                if (f_lo > 0) == (lo_sign > 0):
                    break
            else:
                continue
            root = _bisect(f, lo, b1_max, f_lo, bisect_tol, max_bisect)
            w = try_root(root, branch)
            if w is not None:
                return w

    # Fallback: fine grid scan of both branches for additional brackets.
    grid = np.linspace(b1_max / 512.0, b1_max, 512)
    for branch in ("sub", "plus"):
        f = residual(branch)
        vals = [f(b) for b in grid]
        for k in range(len(grid) - 1):
            if vals[k] == 0.0 or (vals[k] > 0) != (vals[k + 1] > 0):
                root = _bisect(
                    f, grid[k], grid[k + 1], vals[k], bisect_tol, max_bisect
                )
                w = try_root(root, branch)
                if w is not None:
                    return w
    raise BracketFailure(
        "no bracketed root reproduced the target; endpoint residuals: "
        + "; ".join(endpoint_notes)
    )


# -- pendant and twin reductions ----------------------------------------------


def extend_pendant(
    g: GraphInstance, w: WeightAssignment, v: int, alpha: float, r
) -> tuple[GraphInstance, WeightAssignment]:
    """Attach a degree-1 vertex v' at v realizing alpha extra visits.

    Given weights on g whose occupation vector equals r - alpha * e_v, the
    extension rho(v') = rho*(v) * alpha / (r(v) - alpha) realizes r on g
    and alpha at v'.  The combined vector is verified before returning.
    """
    r = _as_target(r, g.n)
    if not 0 < alpha < r[v]:
        raise AlphaOutOfRange(f"need 0 < alpha < r({v}) = {r[v]}, got {alpha}")
    g2 = build_graph(
        g.n + 1, list(g.edges) + [(v, g.n)], g.v_in, g.v_out
    )
    rho2 = np.append(w.rho, w.rho_star[v] * alpha / (r[v] - alpha))
    w2 = derived_weights(g2, rho2)
    target = np.append(r, alpha)
    _verify_forward(g2, w2, target, 1e-9, "pendant extension")
    return g2, w2


@dataclass(frozen=True)
class TwinSplit:
    """How to lift a reduced solution back across one twin merge."""

    v: int
    w: int
    alpha: float
    v_new: int
    old_of_new: tuple[int, ...]

    def lift(self, rho_reduced: np.ndarray) -> np.ndarray:
        n = len(self.old_of_new) + 1
        rho = np.empty(n)
        for new, old in enumerate(self.old_of_new):
            rho[old] = rho_reduced[new]
        rho[self.v] = self.alpha * rho_reduced[self.v_new]
        rho[self.w] = (1.0 - self.alpha) * rho_reduced[self.v_new]
        return rho


def reduce_twins(
    g: GraphInstance, r, v: int, w_vtx: int
) -> tuple[GraphInstance, np.ndarray, TwinSplit]:
    """Merge non-adjacent twins (N(v) = N(w)) into v.

    Returns the reduced instance, the reduced target (with
    r'(v) = r(v) + r(w)), and the split rule: after solving the reduced
    instance, rho(v) = alpha * rho'(v) and rho(w) = (1 - alpha) * rho'(v)
    with alpha = r(v) / (r(v) + r(w)).
    """
    r = _as_target(r, g.n)
    if v == w_vtx:
        raise NotTwins("a vertex is not its own twin")
    for u in (v, w_vtx):
        if u in (g.v_in, g.v_out):
            raise NotTwins(f"vertex {u} is v_in or v_out")
    if g.adjacency[v, w_vtx]:
        raise NotTwins(f"{v} and {w_vtx} are adjacent")
    if g.neighbors[v] != g.neighbors[w_vtx]:
        raise NotTwins(f"N({v}) != N({w_vtx})")
    if not (r[v] > 0 and r[w_vtx] > 0):
        raise NotInPsi(f"twin targets r({v}), r({w_vtx}) must be positive")
    alpha = float(r[v] / (r[v] + r[w_vtx]))
    old_of_new = tuple(u for u in range(g.n) if u != w_vtx)
    index = {old: new for new, old in enumerate(old_of_new)}
    edges = [
        (index[x], index[y]) for x, y in g.edges if x != w_vtx and y != w_vtx
    ]
    g_red = build_graph(g.n - 1, edges, index[g.v_in], index[g.v_out])
    r_red = r[list(old_of_new)].copy()
    r_red[index[v]] = r[v] + r[w_vtx]
    split = TwinSplit(
        v=v, w=w_vtx, alpha=alpha, v_new=index[v], old_of_new=old_of_new
    )
    return g_red, r_red, split


# -- reduction driver ----------------------------------------------------------


def _verify_forward(
    g: GraphInstance, w: WeightAssignment, target: np.ndarray, tol: float, stage: str
) -> None:
    tau = expected_occupation_fixed_point(g, w).values
    gap = float(np.abs(tau - target).max())
    if gap > tol:
        raise VerificationError(
            f"{stage}: forward map misses target by {gap:.3e} (tol {tol:.0e})"
        )


def _residual_depths(adj: dict[int, set[int]], v_out: int) -> dict[int, int]:
    depth = {v_out: 0}
    frontier = [v_out]
    while frontier:
        nxt = []
        for u in frontier:
            for z in adj[u]:
                if z not in depth:
                    depth[z] = depth[u] + 1
                    nxt.append(z)
        frontier = nxt
    return depth


def solve_reducible(
    g: GraphInstance, r, *, verify_tol: float = 1e-8
) -> WeightAssignment:
    """Exact weights via pendant stripping and twin merging.

    Greedily strips pendant vertices (deepest from v_out first), merges
    twin pairs when no pendant remains, solves the residual path or
    complete graph in closed form, then replays the reductions in reverse.
    Covers all trees (which strip down to a single edge).  Raises NotInPsi
    naming the failing stage, or Irreducible when stuck.
    """
    r = _as_target(r, g.n)
    adj: dict[int, set[int]] = {v: set(g.neighbors[v]) for v in range(g.n)}
    rr: dict[int, float] = {v: float(r[v]) for v in range(g.n)}
    records: list[tuple] = []

    while True:
        kind = _family(adj, g.v_in, g.v_out)
        if kind != "other":
            break
        pendants = [
            u for u in adj if len(adj[u]) == 1 and u not in (g.v_in, g.v_out)
        ]
        if pendants:
            depth = _residual_depths(adj, g.v_out)
            u = max(pendants, key=lambda t: (depth[t], t))
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
            continue
        twin = None
        ids = sorted(adj)
        for i, v in enumerate(ids):
            if v in (g.v_in, g.v_out):
                continue
            for w_vtx in ids[i + 1:]:
                if w_vtx in (g.v_in, g.v_out) or w_vtx in adj[v]:
                    continue
                if adj[v] == adj[w_vtx]:
                    twin = (v, w_vtx)
                    break
            if twin:
                break
        if twin is None:
            raise Irreducible(
                "residual graph has no pendant, no twins, and is neither a "
                "path (v_out..v_in) nor complete"
            )
        v, w_vtx = twin
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

    ids = sorted(adj)
    index = {old: new for new, old in enumerate(ids)}
    edges = [(index[a], index[b]) for a in ids for b in adj[a] if a < b]
    sub = build_graph(len(ids), edges, index[g.v_in], index[g.v_out])
    r_sub = np.array([rr[old] for old in ids])
    try:
        if kind == "path":
            w_sub = solve_path(sub, r_sub)
        else:
            w_sub = solve_complete(sub, r_sub, verify_tol=verify_tol)
    except NotInPsi as exc:
        raise NotInPsi(f"{kind} base case: {exc}") from exc

    rho: dict[int, float] = {old: float(w_sub.rho[index[old]]) for old in ids}
    for rec in reversed(records):
        if rec[0] == "pendant":
            _, u, v, alpha, rv_pre = rec
            rho_star_v = sum(rho[z] for z in adj[v])
            rho[u] = rho_star_v * alpha / (rv_pre - alpha)
            adj[u] = {v}
            adj[v].add(u)
        else:
            _, v, w_vtx, alpha = rec
            adj[w_vtx] = set(adj[v])
            for z in adj[v]:
                adj[z].add(w_vtx)
            rho[w_vtx] = (1.0 - alpha) * rho[v]
            rho[v] = alpha * rho[v]

    rho_full = np.array([rho[v] for v in range(g.n)])
    w_full = derived_weights(g, rho_full)
    _verify_forward(g, w_full, r, verify_tol, "reduction replay")
    return w_full
