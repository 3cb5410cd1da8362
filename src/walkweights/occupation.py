"""Expected and empirical occupation times of absorbing walks.

The forward map rho -> tau is computed three independent ways:

* a Green's-function formula built on the spectral machinery,
* the unique fixed point of the visit-balance matrix M (direct solve),
* seeded Monte Carlo over proper walks.

The sampler moves a walk by looking its uniform up in the current vertex's
row of a neighbour table: O(log max degree) work per step, independent of
n.  The table holds the same cumulative floats as a dense row of the
transition matrix, so each uniform selects the same vertex as a search over
the dense row would.

Agreement of the three routes is the module's core correctness argument
and is exercised heavily by the test suite.

Conventions: tau(v_out) = 1 (the single terminal visit is counted) and
tau(v_in) >= 1 (the start counts as a visit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Disconnected, InvalidTarget, SingularSystem, StepLimitExceeded
from .graph_core import GraphInstance, WeightAssignment, _check_vertex
from .spectral_green import SpectralData, spectral_data

__all__ = [
    "OccupationVector",
    "WalkTrace",
    "make_walk_trace",
    "occupation_matrix",
    "expected_occupation_fixed_point",
    "expected_occupation_green",
    "expected_hitting_time",
    "empirical_occupation",
    "occupation_to_dict",
    "occupation_to_csv",
]

DEFAULT_STEP_LIMIT = 10_000_000

# Walk indices are grouped into fixed-size chunks; each chunk draws its
# uniforms from an independent substream keyed by (seed, chunk index), one
# per walk still running at each step.  A chunk's walks depend only on that
# substream, so the output does not depend on how chunks are scheduled
# across workers.  The chunk size is part of the stream: another size gives
# other (equally valid) walks.  A step costs O(log max degree) per active
# walk, draw included.
DEFAULT_CHUNK = 16384

# Version of the rule that turns a chunk's substream into walks, recorded in
# Monte Carlo manifests.  Version 1 drew a full chunk-width block of
# uniforms on every step and used those of the active walks; version 2
# draws one uniform per active walk and step, in walk order.
STREAM_VERSION = 2


@dataclass(frozen=True)
class OccupationVector:
    """Vertex-indexed visit counts; ``kind`` is "expected" or "empirical".

    ``stderr`` holds per-vertex standard errors for empirical vectors.
    """

    values: np.ndarray
    kind: str
    stderr: np.ndarray | None = None


def _target_array(target, n: int) -> np.ndarray:
    """A target occupation vector (array-like or OccupationVector) as a
    float array of shape (n,).

    Raises InvalidTarget on a wrong shape or a non-finite entry, naming the
    vertex; sign and support are left to the caller.
    """
    if isinstance(target, OccupationVector):
        target = target.values
    arr = np.asarray(target, dtype=float)
    if arr.shape != (n,):
        raise InvalidTarget(f"target has shape {arr.shape}, expected ({n},)")
    if not np.isfinite(arr).all():
        v = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise InvalidTarget(f"target entry at vertex {v} is {arr[v]}, not finite")
    return arr


@dataclass(frozen=True)
class WalkTrace:
    """A finite walk and its visit-count vector."""

    vertices: tuple[int, ...]
    trace: np.ndarray

    @property
    def length(self) -> int:
        """Number of steps (edges) in the walk."""
        return len(self.vertices) - 1


def make_walk_trace(g: GraphInstance, vertices) -> WalkTrace:
    """Build a WalkTrace, validating that every vertex id is in range and
    consecutive vertices are adjacent."""
    seq = tuple(int(v) for v in vertices)
    if not seq:
        raise ValueError("empty walk")
    for k, v in enumerate(seq):
        if not 0 <= v < g.n:
            raise ValueError(f"walk position {k} holds vertex {v}, not in [0, {g.n})")
    for a, b in zip(seq, seq[1:]):
        if not g.adjacency[a, b]:
            raise ValueError(f"walk steps across non-edge ({a},{b})")
    trace = np.bincount(np.asarray(seq), minlength=g.n).astype(np.int64)
    trace.flags.writeable = False
    return WalkTrace(vertices=seq, trace=trace)


def occupation_matrix(g: GraphInstance, w: WeightAssignment) -> np.ndarray:
    """Visit-balance matrix M whose unique pinned fixed point is tau.

    Entries: M(v_out, v_out) = M(v_in, v_out) = 1;
    M(v, u) = rho(v) / sum_{z ~ u} rho(z) for v ~ u with u, v != v_out;
    all other entries 0.  Requires the graph minus v_out to stay connected,
    otherwise the fixed point is not unique.
    """
    # M's diagonal is 0, so adding I off (v_out, v_out) restores it exactly.
    return _pinned_system(g, w.rho) + np.diag(np.arange(g.n) != g.v_out)


def _pinned_system(g: GraphInstance, rho: np.ndarray) -> np.ndarray:
    """The pinned A = M - I with its v_out row replaced by e_out, for a raw
    weight array of any dtype (complex for the complex-step oracle)."""
    if not g.out_removed_connected:
        raise Disconnected("graph minus v_out is disconnected")
    n, out = g.n, g.v_out
    A = g.adjacency * (rho[:, None] / (g.adjacency @ rho))
    A[:, out] = 0.0
    A[out] = 0.0
    A.flat[:: n + 1] = -1.0  # M's diagonal is 0
    A[out, out] = 1.0
    A[g.v_in, out] = 1.0
    return A


def _pinned_fixed_point(g: GraphInstance, rho: np.ndarray):
    """Solve the pinned system A r = e_out for a raw weight array of any
    dtype; return r and A.

    A is returned so that the adjoint gradient can solve with A^T at the
    same point.  A singular or non-finite system raises SingularSystem.
    """
    A = _pinned_system(g, rho)
    b = np.zeros(g.n)
    b[g.v_out] = 1.0
    try:
        r = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"pinned fixed-point system is singular: {exc}") from exc
    # The residual check is the authority on solution quality.  Off the
    # v_out row, A r is M r - r.  A NaN or inf in r makes ``size`` non-finite.
    resid = A @ r
    resid[g.v_out] = 0.0
    size = float(np.abs(r).max())
    if not (math.isfinite(size) and np.abs(resid).max() <= 1e-8 * max(1.0, size)):
        raise SingularSystem("fixed-point residual check failed")
    return r, A


def expected_occupation_fixed_point(
    g: GraphInstance, w: WeightAssignment
) -> OccupationVector:
    """Solve M r = r with r(v_out) pinned to 1 by direct linear solve."""
    r, _ = _pinned_fixed_point(g, w.rho)
    return OccupationVector(values=_clip_tiny(r), kind="expected")


def _clip_tiny(values: np.ndarray) -> np.ndarray:
    """Zero out roundoff-scale negatives, then freeze."""
    out = np.where((values < 0) & (values > -1e-10), 0.0, values)
    out.flags.writeable = False
    return out


def expected_occupation_green(
    g: GraphInstance, w: WeightAssignment, spec: SpectralData | None = None
) -> OccupationVector:
    """Occupation times from the Green's matrix.

    tau(x) = tilde_rho(x) * ( G(o,o)/tilde(o) - G(i,o)/tilde(i)
                             - G(o,x)/tilde(o) + G(i,x)/tilde(i) )

    The raw formula counts visits strictly before absorption, which gives 0
    at v_out; the returned vector patches that entry to 1 so all three
    forward routes share the proper-walk convention.
    """
    G = (spec or spectral_data(g, w)).bigG
    t = w.tilde_rho
    i, o = g.v_in, g.v_out
    S = G[o, o] / t[o] - G[i, o] / t[i] - G[o, :] / t[o] + G[i, :] / t[i]
    tau = t * S
    tau[o] = 1.0
    return OccupationVector(values=_clip_tiny(tau), kind="expected")


def expected_hitting_time(
    g: GraphInstance,
    w: WeightAssignment,
    spec: SpectralData | None,
    x: int,
    y: int,
) -> float:
    """Expected first-hitting time of y from x, with E(x -> x) = 0 exactly.

    Pass ``spec=None`` to have the spectral data computed on the fly.
    """
    _check_vertex(g.n, x, "x")
    _check_vertex(g.n, y, "y")
    if x == y:
        return 0.0
    G = (spec or spectral_data(g, w)).bigG
    t = w.tilde_rho
    return float(w.vol / t[y] * G[y, y] - w.vol / t[x] * G[x, y])


# -- simulation ------------------------------------------------------------


def _neighbour_tables(g: GraphInstance, w: WeightAssignment):
    """Per-vertex sampling tables ``(cum, nbr)``, both of shape (n, width).

    Row v lists v's sorted neighbours in ``nbr[v]`` and their cumulative
    transition probabilities in ``cum[v]``.  The width is the smallest power
    of two that holds the largest degree.  The last real entry of each row
    is exactly 1.0, so that no uniform in [0, 1) can fall past the last
    neighbour when the row sum rounds below 1.  Padding entries are 1.0 as
    well and repeat the last neighbour, so they are never selected.

    The cumulative sums run over the neighbours only, of the probabilities
    rho(y) / sum_{z~v} rho(z) that ``transition_matrix`` holds at them.  A
    dense row's non-neighbour entries add exactly 0.0, so each neighbour's
    entry is the same float as in the dense row ``cumsum(P[v])``, and every
    uniform maps to the same vertex.
    """
    deg = np.array([len(nbrs) for nbrs in g.neighbors])
    width = 1 << int(deg.max() - 1).bit_length()
    nbr = np.array([nbrs + nbrs[-1:] * (width - len(nbrs)) for nbrs in g.neighbors])
    cum = np.cumsum(w.rho[nbr] / (g.adjacency @ w.rho)[:, None], axis=1)
    cum[np.arange(width)[None, :] >= (deg - 1)[:, None]] = 1.0
    return cum, nbr


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    )


def _simulate_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep-simulate one chunk of walks; returns (sum_tr, sum_sq) int64.

    A walk at ``pos`` steps to ``nbr[pos, k]`` with k = #{j : u >= cum[pos, j]}.
    The entries a uniform u in [0, 1) reaches form a prefix of the row, so
    k is found by a branchless binary search: for s = width/2, ..., 1 the
    flat offset ``at`` moves up by s when u >= cum_flat[at + s - 1].  A
    step costs O(log width) array operations, whatever n is.  Positions
    are kept for the active walks only, and each step draws one uniform per
    active walk, in walk order (stream version 2).
    """
    (cum, nbr), v_in, v_out, seed, chunk_index, count, step_limit = args
    n, width = cum.shape
    cum_flat, nbr_flat = cum.ravel(), nbr.ravel()
    halves = [width >> k for k in range(1, width.bit_length())]
    # probe[at] reads cum_flat[at + s - 1] without an index addition.
    probes = [(s, cum_flat[s - 1:]) for s in halves]
    gen = _chunk_rng(seed, chunk_index)
    tr = np.zeros((count, n), dtype=np.int64)
    tr[:, v_in] = 1
    tr_flat = tr.reshape(-1)
    pos = np.full(count, v_in, dtype=np.int64)
    active = np.arange(count)
    for _ in range(step_limit):
        if active.size == 0:
            break
        u = gen.random(active.size)
        at = pos * width
        for s, probe in probes:
            at += (u >= probe[at]) * s
        pos = nbr_flat[at]
        tr_flat[active * n + pos] += 1
        going = pos != v_out
        active, pos = active[going], pos[going]
    else:
        if active.size:
            raise StepLimitExceeded(
                f"{active.size} walks in chunk {chunk_index} exceeded "
                f"{step_limit} steps"
            )
    return tr.sum(axis=0), np.einsum("ij,ij->j", tr, tr)


def empirical_occupation(
    g: GraphInstance,
    w: WeightAssignment,
    N: int,
    seed: int,
    *,
    workers: int = 1,
    step_limit: int = DEFAULT_STEP_LIMIT,
    chunk_size: int = DEFAULT_CHUNK,
) -> OccupationVector:
    """Mean trace over N independent seeded walks, with standard errors.

    Walks run in chunks of ``chunk_size``.  Results are bit-identical for
    any ``workers`` value: a chunk's walks depend only on (seed, chunk
    index, chunk size) through its own substream (see ``STREAM_VERSION``),
    and traces are integer vectors accumulated exactly, so neither
    scheduling nor summation order can perturb the output.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if not g.out_removed_connected:
        raise Disconnected("graph minus v_out is disconnected")
    tables = _neighbour_tables(g, w)
    tasks = []
    start = 0
    chunk_index = 0
    while start < N:
        count = min(chunk_size, N - start)
        tasks.append((tables, g.v_in, g.v_out, seed, chunk_index, count, step_limit))
        start += count
        chunk_index += 1

    if workers == 1 or len(tasks) == 1:
        results = [_simulate_chunk(t) for t in tasks]
    else:
        import multiprocessing

        with multiprocessing.Pool(processes=min(workers, len(tasks))) as pool:
            results = pool.map(_simulate_chunk, tasks)

    sum_tr = np.zeros(g.n, dtype=np.int64)
    sum_sq = np.zeros(g.n, dtype=np.int64)
    for s, q in results:
        sum_tr += s
        sum_sq += q
    mean = sum_tr / N
    if N > 1:
        var = (sum_sq.astype(float) - sum_tr.astype(float) ** 2 / N) / (N - 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / N)
    else:
        stderr = np.zeros(g.n)
    mean.flags.writeable = False
    stderr.flags.writeable = False
    return OccupationVector(values=mean, kind="empirical", stderr=stderr)


# -- serialization -----------------------------------------------------------


def occupation_to_dict(vec: OccupationVector) -> dict:
    d = {"tau": [float(x) for x in vec.values], "kind": vec.kind}
    if vec.stderr is not None:
        d["stderr"] = [float(x) for x in vec.stderr]
    return d


def occupation_to_csv(vec: OccupationVector) -> str:
    """CSV with header ``vertex,tau`` (plus ``stderr`` for empirical runs)."""
    if vec.stderr is not None:
        lines = ["vertex,tau,stderr"]
        lines += [
            f"{v},{float(t)!r},{float(s)!r}"
            for v, (t, s) in enumerate(zip(vec.values, vec.stderr))
        ]
    else:
        lines = ["vertex,tau"]
        lines += [f"{v},{float(t)!r}" for v, t in enumerate(vec.values)]
    return "\n".join(lines) + "\n"
