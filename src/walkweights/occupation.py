"""Expected and empirical occupation times of absorbing walks.

The forward map rho -> tau is computed three independent ways:

* a Green's-function formula built on the spectral machinery,
* the unique fixed point of the visit-balance matrix M (direct solve),
* seeded Monte Carlo over proper walks.

Monte Carlo runs on one of two engines, chosen by ``mc_engine`` from N and
the graph alone.  The per-walk engine moves each walk by looking its
uniform up in the current vertex's row of a neighbour table: O(log max
degree) work per walk and step, independent of n.  The table holds the
same cumulative floats as a dense row of the transition matrix, so each
uniform selects the same vertex as a search over the dense row would.
A chunk moves in rounds of up to ``ROUND_STEPS`` steps, whose uniforms are
drawn step-major for the walks running at the round's start; walks that
finish mid-round idle in a sentinel row.  While more than ``SCALAR_TAIL``
walks run, a round moves them in lockstep, numpy array by array, and
scatters its visits into the traces and drops finished walks once, at its
end.  The last walks finish in a plain loop over the same rounds, each
counting its own visits, so the tail pays no per-step numpy cost.
When walkers per vertex are many, the count engine moves all k walkers of
an occupied (batch, vertex) cell by one multinomial(k, P[v]) draw, so a
round costs O(batches * n * max degree) whatever N is.  Walkers are
exchangeable, so its visit totals have the law of N independent walks.

Agreement of the three routes is the module's core correctness argument
and is exercised heavily by the test suite.

Conventions: tau(v_out) = 1 (the single terminal visit is counted) and
tau(v_in) >= 1 (the start counts as a visit).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
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

# The per-walk engine groups walk indices into fixed-size chunks; each
# chunk takes its uniforms from an independent substream keyed by (seed,
# chunk index), one per walk and step of each round for the walks running
# at the round's start.  A chunk's walks
# depend only on that substream, so the output does not depend on how
# chunks are scheduled across workers.  The chunk size is part of the
# stream: another size gives other (equally valid) walks.  A step costs
# O(log max degree) per active walk, draw included.
DEFAULT_CHUNK = 16384

# The count engine splits the N walkers into this many fixed batches, the
# first N mod B of them one walker larger, and estimates standard errors
# from the batch means, with B - 1 degrees of freedom.  All batches draw
# from one substream of their own, in one process.
COUNT_BATCHES = 32

# N walks run on the count engine when N >= COUNT_ROUTE * B * n * max degree
# (B = COUNT_BATCHES), else on the per-walk engine.  The per-walk engine's
# cost grows with N, the count engine's with the B * n * max degree cells a
# round may draw for.  scripts/mc_engines.py measured the count engine
# faster from N / (B * n * max degree) = 8 on the benchmark's dense
# 9-vertex graph and from 4 on its 10x10 grid (BENCH_21.json), and
# COUNT_ROUTE was set to twice the larger crossing.  With the per-walk
# engine's scalar tail the crossings moved to 16 and 8 (BENCH_22.json), and
# with its rounds (stream version 4) to 8-16 and 16 (BENCH_24.json), so
# COUNT_ROUTE equals the larger one.  Twice it, 32, would move N / (B n d)
# between 16 and 32 back to the per-walk engine, which at 16 ran 1.3-1.9
# times slower than the count engine on the grid.
COUNT_ROUTE = 16

# A chunk moves in rounds of at most this many steps.  Its first eight
# rounds take one step each, and later ones a quarter of the steps taken so
# far (``_round_length``).  A round pays its trace scatter and compaction
# once, but a walk that stops early in it idles to its end, so rounds
# lengthen only as the chunk ages and its walks grow fewer and longer.
ROUND_STEPS = 8

# A chunk moves its walks in lockstep while more than this many are still
# running, and finishes the rest in a scalar loop on the same rounds: each
# lockstep step pays a fixed numpy overhead of 3-5 us (table width 4-8)
# however few walks it moves, against about 0.4-0.6 us per walk and step in
# the loop.  Tails of 16, 24, 32 and 64 walks timed about the same under
# stream version 3 (BENCH_22.json).
SCALAR_TAIL = 24

# Version of the rule that turns a seed into walks, recorded in Monte Carlo
# manifests.  Version 1 drew a full chunk-width block of uniforms on every
# step and used those of the active walks; version 2 uses one uniform per
# active walk and step, in walk order; version 3 is version 2's per-walk
# engine below the COUNT_ROUTE rule and the count engine above it; version 4
# moves the per-walk engine in rounds of ``_round_length`` steps whose
# uniforms are drawn step-major for the walks running at the round's start,
# and leaves the count engine as it was.
STREAM_VERSION = 4


@dataclass(frozen=True)
class OccupationVector:
    """Vertex-indexed visit counts; ``kind`` is "expected" or "empirical".

    ``stderr`` holds per-vertex standard errors for empirical vectors: the
    sample standard deviation over walks, with N - 1 degrees of freedom,
    on the per-walk engine; the batch-means estimate over
    ``COUNT_BATCHES`` batches, with B - 1 degrees of freedom, on the count
    engine.  A mean's error divided by the batch-means ``stderr`` follows
    Student's t with B - 1 degrees of freedom, whose tails are heavier.
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
        raise _singular(rho, f"pinned fixed-point system is singular: {exc}") from exc
    # The residual check is the authority on solution quality.  Off the
    # v_out row, A r is M r - r.  A NaN or inf in r makes ``size`` non-finite.
    resid = A @ r
    resid[g.v_out] = 0.0
    size = float(np.abs(r).max())
    if not (math.isfinite(size) and np.abs(resid).max() <= 1e-8 * max(1.0, size)):
        raise _singular(rho, "fixed-point residual check failed")
    return r, A


def _singular(rho: np.ndarray, message: str) -> SingularSystem:
    """SingularSystem naming the first non-finite weight, else ``message``.
    Only a failed solve calls it, so valid weights pay nothing for the test."""
    bad = np.flatnonzero(~np.isfinite(rho))
    if bad.size:
        message = f"rho[{bad[0]}] = {rho[bad[0]]} is not finite"
    return SingularSystem(message)


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


def expected_occupation_green(g: GraphInstance, w: WeightAssignment) -> OccupationVector:
    """Occupation times from the Green's matrix.

    tau(x) = tilde_rho(x) * ( G(o,o)/tilde(o) - G(i,o)/tilde(i)
                             - G(o,x)/tilde(o) + G(i,x)/tilde(i) )

    The raw formula counts visits strictly before absorption, which gives 0
    at v_out; the returned vector patches that entry to 1 so all three
    forward routes share the proper-walk convention.
    """
    G = spectral_data(g, w).bigG
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

    ``_simulate_chunk`` searches the tables flattened, as one row after
    another at stride ``width``, with a sentinel row n of 1.0 entries
    appended for walks that have reached v_out.
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
    """Simulate one chunk of walks; returns (sum_tr, sum_sq) int64.

    A walk at v steps to ``nbr[v, c]`` with c = #{j : u >= cum[v, j]}.  The
    chunk moves in rounds of ``_round_length`` steps (stream version 4).  A
    round of k steps draws a (k, A) array of uniforms from the chunk's
    substream for the A walks running at its start: step j of walk i uses
    entry (j, i).  A walk that reaches v_out idles for the rest of its
    round, and its leftover uniforms go unused.

    While more than ``SCALAR_TAIL`` walks run, a round moves them in
    lockstep.  A walk's state is the flat offset of its vertex's row in the
    tables, extended by a sentinel row n.  The entries a uniform u in [0, 1)
    reaches form a prefix of the row, so c is found by a branchless binary
    search: for s = width/2, ..., 1 the offset moves up by s when
    u >= cum_flat[at + s - 1], and the last halving writes the entry found
    into the round's (k, A) array.  The entry gives the next state, its
    neighbour's row, except that v_out leads to the sentinel row, whose
    entries are all 1.0, lead back to it and count in a trace column n
    that is dropped at the end.  So an absorbed walk is counted once at
    v_out and idles without crossing a non-edge.  A step costs O(log width)
    array operations, whatever n is.  The entries of a round's steps are
    scattered into the traces once, at its end, and the walks that reached
    v_out are dropped then.

    The remaining walks finish in a plain loop over the same rounds, walk
    by walk within a round, walk i on column i of the round's uniforms.
    Each step is looked up with ``bisect_right`` on its vertex's row of the
    tables as lists, which gives the same c.  Every tail walk counts its
    own visits in a list of n, and the lists are added to the traces once,
    after the loop.
    """
    (cum, nbr), v_in, v_out, seed, chunk_index, count, step_limit = args
    n, width = cum.shape
    sentinel = n * width
    cum_flat = np.concatenate((cum.ravel(), np.ones(width)))
    column = np.concatenate((nbr.ravel(), np.full(width, n)))
    step_to = column * width
    step_to[column == v_out] = sentinel
    # The halvings s = width/2, ..., 2 read probe[at] = cum_flat[at + s - 1]
    # without an index addition; the last one, s = 1, reads cum_flat[at].
    halves = [width >> k for k in range(1, width.bit_length() - 1)]
    probes = [(s, cum_flat[s - 1:]) for s in halves]
    gen = _chunk_rng(seed, chunk_index)
    tr = np.zeros((count, n + 1), dtype=np.int64)
    tr[:, v_in] = 1
    tr_flat = tr.reshape(-1)
    # Running walks as (offset walk * (n + 1) into tr_flat, state).
    rows = np.arange(0, count * (n + 1), n + 1)
    at = np.full(count, v_in * width, dtype=np.int64)
    steps = 0
    while rows.size > SCALAR_TAIL:
        if steps >= step_limit:
            raise _chunk_step_limit(rows.size, chunk_index, step_limit)
        k = _round_length(steps, step_limit)
        u = gen.random((k, rows.size))
        entries = np.empty_like(u, dtype=np.int64)
        for u_step, entry in zip(u, entries):
            for s, probe in probes:
                at += (u_step >= probe[at]) * s
            np.add(at, u_step >= cum_flat[at], out=entry)
            at = step_to[entry]
        np.add.at(tr_flat, rows + column[entries], 1)
        going = at != sentinel
        rows, at = rows[going], at[going]
        steps += k

    walks = rows // (n + 1)
    cum_rows, nbr_rows = cum.tolist(), nbr.tolist()
    counts = [[0] * n for _ in walks]
    tail = list(zip(counts, (at // width).tolist()))
    while tail:
        if steps >= step_limit:
            raise _chunk_step_limit(len(tail), chunk_index, step_limit)
        k = _round_length(steps, step_limit)
        u = gen.random((k, len(tail))).T.tolist()
        still = []
        for (visits, v), u_walk in zip(tail, u):
            for u_step in u_walk:
                v = nbr_rows[v][bisect_right(cum_rows[v], u_step)]
                visits[v] += 1
                if v == v_out:
                    break
            else:
                still.append((visits, v))
        tail = still
        steps += k
    if counts:  # (0,) does not broadcast to (0, n)
        tr[walks, :n] += counts
    tr = tr[:, :n]
    return tr.sum(axis=0), np.einsum("ij,ij->j", tr, tr)


def _round_length(steps: int, step_limit: int) -> int:
    """Steps in the round that starts after ``steps``: one while the chunk
    is young, then a quarter of its age up to ``ROUND_STEPS``, and never
    past ``step_limit``."""
    return min(ROUND_STEPS, max(1, steps // 4), step_limit - steps)


def _chunk_step_limit(running: int, chunk_index: int, step_limit: int):
    return StepLimitExceeded(
        f"{running} walks in chunk {chunk_index} exceeded {step_limit} steps"
    )


def _count_tables(g: GraphInstance, w: WeightAssignment):
    """Per-vertex multinomial rows ``(p, nbr)``, both of shape (n, max degree).

    Rows are right-aligned: v's sorted neighbours fill the last deg(v)
    entries of ``nbr[v]``, and their transition probabilities
    rho(y) / sum_{z~v} rho(z) the same entries of ``p[v]``.  The padding in
    front has probability 0 and repeats v's first neighbour.  A multinomial
    gives its last outcome the remainder, so the remainder always goes to a
    real neighbour, and no walker lands on padding.
    """
    deg = np.array([len(nbrs) for nbrs in g.neighbors])
    width = int(deg.max())
    nbr = np.array([nbrs[:1] * (width - len(nbrs)) + nbrs for nbrs in g.neighbors])
    p = w.rho[nbr] / (g.adjacency @ w.rho)[:, None]
    p[np.arange(width)[None, :] < (width - deg)[:, None]] = 0.0
    return p, nbr


def _count_rng(seed: int) -> np.random.Generator:
    # Chunk substreams are keyed by the one-word (chunk index,); a single
    # integer never coerces to the two words (0, 0).
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, 0)))


def _batch_sizes(N: int) -> np.ndarray:
    sizes = np.full(COUNT_BATCHES, N // COUNT_BATCHES, dtype=np.int64)
    sizes[: N % COUNT_BATCHES] += 1
    return sizes


def _count_round(gen: np.random.Generator, cur: np.ndarray, p, nbr) -> np.ndarray:
    """Move every walker in ``cur`` one step; return the arrivals.

    ``cur`` (B, n) holds walkers per (batch, vertex), none at v_out.  Each
    occupied cell, in flat order, draws one multinomial(k, p[v]) over its
    row, and the draws are scattered to their (batch, neighbour) cells.
    """
    n = cur.shape[1]
    cells = np.flatnonzero(cur)
    v = cells % n
    draws = gen.multinomial(cur.ravel()[cells], p[v])
    dest = (cells - v)[:, None] + nbr[v]
    # Float weights add integers below 2**53 exactly.
    arrivals = np.bincount(dest.ravel(), weights=draws.ravel(), minlength=cur.size)
    return arrivals.astype(np.int64).reshape(cur.shape)


def _simulate_counts(tables, v_in, v_out, seed, N, step_limit) -> np.ndarray:
    """Visit totals per (batch, vertex) of N walks: (COUNT_BATCHES, n) int64.

    Every batch starts with its walkers at v_in, and each round moves all
    running walkers one step (``_count_round``).  Arrivals at v_out are
    counted once, then removed.
    """
    p, nbr = tables
    gen = _count_rng(seed)
    cur = np.zeros((COUNT_BATCHES, p.shape[0]), dtype=np.int64)
    cur[:, v_in] = _batch_sizes(N)
    totals = cur.copy()
    for _ in range(step_limit):
        if not cur.any():
            break
        cur = _count_round(gen, cur, p, nbr)
        totals += cur
        cur[:, v_out] = 0
    else:
        running = int(cur.sum())
        if running:
            raise StepLimitExceeded(f"{running} walkers exceeded {step_limit} steps")
    return totals


def _count_estimate(g, w, N, seed, step_limit) -> tuple[np.ndarray, np.ndarray]:
    """Mean and batch-means standard error of N walks on the count engine.

    With batch totals T_b of N_b walks, sum_b N_b (T_b / N_b - mean)^2 / (B - 1)
    is unbiased for one walk's visit variance whatever the batch sizes.
    """
    totals = _simulate_counts(_count_tables(g, w), g.v_in, g.v_out, seed, N, step_limit)
    sizes = _batch_sizes(N)[:, None]
    mean = totals.sum(axis=0) / N
    dev = totals / sizes - mean
    var = (sizes * dev * dev).sum(axis=0) / (COUNT_BATCHES - 1)
    return mean, np.sqrt(var / N)


def _walk_estimate(g, w, N, seed, workers, step_limit, chunk_size):
    """Mean and standard error of N walks on the per-walk engine."""
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
    return mean, stderr


def mc_engine(g: GraphInstance, N: int) -> str:
    """The engine ``empirical_occupation`` runs N walks on: "counts" when
    N >= COUNT_ROUTE * COUNT_BATCHES * n * max degree, else "walks"."""
    width = max(len(nbrs) for nbrs in g.neighbors)
    return "counts" if N >= COUNT_ROUTE * COUNT_BATCHES * g.n * width else "walks"


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


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

    ``mc_engine(g, N)`` picks the engine.  The per-walk engine runs walks
    in chunks of ``chunk_size``, each chunk from its own substream keyed by
    (seed, chunk index), and its ``stderr`` is the sample standard
    deviation over walks divided by sqrt(N).  The count engine runs in one
    process from one substream keyed by seed alone, and ignores
    ``workers`` and ``chunk_size``; its ``stderr`` comes from
    ``COUNT_BATCHES`` batch means.  Either way the result is bit-identical
    for any ``workers`` value: traces are integer vectors accumulated
    exactly, so neither scheduling nor summation order can perturb it.
    A walk still running after ``step_limit`` steps raises
    StepLimitExceeded.
    """
    N = _integer("N", N)
    seed = _integer("seed", seed)
    workers = _integer("workers", workers)
    chunk_size = _integer("chunk_size", chunk_size)
    step_limit = _integer("step_limit", step_limit)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if step_limit < 1:
        raise ValueError(f"step_limit must be >= 1, got {step_limit}")
    if not g.out_removed_connected:
        raise Disconnected("graph minus v_out is disconnected")
    if mc_engine(g, N) == "counts":
        mean, stderr = _count_estimate(g, w, N, seed, step_limit)
    else:
        mean, stderr = _walk_estimate(g, w, N, seed, workers, step_limit, chunk_size)
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
