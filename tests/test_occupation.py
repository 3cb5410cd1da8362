"""Forward maps: fixed point, Green's formula, hitting times, Monte Carlo."""

import dataclasses
import hashlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import walkweights as ww
from synth import (
    complete_instance,
    cycle_instance,
    path_instance,
    random_connected_instance,
    random_rho,
    random_tree,
)
from walkweights.errors import Disconnected, SingularSystem, StepLimitExceeded
from walkweights.graph_core import transition_matrix
from walkweights.occupation import (
    COUNT_BATCHES,
    DEFAULT_CHUNK,
    DEFAULT_STEP_LIMIT,
    SCALAR_TAIL,
    _batch_sizes,
    _chunk_rng,
    _count_estimate,
    _count_rng,
    _count_round,
    _count_tables,
    _neighbour_tables,
    _pinned_fixed_point,
    _simulate_chunk,
    _simulate_counts,
    _walk_estimate,
    make_walk_trace,
    mc_engine,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def single_edge():
    return ww.build_graph(2, [(0, 1)], v_in=1, v_out=0)


def test_occupation_matrix_single_edge():
    g = single_edge()
    M = ww.occupation_matrix(g, ww.derived_weights(g, np.ones(2)))
    assert M.tolist() == [[1.0, 0.0], [1.0, 0.0]]


def test_occupation_matrix_p3():
    g = path_instance(3)
    M = ww.occupation_matrix(g, ww.derived_weights(g, np.ones(3)))
    assert M.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.5, 0.0]]


def test_occupation_matrix_k3():
    g = complete_instance(3)
    M = ww.occupation_matrix(g, ww.derived_weights(g, np.ones(3) / 3.0))
    assert M[1, 2] == pytest.approx(0.5)
    assert M[2, 1] == pytest.approx(0.5)
    assert M[1, 0] == 1.0 and M[0, 0] == 1.0
    assert M[0, 1] == 0.0 and M[0, 2] == 0.0 and M[2, 0] == 0.0


def test_occupation_matrix_requires_out_removed_connected():
    g = ww.build_graph(3, [(0, 1), (1, 2)], v_in=2, v_out=1)
    with pytest.raises(Disconnected):
        ww.occupation_matrix(g, ww.derived_weights(g, np.ones(3)))


def test_fixed_point_examples():
    g = single_edge()
    assert ww.expected_occupation_fixed_point(
        g, ww.derived_weights(g, np.ones(2))
    ).values.tolist() == [1.0, 1.0]

    g = path_instance(3)
    tau = ww.expected_occupation_fixed_point(g, ww.derived_weights(g, np.ones(3)))
    assert tau.values == pytest.approx([1.0, 2.0, 2.0], abs=1e-12)
    assert tau.kind == "expected"

    g = complete_instance(3)
    tau = ww.expected_occupation_fixed_point(g, ww.derived_weights(g, np.ones(3)))
    assert tau.values == pytest.approx([1.0, 4.0 / 3.0, 2.0 / 3.0], abs=1e-12)


def test_fixed_point_matches_complete_graph_formulas():
    # r_2 = (1 + b2/b1)(1 - b2), r_j = b_j (1 - b_j) / b1 on the simplex
    rng = np.random.default_rng(7)
    for n in (3, 4, 6):
        g = complete_instance(n)
        beta = rng.uniform(0.3, 2.0, n)
        beta /= beta.sum()
        tau = ww.expected_occupation_fixed_point(
            g, ww.derived_weights(g, beta)
        ).values
        b1, b2 = beta[g.v_out], beta[g.v_in]
        assert tau[g.v_in] == pytest.approx((1 + b2 / b1) * (1 - b2), rel=1e-12)
        for j in range(n):
            if j in (g.v_out, g.v_in):
                continue
            assert tau[j] == pytest.approx(beta[j] * (1 - beta[j]) / b1, rel=1e-12)


def exact_pinned_fixed_point(g, rho) -> list[Fraction]:
    """r with A r = e_out, A the pinned system at the float weights ``rho``,
    by Gaussian elimination over Fraction(rho(v)): no rounding anywhere."""
    n, out = g.n, g.v_out
    q = [Fraction(float(x)) for x in rho]
    s = [sum(q[z] for z in g.neighbors[u]) for u in range(n)]
    A = [[Fraction(0)] * n for _ in range(n)]
    for u in range(n):
        if u == out:
            continue
        A[u][u] = Fraction(-1)
        for v in g.neighbors[u]:
            if v != out:
                A[v][u] = q[v] / s[u]
    A[out][out] = A[g.v_in][out] = Fraction(1)
    b = [Fraction(int(v == out)) for v in range(n)]
    for k in range(n):
        p = next(i for i in range(k, n) if A[i][k] != 0)
        A[k], A[p], b[k], b[p] = A[p], A[k], b[p], b[k]
        for i in range(k + 1, n):
            f = A[i][k] / A[k][k]
            if f:
                A[i] = [a - f * c for a, c in zip(A[i], A[k])]
                b[i] -= f * b[k]
    r = [Fraction(0)] * n
    for k in reversed(range(n)):
        r[k] = (b[k] - sum(A[k][j] * r[j] for j in range(k + 1, n))) / A[k][k]
    return r


def test_exact_oracle_examples():
    assert exact_pinned_fixed_point(path_instance(3), [1.0, 1.0, 1.0]) == [1, 2, 2]
    r = exact_pinned_fixed_point(complete_instance(3), [1.0, 1.0, 1.0])
    assert r == [1, Fraction(4, 3), Fraction(2, 3)]


def _ill_conditioned_cases():
    for n in range(6, 11):
        yield path_instance(n), 3.0 ** np.arange(n)
    rng = np.random.default_rng(2009)
    for _ in range(30):
        g = random_tree(int(rng.integers(3, 8)), rng)
        rho = 10.0 ** rng.uniform(-2.0, 2.0, g.n)
        rho[g.v_out] = 1.0
        yield g, rho


def test_fixed_point_within_conditioning_bound_of_exact_oracle():
    """The float map rho -> r against exact rationals at the same weights.

    Write A for the exact pinned matrix at the float weights, u = eps / 2
    for the unit roundoff, gamma_k = k u / (1 - k u), and take every norm
    as the infinity norm.  The float map errs in two places.

    * Assembly.  Each transient entry rho(v) / s(y) sums at most n - 1
      positive weights and divides once, so the float matrix is A + F with
      |F| <= gamma_n |A| entrywise; the entries 0, 1 and -1 are exact.
      Hence ||F|| <= n u ||A|| to first order.
    * Solve.  LU with partial pivoting returns r_hat with
      (A + F + E) r_hat = e_out and |E| <= gamma_3n |L||U| (Higham,
      Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 9.4).
      A is diagonally dominant by columns: a transient column holds -1 on
      the diagonal and weights rho(v) / s(y) summing to at most 1, and the
      v_out column holds 1 and 1.  So partial pivoting swaps no rows and
      the growth factor is at most 2 (Wilkinson; ibid., section 9.5), and
      we take ||E|| <= 2 n u ||A||.  The rigorous bound on || |L||U| ||
      carries a further factor of order n, which rounding does not reach
      in practice.

    With beta = 3 n u the relative backward error of the whole map and
    kappa = ||A|| ||A^-1||, the relative forward error is at most
    kappa beta / (1 - kappa beta), below 4 n u kappa = 2 n kappa eps while
    kappa beta <= 1/4.  The test asserts that bound, with kappa from
    ``np.linalg.cond`` of the float matrix (equal to first order).
    """
    eps = np.finfo(float).eps
    errors = []
    for g, rho in _ill_conditioned_cases():
        r_hat, A = _pinned_fixed_point(g, rho)
        r = exact_pinned_fixed_point(g, rho)
        kappa = np.linalg.cond(A, np.inf)
        assert 3 * g.n * kappa * eps / 2 <= 0.25
        miss = max(abs(Fraction(x) - y) for x, y in zip(r_hat.tolist(), r))
        err = float(miss / max(r))
        assert err <= 2 * g.n * kappa * eps, (g.n, kappa, err)
        errors.append(err)
    assert max(errors) > 0.0  # the rounding shows: the oracle is not the float map


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_raises_singular_system(bad):
    g = path_instance(4)
    rho = np.array([1.0, 2.0, bad, 0.5])
    with pytest.raises(SingularSystem, match=r"rho\[2\] = .* is not finite"):
        _pinned_fixed_point(g, rho)
    w = dataclasses.replace(ww.derived_weights(g, np.ones(4)), rho=rho)
    with pytest.raises(SingularSystem, match=r"rho\[2\] = .* is not finite"):
        ww.expected_occupation_fixed_point(g, w)
    with pytest.raises(SingularSystem, match=r"rho\[2\] = .* is not finite"):
        ww.cost(g, w, [1.0, 2.0, 2.0, 2.0])


def test_green_formula_examples():
    g = single_edge()
    w = ww.derived_weights(g, np.ones(2))
    tau = ww.expected_occupation_green(g, w)
    assert tau.values == pytest.approx([1.0, 1.0], abs=1e-12)

    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    tau = ww.expected_occupation_green(g, w)
    assert tau.values == pytest.approx([1.0, 2.0, 2.0], abs=1e-12)


def test_green_and_fixed_point_agree_random():
    rng = np.random.default_rng(8)
    for _ in range(25):
        g = random_connected_instance(int(rng.integers(2, 9)), rng)
        w = ww.derived_weights(g, random_rho(g, rng))
        a = ww.expected_occupation_green(g, w).values
        b = ww.expected_occupation_fixed_point(g, w).values
        assert np.abs(a - b).max() <= 1e-9
        assert b[g.v_out] == 1.0
        assert b[g.v_in] >= 1.0 - 1e-12
        assert np.all(b >= 0.0)


def test_gauge_invariance_bipartite():
    rng = np.random.default_rng(9)
    for g in (path_instance(5), cycle_instance(6)):
        rho = random_rho(g, rng, pin_out=False)
        w1 = ww.derived_weights(g, rho)
        c = 1.7
        scale = np.where(g.bipartition == 1, c, 1.0 / c)
        w2 = ww.derived_weights(g, rho * scale)
        assert np.abs(w1.edge_wt - w2.edge_wt).max() <= 1e-9
        a = ww.expected_occupation_fixed_point(g, w1).values
        b = ww.expected_occupation_fixed_point(g, w2).values
        assert np.abs(a - b).max() <= 1e-9
        a = ww.expected_occupation_green(g, w1).values
        b = ww.expected_occupation_green(g, w2).values
        assert np.abs(a - b).max() <= 1e-9


# -- hitting times -------------------------------------------------------------


def test_hitting_time_to_self_is_zero():
    g = path_instance(4)
    w = ww.derived_weights(g, np.array([1.0, 2.0, 0.5, 1.0]))
    assert ww.expected_hitting_time(g, w, None, 2, 2) == 0.0


def test_hitting_time_single_edge():
    g = single_edge()
    w = ww.derived_weights(g, np.ones(2))
    assert ww.expected_hitting_time(g, w, None, 1, 0) == pytest.approx(1.0, abs=1e-12)


def test_hitting_time_p3():
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    assert ww.expected_hitting_time(g, w, None, 2, 0) == pytest.approx(4.0, abs=1e-10)


@pytest.mark.parametrize("bad", [-1, 4])
def test_hitting_time_rejects_vertex_out_of_range(bad):
    # -1 would otherwise index the last vertex, and 4 raise an IndexError.
    g = path_instance(4)
    w = ww.derived_weights(g, np.ones(4))
    with pytest.raises(ValueError, match=f"x={bad} outside"):
        ww.expected_hitting_time(g, w, None, bad, 0)
    with pytest.raises(ValueError, match=f"y={bad} outside"):
        ww.expected_hitting_time(g, w, None, 3, bad)


def test_hitting_time_first_step_oracle():
    # Independent oracle: E(x -> y) solves b = 1 + P b with b(y) = 0.
    rng = np.random.default_rng(10)
    for _ in range(10):
        g = random_connected_instance(int(rng.integers(3, 8)), rng)
        w = ww.derived_weights(g, random_rho(g, rng))
        P = ww.transition_matrix(g, w)
        spec = ww.spectral_data(g, w)
        y = int(rng.integers(g.n))
        A = np.eye(g.n) - P
        A[y, :] = 0.0
        A[y, y] = 1.0
        b = np.ones(g.n)
        b[y] = 0.0
        expected = np.linalg.solve(A, b)
        for x in range(g.n):
            got = ww.expected_hitting_time(g, w, spec, x, y)
            assert got == pytest.approx(expected[x], rel=1e-9, abs=1e-9)
            assert got >= 0.0


# -- walk traces ----------------------------------------------------------------


def test_walk_trace_validation():
    g = path_instance(3)
    with pytest.raises(ValueError, match="non-edge"):
        make_walk_trace(g, [2, 0])
    # Out-of-range ids are named with their position, before any edge check
    # (-1 would otherwise wrap round to vertex 2).
    for walk, k, v in [([0, 5], 1, 5), ([1, -1], 1, -1), ([2, 1, -2], 2, -2)]:
        with pytest.raises(ValueError, match=f"position {k} holds vertex {v},"):
            make_walk_trace(g, walk)


# -- empirical occupation --------------------------------------------------------


def test_empirical_single_edge_exact():
    g = single_edge()
    w = ww.derived_weights(g, np.array([2.0, 0.3]))
    vec = ww.empirical_occupation(g, w, 500, seed=1)
    assert vec.values.tolist() == [1.0, 1.0]
    assert vec.kind == "empirical"
    assert vec.stderr.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("maker,expected", [
    (lambda: path_instance(3), [1.0, 2.0, 2.0]),
    (lambda: complete_instance(3), [1.0, 4.0 / 3.0, 2.0 / 3.0]),
])
def test_empirical_within_standard_errors(maker, expected):
    g = maker()
    w = ww.derived_weights(g, np.ones(3))
    vec = ww.empirical_occupation(g, w, 200_000, seed=3)
    dev = np.abs(vec.values - np.array(expected))
    assert np.all(dev <= 4.0 * np.maximum(vec.stderr, 1e-15))


def dense_cumulative_rows(g, w):
    """Row-wise cumsum of the transition matrix, exactly 1.0 from each row's
    last neighbour onward: the dense (n, n) form of the sampler's table."""
    cum = np.cumsum(transition_matrix(g, w), axis=1)
    last = np.array([nbrs[-1] for nbrs in g.neighbors])
    cum[np.arange(g.n)[None, :] >= last[:, None]] = 1.0
    return cum


def test_chunked_engine_matches_scalar_reference():
    # Replay the identical substreams with the dense round reference, which
    # searches dense cumulative rows built here independently of the
    # sampler's neighbour table: three chunks, the last one partial.
    g = random_connected_instance(5, np.random.default_rng(12))
    w = ww.derived_weights(g, random_rho(g, np.random.default_rng(13)))
    seed, N, width = 17, 10, 4
    vec = ww.empirical_occupation(g, w, N, seed, chunk_size=width)

    cum = dense_cumulative_rows(g, w)
    total = np.zeros(g.n, dtype=np.int64)
    for chunk, start in enumerate(range(0, N, width)):
        total += dense_round_chunk(cum, g.v_in, g.v_out, seed, chunk, min(width, N - start))[0]
    assert np.array_equal(vec.values, total / N)


def test_empirical_worker_count_invariance():
    g = path_instance(4)
    w = ww.derived_weights(g, np.array([1.0, 0.6, 1.4, 1.0]))
    kw = dict(N=6000, seed=5, chunk_size=512)
    base = ww.empirical_occupation(g, w, **kw, workers=1)
    for workers in (2, 4):
        other = ww.empirical_occupation(g, w, **kw, workers=workers)
        assert np.array_equal(base.values, other.values)
        assert np.array_equal(base.stderr, other.stderr)


def test_empirical_matches_expected_at_scale():
    rng = np.random.default_rng(14)
    g = random_connected_instance(6, rng)
    w = ww.derived_weights(g, random_rho(g, rng))
    expected = ww.expected_occupation_fixed_point(g, w).values
    vec = ww.empirical_occupation(g, w, 100_000, seed=21)
    dev = np.abs(vec.values - expected)
    assert np.all(dev <= 4.0 * np.maximum(vec.stderr, 1e-15))


def test_simulated_walks_are_proper():
    # Every walk starts at v_in and ends on its one and only visit to v_out:
    # each walk's trace has a 1 at v_out, so both its sum and its sum of
    # squares over a chunk equal the chunk's walk count.
    rng = np.random.default_rng(11)
    for k in range(5):
        g = random_connected_instance(int(rng.integers(3, 8)), rng)
        tables = _neighbour_tables(g, ww.derived_weights(g, random_rho(g, rng)))
        s, q = _simulate_chunk((tables, g.v_in, g.v_out, 11, k, 50, 10**6))
        assert s[g.v_out] == 50 and q[g.v_out] == 50
        assert s[g.v_in] >= 50


def test_p3_middle_visits_are_geometric():
    # On the uniform P3 each visit to the middle vertex ends the walk with
    # probability 1/2, so its visit count is Geometric(1/2): mean 2 and
    # variance 2.  The bound belongs to the per-walk sample variance, with
    # N - 1 degrees of freedom, so the walks run on that engine directly.
    g = path_instance(3)
    N = 40_000
    tables = _neighbour_tables(g, ww.derived_weights(g, np.ones(3)))
    s, q = _simulate_chunk((tables, g.v_in, g.v_out, 42, 0, N, DEFAULT_STEP_LIMIT))
    var = (q[1] - s[1] ** 2 / N) / (N - 1)
    # The sample variance has variance (mu4 - sigma^4) / N = (38 - 4) / N.
    assert abs(var - 2.0) <= 4.0 * np.sqrt(34.0 / N)


def test_p3_middle_visits_batch_means_variance():
    # The same Geometric(1/2) count on the count engine, whose N * stderr**2
    # is the batch-means variance estimate: 2 * chi2_{B-1} / (B - 1) in law,
    # as each batch mean of N / B walks is near-normal.  Its bounds are the
    # law's quantiles at the two-sided tail of the 4-sigma bound above.
    g = path_instance(3)
    N = 40_000
    assert mc_engine(g, N) == "counts"
    vec = ww.empirical_occupation(g, ww.derived_weights(g, np.ones(3)), N, seed=42)
    var = N * vec.stderr[1] ** 2
    tail = scipy.stats.norm.sf(4.0)
    dof = COUNT_BATCHES - 1
    low, high = 2.0 * scipy.stats.chi2.ppf([tail, 1.0 - tail], dof) / dof
    assert low <= var <= high


@pytest.mark.parametrize("chunk_size", [0, -4])
def test_empirical_rejects_chunk_size_below_one(chunk_size):
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    with pytest.raises(ValueError, match="chunk_size"):
        ww.empirical_occupation(g, w, 10, seed=0, chunk_size=chunk_size)


def test_step_limit_exceeded():
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    with pytest.raises(StepLimitExceeded):
        ww.empirical_occupation(g, w, 64, seed=0, step_limit=1)


def star_instance(n: int) -> ww.GraphInstance:
    """Star with centre 0 and leaves 1..n-1; max degree n - 1."""
    return ww.build_graph(n, [(0, v) for v in range(1, n)], v_in=0, v_out=1)


def test_neighbour_tables_select_only_neighbours():
    # Whatever the weights, a uniform in [0, 1) can only select a true
    # neighbour: each row's last real entry is exactly 1.0, even where the
    # row's probabilities sum to less than 1 in floating point, and the
    # padding behind it is 1.0, so it can never be selected.  The other
    # entries are the dense cumulative row's floats, bit for bit.
    rng = np.random.default_rng(15)
    graphs = [star_instance(n) for n in (2, 3, 5, 9, 17, 33)]
    graphs += [random_connected_instance(int(rng.integers(2, 10)), rng) for _ in range(40)]
    short_rows = 0
    for g in graphs:
        for _ in range(5):
            w = ww.derived_weights(g, 10.0 ** rng.uniform(-2.0, 2.0, g.n))
            cum, nbr = _neighbour_tables(g, w)
            deg = [len(nbrs) for nbrs in g.neighbors]
            assert cum.shape == nbr.shape
            assert max(deg) <= cum.shape[1] < 2 * max(deg)
            P = transition_matrix(g, w)
            dense = dense_cumulative_rows(g, w)
            for v, nbrs in enumerate(g.neighbors):
                d = len(nbrs)
                assert tuple(nbr[v, :d]) == nbrs
                assert np.array_equal(cum[v, :d - 1], dense[v, list(nbrs[:-1])])
                assert np.all(cum[v, d - 1:] == 1.0), (v, cum[v])
                short_rows += np.cumsum(P[v, list(nbrs)])[-1] < 1.0
                # Entry j is selected by the uniforms in [cum[j-1], cum[j]).
                low = np.concatenate([[0.0], cum[v, :-1]])
                selectable = (cum[v] > low) & (low < 1.0)
                assert set(nbr[v, selectable]) <= set(nbrs), (v, cum[v], nbr[v])
                assert not selectable[d:].any()
    assert short_rows > 0  # some rows really do sum to less than 1


def dense_round_chunk(cum, v_in, v_out, seed, chunk_index, count, running=None, ends=None):
    """The chunk engine's walks over dense (n, n) cumulative rows, O(n) work
    per walk and step: the reference it must match bit for bit.

    Stream version 4: rounds of min(8, max(1, steps // 4)) steps, each
    drawing k * A uniforms for the A walks running at its start and giving
    step j of walk i the uniform j * A + i; walks that reach v_out idle to
    the round's end.  A ``running`` list gets the number of walks still
    running after each step, an ``ends`` list the step count at the end of
    each round."""
    n = cum.shape[0]
    gen = _chunk_rng(seed, chunk_index)
    tr = np.zeros((count, n), dtype=np.int64)
    tr[:, v_in] = 1
    pos = np.full(count, v_in, dtype=np.int64)
    active = np.arange(count)
    steps = 0
    while active.size:
        k = min(8, max(1, steps // 4))
        u = gen.random(k * active.size).reshape(k, active.size)
        live = np.ones(active.size, dtype=bool)
        for j in range(k):
            walks = active[live]
            nxt = (u[j, live][:, None] >= cum[pos[walks]]).sum(axis=1)
            tr[walks, nxt] += 1
            pos[walks] = nxt
            live[live] = nxt != v_out
            if running is not None:
                running.append(int(live.sum()))
        active = active[live]
        steps += k
        if ends is not None:
            ends.append(steps)
    return tr.sum(axis=0), (tr * tr).sum(axis=0)


def p3_rounds(count, chunk_index):
    """Walks of a P3 chunk (seed 0) still running after each step up to the
    longest walk's last, and the step counts at its round ends, by the dense
    reference."""
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    running, ends = [], []
    dense_round_chunk(
        dense_cumulative_rows(g, w), g.v_in, g.v_out, 0, chunk_index, count, running, ends
    )
    return running[:running.index(0) + 1], ends


def test_chunk_engine_step_limit():
    # On P3 from its end every walk reaches the middle vertex in one step
    # and can leave for v_out on every second step after it.  A limit of k
    # steps cuts the round it falls in and raises after step k, in
    # whichever phase the chunk is then, naming the walks still running as
    # the dense reference counts them.  Uniforms are step-major, so cutting
    # a round leaves its first steps' walks as they were.
    g = path_instance(3)
    tables = _neighbour_tables(g, ww.derived_weights(g, np.ones(3)))
    count = 5000
    running, ends = p3_rounds(count, 3)
    # The round end at which the chunk leaves the lockstep loop, the end of
    # the first scalar round after it, and the first round of two steps.
    handoff = next(e for e in ends if running[e - 1] <= SCALAR_TAIL)
    after = ends[ends.index(handoff) + 1]
    lockstep = next((b, e) for b, e in zip(ends, ends[1:]) if e - b >= 2)
    assert lockstep[1] < handoff and after - handoff >= 2
    cases = [
        (count, 1),  # lockstep: all walks stand on the middle vertex
        (count, lockstep[0] + 1),  # inside a lockstep round
        (count, lockstep[1]),  # at the end of that round
        (count, handoff),  # reached as the chunk leaves the lockstep loop
        (count, handoff + 1),  # inside the first scalar round
        (count, after),  # at the end of that round
        (SCALAR_TAIL, 1),  # the whole chunk runs in the scalar loop
    ]
    for count, limit in cases:
        running, _ = p3_rounds(count, 3)
        assert running[limit - 1] > 0
        with pytest.raises(
            StepLimitExceeded,
            match=f"^{running[limit - 1]} walks in chunk 3 exceeded {limit} steps$",
        ):
            _simulate_chunk((tables, g.v_in, g.v_out, 0, 3, count, limit))
        # The longest walk takes len(running) steps: that limit is enough,
        # one fewer is not.
        _simulate_chunk((tables, g.v_in, g.v_out, 0, 3, count, len(running)))
        last = len(running) - 1
        with pytest.raises(
            StepLimitExceeded, match=f"^{running[-2]} walks in chunk 3 exceeded {last} "
        ):
            _simulate_chunk((tables, g.v_in, g.v_out, 0, 3, count, last))


@st.composite
def chunk_cases(draw):
    """A random tree, connected graph or star with n = 2..9 and weights
    spread over up to four decades, plus a chunk's seed, index and width."""
    n = draw(st.integers(2, 9))
    maker = draw(st.sampled_from([
        random_tree,
        random_connected_instance,
        lambda n, rng: star_instance(n),
    ]))
    g = maker(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    log_rho = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    w = ww.derived_weights(g, 10.0 ** np.array(log_rho))
    # Counts on both sides of the scalar tail, and one whose first step
    # draws more than 16384 uniforms.
    count = draw(st.sampled_from(
        [1, 7, SCALAR_TAIL, SCALAR_TAIL + 1, 64, 300, 16385]
    ))
    # Some such weights trap walks for millions of steps; the dense loop
    # replays every step, so keep the chunk's expected visits few.
    visits = ww.expected_occupation_fixed_point(g, w).values.sum()
    assume(visits <= 2000 and count * visits <= 2_000_000)
    seed = draw(st.integers(0, 2**32 - 1))
    chunk_index = draw(st.integers(0, 1000))
    return g, w, seed, chunk_index, count


@settings(max_examples=60, deadline=None)
@given(chunk_cases())
def test_chunk_engine_matches_dense_lockstep_loop(case):
    g, w, seed, chunk_index, count = case
    want = dense_round_chunk(
        dense_cumulative_rows(g, w), g.v_in, g.v_out, seed, chunk_index, count
    )
    # The chunk's total visit count bounds its longest walk, so a sampler
    # that strays from the dense walks stops here instead of running on.
    step_limit = int(want[0].sum())
    got = _simulate_chunk(
        (_neighbour_tables(g, w), g.v_in, g.v_out, seed, chunk_index, count, step_limit)
    )
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_long_scalar_tail_matches_dense_lockstep_loop():
    # SCALAR_TAIL walks across the uniform P40 take about 39**2 steps each,
    # all in the scalar loop: tens of thousands of tail visits.
    g = path_instance(40)
    w = ww.derived_weights(g, np.ones(40))
    want = dense_round_chunk(
        dense_cumulative_rows(g, w), g.v_in, g.v_out, 5, 0, SCALAR_TAIL
    )
    assert want[0].sum() > 32768
    got = _simulate_chunk(
        (_neighbour_tables(g, w), g.v_in, g.v_out, 5, 0, SCALAR_TAIL, DEFAULT_STEP_LIMIT)
    )
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_empty_scalar_tail_matches_dense_lockstep_loop():
    # 100 walks on a single edge all reach v_out in the first lockstep
    # round, so none is left for the scalar loop.
    g = single_edge()
    w = ww.derived_weights(g, np.ones(2))
    running = []
    want = dense_round_chunk(dense_cumulative_rows(g, w), g.v_in, g.v_out, 8, 2, 100, running)
    assert running == [0]
    got = _simulate_chunk((_neighbour_tables(g, w), g.v_in, g.v_out, 8, 2, 100, 1))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert list(got[0]) == [100, 100]


def test_tail_of_exactly_scalar_tail_walks_matches_dense_lockstep_loop():
    # This P3 chunk of 100 walks leaves its lockstep loop with exactly
    # SCALAR_TAIL walks running, by the dense reference.
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    running, ends = [], []
    want = dense_round_chunk(
        dense_cumulative_rows(g, w), g.v_in, g.v_out, 0, 0, 100, running, ends
    )
    handoff = next(e for e in ends if running[e - 1] <= SCALAR_TAIL)
    assert running[handoff - 1] == SCALAR_TAIL
    got = _simulate_chunk(
        (_neighbour_tables(g, w), g.v_in, g.v_out, 0, 0, 100, DEFAULT_STEP_LIMIT)
    )
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def grid4x4():
    """The 4x4 grid, corner 15 to corner 0, with weights 1 + 0.25 (v mod 5)."""
    edges = [(v, v + 1) for v in range(16) if v % 4 < 3]
    edges += [(v, v + 4) for v in range(12)]
    g = ww.build_graph(16, edges, v_in=15, v_out=0)
    return g, ww.derived_weights(g, np.array([1.0 + 0.25 * (v % 5) for v in range(16)]))


def occupation_digest(values, stderr):
    return hashlib.sha256(values.tobytes() + stderr.tobytes()).hexdigest()


# Pins stream version 4 (rounds of step-major uniforms): the digest of
# empirical_occupation(grid4x4, N=1000, seed=2024, chunk_size=96), computed by
# summing dense_round_chunk over the run's 11 chunks, as
# test_golden_digest_matches_dense_reference does, not by the library.
GRID4X4_DIGEST = "8617b552cb6b81c98fe1ca85935cdb48f1d8f4561672b716bbc7486969c545f4"


@pytest.mark.parametrize("workers", [1, 2])
def test_empirical_occupation_golden_digest(workers):
    g, w = grid4x4()
    vec = ww.empirical_occupation(g, w, 1000, seed=2024, chunk_size=96, workers=workers)
    assert occupation_digest(vec.values, vec.stderr) == GRID4X4_DIGEST


def test_golden_digest_matches_dense_reference():
    g, w = grid4x4()
    N, width = 1000, 96
    cum = dense_cumulative_rows(g, w)
    sum_tr = np.zeros(g.n, dtype=np.int64)
    sum_sq = np.zeros(g.n, dtype=np.int64)
    for chunk, start in enumerate(range(0, N, width)):
        s, q = dense_round_chunk(cum, g.v_in, g.v_out, 2024, chunk, min(width, N - start))
        sum_tr += s
        sum_sq += q
    var = (sum_sq.astype(float) - sum_tr.astype(float) ** 2 / N) / (N - 1)
    stderr = np.sqrt(np.maximum(var, 0.0) / N)
    assert occupation_digest(sum_tr / N, stderr) == GRID4X4_DIGEST


@pytest.mark.parametrize("name", ["seed", "workers", "chunk_size", "step_limit"])
def test_non_integer_arguments_are_rejected_by_name(name):
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    for bad in (2.5, 64.0, "64", None):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {bad!r}$"):
            ww.empirical_occupation(g, w, 10, **{"seed": 1, name: bad})
    want = ww.empirical_occupation(g, w, 10, **{"seed": 1, name: 64})
    got = ww.empirical_occupation(g, w, 10, **{"seed": 1, name: np.int64(64)})
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.stderr, want.stderr)


@pytest.mark.parametrize("name,bad", [
    ("seed", -1), ("step_limit", 0), ("step_limit", -5),
])
def test_negative_seed_and_step_limit_are_rejected_by_name(name, bad):
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    low = 0 if name == "seed" else 1
    for N in (10, 40_000):  # the per-walk and the count engine
        with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {bad}$"):
            ww.empirical_occupation(g, w, N, **{"seed": 1, name: bad})


# -- count engine ------------------------------------------------------------------


def test_non_integer_N_is_rejected_by_name():
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    for bad in (1000.0, 2.5, "1000", None):
        with pytest.raises(TypeError, match="N must be an integer"):
            ww.empirical_occupation(g, w, bad, seed=1)
    for N in (500, 40_000):
        want = ww.empirical_occupation(g, w, N, seed=1)
        got = ww.empirical_occupation(g, w, np.int64(N), seed=1)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.stderr, want.stderr)


def test_count_tables_put_probability_on_neighbours_only():
    rng = np.random.default_rng(16)
    graphs = [star_instance(n) for n in (2, 3, 9)]
    graphs += [random_connected_instance(int(rng.integers(2, 10)), rng) for _ in range(20)]
    for g in graphs:
        w = ww.derived_weights(g, 10.0 ** rng.uniform(-2.0, 2.0, g.n))
        p, nbr = _count_tables(g, w)
        P = transition_matrix(g, w)
        width = max(len(nbrs) for nbrs in g.neighbors)
        assert p.shape == nbr.shape == (g.n, width)
        for v, nbrs in enumerate(g.neighbors):
            pad = width - len(nbrs)
            assert tuple(nbr[v, pad:]) == nbrs and set(nbr[v, :pad]) <= set(nbrs)
            assert np.all(p[v, :pad] == 0.0)
            assert np.array_equal(p[v, pad:], P[v, list(nbrs)])


@settings(max_examples=40, deadline=None)
@given(chunk_cases())
def test_count_rounds_move_walkers_along_edges(case):
    # Drive the engine's rounds by hand: each round conserves every batch's
    # walkers, lands them only on neighbours of the vertices they left,
    # and over the run every walk reaches v_out exactly once.
    g, w, seed, chunk_index, count = case
    tables = _count_tables(g, w)
    adjacent = g.adjacency > 0
    gen = _count_rng(seed)
    # One occupied cell per round: every walker lands on that vertex's
    # neighbours.
    for v in range(g.n):
        if v == g.v_out:
            continue
        one = np.zeros((COUNT_BATCHES, g.n), dtype=np.int64)
        one[chunk_index % COUNT_BATCHES, v] = 1000
        arrivals = _count_round(gen, one, *tables)
        assert arrivals.sum() == 1000
        assert not arrivals[:, ~adjacent[v]].any()
    N = count + chunk_index % 50
    sizes = _batch_sizes(N)
    gen = _count_rng(seed)
    cur = np.zeros((COUNT_BATCHES, g.n), dtype=np.int64)
    cur[:, g.v_in] = sizes
    totals = cur.copy()
    while cur.any():
        arrivals = _count_round(gen, cur, *tables)
        assert arrivals.min() >= 0
        assert np.array_equal(arrivals.sum(axis=1), cur.sum(axis=1))
        assert not arrivals[(cur > 0) @ adjacent == 0].any()
        totals += arrivals
        cur = arrivals
        cur[:, g.v_out] = 0
    assert np.array_equal(totals[:, g.v_out], sizes)
    assert np.array_equal(totals, _simulate_counts(tables, g.v_in, g.v_out, seed, N, 10**7))


def scalar_count_replay(g, w, N, seed):
    """The count engine as a plain loop: one ``gen.multinomial`` call per
    occupied (batch, vertex) cell, cells in flat order, over right-aligned
    rows built here from the dense transition matrix.  Returns the visit
    totals per batch."""
    P = transition_matrix(g, w)
    width = max(len(nbrs) for nbrs in g.neighbors)
    rows = []
    for v, nbrs in enumerate(g.neighbors):
        pad = width - len(nbrs)
        rows.append(([0.0] * pad + [P[v, y] for y in nbrs], [nbrs[0]] * pad + list(nbrs)))
    gen = _count_rng(seed)
    sizes = [N // COUNT_BATCHES + (b < N % COUNT_BATCHES) for b in range(COUNT_BATCHES)]
    cur = [[0] * g.n for _ in sizes]
    totals = [[0] * g.n for _ in sizes]
    for b, size in enumerate(sizes):
        cur[b][g.v_in] = totals[b][g.v_in] = size
    while any(map(any, cur)):
        arrivals = [[0] * g.n for _ in sizes]
        for b in range(COUNT_BATCHES):
            for v in range(g.n):
                if cur[b][v]:
                    probs, targets = rows[v]
                    for y, k in zip(targets, gen.multinomial(cur[b][v], probs)):
                        arrivals[b][y] += int(k)
        for b in range(COUNT_BATCHES):
            for y in range(g.n):
                totals[b][y] += arrivals[b][y]
            arrivals[b][g.v_out] = 0
        cur = arrivals
    return np.array(totals, dtype=np.int64), np.array(sizes, dtype=np.int64)


def count_digest_case():
    g = random_connected_instance(5, np.random.default_rng(12))
    return g, ww.derived_weights(g, random_rho(g, np.random.default_rng(13)))


# Pins the count engine of stream version 3: the digest of
# empirical_occupation(count_digest_case(), N=12_345, seed=2024), computed by
# scalar_count_replay as test_count_digest_matches_scalar_replay does, not
# by the library.
COUNT_DIGEST = "aaf207696e2a8f703e62620b593811661a524fe2c88c6c442046b1422b401a32"


@pytest.mark.parametrize("workers", [1, 2])
def test_count_engine_golden_digest(workers):
    g, w = count_digest_case()
    assert mc_engine(g, 12_345) == "counts"
    vec = ww.empirical_occupation(g, w, 12_345, seed=2024, workers=workers)
    assert occupation_digest(vec.values, vec.stderr) == COUNT_DIGEST


def test_count_digest_matches_scalar_replay():
    g, w = count_digest_case()
    N = 12_345
    totals, sizes = scalar_count_replay(g, w, N, 2024)
    mean = totals.sum(axis=0) / N
    dev = totals / sizes[:, None] - mean
    var = (sizes[:, None] * dev * dev).sum(axis=0) / (COUNT_BATCHES - 1)
    assert occupation_digest(mean, np.sqrt(var / N)) == COUNT_DIGEST


def test_both_engines_within_4se_of_fixed_point():
    rng = np.random.default_rng(14)
    g = random_connected_instance(6, rng)
    w = ww.derived_weights(g, random_rho(g, rng))
    expected = ww.expected_occupation_fixed_point(g, w).values
    N = 60_000
    walks = _walk_estimate(g, w, N, 21, 1, DEFAULT_STEP_LIMIT, DEFAULT_CHUNK)
    counts = _count_estimate(g, w, N, 21, DEFAULT_STEP_LIMIT)
    for mean, stderr in (walks, counts):
        assert mean[g.v_out] == 1.0
        assert np.all(np.abs(mean - expected) <= 4.0 * np.maximum(stderr, 1e-15))


def test_sample_workload_routes_as_measured(monkeypatch, tmp_path):
    # scripts/mc_engines.py measured the count engine about ten times
    # faster on the benchmark's dense 9-vertex graph and several times
    # slower on the other three; the routing rule must agree.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import workloads

    graphs = {
        inst.name: ww.build_graph(inst.n, inst.edges, inst.v_in, inst.v_out)
        for inst in inputs.sample_catalogue()
    }
    ops = workloads.setup_sample(ww, 1, tmp_path)
    assert len(ops) == 12
    for op in ops:
        name, N = op.label.split(" N=")
        assert mc_engine(graphs[name], int(N)) == ("counts" if name == "dense9" else "walks")


def test_count_engine_step_limit():
    # After one round every walker stands on the middle vertex of P3.
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    assert mc_engine(g, 40_000) == "counts"
    with pytest.raises(StepLimitExceeded, match="40000 walkers exceeded 1 steps"):
        ww.empirical_occupation(g, w, 40_000, seed=0, step_limit=1)


def test_count_engine_ignores_workers_and_chunk_size():
    g = random_connected_instance(5, np.random.default_rng(31))
    w = ww.derived_weights(g, random_rho(g, np.random.default_rng(32)))
    N = 50_000
    assert mc_engine(g, N) == "counts"
    base = ww.empirical_occupation(g, w, N, seed=8)
    for kw in (dict(workers=2), dict(workers=4, chunk_size=512)):
        other = ww.empirical_occupation(g, w, N, seed=8, **kw)
        assert np.array_equal(base.values, other.values)
        assert np.array_equal(base.stderr, other.stderr)


# -- serialization ----------------------------------------------------------------


def test_occupation_serialization():
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    vec = ww.expected_occupation_fixed_point(g, w)
    d = ww.occupation.occupation_to_dict(vec)
    assert d["tau"] == [1.0, 2.0, 2.0]
    csv = ww.occupation.occupation_to_csv(vec)
    assert csv.startswith("vertex,tau\n0,1.0\n")

    emp = ww.empirical_occupation(g, w, 100, seed=0)
    csv = ww.occupation.occupation_to_csv(emp)
    assert csv.splitlines()[0] == "vertex,tau,stderr"
