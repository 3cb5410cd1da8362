"""Forward maps: fixed point, Green's formula, hitting times, Monte Carlo."""

import dataclasses
import hashlib
from fractions import Fraction

import numpy as np
import pytest
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
    _chunk_rng,
    _neighbour_tables,
    _pinned_fixed_point,
    _simulate_chunk,
    make_walk_trace,
)


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
    with pytest.raises(SingularSystem):
        _pinned_fixed_point(g, rho)
    w = dataclasses.replace(ww.derived_weights(g, np.ones(4)), rho=rho)
    with pytest.raises(SingularSystem):
        ww.expected_occupation_fixed_point(g, w)
    with pytest.raises(SingularSystem):
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
    # Replay the identical substreams with a straightforward scalar loop
    # that searches dense cumulative rows, built here independently of the
    # sampler's neighbour table.
    g = random_connected_instance(5, np.random.default_rng(12))
    w = ww.derived_weights(g, random_rho(g, np.random.default_rng(13)))
    seed, N, width = 17, 10, 4
    vec = ww.empirical_occupation(g, w, N, seed, chunk_size=width)

    cum = dense_cumulative_rows(g, w)
    total = np.zeros(g.n, dtype=np.int64)
    start = 0
    chunk = 0
    while start < N:
        count = min(width, N - start)
        gen = _chunk_rng(seed, chunk)
        pos = [g.v_in] * count
        tr = np.zeros((count, g.n), dtype=np.int64)
        tr[:, g.v_in] = 1
        active = list(range(count))
        while active:
            u = gen.random(len(active))
            still = []
            for j, i in enumerate(active):
                nxt = int(np.searchsorted(cum[pos[i]], u[j], side="right"))
                tr[i, nxt] += 1
                pos[i] = nxt
                if nxt != g.v_out:
                    still.append(i)
            active = still
        total += tr.sum(axis=0)
        start += count
        chunk += 1
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
    # variance 2, i.e. N * stderr**2 ~ 2 beyond the mean the other tests see.
    g = path_instance(3)
    N = 40_000
    vec = ww.empirical_occupation(g, ww.derived_weights(g, np.ones(3)), N, seed=42)
    var = N * vec.stderr[1] ** 2
    # The sample variance has variance (mu4 - sigma^4) / N = (38 - 4) / N.
    assert abs(var - 2.0) <= 4.0 * np.sqrt(34.0 / N)


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


def test_chunk_engine_step_limit():
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    with pytest.raises(StepLimitExceeded):
        _simulate_chunk((_neighbour_tables(g, w), g.v_in, g.v_out, 0, 0, 64, 1))


def dense_lockstep_chunk(cum, v_in, v_out, seed, chunk_index, count):
    """Lockstep loop over dense (n, n) cumulative rows, O(n) work per walk
    and step: the reference the chunk engine must match bit for bit."""
    n = cum.shape[0]
    gen = _chunk_rng(seed, chunk_index)
    tr = np.zeros((count, n), dtype=np.int64)
    tr[:, v_in] = 1
    pos = np.full(count, v_in, dtype=np.int64)
    active = np.arange(count)
    while active.size:
        u = gen.random(active.size)
        rows = cum[pos[active]]
        nxt = (u[:, None] >= rows).sum(axis=1)
        tr[active, nxt] += 1
        pos[active] = nxt
        active = active[nxt != v_out]
    return tr.sum(axis=0), (tr * tr).sum(axis=0)


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
    # Some such weights trap walks for millions of steps; the dense loop
    # replays every step in Python, so keep the expected walk short.
    assume(ww.expected_occupation_fixed_point(g, w).values.sum() <= 2000)
    seed = draw(st.integers(0, 2**32 - 1))
    chunk_index = draw(st.integers(0, 1000))
    count = draw(st.sampled_from([1, 7, 64]))
    return g, w, seed, chunk_index, count


@settings(max_examples=60, deadline=None)
@given(chunk_cases())
def test_chunk_engine_matches_dense_lockstep_loop(case):
    g, w, seed, chunk_index, count = case
    want = dense_lockstep_chunk(
        dense_cumulative_rows(g, w), g.v_in, g.v_out, seed, chunk_index, count
    )
    # The chunk's total visit count bounds its longest walk, so a sampler
    # that strays from the dense walks stops here instead of running on.
    step_limit = int(want[0].sum())
    got = _simulate_chunk(
        (_neighbour_tables(g, w), g.v_in, g.v_out, seed, chunk_index, count, step_limit)
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


# Pins stream version 2 (one uniform per active walk and step): the digest of
# empirical_occupation(grid4x4, N=1000, seed=2024, chunk_size=96), computed by
# summing dense_lockstep_chunk over the run's 11 chunks, as
# test_golden_digest_matches_dense_reference does, not by the library.
GRID4X4_DIGEST = "33d0174d54f840cc18ef0e4bcfc31c81299187d1c95ec6808fdbc43dfe23e0e6"


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
        s, q = dense_lockstep_chunk(cum, g.v_in, g.v_out, 2024, chunk, min(width, N - start))
        sum_tr += s
        sum_sq += q
    var = (sum_sq.astype(float) - sum_tr.astype(float) ** 2 / N) / (N - 1)
    stderr = np.sqrt(np.maximum(var, 0.0) / N)
    assert occupation_digest(sum_tr / N, stderr) == GRID4X4_DIGEST


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
