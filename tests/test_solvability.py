"""Walk enumeration, the arc-flow hull and relint membership (checked
against the arc-flow LP), closed-form solvers, and reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walkweights as ww
from synth import (
    complete_instance,
    cycle_instance,
    path_instance,
    petersen_instance,
    random_rho,
    random_tree,
    tau_of,
)
from walkweights import solvability
from walkweights.errors import CapTooSmall, InvalidTarget, Irreducible, NotInPsi
from walkweights.graph_core import _bfs_depths
from walkweights.occupation import make_walk_trace
from walkweights.solvability import detect_family, enumerate_proper_walks


def single_edge():
    return ww.build_graph(2, [(0, 1)], v_in=1, v_out=0)


# -- traces and enumeration -----------------------------------------------------


def test_trace_vector_examples():
    g = single_edge()
    assert make_walk_trace(g, [1, 0]).trace.tolist() == [1, 1]
    g = path_instance(3)
    walk = make_walk_trace(g, [2, 1, 2, 1, 0])
    assert walk.trace.tolist() == [1, 2, 2]


def eta_walk(g, j, k):
    """Direct descent on a path with k extra back-steps at position j.

    Path positions are 1-based from v_out; with ids 0..n-1 ordered from
    v_out, position j is vertex j-1.
    """
    n = g.n
    seq = list(range(n - 1, j - 1, -1))          # v_n down to v_{j+1}
    seq += [j - 1, j] * k                        # k back-steps at j
    seq += list(range(j - 1, -1, -1))            # v_j down to v_1
    return make_walk_trace(g, seq)


@pytest.mark.parametrize("j,k", [(2, 1), (2, 3), (3, 2), (4, 5)])
def test_eta_walk_trace_identity(j, k):
    # trace of the k-fold back-step walk is k*(e_j + e_{j+1}) + all-ones
    n = 6
    g = path_instance(n)
    tr = eta_walk(g, j, k).trace
    want = np.ones(n, dtype=int)
    want[j - 1] += k
    want[j] += k
    assert tr.tolist() == want.tolist()


def test_enumerate_single_edge():
    walks = enumerate_proper_walks(single_edge(), 5)
    assert [w.vertices for w in walks] == [(1, 0)]


def test_enumerate_p3_cap4():
    walks = enumerate_proper_walks(path_instance(3), 4)
    assert [w.vertices for w in walks] == [(2, 1, 0), (2, 1, 2, 1, 0)]


def test_enumerate_k3_cap2():
    walks = enumerate_proper_walks(complete_instance(3), 2)
    assert [w.vertices for w in walks] == [(1, 0), (1, 2, 0)]


def test_enumerate_cap_too_small():
    with pytest.raises(CapTooSmall):
        enumerate_proper_walks(path_instance(4), 2)


def test_bipartite_hyperplane_exact():
    for g in (path_instance(4), cycle_instance(6)):
        c = g.bipartition
        walks = enumerate_proper_walks(g, 10)
        values = {int(c @ w.trace) for w in walks}
        assert len(values) == 1


# -- hull dimension ---------------------------------------------------------------


def test_hull_dimension_examples():
    assert ww.hull_dimension(single_edge()) == 0
    assert ww.hull_dimension(path_instance(3)) == 1
    assert ww.hull_dimension(complete_instance(3)) == 2


def test_hull_dimension_lemma_small_cases():
    for g in (path_instance(4), path_instance(5), cycle_instance(4),
              cycle_instance(6)):
        assert ww.hull_dimension(g) == g.n - 2  # bipartite
    for g in (cycle_instance(5), complete_instance(4), complete_instance(5)):
        assert ww.hull_dimension(g) == g.n - 1  # non-bipartite


def test_arc_flow_hull_matches_walk_enumeration():
    # Oracle: the traces of all proper walks of length <= 2n span the hull
    # on every connected graph with n <= 4, for every (v_in, v_out) pair.
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    rng = np.random.default_rng(32)
    checked = 0
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n < 2 or n > 4 or not nx.is_connected(G):
            continue
        for v_in in range(n):
            for v_out in range(n):
                if v_in == v_out:
                    continue
                g = ww.build_graph(n, list(G.edges), v_in=v_in, v_out=v_out)
                traces = np.array(sorted(
                    {tuple(w.trace) for w in enumerate_proper_walks(g, 2 * n)}
                ), dtype=float)
                rank = np.linalg.matrix_rank(traces[1:] - traces[0])
                assert ww.hull_dimension(g) == rank, (sorted(G.edges), v_in, v_out)
                lam = rng.uniform(0.1, 1.0, len(traces))
                mix = lam @ traces / lam.sum()
                assert ww.relint_membership(g, mix).status == "relative_interior"
                for tr in traces:
                    assert ww.relint_membership(g, tr).status != "outside_hull"
                checked += 1
    assert checked == 86


@pytest.mark.parametrize("v_in", [0, 3, 4, 5, 6])
def test_hull_dimension_with_cut_v_out(v_in):
    # v_out = 2 cuts vertex 1 off, so walks reach 5 vertices, and the odd
    # cycles 0-2-3 and 2-3-5 through v_out leave no parity hyperplane: the
    # hull has dimension 5, one less than the vertices besides v_out.
    edges = [(0, 2), (0, 3), (1, 2), (2, 3), (2, 5), (3, 4), (3, 5), (5, 6)]
    g = ww.build_graph(7, edges, v_in=v_in, v_out=2)
    traces = np.array([w.trace for w in enumerate_proper_walks(g, 8)], dtype=float)
    rank = np.linalg.matrix_rank(traces[1:] - traces[0])
    assert ww.hull_dimension(g) == rank == 5


# -- relint membership ---------------------------------------------------------------


def test_relint_p3_interior():
    res = ww.relint_membership(path_instance(3), [1.0, 2.0, 2.0])
    assert res.member and res.status == "relative_interior"
    assert res.certificate > 0


def test_relint_p3_boundary():
    res = ww.relint_membership(path_instance(3), [1.0, 1.0, 1.0])
    assert not res.member and res.status == "boundary"


def test_relint_p3_off_hyperplane():
    res = ww.relint_membership(path_instance(3), [1.0, 2.0, 3.0])
    assert not res.member and res.status == "outside_hull"


def test_relint_necessity_on_forward_maps():
    rng = np.random.default_rng(31)
    graphs = [path_instance(4), complete_instance(4), cycle_instance(4),
              random_tree(5, rng)]
    for g in graphs:
        r = tau_of(g, random_rho(g, rng))
        assert ww.relint_membership(g, r).member


def test_relint_long_walk_targets():
    for g, rho in ((path_instance(3), [1.0, 1.0, 13.0]),
                   (path_instance(4), [1.0, 1.0, 6.0, 6.0]),
                   (cycle_instance(4), [1.0, 1.0, 20.0, 1.0])):
        r = tau_of(g, rho)
        assert r.sum() - 1 > 8 * g.n  # expected walk length beyond any 8n cap
        res = ww.relint_membership(g, r)
        assert res.member and res.status == "relative_interior"


def test_relint_rejects_off_manifold_targets():
    g = cycle_instance(4)
    r = tau_of(g, [1.0, 1.0, 20.0, 1.0])
    # r(v_out) != 1, then the bipartite parity hyperplane left.
    for bad in (r * [2.0, 1, 1, 1], r + [0.0, 0.0, 0.5, 0.0]):
        assert ww.relint_membership(g, bad).status == "outside_hull"
    # Mass on vertex 0, which no walk from 2 reaches before absorption at 1.
    g = ww.build_graph(3, [(0, 1), (1, 2)], v_in=2, v_out=1)
    assert ww.relint_membership(g, [0.5, 1.0, 1.0]).status == "outside_hull"
    assert ww.relint_membership(g, [0.0, 1.0, 1.0]).status == "relative_interior"


def test_relint_certificate_is_exact_below_lp_tolerance():
    # A chain occupation whose leaf 6 has r = 8.1e-10: its one arc 6 -> 2
    # carries exactly r(6), so t* = r(6) <= RELINT_CERT_TOL.  HiGHS, feasible
    # to 1e-7, certifies t = 6.0e-8 and calls the point relative_interior.
    edges = [(0, 1), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (2, 6)]
    g = ww.build_graph(7, edges, v_in=1, v_out=3)
    r = [1.2990257199294637, 2.29930321019016, 6.259719716570801e-06, 1.0,
         0.0002836895238064921, 5.964364587541797e-08, 8.129604613108779e-10]
    res = ww.relint_membership(g, r)
    assert res.status == "boundary"
    assert res.certificate == pytest.approx(r[6], rel=1e-12)


def test_relint_target_entries():
    g = ww.build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)], v_in=3, v_out=0)
    r = tau_of(g, [1.0, 2.0, 0.5, 1.5]).copy()
    r[2] = -0.5
    assert ww.relint_membership(g, r).status == "outside_hull"
    r[2] = float("nan")
    with pytest.raises(InvalidTarget, match="vertex 2"):
        ww.relint_membership(g, r)
    with pytest.raises(NotInPsi):
        solvability.solve_path(path_instance(3), [1.0, -0.5, 2.0])


# -- existence on every small graph ---------------------------------------------------


def chain_occupation(g, rng):
    """Occupation vector of a walk from v_in whose arc probabilities out of
    each vertex are Dirichlet(0.7), not the weight-induced ones: 2|E| - n
    degrees of freedom against the forward map's n - 1."""
    P = np.zeros((g.n, g.n))
    for v in range(g.n):
        if v != g.v_out:
            P[v, list(g.neighbors[v])] = rng.dirichlet(np.full(len(g.neighbors[v]), 0.7))
    free = [v for v in range(g.n) if v != g.v_out]
    r = np.ones(g.n)
    r[free] = np.linalg.solve(
        (np.eye(g.n) - P)[np.ix_(free, free)].T, (np.arange(g.n) == g.v_in)[free]
    )
    return r


def test_existence_on_every_small_graph():
    # The existence conjecture (see the module docstring of solvability):
    # every relative-interior target is the image of positive weights.
    # Every connected graph with n <= 5 and every (v_in, v_out) pair whose
    # v_out leaves the rest connected: 428 cases.  The tolerance is relative,
    # since an absolute one can sit below the forward solve's rounding.
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    rng = np.random.default_rng(43)
    checked = 0
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n < 2 or n > 5 or not nx.is_connected(G):
            continue
        for v_out in range(n):
            if not nx.is_connected(G.subgraph(set(G) - {v_out})):
                continue
            for v_in in set(G) - {v_out}:
                g = ww.build_graph(n, list(G.edges), v_in=v_in, v_out=v_out)
                r = chain_occupation(g, rng)
                case = (sorted(G.edges), v_in, v_out)
                assert ww.relint_membership(g, r).status == "relative_interior", case
                cfg = ww.ReconstructionConfig(cost_tol=(1e-10 * r.max()) ** 2)
                res = ww.reconstruct_weights(g, r, cfg)
                tau = ww.expected_occupation_fixed_point(g, res.weights).values
                assert res.converged, case
                assert np.abs(tau - r).max() <= 1e-9 * r.max(), case
                checked += 1
    assert checked == 428


# -- relint against the arc-flow LP ---------------------------------------------------


def relint_lp_oracle(g, r):
    """(status, certificate) of the relint LP, solved by HiGHS.

    Maximizes the smallest flow t over flows x = y + t, y >= 0, on the arcs
    leaving the vertices a walk reaches before v_out, with arrivals(v)
    = r(v) - [v = v_in] at every vertex and departures(v) = r(v) at every
    v != v_out; HiGHS decides feasibility to 1e-7.
    """
    r = np.asarray(r, dtype=float)
    reach = sorted(_bfs_depths(g.neighbors, g.v_in, skip=g.v_out))
    arcs = np.array([(u, v) for u in reach for v in g.neighbors[u]])
    cols = np.arange(len(arcs))
    head = np.zeros((g.n, len(arcs)))
    tail = np.zeros((g.n, len(arcs)))
    head[arcs[:, 1], cols] = 1.0
    tail[arcs[:, 0], cols] = 1.0
    keep = np.arange(g.n) != g.v_out
    flow = np.vstack([head, tail[keep]])
    arrivals = r.copy()
    arrivals[g.v_in] -= 1.0
    A_eq = np.hstack([flow, flow.sum(axis=1, keepdims=True)])
    c = np.zeros(A_eq.shape[1])
    c[-1] = -1.0
    res = solvability.linprog(
        c, A_eq=A_eq, b_eq=np.concatenate([arrivals, r[keep]]), method="highs"
    )
    if res.status == 2:
        return "outside_hull", float("nan")
    assert res.status == 0, res.message
    t = float(res.x[-1])
    return ("relative_interior" if t > solvability.RELINT_CERT_TOL else "boundary"), t


def assert_matches_lp(g, r, case):
    got = ww.relint_membership(g, r)
    status, cert = relint_lp_oracle(g, r)
    assert got.status == status, (case, list(r), got, cert)
    if status != "outside_hull":
        assert abs(got.certificate - cert) <= 1e-7 * max(1.0, np.abs(r).max()), case


def perturbed_image(g, rng):
    image = tau_of(g, 10.0 ** rng.uniform(-1.0, 1.0, g.n))
    out = image * np.exp(rng.normal(0.0, 0.1, g.n))
    out[g.v_out] = 1.0
    return image, out


def test_relint_matches_lp_on_every_small_graph():
    # Every connected graph with n <= 5 and every pair whose graph minus
    # v_out is connected (428 cases): an image, a perturbed image (mostly
    # outside a bipartite hull's hyperplane) and a chain occupation.  The
    # distinct traces of walks of at most n steps, mostly boundary points,
    # on n <= 4 with cut v_out included.
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    rng = np.random.default_rng(20)
    checked = traces = 0
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n < 2 or n > 5 or not nx.is_connected(G):
            continue
        for v_out in range(n):
            for v_in in set(G) - {v_out}:
                g = ww.build_graph(n, list(G.edges), v_in=v_in, v_out=v_out)
                case = (sorted(G.edges), v_in, v_out)
                if g.out_removed_connected:
                    for r in (*perturbed_image(g, rng), chain_occupation(g, rng)):
                        assert_matches_lp(g, r, case)
                    checked += 1
                if n <= 4:
                    for tr in {tuple(w.trace) for w in enumerate_proper_walks(g, n)}:
                        assert_matches_lp(g, np.array(tr, dtype=float), case)
                        traces += 1
    assert (checked, traces) == (428, 397)


@st.composite
def sparse_graphs(draw):
    """A random tree on n <= 8 vertices plus up to three chords, and a random
    (v_in, v_out).  The chords are few because walk enumeration to n + 2
    steps grows with the degrees."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), max_size=3)))
    v_in, v_out = draw(st.permutations(range(n)))[:2]
    return ww.build_graph(n, sorted(edges), v_in=v_in, v_out=v_out)


@settings(max_examples=60, deadline=None)
@given(sparse_graphs(), st.integers(0, 2**32 - 1))
def test_relint_matches_lp_on_trace_mixtures(g, seed):
    # Positive mixtures of a random subset of the traces give boundary
    # points (few traces, the likelier draw) and relative-interior points
    # (many); perturbed images are mostly outside a bipartite hull.
    rng = np.random.default_rng(seed)
    traces = np.array([w.trace for w in enumerate_proper_walks(g, g.n + 2)], dtype=float)
    size = int(len(traces) ** rng.random() ** 2)  # 1..len(traces), mostly few
    subset = traces[rng.choice(len(traces), size, replace=False)]
    lam = rng.uniform(0.1, 1.0, size)
    assert_matches_lp(g, lam @ subset / lam.sum(), "mixture")
    if g.out_removed_connected:
        assert_matches_lp(g, perturbed_image(g, rng)[1], "perturbed image")


# -- path solver -----------------------------------------------------------------------


def test_solve_path_boundary_rejected():
    with pytest.raises(NotInPsi, match=r"^path base case: alpha_2 = 0\.0 is not positive"):
        solvability.solve_path(path_instance(3), [1.0, 1.0, 1.0])


def test_solve_path_inconsistent_rejected():
    with pytest.raises(NotInPsi, match="^path base case: consistency"):
        solvability.solve_path(path_instance(4), [1.0, 2.0, 3.0, 5.0])


def test_solve_path_wrong_shape():
    with pytest.raises(ValueError, match="not a path"):
        solvability.solve_path(complete_instance(3), [1.0, 2.0, 2.0])


def test_solve_path_examples():
    g = path_instance(3)
    w = solvability.solve_path(g, [1.0, 2.0, 2.0])
    assert np.abs(w.rho - 1.0).max() <= 1e-12
    g = path_instance(4)
    w = solvability.solve_path(g, [1.0, 2.0, 3.0, 2.0])
    assert w.rho == pytest.approx([1.0, 1.0, 1.0, 0.5], abs=1e-12)


def test_solve_path_single_edge():
    g = single_edge()
    w = solvability.solve_path(g, [1.0, 1.0])
    assert w.rho.tolist() == [1.0, 1.0]
    with pytest.raises(NotInPsi):
        solvability.solve_path(g, [1.0, 1.5])


def test_solve_path_random_cones():
    rng = np.random.default_rng(32)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        g = path_instance(n)
        alphas = rng.uniform(0.0, 5.0, n - 2) + 1e-6
        r = np.ones(n)
        for j, a in enumerate(alphas, start=2):
            r[j - 1] += a
            r[j] += a
        w = solvability.solve_path(g, r)
        assert np.abs(tau_of(g, w.rho) - r).max() <= 1e-9


@pytest.mark.parametrize("n,base", [(5, 100.0), (12, 3.0)])
def test_solve_path_long_walk_targets(n, base):
    # r reaches 1e12 and 4.4e9: the consistency equation carries rounding
    # of order r(v_in) * 1e-16, so an absolute 1e-9 would reject them.
    g = path_instance(n)
    rho = base ** np.arange(n)
    w = solvability.solve_path(g, tau_of(g, rho))
    P_true = ww.transition_matrix(g, ww.derived_weights(g, rho))
    assert np.abs(ww.transition_matrix(g, w) - P_true).max() <= 1e-7


# -- complete-graph solver ----------------------------------------------------------------


def test_solve_complete_uniform_k3():
    g = complete_instance(3)
    w = solvability.solve_complete(g, [1.0, 4.0 / 3.0, 2.0 / 3.0])
    assert np.abs(w.rho - 1.0).max() <= 1e-9


def test_solve_complete_k3_worked_example():
    # beta = (0.25, 0.35, 0.40): r2 = (1 + 1.4)(0.65), r3 = 0.4*0.6/0.25
    g = complete_instance(3)
    w = solvability.solve_complete(g, [1.0, 1.56, 0.96])
    assert w.rho == pytest.approx([1.0, 1.4, 1.6], abs=1e-9)


def test_solve_complete_upper_bound_rejected():
    g = complete_instance(4)
    with pytest.raises(NotInPsi, match="^complete base case: upper"):
        solvability.solve_complete(g, [1.0, 5.0, 1.0, 1.0])


def test_solve_complete_wrong_shape():
    with pytest.raises(ValueError, match="not complete"):
        solvability.solve_complete(path_instance(3), [1.0, 2.0, 2.0])


def test_solve_complete_lower_bound_rejected():
    g = complete_instance(4)
    with pytest.raises(NotInPsi, match="lower"):
        solvability.solve_complete(g, [1.0, 0.4, 3.0, 0.2])


def test_solve_complete_rejects_in_target_at_most_one():
    # r(v_in) = 0.8 lies inside both bounds (0.5 < 0.8 < 1.5), but a root
    # has beta_in > 0 only when r(v_in) > 1.
    g = ww.build_graph(3, [(0, 1), (0, 2), (1, 2)], v_in=2, v_out=0)
    with pytest.raises(NotInPsi, match="must exceed 1"):
        solvability.solve_complete(g, [1.0, 0.5, 0.8])


def test_solve_complete_large_beta_branch():
    # One beta_j above 1/2 exercises the addition branch of the inversion.
    g = complete_instance(4)
    beta = np.array([0.1, 0.2, 0.6, 0.1])
    r = _complete_target(g, beta)
    w = solvability.solve_complete(g, r)
    assert np.abs(tau_of(g, w.rho) - r).max() <= 1e-8


def test_solve_complete_beta_near_half():
    # beta(2) is within 1e-4 of 1/2, where beta(2) is a square-root
    # function of beta(v_out) with infinite slope.
    g = complete_instance(5)
    rho = np.array([0.21287517, 0.24035844, 1.0, 0.30505279, 0.24144182])
    w = solvability.solve_complete(g, tau_of(g, rho))
    assert np.abs(w.rho - rho / rho[0]).max() <= 1e-9


def _complete_target(g, beta):
    r = np.empty(g.n)
    b1, b2 = beta[g.v_out], beta[g.v_in]
    r[g.v_out] = 1.0
    r[g.v_in] = (1 + b2 / b1) * (1 - b2)
    for j in range(g.n):
        if j not in (g.v_out, g.v_in):
            r[j] = beta[j] * (1 - beta[j]) / b1
    return r


def test_solve_complete_random_simplex_round_trips():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        g = complete_instance(n)
        beta = rng.uniform(0.05, 1.0, n)
        beta /= beta.sum()
        r = _complete_target(g, beta)
        # the displayed formulas agree with the fixed point of M
        assert np.abs(tau_of(g, beta) - r).max() <= 1e-10
        w = solvability.solve_complete(g, r)
        assert np.abs(tau_of(g, w.rho) - r).max() <= 1e-8


# -- reduction driver --------------------------------------------------------------------------


def pendant_at_v_in():
    # Single edge out(0) - in(1) plus a pendant 2 at v_in.
    return ww.build_graph(3, [(0, 1), (1, 2)], v_in=1, v_out=0)


def test_solve_reducible_pendant_unit_example():
    g = pendant_at_v_in()
    w = ww.solve_reducible(g, [1.0, 2.0, 1.0])
    assert w.rho == pytest.approx([1.0, 1.0, 1.0])
    assert tau_of(g, w.rho) == pytest.approx([1.0, 2.0, 1.0], abs=1e-12)


def test_solve_reducible_pendant_half_example():
    g = pendant_at_v_in()
    w = ww.solve_reducible(g, [1.0, 1.5, 0.5])
    assert w.rho[2] == pytest.approx(0.5)
    assert tau_of(g, w.rho) == pytest.approx([1.0, 1.5, 0.5], abs=1e-12)


def test_solve_reducible_pendant_alpha_range():
    # The strip needs 0 < r(pendant) < r(neighbour).
    g = pendant_at_v_in()
    for r in ([1.0, 2.0, 2.0], [1.0, 2.0, 0.0]):
        with pytest.raises(NotInPsi, match="pendant strip at 2"):
            ww.solve_reducible(g, r)


def four_cycle():
    # out(0) - a(1) - in(2) - b(3) - out
    return ww.build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], v_in=2, v_out=0)


def merged_path():
    # The four-cycle with twins 1 and 3 merged: out(0) - m(1) - in(2).
    return ww.build_graph(3, [(0, 1), (1, 2)], v_in=2, v_out=0)


def test_reduce_twins_four_cycle():
    # Twins 1 and 3 merge into the path target (1, 2, 2), solved by unit
    # weights, and split evenly.
    g = four_cycle()
    r = np.array([1.0, 1.0, 2.0, 1.0])
    w_red = solvability.solve_path(merged_path(), [1.0, 2.0, 2.0])
    assert w_red.rho == pytest.approx([1.0, 1.0, 1.0])
    rho = ww.solve_reducible(g, r).rho
    assert rho[1] + rho[3] == pytest.approx(w_red.rho[1])
    assert rho == pytest.approx([1.0, 0.5, 1.0, 0.5])
    assert tau_of(g, rho) == pytest.approx(r, abs=1e-12)


def test_reduce_twins_uneven_split():
    # The split follows r(1) : r(3) = 0.25 : 0.75.
    g = four_cycle()
    r = np.array([1.0, 0.5, 2.0, 1.5])
    w_red = solvability.solve_path(merged_path(), [1.0, 2.0, 2.0])
    rho = ww.solve_reducible(g, r).rho
    assert rho[1] == pytest.approx(0.25 * w_red.rho[1])
    assert rho[3] == pytest.approx(0.75 * w_red.rho[1])
    assert tau_of(g, rho) == pytest.approx(r, abs=1e-12)


def test_solve_reducible_four_cycle_example():
    g = four_cycle()
    w = ww.solve_reducible(g, [1.0, 1.0, 2.0, 1.0])
    assert w.rho == pytest.approx([1.0, 0.5, 1.0, 0.5])


def test_solve_reducible_trees_round_trip():
    rng = np.random.default_rng(34)
    for k in range(11):
        n = int(rng.integers(3, 11)) if k < 10 else 400
        g = random_tree(n, rng)
        r = tau_of(g, random_rho(g, rng))
        w = ww.solve_reducible(g, r)
        assert np.abs(tau_of(g, w.rho) - r).max() <= 1e-8


def test_solve_reducible_tests_the_base_case_once(monkeypatch):
    # Stripping all pendants before the base-case test leaves one call,
    # however many pendants there are; the closed form reads the path order
    # off the distances without testing the shape again.
    calls = []
    path_order = solvability._path_order

    def counted(adj, g):
        calls.append(len(adj))
        return path_order(adj, g)

    monkeypatch.setattr(solvability, "_path_order", counted)
    rng = np.random.default_rng(37)
    g = random_tree(60, rng)
    ww.solve_reducible(g, tau_of(g, random_rho(g, rng)))
    assert len(calls) == 1, calls


def test_solve_reducible_never_calls_the_shape_checked_solvers(monkeypatch):
    # One engine: solve_path and solve_complete sit in front of it, never
    # behind it, whether or not anything is reduced.
    def refuse(g, r):
        raise AssertionError("solve_reducible called a shape-checked solver")

    monkeypatch.setattr(solvability, "solve_path", refuse)
    monkeypatch.setattr(solvability, "solve_complete", refuse)
    rng = np.random.default_rng(38)
    tail = [(0, 1), (0, 2), (1, 2), (2, 3)]  # K3 with a pendant at vertex 2
    for g in (path_instance(5), complete_instance(4), random_tree(12, rng),
              ww.build_graph(4, tail, v_in=1, v_out=0)):
        r = tau_of(g, random_rho(g, rng))
        assert np.abs(tau_of(g, ww.solve_reducible(g, r).rho) - r).max() <= 1e-8


def test_solve_reducible_round_trips_once_per_graph_solved(monkeypatch):
    # An unreduced path is checked on g alone; a reduced tree on its
    # residual path and then on g.
    calls = []
    fixed_point = solvability.expected_occupation_fixed_point

    def counted(g, w):
        calls.append(g.n)
        return fixed_point(g, w)

    monkeypatch.setattr(solvability, "expected_occupation_fixed_point", counted)
    g = path_instance(4)
    ww.solve_reducible(g, [1.0, 2.0, 3.0, 2.0])
    assert calls == [4]
    calls.clear()
    g = pendant_at_v_in()
    ww.solve_reducible(g, [1.0, 2.0, 1.0])
    assert calls == [2, 3]


def test_residual_complete_names_the_original_vertex():
    # K4 on {0, 1, 3, 4} with a pendant 2 at vertex 3: the residual is
    # re-indexed, but the rejection names vertex 4 of g.
    edges = [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (3, 4), (2, 3)]
    g = ww.build_graph(5, edges, v_in=1, v_out=0)
    with pytest.raises(NotInPsi, match=r"^complete base case: r\(4\) must be positive$"):
        ww.solve_reducible(g, [1.0, 2.0, 0.5, 1.5, 0.0])


def test_solve_reducible_delegates_to_complete():
    rng = np.random.default_rng(35)
    g = complete_instance(5)
    beta = rng.uniform(0.1, 1.0, 5)
    beta /= beta.sum()
    r = tau_of(g, beta)
    w = ww.solve_reducible(g, r)
    assert np.abs(tau_of(g, w.rho) - r).max() <= 1e-8


def test_solve_reducible_star_with_pendants():
    # Star plus a tail mixes pendant depths.
    g = ww.build_graph(
        6, [(0, 1), (1, 2), (1, 3), (1, 4), (4, 5)], v_in=2, v_out=0
    )
    rng = np.random.default_rng(36)
    r = tau_of(g, random_rho(g, rng))
    w = ww.solve_reducible(g, r)
    assert np.abs(tau_of(g, w.rho) - r).max() <= 1e-8


@st.composite
def reducible_cases(draw):
    """A tree (n = 2..12), K_{2,m} (m = 2..6) or a complete graph with a
    pendant tail, and hidden weights log-uniform in [0.1, 10]."""
    family = draw(st.sampled_from(["tree", "k2m", "complete_tail"]))
    if family == "tree":
        n = draw(st.integers(2, 12))
        g = random_tree(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    elif family == "k2m":
        # Sides {0, 1} and {2..m+1}.  Terminals on opposite sides leave an
        # irreducible four-cycle, so both sit on one side.
        m = draw(st.integers(2, 6))
        edges = [(a, b) for a in (0, 1) for b in range(2, m + 2)]
        v_out, v_in = draw(st.sampled_from([(0, 1), (2, 3)]))
        g = ww.build_graph(m + 2, edges, v_in=v_in, v_out=v_out)
    else:
        # K_k with a tail of t vertices hung off a vertex other than v_out,
        # so that the graph minus v_out stays connected.
        k, t = draw(st.integers(3, 5)), draw(st.integers(1, 4))
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        tail = [draw(st.integers(1, k - 1))] + list(range(k, k + t))
        edges += list(zip(tail, tail[1:]))
        g = ww.build_graph(k + t, edges, v_in=1, v_out=0)
    log_weights = st.lists(st.floats(-1.0, 1.0), min_size=g.n, max_size=g.n)
    return g, 10.0 ** np.array(draw(log_weights))


@settings(max_examples=100, deadline=None)
@given(reducible_cases())
def test_solve_reducible_recovers_the_walk(case):
    # Compared through the transition matrix, which bipartite rescalings
    # of the weights leave unchanged.
    g, hidden = case
    r = tau_of(g, hidden)
    w = ww.solve_reducible(g, r)
    want = ww.transition_matrix(g, ww.derived_weights(g, hidden))
    assert np.abs(ww.transition_matrix(g, w) - want).max() <= 1e-8
    assert ww.relint_membership(g, r).status == "relative_interior"


def test_solve_reducible_long_walk_tree():
    # The target reaches 1.2e4, so the round trip's rounding exceeds any
    # absolute 1e-9 tolerance.
    edges = [(0, 5), (0, 7), (1, 2), (1, 3), (1, 8), (4, 5), (5, 10), (6, 7),
             (6, 8), (6, 9)]
    g = ww.build_graph(11, edges, v_in=5, v_out=2)
    hidden = ww.derived_weights(g, [1, 0.1, 1, 1, 1, 1, 10, 10, 0.1, 1, 1])
    r = tau_of(g, hidden.rho)
    assert r.max() > 1e4
    w = ww.solve_reducible(g, r)
    assert np.abs(ww.transition_matrix(g, w) - ww.transition_matrix(g, hidden)).max() <= 1e-8


def test_solve_reducible_petersen_irreducible():
    g = petersen_instance()
    with pytest.raises(Irreducible):
        ww.solve_reducible(g, np.ones(10))


def test_solve_reducible_stage_tagged_rejection():
    # Pendant leaf demanding more visits than its neighbor cannot be in Psi.
    g = ww.build_graph(4, [(0, 1), (1, 2), (1, 3)], v_in=2, v_out=0)
    with pytest.raises(NotInPsi, match="pendant"):
        ww.solve_reducible(g, [1.0, 2.0, 3.0, 2.5])
    # On the 4-cycle 1 and 3 are twins (both see 0 and 2), and a twin with
    # target 0 cannot be in Psi.
    with pytest.raises(NotInPsi, match=r"twin merge \(1,3\)"):
        ww.solve_reducible(four_cycle(), [1.0, 0.0, 2.0, 1.0])


def test_solve_reducible_base_case_tagged():
    g = path_instance(3)
    with pytest.raises(NotInPsi, match="path base case"):
        ww.solve_reducible(g, [1.0, 1.0, 1.0])


def test_detect_family():
    assert detect_family(path_instance(4)) == "path"
    assert detect_family(complete_instance(4)) == "complete"
    assert detect_family(petersen_instance()) == "other"
    assert detect_family(single_edge()) == "path"


def test_conjecture_probe_on_reducible_graphs():
    # Empirical evidence only: wherever the exact solver applies, a
    # relative-interior verdict goes with solver success and boundary
    # targets are rejected by both routes.
    rng = np.random.default_rng(37)
    graphs = [path_instance(4), complete_instance(4), four_cycle(),
              random_tree(6, rng)]
    for g in graphs:
        r = tau_of(g, random_rho(g, rng))
        assert ww.relint_membership(g, r).member
        w = ww.solve_reducible(g, r)
        assert np.abs(tau_of(g, w.rho) - r).max() <= 1e-8
    # Boundary of the path cone: alpha_2 = 0.
    g = path_instance(3)
    boundary = [1.0, 1.0, 1.0]
    assert not ww.relint_membership(g, boundary).member
    with pytest.raises(NotInPsi):
        ww.solve_reducible(g, boundary)
