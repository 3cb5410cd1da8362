"""Walk enumeration, the arc-flow hull and relint membership, closed-form
solvers, and reductions."""

import numpy as np
import pytest

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
from walkweights.errors import (
    AlphaOutOfRange,
    CapTooSmall,
    Irreducible,
    NotInPsi,
    NotTwins,
)


def single_edge():
    return ww.build_graph(2, [(0, 1)], v_in=1, v_out=0)


# -- traces and enumeration -----------------------------------------------------


def test_trace_vector_examples():
    g = single_edge()
    assert ww.trace_vector(ww.make_walk_trace(g, [1, 0])).tolist() == [1, 1]
    g = path_instance(3)
    walk = ww.make_walk_trace(g, [2, 1, 2, 1, 0])
    assert ww.trace_vector(walk).tolist() == [1, 2, 2]


def eta_walk(g, j, k):
    """Direct descent on a path with k extra back-steps at position j.

    Path positions are 1-based from v_out; with ids 0..n-1 ordered from
    v_out, position j is vertex j-1.
    """
    n = g.n
    seq = list(range(n - 1, j - 1, -1))          # v_n down to v_{j+1}
    seq += [j - 1, j] * k                        # k back-steps at j
    seq += list(range(j - 1, -1, -1))            # v_j down to v_1
    return ww.make_walk_trace(g, seq)


@pytest.mark.parametrize("j,k", [(2, 1), (2, 3), (3, 2), (4, 5)])
def test_eta_walk_trace_identity(j, k):
    # trace of the k-fold back-step walk is k*(e_j + e_{j+1}) + all-ones
    n = 6
    g = path_instance(n)
    tr = ww.trace_vector(eta_walk(g, j, k))
    want = np.ones(n, dtype=int)
    want[j - 1] += k
    want[j] += k
    assert tr.tolist() == want.tolist()


def test_enumerate_single_edge():
    walks = ww.enumerate_proper_walks(single_edge(), 5)
    assert [w.vertices for w in walks] == [(1, 0)]


def test_enumerate_p3_cap4():
    walks = ww.enumerate_proper_walks(path_instance(3), 4)
    assert [w.vertices for w in walks] == [(2, 1, 0), (2, 1, 2, 1, 0)]


def test_enumerate_k3_cap2():
    walks = ww.enumerate_proper_walks(complete_instance(3), 2)
    assert [w.vertices for w in walks] == [(1, 0), (1, 2, 0)]


def test_enumerate_cap_too_small():
    with pytest.raises(CapTooSmall):
        ww.enumerate_proper_walks(path_instance(4), 2)


def test_bipartite_hyperplane_exact():
    for g in (path_instance(4), cycle_instance(6)):
        c = g.bipartition
        walks = ww.enumerate_proper_walks(g, 10)
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
                    {tuple(w.trace) for w in ww.enumerate_proper_walks(g, 2 * n)}
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


# -- path solver -----------------------------------------------------------------------


def test_path_decompose_examples():
    g = path_instance(3)
    dec = ww.path_decompose(g, [1.0, 2.0, 2.0])
    assert dec.alphas.tolist() == [1.0]
    g = path_instance(4)
    dec = ww.path_decompose(g, [1.0, 2.0, 3.0, 2.0])
    assert dec.alphas.tolist() == [1.0, 1.0]


def test_path_decompose_boundary_rejected():
    with pytest.raises(NotInPsi):
        ww.path_decompose(path_instance(3), [1.0, 1.0, 1.0])


def test_path_decompose_inconsistent_rejected():
    with pytest.raises(NotInPsi, match="consistency"):
        ww.path_decompose(path_instance(4), [1.0, 2.0, 3.0, 5.0])


def test_path_decompose_wrong_shape():
    with pytest.raises(ValueError):
        ww.path_decompose(complete_instance(3), [1.0, 2.0, 2.0])


def test_solve_path_examples():
    g = path_instance(3)
    w = ww.solve_path(g, [1.0, 2.0, 2.0])
    assert np.abs(w.rho - 1.0).max() <= 1e-12
    g = path_instance(4)
    w = ww.solve_path(g, [1.0, 2.0, 3.0, 2.0])
    assert w.rho == pytest.approx([1.0, 1.0, 1.0, 0.5], abs=1e-12)


def test_solve_path_single_edge():
    g = single_edge()
    w = ww.solve_path(g, [1.0, 1.0])
    assert w.rho.tolist() == [1.0, 1.0]
    with pytest.raises(NotInPsi):
        ww.solve_path(g, [1.0, 1.5])


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
        w = ww.solve_path(g, r)
        assert np.abs(tau_of(g, w.rho) - r).max() <= 1e-9


# -- complete-graph solver ----------------------------------------------------------------


def test_solve_complete_uniform_k3():
    g = complete_instance(3)
    w = ww.solve_complete(g, [1.0, 4.0 / 3.0, 2.0 / 3.0])
    assert np.abs(w.rho - 1.0).max() <= 1e-9


def test_solve_complete_k3_worked_example():
    # beta = (0.25, 0.35, 0.40): r2 = (1 + 1.4)(0.65), r3 = 0.4*0.6/0.25
    g = complete_instance(3)
    w = ww.solve_complete(g, [1.0, 1.56, 0.96])
    assert w.rho == pytest.approx([1.0, 1.4, 1.6], abs=1e-9)


def test_solve_complete_upper_bound_rejected():
    g = complete_instance(4)
    with pytest.raises(NotInPsi, match="upper"):
        ww.solve_complete(g, [1.0, 5.0, 1.0, 1.0])


def test_solve_complete_lower_bound_rejected():
    g = complete_instance(4)
    with pytest.raises(NotInPsi, match="lower"):
        ww.solve_complete(g, [1.0, 0.4, 3.0, 0.2])


def test_solve_complete_large_beta_branch():
    # One beta_j above 1/2 exercises the addition branch of the inversion.
    g = complete_instance(4)
    beta = np.array([0.1, 0.2, 0.6, 0.1])
    r = _complete_target(g, beta)
    w = ww.solve_complete(g, r)
    assert np.abs(tau_of(g, w.rho) - r).max() <= 1e-8


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
        w = ww.solve_complete(g, r)
        assert np.abs(tau_of(g, w.rho) - r).max() <= 1e-8


# -- pendant extension ----------------------------------------------------------------------


def test_extend_pendant_unit_example():
    g = single_edge()
    w = ww.derived_weights(g, np.ones(2))
    r = np.array([1.0, 2.0])  # target after attaching at v_in with alpha = 1
    g2, w2 = ww.extend_pendant(g, w, v=1, alpha=1.0, r=r)
    assert g2.n == 3 and (1, 2) in g2.edges
    assert w2.rho == pytest.approx([1.0, 1.0, 1.0])
    assert tau_of(g2, w2.rho) == pytest.approx([1.0, 2.0, 1.0], abs=1e-12)


def test_extend_pendant_half_example():
    g = single_edge()
    w = ww.derived_weights(g, np.ones(2))
    g2, w2 = ww.extend_pendant(g, w, v=1, alpha=0.5, r=np.array([1.0, 1.5]))
    assert w2.rho[2] == pytest.approx(0.5)
    assert tau_of(g2, w2.rho) == pytest.approx([1.0, 1.5, 0.5], abs=1e-12)


def test_extend_pendant_alpha_range():
    g = single_edge()
    w = ww.derived_weights(g, np.ones(2))
    with pytest.raises(AlphaOutOfRange):
        ww.extend_pendant(g, w, v=1, alpha=2.0, r=np.array([1.0, 2.0]))
    with pytest.raises(AlphaOutOfRange):
        ww.extend_pendant(g, w, v=1, alpha=0.0, r=np.array([1.0, 2.0]))


# -- twin reduction --------------------------------------------------------------------------


def four_cycle():
    # out(0) - a(1) - in(2) - b(3) - out
    return ww.build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], v_in=2, v_out=0)


def test_reduce_twins_four_cycle():
    g = four_cycle()
    r = np.array([1.0, 1.0, 2.0, 1.0])
    g_red, r_red, split = ww.reduce_twins(g, r, v=1, w_vtx=3)
    assert g_red.n == 3
    assert r_red.tolist() == [1.0, 2.0, 2.0]
    assert split.alpha == 0.5
    w_red = ww.solve_path(g_red, r_red)
    rho = split.lift(w_red.rho)
    assert rho == pytest.approx([1.0, 0.5, 1.0, 0.5])
    assert tau_of(g, rho) == pytest.approx(r, abs=1e-12)


def test_reduce_twins_uneven_split():
    g = four_cycle()
    r = np.array([1.0, 0.5, 2.0, 1.5])
    g_red, r_red, split = ww.reduce_twins(g, r, v=1, w_vtx=3)
    assert split.alpha == pytest.approx(0.25)
    w_red = ww.solve_path(g_red, r_red)
    rho = split.lift(w_red.rho)
    assert rho[1] == pytest.approx(0.25 * w_red.rho[1])
    assert rho[3] == pytest.approx(0.75 * w_red.rho[1])
    assert tau_of(g, rho) == pytest.approx(r, abs=1e-12)


def test_reduce_twins_rejects_adjacent():
    g = complete_instance(4)
    with pytest.raises(NotTwins):
        ww.reduce_twins(g, np.ones(4), v=2, w_vtx=3)


def test_reduce_twins_rejects_terminals():
    g = four_cycle()
    with pytest.raises(NotTwins):
        ww.reduce_twins(g, np.ones(4), v=0, w_vtx=2)


# -- reduction driver --------------------------------------------------------------------------


def test_solve_reducible_four_cycle_example():
    g = four_cycle()
    w = ww.solve_reducible(g, [1.0, 1.0, 2.0, 1.0])
    assert w.rho == pytest.approx([1.0, 0.5, 1.0, 0.5])


def test_solve_reducible_trees_round_trip():
    rng = np.random.default_rng(34)
    for _ in range(10):
        n = int(rng.integers(3, 11))
        g = random_tree(n, rng)
        r = tau_of(g, random_rho(g, rng))
        w = ww.solve_reducible(g, r)
        assert np.abs(tau_of(g, w.rho) - r).max() <= 1e-8


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


def test_solve_reducible_petersen_irreducible():
    g = petersen_instance()
    with pytest.raises(Irreducible):
        ww.solve_reducible(g, np.ones(10))


def test_solve_reducible_stage_tagged_rejection():
    # Pendant leaf demanding more visits than its neighbor cannot be in Psi.
    g = ww.build_graph(4, [(0, 1), (1, 2), (1, 3)], v_in=2, v_out=0)
    with pytest.raises(NotInPsi, match="pendant"):
        ww.solve_reducible(g, [1.0, 2.0, 3.0, 2.5])


def test_solve_reducible_base_case_tagged():
    g = path_instance(3)
    with pytest.raises(NotInPsi, match="path base case"):
        ww.solve_reducible(g, [1.0, 1.0, 1.0])


def test_detect_family():
    assert ww.detect_family(path_instance(4)) == "path"
    assert ww.detect_family(complete_instance(4)) == "complete"
    assert ww.detect_family(petersen_instance()) == "other"
    assert ww.detect_family(single_edge()) == "path"


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
