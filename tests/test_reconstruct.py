"""Cost, gradient and likelihood-Hessian routes vs the complex-step oracle,
and the two reconstruction loops."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walkweights as ww
import walkweights.reconstruct
from synth import (
    complete_instance,
    path_instance,
    random_connected_instance,
    random_rho,
    random_tree,
    tau_of,
)
from walkweights.errors import InvalidTarget, NoDescent, SupportMismatch, ZeroVariance
from walkweights.graph_core import laplacians
from walkweights.reconstruct import _likelihood_derivatives, weight_jacobians


def single_edge():
    return ww.build_graph(2, [(0, 1)], v_in=1, v_out=0)


# -- cost ---------------------------------------------------------------------


def test_cost_zero_at_truth():
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    assert ww.cost(g, w, [1.0, 2.0, 2.0]) == 0.0


def test_cost_single_edge_arithmetic():
    g = single_edge()
    w = ww.derived_weights(g, np.ones(2))
    assert ww.cost(g, w, [1.0, 3.0]) == pytest.approx(4.0, abs=1e-15)


def test_cost_ignores_v_out_coordinate():
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    assert ww.cost(g, w, [7.0, 2.0, 2.0]) == 0.0


def test_cost_rejects_zero_support():
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    with pytest.raises(SupportMismatch):
        ww.cost(g, w, [1.0, 0.0, 2.0])


# -- weight jacobians ------------------------------------------------------------


def test_jacobian_single_edge_stated_values():
    g = single_edge()
    w = ww.derived_weights(g, np.ones(2))
    bundle = weight_jacobians(g, w, g.v_in)
    assert bundle.d_tilde_rho.tolist() == [1.0, 1.0]
    assert bundle.d_vol == 2.0


def test_dvol_is_sum_of_dtilde():
    rng = np.random.default_rng(20)
    for _ in range(10):
        g = random_connected_instance(int(rng.integers(2, 8)), rng)
        w = ww.derived_weights(g, random_rho(g, rng))
        for x in range(g.n):
            bundle = weight_jacobians(g, w, x)
            assert bundle.d_vol == pytest.approx(bundle.d_tilde_rho.sum(), rel=1e-12)


@pytest.mark.parametrize("bad", [-1, 3])
def test_vertex_derivatives_reject_vertex_out_of_range(bad):
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    with pytest.raises(ValueError, match=f"x={bad} outside"):
        weight_jacobians(g, w, bad)
    with pytest.raises(ValueError, match=f"x={bad} outside"):
        ww.green_derivative(g, w, ww.spectral_data(g, w), bad)


def fd_of(fn, rho, x, h):
    up = rho.copy()
    up[x] += h
    dn = rho.copy()
    dn[x] -= h
    return (fn(up) - fn(dn)) / (2.0 * h)


def test_jacobian_bundle_matches_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        g = random_connected_instance(n, rng)
        rho = random_rho(g, rng)
        w = ww.derived_weights(g, rho)
        for x in range(g.n):
            h = 1e-5 * max(1.0, rho[x])
            bundle = weight_jacobians(g, w, x)

            def tilde(r):
                return ww.derived_weights(g, r).tilde_rho

            def vol(r):
                return ww.derived_weights(g, r).vol

            def norm_lap(r):
                return laplacians(g, ww.derived_weights(g, r))[2]

            def phi0(r):
                w2 = ww.derived_weights(g, r)
                return np.sqrt(w2.tilde_rho / w2.vol)

            def projector(r):
                v = phi0(r)
                return np.outer(v, v)

            for got, fn in (
                (bundle.d_tilde_rho, tilde),
                (bundle.d_vol, vol),
                (bundle.d_norm_laplacian, norm_lap),
                (bundle.d_phi0, phi0),
                (bundle.d_projector, projector),
            ):
                want = fd_of(fn, rho, x, h)
                scale = max(1.0, float(np.abs(want).max()))
                assert np.abs(np.asarray(got) - want).max() / scale <= 1e-6


@pytest.mark.parametrize("maker", [
    single_edge,
    lambda: path_instance(3),
    lambda: complete_instance(3),
])
def test_green_derivative_matches_finite_differences(maker):
    g = maker()
    rng = np.random.default_rng(22)
    rho = random_rho(g, rng, lo=0.5, hi=2.0)
    w = ww.derived_weights(g, rho)
    spec = ww.spectral_data(g, w)
    for x in range(g.n):
        got = ww.green_derivative(g, w, spec, x)
        h = 1e-5 * max(1.0, rho[x])

        def big_g(r):
            g2w = ww.derived_weights(g, r)
            return ww.spectral_data(g, g2w).bigG

        want = fd_of(big_g, rho, x, h)
        assert np.abs(got - want).max() / max(1.0, np.abs(want).max()) <= 1e-6


# -- full gradient ------------------------------------------------------------------


def test_gradient_zero_at_global_minimum():
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    grad = ww.occupation_gradient(g, w, [1.0, 2.0, 2.0])
    assert np.abs(grad).max() <= 1e-12
    assert grad.shape == (g.n - 1,)


def test_gradient_matches_fd_random_triples():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(12):
        n = int(rng.integers(3, 7))
        g = random_connected_instance(n, rng)
        rho = random_rho(g, rng)
        tau_hat = tau_of(g, random_rho(g, rng))
        w = ww.derived_weights(g, rho)
        grad = ww.occupation_gradient(g, w, tau_hat)
        exact = ww.complex_step_gradient(g, rho, tau_hat)
        worst = max(worst, np.abs(grad - exact).max() / max(1.0, np.abs(exact).max()))
    assert worst <= 1e-9


@st.composite
def gradient_cases(draw, decades=2.0):
    """A random tree or connected graph with n = 2..9, weights rho at which
    to differentiate, and the target of other hidden weights.

    Weights are log-uniform in [10^-decades, 10^decades].  The adjoint vs
    Green's-chain test keeps decades=1: at [1e-2, 1e2] each route was off
    from the complex step by up to ~1e-9 relative, and the two from each
    other by up to 1.6e-9, above that test's 1e-9.
    """
    n = draw(st.integers(2, 9))
    maker = draw(st.sampled_from([random_tree, random_connected_instance]))
    g = maker(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    log_weights = st.lists(st.floats(-decades, decades), min_size=n, max_size=n)
    rho = 10.0 ** np.array(draw(log_weights))
    hidden = 10.0 ** np.array(draw(log_weights))
    rho[g.v_out] = hidden[g.v_out] = 1.0
    return g, rho, tau_of(g, hidden)


@settings(max_examples=60, deadline=None)
@given(gradient_cases(decades=1.0))
def test_adjoint_matches_green_chain(case):
    g, rho, tau_hat = case
    w = ww.derived_weights(g, rho)
    adjoint = ww.occupation_gradient(g, w, tau_hat)
    green = ww.occupation_gradient(g, w, tau_hat, mode="green")
    assert np.abs(adjoint - green).max() <= 1e-9 * max(1.0, np.abs(green).max())


@settings(max_examples=60, deadline=None)
@given(gradient_cases())
def test_adjoint_matches_finite_differences(case):
    g, rho, tau_hat = case
    adjoint = ww.occupation_gradient(g, ww.derived_weights(g, rho), tau_hat)
    exact = ww.complex_step_gradient(g, rho, tau_hat)
    # The oracle carries no step error; what is left is the rounding of the
    # two linear solves, which reached ~1e-7 with every weight at 1e-2 or 1e2.
    assert np.abs(adjoint - exact).max() <= 1e-6 * max(1.0, np.abs(exact).max())


def likelihood_terms(g, tau):
    """The free vertices, and the adjacency block, edges to v_out,
    departures and arrivals over them that ``reconstruct_weights`` uses."""
    free = np.flatnonzero(np.arange(g.n) != g.v_out)
    r = np.asarray(tau, dtype=float)[free]
    adj, to_out = g.adjacency[free][:, free], g.adjacency[free, g.v_out]
    return free, (adj, to_out, r, r - (free == g.v_in))


@settings(max_examples=60, deadline=None)
@given(gradient_cases())
def test_newton_hessian_matches_complex_step(case):
    # The gradient of -L is rational in rho = exp(x), so a complex step in
    # x differentiates it exactly to rounding.
    g, rho, tau_hat = case
    free, terms = likelihood_terms(g, tau_hat)
    x = np.log(rho[free])
    hess = _likelihood_derivatives(*terms, rho[free])[1]
    exact = np.empty_like(hess)
    for k in range(len(x)):
        z = x.astype(complex)
        z[k] += 1e-30j
        exact[:, k] = _likelihood_derivatives(*terms, np.exp(z))[0].imag / 1e-30
    # Neither side solves a system: up to 2.2e-12 relative on 3000 random
    # trees and graphs with weights in [1e-2, 1e2].
    assert np.abs(hess - exact).max() <= 1e-9 * max(1.0, np.abs(exact).max())


def test_jacobian_rank_is_hull_dimension():
    # The local half of the paper's existence conjecture: at generic
    # weights the forward map is a submersion onto the affine span of the
    # trace hull.  In log weights its Jacobian is -A^{-1} D diag(rho), and
    # D diag(rho) over the free vertices (D's v_out row is zero) is the
    # Hessian -H of -L at r = tau(rho), so the two have one rank.  Every
    # connected graph with n <= 5 and every (v_in, v_out) pair whose v_out
    # leaves the rest connected: 428 cases.
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    rng = np.random.default_rng(41)
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
                rho = random_rho(g, rng, 0.5, 2.0)
                free, terms = likelihood_terms(g, tau_of(g, rho))
                hess = _likelihood_derivatives(*terms, rho[free])[1]
                rank = np.linalg.matrix_rank(hess)
                assert rank == ww.hull_dimension(g), (sorted(G.edges), v_in, v_out)
                checked += 1
    assert checked == 428


def test_gradient_rejects_unknown_mode():
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    for mode in ("analytic", "finite_difference"):
        with pytest.raises(ValueError):
            ww.occupation_gradient(g, w, [1.0, 2.0, 2.0], mode=mode)
    with pytest.raises(TypeError):
        ww.ReconstructionConfig(gradient_mode="adjoint")


def test_gradient_fd_mode_agrees():
    g = random_tree(5, np.random.default_rng(24))
    rho = random_rho(g, np.random.default_rng(25))
    tau_hat = tau_of(g, random_rho(g, np.random.default_rng(26)))
    w = ww.derived_weights(g, rho)
    green = ww.occupation_gradient(g, w, tau_hat, mode="green")
    exact = ww.complex_step_gradient(g, rho, tau_hat)
    assert np.abs(green - exact).max() <= 1e-9 * max(1.0, np.abs(exact).max())


def test_gradient_gives_descent_direction():
    g = path_instance(3)
    rho = np.array([1.0, 1.0, 2.0])
    w = ww.derived_weights(g, rho)
    tau_hat = np.array([1.0, 2.0, 2.0])
    before = ww.cost(g, w, tau_hat)
    assert before > 0
    step = np.zeros(3)
    step[1:] = ww.occupation_gradient(g, w, tau_hat)  # v_out is vertex 0
    moved = ww.cost(g, ww.derived_weights(g, rho - 1e-4 * step), tau_hat)
    assert moved < before


# -- support restriction ----------------------------------------------------------


def test_restrict_support_full_passthrough():
    g = path_instance(4)
    sub, tau, support = ww.restrict_support(g, [1.0, 2.0, 3.0, 2.0])
    assert sub.n == 4 and support == (0, 1, 2, 3)


def test_restrict_support_drops_zero_leaf():
    # Star: center 1, leaves 0 (out), 2 (in), 3; target puts no mass on 3.
    g = ww.build_graph(4, [(0, 1), (1, 2), (1, 3)], v_in=2, v_out=0)
    sub, tau, support = ww.restrict_support(g, [1.0, 2.0, 1.5, 0.0])
    assert support == (0, 1, 2)
    assert sub.n == 3
    assert tau.tolist() == [1.0, 2.0, 1.5]


def test_restrict_support_requires_terminals():
    g = path_instance(3)
    with pytest.raises(SupportMismatch):
        ww.restrict_support(g, [0.0, 2.0, 2.0])


def test_restrict_support_disconnected():
    g = path_instance(5)
    with pytest.raises(SupportMismatch):
        ww.restrict_support(g, [1.0, 1.5, 0.0, 1.5, 2.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_reconstruct_rejects_invalid_target_entry(bad):
    # Such an entry used to drop vertex 2 from the support silently.
    g = ww.build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)], v_in=3, v_out=0)
    tau = tau_of(g, [1.0, 2.0, 0.5, 1.5]).copy()
    tau[2] = bad
    with pytest.raises(InvalidTarget, match="vertex 2"):
        ww.reconstruct_weights(g, tau)


def test_target_shape_error_is_invalid_target():
    g = path_instance(3)
    for call in (ww.restrict_support, ww.relint_membership, ww.solve_path):
        with pytest.raises(InvalidTarget, match="shape"):
            call(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        ww.cost(g, ww.derived_weights(g, np.ones(3)), np.ones((3, 1)))


# -- descent loop -------------------------------------------------------------------


def test_reconstruct_uniform_start_is_solution():
    g = path_instance(3)
    res = ww.reconstruct_weights(g, [1.0, 2.0, 2.0])
    assert res.converged and res.final_cost == 0.0
    assert np.array_equal(res.weights.rho, np.ones(3))
    assert len(res.log) == 1 and res.log[0].iteration == 0


def test_reconstruct_p4_target():
    g = path_instance(4)
    target = np.array([1.0, 2.0, 3.0, 2.0])
    P_true = ww.transition_matrix(g, ww.solve_path(g, target))
    for fit in (ww.reconstruct_weights, ww.steepest_descent):
        res = fit(g, target, ww.ReconstructionConfig(cost_tol=1e-10))
        assert res.converged and res.final_cost <= 1e-6
        P_rec = ww.transition_matrix(res.instance, res.weights)
        assert np.abs(P_rec - P_true).max() <= 1e-3


def test_reconstruct_random_tree_round_trip():
    rng = np.random.default_rng(27)
    g = random_tree(7, rng)
    hidden = random_rho(g, rng)
    target = tau_of(g, hidden)
    res = ww.reconstruct_weights(g, target)
    assert res.final_cost <= 1e-6
    assert res.weights.rho[res.instance.v_out] == 1.0


def test_reconstruct_tree_near_positivity_floor():
    # Descent on this tree drives max|scriptG| to ~1e8, where rounding in
    # the Green's identity checks exceeds any fixed absolute tolerance.
    edges = [(0, 5), (1, 3), (1, 5), (1, 6), (2, 6), (4, 6), (4, 7), (4, 8), (7, 9)]
    g = ww.build_graph(10, edges, v_in=9, v_out=8)
    hidden = [1.639, 0.553, 1.039, 0.745, 1.998, 0.716, 0.866, 1.036, 1.0, 1.806]
    res = ww.reconstruct_weights(g, tau_of(g, hidden))
    assert res.status == "converged"


def test_descent_is_monotone_and_pinned():
    rng = np.random.default_rng(28)
    g = random_tree(6, rng)
    target = tau_of(g, random_rho(g, rng))
    cfg = ww.ReconstructionConfig(max_iters=300, cost_tol=1e-12)
    for fit in (ww.reconstruct_weights, ww.steepest_descent):
        res = fit(g, target, cfg)
        costs = [rec.cost for rec in res.log]
        assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))
        assert res.weights.rho[res.instance.v_out] == 1.0


def test_reconstruct_stops_without_faking_unreachable_target():
    # On a path every occupation vector has tau(middle) = tau(v_in); the
    # target below is off that line so the cost cannot reach zero.  The
    # solver must stop as max_iters or report stagnation, never converge.
    g = path_instance(3)
    try:
        res = ww.reconstruct_weights(
            g, [1.0, 2.0, 3.0],
            ww.ReconstructionConfig(max_iters=40, cost_tol=1e-10),
        )
    except NoDescent as exc:
        res = exc.result
    assert res.status in ("max_iters", "no_descent")
    assert res.final_cost > 1e-3


def test_no_descent_reported(monkeypatch):
    real = walkweights.reconstruct._adjoint_gradient

    def sabotaged(*args, **kwargs):
        # A tiny ascent direction defeats every Armijo trial.
        return -1e-3 * real(*args, **kwargs)

    monkeypatch.setattr(walkweights.reconstruct, "_adjoint_gradient", sabotaged)
    g = path_instance(3)
    with pytest.raises(NoDescent) as info:
        ww.steepest_descent(g, [1.0, 2.5, 2.5])
    assert info.value.result.status == "no_descent"
    assert info.value.result.log


def test_custom_start_point():
    rng = np.random.default_rng(40)
    g = random_tree(6, rng)
    hidden = random_rho(g, rng)
    target = tau_of(g, hidden)
    for fit in (ww.reconstruct_weights, ww.steepest_descent):
        # starting at the hidden weights converges immediately
        res = fit(g, target, rho0=hidden)
        assert res.converged and len(res.log) == 1
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            rho0 = hidden.copy()
            rho0[3] = bad
            with pytest.raises(ValueError, match="vertex 3"):
                fit(g, target, rho0=rho0)


def test_reconstruction_config_has_two_fields():
    fields = [f.name for f in dataclasses.fields(ww.ReconstructionConfig)]
    assert fields == ["max_iters", "cost_tol"]
    with pytest.raises(TypeError):
        ww.ReconstructionConfig(step_rule="levenberg_marquardt")


def test_reconstruction_config_rejects_negative_max_iters():
    with pytest.raises(ValueError, match="max_iters"):
        ww.ReconstructionConfig(max_iters=-3)
    with pytest.raises(ValueError, match="cost_tol"):
        ww.ReconstructionConfig(cost_tol=0.0)
    # zero iterations is a valid budget: the log holds the start point only
    cfg = ww.ReconstructionConfig(max_iters=0)
    res = ww.reconstruct_weights(path_instance(3), [1.0, 2.5, 2.5], cfg)
    assert res.status == "max_iters" and len(res.log) == 1


def test_newton_converges_on_30_vertex_trees():
    # Newton took at most 6 iterations on this set; steepest descent reached
    # cost 1e-8 on one of the ten within 10^4.
    for seed in range(10):
        rng = np.random.default_rng(4200 + seed)
        g = random_tree(30, rng)
        target = tau_of(g, random_rho(g, rng, 0.2, 5.0))
        res = ww.reconstruct_weights(
            g, target, ww.ReconstructionConfig(max_iters=200, cost_tol=1e-8)
        )
        assert res.status == "converged", (seed, res.status, res.final_cost)


def test_newton_on_wide_60_vertex_tree():
    # Levenberg-Marquardt crawled here for 2934 iterations; Newton takes 9.
    rng = np.random.default_rng(505)
    g = random_tree(60, rng)
    target = tau_of(g, random_rho(g, rng, 0.02, 50.0))
    res = ww.reconstruct_weights(g, target)
    assert res.status == "converged"
    assert len(res.log) - 1 <= 20
    # Near the optimum the Newton decrement is lost in L's rounding, and
    # Armijo's test would backtrack every step to a crawl; the full step is
    # taken there instead.  Below the forward solve's rounding a full step no
    # longer lowers the cost, and the run stops there.
    cfg = ww.ReconstructionConfig(max_iters=20, cost_tol=1e-30)
    with pytest.raises(NoDescent) as stall:
        ww.reconstruct_weights(g, target, cfg)
    log = stall.value.result.log
    assert stall.value.result.status == "no_descent"
    assert len(log) - 1 <= 20 and log[-1].cost < 1e-10
    steps = [rec.step for rec in log[:-1] if rec.cost < 1e-10]
    assert steps and all(step == 1.0 for step in steps)


def test_newton_cost_strictly_decreases_and_v_out_stays_pinned():
    for seed in range(5):
        rng = np.random.default_rng(4300 + seed)
        g = random_connected_instance(8, rng)
        target = tau_of(g, random_rho(g, rng, 0.2, 5.0))
        cfg = ww.ReconstructionConfig(cost_tol=1e-14)
        res = ww.reconstruct_weights(g, target, cfg)
        costs = [rec.cost for rec in res.log]
        assert len(costs) > 2
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert res.weights.rho[res.instance.v_out] == 1.0
        # the step column holds the accepted share of the Newton step; the
        # last record 0.0
        assert all(0 < rec.step <= 1 for rec in res.log[:-1])
        assert res.log[-1].step == 0.0


@pytest.mark.filterwarnings("error")
def test_newton_stops_without_faking_unreachable_target():
    # tau(middle) = tau(v_in) on a path, so L has no maximiser and the
    # weights run off; the run must end cleanly, with no numpy warning.  The
    # cost cannot fall below (tau(2) - tau(1))^2 / 2, the squared distance to
    # that line.  The second target is off the line only along the class
    # indicator of vertex 1, where -L is linear: its weight must not drift.
    g = path_instance(3)
    for target, max_iters in (
        ([1.0, 2.0, 3.0], 30), ([1.0, 2.0, 3.0], 10_000), ([1.0, 2.5, 2.6], 200)
    ):
        cfg = ww.ReconstructionConfig(max_iters=max_iters, cost_tol=1e-10)
        try:
            res = ww.reconstruct_weights(g, target, cfg)
        except NoDescent as exc:
            res = exc.result
        assert res.status in ("max_iters", "no_descent")
        assert res.final_cost >= (target[2] - target[1]) ** 2 / 2 * (1 - 1e-12)
        assert res.weights.rho[1] == pytest.approx(1.0, rel=1e-12)


def test_newton_stall_ends_off_span_target_early():
    # L restricted to the gauge complement peaks at a point that misses
    # this target; once there, full steps leave the cost where it is and the
    # run stops instead of spending its whole budget.
    with pytest.raises(NoDescent) as stall:
        ww.reconstruct_weights(path_instance(3), [1.0, 2.5, 2.6])
    res = stall.value.result
    assert res.status == "no_descent" and len(res.log) <= 10
    assert res.final_cost >= 0.1 ** 2 / 2


def test_newton_boundary_target_still_converges():
    # [1, 1, 1] on P3 lies on the hull's boundary: the last weight runs to 0
    # under capped steps that the stall stop must not end, and the cost goes
    # to 0 however small cost_tol is.
    for cost_tol in (1e-8, 1e-20):
        cfg = ww.ReconstructionConfig(cost_tol=cost_tol)
        res = ww.reconstruct_weights(path_instance(3), [1.0, 1.0, 1.0], cfg)
        assert res.status == "converged", (cost_tol, res.final_cost)
        assert res.final_cost <= cost_tol and res.weights.rho[2] < 1e-4


def test_reconstruct_accepts_occupation_vector():
    # The paper's pipeline from walks to weights: the sampler's
    # OccupationVector goes in as the target, as its values would.
    rng = np.random.default_rng(4600)
    g = random_connected_instance(6, rng)
    w = ww.derived_weights(g, random_rho(g, rng))
    vec = ww.empirical_occupation(g, w, 4000, seed=11)
    res = ww.reconstruct_weights(g, vec)
    assert res.converged
    same = ww.reconstruct_weights(g, vec.values)
    assert np.array_equal(res.weights.rho, same.weights.rho) and res.log == same.log


def test_newton_start_at_hidden_weights_is_one_record():
    rng = np.random.default_rng(4400)
    g = random_tree(12, rng)
    hidden = random_rho(g, rng)
    res = ww.reconstruct_weights(g, tau_of(g, hidden), rho0=hidden)
    assert res.converged and len(res.log) == 1
    assert np.array_equal(res.weights.rho, hidden)


def test_newton_multi_start_reaches_one_walk():
    # L is concave, so every start reaches the same transition matrix; on a
    # bipartite graph (the tree) the weights keep the start's scaling of
    # the class opposite v_out.
    rng = np.random.default_rng(4500)
    cfg = ww.ReconstructionConfig(cost_tol=1e-20)
    for g in (random_tree(9, rng), random_connected_instance(9, rng)):
        hidden = random_rho(g, rng, 0.2, 5.0)
        target = tau_of(g, hidden)
        P_true = ww.transition_matrix(g, ww.derived_weights(g, hidden))
        for _ in range(5):
            rho0 = 10.0 ** rng.uniform(-1.5, 1.5, g.n)
            res = ww.reconstruct_weights(g, target, cfg, rho0=rho0)
            assert res.converged
            P = ww.transition_matrix(res.instance, res.weights)
            assert np.abs(P - P_true).max() <= 1e-9
            if g.bipartite:
                odd = g.bipartition < 0
                kept = np.log(rho0[odd] / rho0[g.v_out]).sum()
                assert np.log(res.weights.rho[odd]).sum() == pytest.approx(kept, abs=1e-9)


# -- expertise correlation ------------------------------------------------------------


def test_correlation_constant_rho_undefined():
    g = path_instance(4)
    with pytest.raises(ZeroVariance):
        ww.expertise_correlation(g, ww.derived_weights(g, np.ones(4)))


def test_correlation_decreasing_path_is_minus_one():
    g = path_instance(5)
    rho = np.array([5.0, 4.0, 3.0, 2.0, 1.0])  # decreasing in distance
    assert ww.expertise_correlation(g, ww.derived_weights(g, rho)) == pytest.approx(
        -1.0, abs=1e-12
    )


def test_correlation_matches_textbook_formula():
    g = path_instance(5)
    rng = np.random.default_rng(29)
    rho = random_rho(g, rng, pin_out=False)
    got = ww.expertise_correlation(g, ww.derived_weights(g, rho))
    d = g.distances.astype(float)
    num = ((rho - rho.mean()) * (d - d.mean())).sum()
    den = np.sqrt(((rho - rho.mean()) ** 2).sum() * ((d - d.mean()) ** 2).sum())
    assert got == pytest.approx(num / den, abs=1e-12)
