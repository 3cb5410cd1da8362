"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, not configurable.
"""

import json

import numpy as np
import pytest
import scipy.linalg

import walkweights as ww
from synth import (
    complete_instance,
    cycle_instance,
    path_instance,
    random_connected_instance,
    random_rho,
    random_tree,
    tau_of,
)
from test_spectral_green import constant_rank_path
from walkweights.cli import main
from walkweights.errors import NoDescent


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_forward_map_triangulation():
    rng = np.random.default_rng(1001)
    n_instances = 50
    mc_hits = 0
    worst_gap = 0.0
    for k in range(n_instances):
        g = random_connected_instance(int(rng.integers(2, 9)), rng)
        w = ww.derived_weights(g, random_rho(g, rng, 0.2, 5.0, pin_out=False))
        green = ww.expected_occupation_green(g, w).values
        fixed = ww.expected_occupation_fixed_point(g, w).values
        gap = float(np.abs(green - fixed).max())
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9, f"instance {k}: green/fixed-point gap {gap:.2e}"
        emp = ww.empirical_occupation(g, w, 200_000, seed=5000 + k)
        dev = np.abs(emp.values - fixed)
        if np.all(dev <= 4.0 * np.maximum(emp.stderr, 1e-15)):
            mc_hits += 1
    ok = mc_hits >= 49
    report(1, ok, f"green/fixed worst gap {worst_gap:.2e} (tol 1e-9); "
                  f"Monte Carlo within 4 SE on {mc_hits}/50 (need >= 49)")


def test_criterion_2_pseudoinverse_derivative():
    rng = np.random.default_rng(2002)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 7))
        k = int(rng.integers(0, 3))
        pieces = constant_rank_path(n, k, rng)
        t0, h = float(rng.uniform(-0.05, 0.05)), 1e-5
        B, Bp, P, Pp = pieces(t0)
        A = scipy.linalg.pinvh(B)
        Ap = ww.pseudoinverse_derivative(A, Bp, P, Pp)
        fd = (
            scipy.linalg.pinvh(pieces(t0 + h)[0])
            - scipy.linalg.pinvh(pieces(t0 - h)[0])
        ) / (2.0 * h)
        rel = float(np.abs(Ap - fd).max() / max(1.0, np.abs(fd).max()))
        worst = max(worst, rel)
    ok = worst <= 1e-6
    report(2, ok, f"20 constant-rank paths, worst relative error {worst:.2e} "
                  "(tol 1e-6)")


def test_criterion_3_gradcheck_suite(tmp_path):
    tree_rng = np.random.default_rng(3003)
    cases = {
        "p3": path_instance(3),
        "k3": complete_instance(3),
        "k4": complete_instance(4),
        "tree4": random_tree(4, tree_rng),
        "tree5": random_tree(5, tree_rng),
        "tree6": random_tree(6, tree_rng),
        "c5": cycle_instance(5),  # non-bipartite, non-complete
    }
    failures = []
    worst = {"adjoint": 0.0, "green": 0.0}
    out = tmp_path / "gradcheck.json"
    for name, g in cases.items():
        inst = tmp_path / f"{name}.json"
        ww.save_instance(inst, g)
        for seed in range(1, 11):
            code = main(["gradcheck", "--instance", str(inst), "--seed", str(seed),
                         "--out", str(out)])
            if code != 0:
                failures.append((name, seed))
            data = json.loads(out.read_text())
            for route in worst:
                worst[route] = max(worst[route], data[f"{route}_rel_error"])
    ok = not failures
    report(3, ok, f"cmd_gradcheck over {len(cases)} graphs x 10 seeds "
                  f"(tol 1e-5) vs the complex step; worst adjoint "
                  f"{worst['adjoint']:.1e}, green {worst['green']:.1e}; "
                  f"failures: {failures or 'none'}")


def test_criterion_4_path_round_trip():
    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 13))
        g = path_instance(n)
        alphas = rng.uniform(0.0, 5.0, n - 2)
        alphas = np.where(alphas > 0, alphas, 1e-9)
        r = np.ones(n)
        for j, a in enumerate(alphas, start=2):
            r[j - 1] += a
            r[j] += a
        w = ww.solve_path(g, r)
        worst = max(worst, float(np.abs(tau_of(g, w.rho) - r).max()))
    ok = worst <= 1e-9
    report(4, ok, f"100 path targets n in 3..12, worst forward-map gap "
                  f"{worst:.2e} (tol 1e-9)")


def test_criterion_5_complete_round_trip():
    rng = np.random.default_rng(5005)
    worst = 0.0
    big_beta_cases = 0
    for trial in range(100):
        n = int(rng.integers(3, 11))
        g = complete_instance(n)
        if trial % 10 == 0:
            # engineered heavy coordinate beyond 1/2 on a non-terminal vertex
            rest = [v for v in range(n) if v not in (g.v_out, g.v_in)]
            heavy = rest[int(rng.integers(len(rest)))]
            beta = rng.uniform(0.05, 0.3, n)
            beta[heavy] = 0.0
            beta *= (1.0 - rng.uniform(0.52, 0.68)) / beta.sum()
            beta[heavy] = 1.0 - beta.sum()
        else:
            beta = rng.uniform(0.05, 1.0, n)
            beta /= beta.sum()
        if np.any(beta > 0.5):
            big_beta_cases += 1
        r = np.empty(n)
        r[g.v_out] = 1.0
        b1, b2 = beta[g.v_out], beta[g.v_in]
        r[g.v_in] = (1.0 + b2 / b1) * (1.0 - b2)
        for j in range(n):
            if j not in (g.v_out, g.v_in):
                r[j] = beta[j] * (1.0 - beta[j]) / b1
        w = ww.solve_complete(g, r)
        worst = max(worst, float(np.abs(tau_of(g, w.rho) - r).max()))
    ok = worst <= 1e-8 and big_beta_cases >= 5
    report(5, ok, f"100 simplex targets n in 3..10, worst forward-map gap "
                  f"{worst:.2e} (tol 1e-8); {big_beta_cases} cases with "
                  "beta_j > 1/2 (need >= 5)")


def test_criterion_6_reduction_driver():
    rng = np.random.default_rng(6006)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 11))
        g = random_tree(n, rng)
        r = tau_of(g, random_rho(g, rng, 0.2, 5.0))
        w = ww.solve_reducible(g, r)
        worst = max(worst, float(np.abs(tau_of(g, w.rho) - r).max()))
    # 4-cycle twin example
    g = ww.build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], v_in=2, v_out=0)
    w = ww.solve_reducible(g, [1.0, 1.0, 2.0, 1.0])
    twin_ok = np.abs(w.rho - np.array([1.0, 0.5, 1.0, 0.5])).max() <= 1e-9
    ok = worst <= 1e-8 and twin_ok
    report(6, ok, f"50 random trees n <= 10, worst forward-map gap {worst:.2e} "
                  f"(tol 1e-8); 4-cycle twin example "
                  f"{'reproduced' if twin_ok else 'failed'}")


def test_criterion_7_hull_dimension_lemma():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    checked = 0
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n < 2 or n > 6 or not nx.is_connected(G):
            continue
        cut = set(nx.articulation_points(G))
        v_out = next(v for v in sorted(G.nodes) if v not in cut)
        v_in = next(v for v in sorted(G.nodes) if v != v_out)
        g = ww.build_graph(n, list(G.edges), v_in=v_in, v_out=v_out)
        expected = n - 2 if g.bipartite else n - 1
        got = ww.hull_dimension(g)
        assert got == expected, (
            f"atlas graph n={n} edges={sorted(G.edges)}: dim {got} != {expected}"
        )
        checked += 1
    ok = checked == 142
    report(7, ok, f"hull dimension equals n-1/n-2 per bipartiteness on all "
                  f"{checked} connected graphs with n <= 6")


def test_criterion_8_end_to_end_reconstruction():
    rng = np.random.default_rng(8008)
    successes = 0
    details = []
    for trial in range(20):
        n = int(rng.integers(4, 9))
        g = random_tree(n, rng)
        hidden = random_rho(g, rng, 0.2, 5.0)
        target = tau_of(g, hidden)
        cfg = ww.ReconstructionConfig(max_iters=10_000, cost_tol=1e-8)
        try:
            res = ww.steepest_descent(g, target, cfg)
        except NoDescent as exc:
            res = exc.result
        good = res.final_cost <= 1e-6
        if good:
            P_rec = ww.transition_matrix(res.instance, res.weights)
            P_true = ww.transition_matrix(g, ww.derived_weights(g, hidden))
            good = np.abs(P_rec - P_true).max() <= 1e-3
        successes += good
        if not good:
            details.append((trial, res.status, f"{res.final_cost:.1e}"))
    ok = successes >= 18
    report(8, ok, f"steepest descent from uniform start: {successes}/20 trees "
                  "reached cost <= 1e-6 within 10^4 iterations with transition "
                  f"matrices matching to 1e-3 (need >= 18); misses: {details or 'none'}")


def test_criterion_9_determinism(tmp_path):
    inst = tmp_path / "inst.json"
    g = random_connected_instance(6, np.random.default_rng(9009))
    rho = random_rho(g, np.random.default_rng(9010))
    ww.save_instance(inst, g, rho)

    blobs = []
    for workers in (1, 2, 8):
        for rerun in (0, 1):
            out = tmp_path / f"mc_w{workers}_r{rerun}.json"
            code = main([
                "expect", "--instance", str(inst), "--method", "montecarlo",
                "--N", "40000", "--seed", "77", "--workers", str(workers),
                "--out", str(out),
            ])
            assert code == 0
            blobs.append(out.read_bytes())
    mc_ok = all(b == blobs[0] for b in blobs)

    grad_blobs = []
    for rerun in (0, 1):
        out = tmp_path / f"grad_r{rerun}.json"
        assert main(["gradcheck", "--instance", str(inst), "--seed", "3",
                     "--out", str(out)]) == 0
        grad_blobs.append(out.read_bytes())
    grad_ok = grad_blobs[0] == grad_blobs[1]

    ok = mc_ok and grad_ok
    report(9, ok, "montecarlo artifacts byte-identical across reruns and "
                  f"workers 1/2/8: {mc_ok}; gradcheck rerun identical: {grad_ok}")
