"""Tests of the benchmark's own reference map, inputs and tracing.

    python3 -m pytest perfbench
"""

import sys

import numpy as np
import pytest

import checkout

checkout.pin_threads()
ww = checkout.import_library()

import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402


def test_readme_path():
    # 0 - 1 - 2 - 3 with v_in = 3, v_out = 0.
    tau = reference.occupation(4, [(0, 1), (1, 2), (2, 3)], 3, 0, [1.0, 1.0, 1.0, 0.5])
    np.testing.assert_allclose(tau, [1, 2, 3, 2], rtol=1e-12)


def test_single_edge():
    np.testing.assert_allclose(reference.occupation(2, [(0, 1)], 1, 0, [1.0, 3.0]), [1, 1])


def test_moments_on_uniform_p3():
    # From v_in = 2 the walk reaches 1, then exits or returns with
    # probability 1/2 each: visits to 2 are geometric with p = 1/2.
    m = reference.moments(3, [(0, 1), (1, 2)], 2, 0, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(m.mean, [1, 2, 2], rtol=1e-12)
    np.testing.assert_allclose(m.var, [0, 2, 2], atol=1e-12)
    np.testing.assert_allclose(m.hit, [1, 1, 1], rtol=1e-12)


def _random_instances(count):
    rng = np.random.default_rng(7)
    for k in range(count):
        n = int(rng.integers(4, 11))
        if k % 2:
            inst = inputs.random_tree(rng, n, "t")
        else:
            inst = inputs.random_graph(rng, n, int(rng.integers(1, n)), "g")
        yield inst, inputs.hidden_weights(rng, inst, spread=1.0)


@pytest.mark.parametrize("inst,rho", list(_random_instances(8)))
def test_agrees_with_library_forward_maps(inst, rho):
    g = ww.build_graph(inst.n, inst.edges, inst.v_in, inst.v_out)
    w = ww.derived_weights(g, rho)
    tau = reference.occupation(inst.n, inst.edges, inst.v_in, inst.v_out, rho)
    np.testing.assert_allclose(ww.expected_occupation_fixed_point(g, w).values, tau, rtol=1e-9)
    np.testing.assert_allclose(ww.expected_occupation_green(g, w).values, tau, rtol=1e-7)
    np.testing.assert_allclose(
        reference.moments(inst.n, inst.edges, inst.v_in, inst.v_out, rho).mean, tau, rtol=1e-9
    )


def test_bipartite():
    assert reference.is_bipartite(4, inputs.path(4).edges)
    assert reference.is_bipartite(4, inputs.cycle(4).edges)
    assert not reference.is_bipartite(5, inputs.cycle(5).edges)
    assert not reference.is_bipartite(4, inputs.complete(4).edges)


def test_relabel_keeps_the_walk():
    inst = inputs.exact_catalogue()[-4]
    rng = np.random.default_rng(1)
    rho = inputs.hidden_weights(rng, inst)
    tau = reference.occupation(inst.n, inst.edges, inst.v_in, inst.v_out, rho)
    perm_rng = np.random.default_rng(2)
    moved = inst.relabel(perm_rng)
    new = np.random.default_rng(2).permutation(inst.n)
    rho2 = np.empty(inst.n)
    rho2[new] = rho
    tau2 = reference.occupation(moved.n, moved.edges, moved.v_in, moved.v_out, rho2)
    np.testing.assert_allclose(tau2[new], tau, rtol=1e-12)


def test_inputs_follow_the_seed():
    def draw(seed):
        rng = inputs.seeded_rng(seed, "sample")
        inst = inputs.sample_catalogue()[0].relabel(rng)
        return inst, inputs.hidden_weights(rng, inst)

    (a, ra), (b, rb), (c, rc) = draw(5), draw(5), draw(6)
    assert a == b and np.array_equal(ra, rb)
    assert not np.array_equal(ra, rc)


def test_long_walk_targets_exceed_8n():
    for inst, rho in inputs.long_walk_cases():
        tau = reference.occupation(inst.n, inst.edges, inst.v_in, inst.v_out, rho)
        assert tau.sum() - 1 > 8 * inst.n


def test_tracer_restores_every_function():
    def snapshot():
        return {
            (name, attr): value
            for name, m in sys.modules.items()
            if name == "walkweights" or name.startswith("walkweights.")
            for attr, value in vars(m).items()
            if callable(value)
        }

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ww.reconstruct.expected_occupation_fixed_point is not before[
            ("walkweights.reconstruct", "expected_occupation_fixed_point")]
        g = ww.build_graph(3, [(0, 1), (1, 2)], 2, 0)
        ww.solvability.solve_path(g, [1.0, 2.0, 2.0])
    finally:
        tracer.uninstall()
    assert snapshot() == before
    totals = tracer.totals()
    assert totals["solvability.solve"][0] == 1
    assert totals["occupation.fixed_point"][0] == 1  # the solver's round trip
