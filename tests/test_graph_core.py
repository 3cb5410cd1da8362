"""Graph construction, derived weights, and matrix invariants."""

import json

import numpy as np
import pytest

import walkweights as ww
from synth import path_instance, random_connected_instance, random_rho
from walkweights.errors import (
    Disconnected,
    DuplicateEdge,
    InOutCoincide,
    NonpositiveWeight,
    SelfLoop,
)
from walkweights.graph_core import laplacians


def test_smallest_legal_graph():
    g = ww.build_graph(2, [(0, 1)], v_in=1, v_out=0)
    assert g.n == 2 and g.edges == ((0, 1),)
    assert g.out_removed_connected


def test_p3_valid():
    g = path_instance(3)
    assert g.neighbors == ((1,), (0, 2), (1,))
    assert g.distances.tolist() == [0, 1, 2]
    assert g.bipartite


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        ww.build_graph(3, [(0, 1)], v_in=2, v_out=0)


def test_non_integer_ids_rejected():
    # int() used to truncate 2.7 to 2, or fail with a bare TypeError.
    edges = [(0, 1), (1, 2)]
    for args, message in (
        ((3, edges, 2.7, 0), r"v_in=2\.7 is not an integer"),
        ((3, edges, 2, 0.0), r"v_out=0\.0 is not an integer"),
        ((3.0, edges, 2, 0), r"n=3\.0 is not an integer"),
        ((3, [(0, 1), (1, 1.9)], 2, 0), r"edge \(1, 1\.9\) has a non-integer endpoint"),
    ):
        with pytest.raises(ValueError, match=message):
            ww.build_graph(*args)
    g = ww.build_graph(np.int64(3), [(np.int32(0), 1), (1, np.int64(2))],
                       np.int64(2), np.int32(0))
    assert (g.n, g.v_in, g.v_out, g.edges) == (3, 2, 0, ((0, 1), (1, 2)))
    assert type(g.v_in) is int


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        ww.build_graph(3, [(0, 1), (1, 1), (1, 2)], v_in=2, v_out=0)


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        ww.build_graph(3, [(0, 1), (1, 0), (1, 2)], v_in=2, v_out=0)


def test_in_out_coincide_rejected():
    with pytest.raises(InOutCoincide):
        ww.build_graph(2, [(0, 1)], v_in=0, v_out=0)


def test_out_removed_connectivity_flag():
    # Removing the middle of a path disconnects it.
    g = ww.build_graph(3, [(0, 1), (1, 2)], v_in=2, v_out=1)
    assert not g.out_removed_connected


# -- derived weights ---------------------------------------------------------


def test_derived_weights_single_edge():
    g = ww.build_graph(2, [(0, 1)], v_in=1, v_out=0)
    w = ww.derived_weights(g, [1.0, 1.0])
    assert w.tilde_rho.tolist() == [1.0, 1.0]
    assert w.vol == 2.0
    assert w.rho_star.tolist() == [1.0, 1.0]


def test_derived_weights_p3_uniform():
    w = ww.derived_weights(path_instance(3), [1.0, 1.0, 1.0])
    assert w.tilde_rho.tolist() == [1.0, 2.0, 1.0]
    assert w.vol == 4.0


def test_derived_weights_p3_nonuniform():
    w = ww.derived_weights(path_instance(3), [1.0, 1.0, 2.0])
    assert w.tilde_rho.tolist() == [1.0, 3.0, 2.0]
    assert w.rho_star[1] == 3.0
    assert w.vol == 6.0


def test_nonpositive_weight_rejected():
    g = path_instance(3)
    with pytest.raises(NonpositiveWeight):
        ww.derived_weights(g, [1.0, 0.0, 1.0])
    with pytest.raises(NonpositiveWeight):
        ww.derived_weights(g, [1.0, -2.0, 1.0])


def test_volume_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        g = random_connected_instance(int(rng.integers(2, 9)), rng)
        w = ww.derived_weights(g, random_rho(g, rng, pin_out=False))
        total_edge = sum(
            w.rho[x] * w.rho[y] for x, y in g.edges
        )
        assert w.vol == pytest.approx(w.tilde_rho.sum(), rel=1e-12)
        assert w.vol == pytest.approx(2.0 * total_edge, rel=1e-12)


# -- transition matrix -------------------------------------------------------


def test_transition_single_edge():
    g = ww.build_graph(2, [(0, 1)], v_in=1, v_out=0)
    P = ww.transition_matrix(g, ww.derived_weights(g, [3.0, 0.2]))
    assert P[1, 0] == 1.0 and P[0, 1] == 1.0


def test_transition_p3():
    g = path_instance(3)
    P = ww.transition_matrix(g, ww.derived_weights(g, [1.0, 1.0, 1.0]))
    assert P[1, 0] == 0.5 and P[1, 2] == 0.5
    P = ww.transition_matrix(g, ww.derived_weights(g, [1.0, 1.0, 3.0]))
    assert P[1, 2] == 0.75 and P[1, 0] == 0.25


def test_transition_rows_stochastic_and_scale_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_connected_instance(int(rng.integers(2, 9)), rng)
        rho = random_rho(g, rng, pin_out=False)
        w = ww.derived_weights(g, rho)
        P = ww.transition_matrix(g, w)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((P > 0) == (g.adjacency > 0))
        c = float(rng.uniform(0.1, 10.0))
        P2 = ww.transition_matrix(g, ww.derived_weights(g, c * rho))
        assert np.abs(P - P2).max() <= 1e-12


# -- Laplacians ---------------------------------------------------------------


def test_laplacian_single_edge():
    g = ww.build_graph(2, [(0, 1)], v_in=1, v_out=0)
    L, T, normL = laplacians(g, ww.derived_weights(g, [1.0, 1.0]))
    expect = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(L, expect)
    assert np.array_equal(normL, expect)


def test_laplacian_p3_uniform():
    g = path_instance(3)
    L, T, normL = laplacians(g, ww.derived_weights(g, np.ones(3)))
    assert np.diag(L).tolist() == [1.0, 2.0, 1.0]
    assert L[0, 1] == -1.0
    assert normL[0, 1] == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-15)


def test_laplacian_null_spaces_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_connected_instance(int(rng.integers(2, 9)), rng)
        w = ww.derived_weights(g, random_rho(g, rng))
        L, T, normL = laplacians(g, w)
        assert np.abs(L.sum(axis=1)).max() <= 1e-12 * max(1.0, w.vol)
        assert np.abs(L - L.T).max() == 0.0
        phi0 = np.sqrt(w.tilde_rho / w.vol)
        assert np.abs(normL @ phi0).max() <= 1e-12


# -- metrics ------------------------------------------------------------------


def test_metrics_p3():
    g = path_instance(3)
    assert g.distances.tolist() == [0, 1, 2]
    assert g.bipartite


def test_metrics_triangle_not_bipartite():
    g = ww.build_graph(3, [(0, 1), (0, 2), (1, 2)], v_in=1, v_out=0)
    assert not g.bipartite
    assert g.bipartition is None


def test_metrics_four_cycle_alternates():
    g = ww.build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], v_in=2, v_out=0)
    assert g.bipartite
    c = g.bipartition
    for x, y in g.edges:
        assert c[x] == -c[y]


# -- instance files -----------------------------------------------------------


def test_instance_round_trip(tmp_path):
    g = path_instance(4)
    rho = [1.0, 2.0, 0.5, 1.5]
    path = tmp_path / "inst.json"
    ww.save_instance(path, g, rho)
    g2, w2 = ww.load_instance(path)
    assert g2.edges == g.edges and g2.v_in == g.v_in and g2.v_out == g.v_out
    assert w2 is not None and np.array_equal(w2.rho, rho)


def test_instance_without_weights(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "v_in": 1, "v_out": 0}))
    g, w = ww.load_instance(path)
    assert w is None and g.n == 2


def test_instance_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1]], "v_in": 1}))
    with pytest.raises(ValueError, match="v_out"):
        ww.load_instance(path)


def test_instance_non_integer_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]], "v_in": 2.5, "v_out": 0}))
    with pytest.raises(ValueError, match="v_in=2.5"):
        ww.load_instance(path)
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1.9, 2]], "v_in": 2, "v_out": 0}))
    with pytest.raises(ValueError, match="non-integer endpoint"):
        ww.load_instance(path)


def test_shipped_instances_validate():
    import pathlib

    here = pathlib.Path(__file__).resolve().parent.parent / "instances"
    for path in sorted(here.glob("*.json")):
        g, _ = ww.load_instance(path)
        assert g.n >= 2


def test_immutable_arrays():
    g = path_instance(3)
    w = ww.derived_weights(g, np.ones(3))
    with pytest.raises(ValueError):
        g.adjacency[0, 0] = 5.0
    with pytest.raises(ValueError):
        w.rho[0] = 2.0
