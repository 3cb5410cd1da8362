"""End-to-end CLI behavior: artifacts, manifests, exit codes, determinism."""

import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest
import scipy

import walkweights as ww
from walkweights.cli import main
from walkweights.occupation import COUNT_BATCHES, DEFAULT_CHUNK

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(
        {"n": 3, "edges": [[0, 1], [1, 2]], "v_in": 2, "v_out": 0,
         "rho": [1.0, 1.0, 1.0]}
    ))
    return str(path)


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(
        {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "v_in": 3, "v_out": 0}
    ))
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(
        {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "v_in": 1, "v_out": 0,
         "rho": [1.0, 1.0, 1.0]}
    ))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def assert_versions(manifest):
    assert manifest["versions"] == {
        "walkweights": ww.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# -- expect ---------------------------------------------------------------------


def test_expect_fixedpoint(p3_file, tmp_path):
    out = str(tmp_path / "tau.json")
    assert main(["expect", "--instance", p3_file, "--method", "fixedpoint",
                 "--out", out]) == 0
    data = read_json(out)
    assert data["tau"] == [1.0, 2.0, 2.0]
    assert data["manifest"]["command"] == "expect"
    assert "instance_sha256" in data["manifest"]
    assert_versions(data["manifest"])
    assert "chunk_size" not in data["manifest"]
    assert "stream_version" not in data["manifest"]


def test_expect_green_single_edge(tmp_path):
    inst = tmp_path / "edge.json"
    inst.write_text(json.dumps(
        {"n": 2, "edges": [[0, 1]], "v_in": 1, "v_out": 0, "rho": [1.0, 1.0]}
    ))
    out = str(tmp_path / "tau.json")
    assert main(["expect", "--instance", str(inst), "--method", "green",
                 "--out", out]) == 0
    assert read_json(out)["tau"] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_expect_montecarlo_requires_seed(p3_file, capsys):
    assert main(["expect", "--instance", p3_file, "--method", "montecarlo"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_expect_montecarlo_negative_seed_is_input_error(p3_file, capsys):
    assert main(["expect", "--instance", p3_file, "--method", "montecarlo",
                 "--N", "500", "--seed", "-1"]) == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_expect_montecarlo_reruns_identical(p3_file, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        assert main(["expect", "--instance", p3_file, "--method", "montecarlo",
                     "--N", "5000", "--seed", "9", "--out", out]) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["manifest"]["seed"] == 9
    assert payload["manifest"]["chunk_size"] == DEFAULT_CHUNK
    assert payload["manifest"]["batches"] == COUNT_BATCHES
    assert payload["manifest"]["stream_version"] == 4
    # 5000 walks on P3 are many per vertex: they run on the count engine.
    assert payload["manifest"]["engine"] == "counts"
    assert_versions(payload["manifest"])
    assert len(payload["stderr"]) == 3
    dev = np.abs(np.array(payload["tau"]) - np.array([1.0, 2.0, 2.0]))
    assert np.all(dev <= 4 * np.maximum(np.array(payload["stderr"]), 1e-12))


def test_expect_montecarlo_manifest_names_walks_engine(p3_file, tmp_path):
    out = str(tmp_path / "tau.json")
    assert main(["expect", "--instance", p3_file, "--method", "montecarlo",
                 "--N", "500", "--seed", "9", "--out", out]) == 0
    assert read_json(out)["manifest"]["engine"] == "walks"


@pytest.mark.parametrize("umask", [0o022, 0o002])
def test_artifact_mode_matches_plain_open(p3_file, tmp_path, umask):
    # An artifact is written to a temp file and renamed into place, but it
    # gets the mode a plain open(path, "w") gives a new file.
    old = os.umask(umask)
    try:
        out = tmp_path / "tau.json"
        assert main(["expect", "--instance", p3_file, "--out", str(out)]) == 0
        plain = tmp_path / "plain.json"
        ww.save_instance(plain, ww.load_instance(p3_file)[0])
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_expect_csv_output(p3_file, tmp_path):
    out = str(tmp_path / "tau.csv")
    assert main(["expect", "--instance", p3_file, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert_versions(json.loads(lines[0][len("# manifest: "):]))
    assert lines[1] == "vertex,tau"
    assert lines[2] == "0,1.0"


def test_expect_stdout_when_no_out(p3_file, capsys):
    assert main(["expect", "--instance", p3_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tau"] == [1.0, 2.0, 2.0]


def test_expect_missing_weights(p4_file, capsys):
    assert main(["expect", "--instance", p4_file]) == 1
    assert "rho" in capsys.readouterr().err


# -- reconstruct -----------------------------------------------------------------


def test_reconstruct_p3(p3_file, tmp_path):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"tau": [1.0, 2.0, 2.0]}))
    out = str(tmp_path / "weights.json")
    iters = str(tmp_path / "iters.csv")
    code = main(["reconstruct", "--instance", p3_file, "--target", str(target),
                 "--out", out, "--iters", iters])
    assert code == 0
    data = read_json(out)
    assert data["status"] == "converged"
    assert np.array(data["rho"]) == pytest.approx([1.0, 1.0, 1.0], abs=1e-6)
    assert_versions(data["manifest"])
    assert data["manifest"]["step_rule"] == "newton_log_likelihood"
    lines = open(iters).read().splitlines()
    header = json.loads(lines[0][len("# manifest: "):])
    assert_versions(header)
    assert header["step_rule"] == "newton_log_likelihood"
    assert lines[1] == "iter,cost,step"


def test_reconstruct_p4_matches_exact_solver(p4_file, tmp_path):
    target = tmp_path / "target.json"
    target.write_text(json.dumps([1.0, 2.0, 3.0, 2.0]))
    out = str(tmp_path / "weights.json")
    code = main(["reconstruct", "--instance", p4_file, "--target", str(target),
                 "--out", out, "--cost-tol", "1e-10"])
    assert code == 0
    rho = np.array(read_json(out)["rho"])
    g, _ = ww.load_instance(p4_file)
    P_rec = ww.transition_matrix(g, ww.derived_weights(g, rho))
    P_true = ww.transition_matrix(g, ww.solvability.solve_path(g, [1.0, 2.0, 3.0, 2.0]))
    assert np.abs(P_rec - P_true).max() <= 1e-3


def test_reconstruct_disconnected_support(tmp_path, capsys):
    inst = tmp_path / "p5.json"
    inst.write_text(json.dumps(
        {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]], "v_in": 4, "v_out": 0}
    ))
    target = tmp_path / "t.json"
    target.write_text(json.dumps([1.0, 1.0, 0.0, 1.0, 1.0]))
    assert main(["reconstruct", "--instance", str(inst), "--target", str(target)]) == 1
    assert "SupportMismatch" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), -0.5])
def test_reconstruct_invalid_target_entry(tmp_path, capsys, bad):
    inst = tmp_path / "g.json"
    inst.write_text(json.dumps(
        {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3], [1, 3]],
         "v_in": 3, "v_out": 0}
    ))
    target = tmp_path / "t.json"
    target.write_text(json.dumps([1.0, 2.0, bad, 1.5]))
    assert main(["reconstruct", "--instance", str(inst), "--target", str(target)]) == 1
    err = capsys.readouterr().err
    assert "InvalidTarget" in err and "vertex 2" in err


def test_target_shape_checked_by_library(p3_file, tmp_path, capsys):
    target = tmp_path / "t.json"
    target.write_text(json.dumps([1.0, 2.0]))
    for command in ("reconstruct", "solve", "check"):
        assert main([command, "--instance", p3_file, "--target", str(target)]) == 1
        assert "InvalidTarget" in capsys.readouterr().err


def test_target_object_without_tau_is_input_error(p3_file, tmp_path, capsys):
    target = tmp_path / "t.json"
    target.write_text(json.dumps({"r": [1.0, 2.0, 2.0]}))
    for command in ("reconstruct", "solve", "check"):
        assert main([command, "--instance", p3_file, "--target", str(target)]) == 1
        assert "lacks a 'tau' field" in capsys.readouterr().err


def test_reconstruct_nonconvergence_exit_code(p3_file, tmp_path):
    target = tmp_path / "t.json"
    target.write_text(json.dumps([1.0, 2.0, 3.0]))  # unreachable on a path
    out = str(tmp_path / "w.json")
    code = main(["reconstruct", "--instance", p3_file, "--target", str(target),
                 "--out", out, "--max-iters", "30"])
    assert code == 2
    assert read_json(out)["status"] in ("max_iters", "no_descent")


def test_reconstruct_no_descent_writes_partial_result(tmp_path, capsys):
    # Off P3's trace hull (r(1) != r(2)): a full Newton step at L's maximum
    # leaves the cost no lower, and the CLI still writes where it stopped.
    target = tmp_path / "t.json"
    target.write_text(json.dumps([1.0, 2.5, 2.6]))
    out = str(tmp_path / "w.json")
    code = main(["reconstruct", "--instance", str(INSTANCES / "p3_uniform.json"),
                 "--target", str(target), "--out", out])
    assert code == 2
    assert capsys.readouterr().err.startswith("warning: full Newton step")
    data = read_json(out)
    assert data["status"] == "no_descent"
    assert data["iterations"] == 3


def test_reconstruct_has_one_gradient(p3_file, tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps([1.0, 2.2, 2.2]))
    out = str(tmp_path / "w.json")
    assert main(["reconstruct", "--instance", p3_file, "--target",
                 str(target), "--out", out]) == 0
    assert "gradient_mode" not in read_json(out)["manifest"]
    with pytest.raises(SystemExit):
        main(["reconstruct", "--instance", p3_file, "--target", str(target),
              "--gradient-mode", "green"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_reconstruct_negative_max_iters_is_input_error(p3_file, tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text(json.dumps([1.0, 2.5, 2.5]))
    out = tmp_path / "w.json"
    assert main(["reconstruct", "--instance", p3_file, "--target", str(target),
                 "--out", str(out), "--max-iters", "-3"]) == 1
    assert "max_iters" in capsys.readouterr().err
    assert not out.exists()


# -- solve ------------------------------------------------------------------------


def test_solve_path_cli(p4_file, tmp_path):
    target = tmp_path / "r.json"
    target.write_text(json.dumps([1.0, 2.0, 3.0, 2.0]))
    out = str(tmp_path / "w.json")
    assert main(["solve", "--instance", p4_file, "--target", str(target),
                 "--out", out]) == 0
    data = read_json(out)
    assert data["family"] == "path"
    assert_versions(data["manifest"])
    assert np.array(data["rho"]) == pytest.approx([1.0, 1.0, 1.0, 0.5], abs=1e-9)


def test_solve_complete_cli(k3_file, tmp_path, capsys):
    target = tmp_path / "r.json"
    target.write_text(json.dumps([1.0, 4.0 / 3.0, 2.0 / 3.0]))
    out = str(tmp_path / "w.json")
    assert main(["solve", "--instance", k3_file, "--target", str(target),
                 "--out", out]) == 0
    data = read_json(out)
    assert data["family"] == "complete"
    assert np.array(data["rho"]) == pytest.approx([1.0, 1.0, 1.0], abs=1e-8)
    # the family is always detected, never chosen
    with pytest.raises(SystemExit):
        main(["solve", "--instance", k3_file, "--target", str(target),
              "--family", "path"])
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("instance,r,rho", [
    # cycle4 merges its twins 1 and 3; P3 with v_in = 1 strips the pendant 2.
    (str(INSTANCES / "cycle4.json"), [1.0, 1.0, 2.0, 1.0], [1.0, 0.5, 1.0, 0.5]),
    ({"n": 3, "edges": [[0, 1], [1, 2]], "v_in": 1, "v_out": 0},
     [1.0, 2.0, 1.0], [1.0, 1.0, 1.0]),
])
def test_solve_reducible_cli(instance, r, rho, tmp_path):
    if isinstance(instance, dict):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        instance = str(path)
    target = tmp_path / "r.json"
    target.write_text(json.dumps(r))
    out = str(tmp_path / "w.json")
    assert main(["solve", "--instance", instance, "--target", str(target),
                 "--out", out]) == 0
    data = read_json(out)
    assert data["family"] == "reducible"
    assert data["manifest"]["family"] == "reducible"
    assert np.array(data["rho"]) == pytest.approx(rho, abs=1e-9)


def test_solve_petersen_irreducible(tmp_path, capsys):
    import synth

    g = synth.petersen_instance()
    inst = tmp_path / "petersen.json"
    ww.save_instance(inst, g)
    target = tmp_path / "r.json"
    target.write_text(json.dumps([1.0] + [2.0] * 9))
    assert main(["solve", "--instance", str(inst), "--target", str(target)]) == 3
    assert "Irreducible" in capsys.readouterr().err


def test_solve_round_trip_miss_is_nonconvergence(tmp_path, capsys):
    # check certifies this target, but the path solver's forward round trip
    # misses it by 5.4e-9 relative, above its 1e-9 bound: a numerical
    # failure (exit 2), not an input error (exit 1).
    g = ww.build_graph(10, [(i, i + 1) for i in range(9)], v_in=9, v_out=0)
    inst = tmp_path / "p10.json"
    ww.save_instance(inst, g)
    w = ww.derived_weights(g, 3.0 ** np.arange(10))
    target = tmp_path / "r.json"
    target.write_text(json.dumps(ww.expected_occupation_fixed_point(g, w).values.tolist()))
    report = str(tmp_path / "report.json")
    assert main(["check", "--instance", str(inst), "--target", str(target),
                 "--out", report]) == 0
    assert read_json(report)["relint"] is True
    capsys.readouterr()
    assert main(["solve", "--instance", str(inst), "--target", str(target)]) == 2
    assert "VerificationError" in capsys.readouterr().err


def test_solve_not_in_psi_exit_code(p3_file, tmp_path, capsys):
    target = tmp_path / "r.json"
    target.write_text(json.dumps([1.0, 1.0, 1.0]))
    assert main(["solve", "--instance", p3_file, "--target", str(target)]) == 3
    assert "NotInPsi" in capsys.readouterr().err


# -- check -------------------------------------------------------------------------


def test_check_p3(p3_file, tmp_path):
    out = str(tmp_path / "report.json")
    assert main(["check", "--instance", p3_file, "--out", out]) == 0
    data = read_json(out)
    assert_versions(data["manifest"])
    assert data["hull_dim"] == 1
    assert data["bipartite"] is True
    assert data["relint"] is None


def test_check_k3(k3_file, capsys):
    assert main(["check", "--instance", k3_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hull_dim"] == 2 and data["bipartite"] is False


def test_check_with_boundary_target(p3_file, tmp_path):
    target = tmp_path / "r.json"
    target.write_text(json.dumps([1.0, 1.0, 1.0]))
    out = str(tmp_path / "report.json")
    assert main(["check", "--instance", p3_file, "--target", str(target),
                 "--out", out]) == 0
    data = read_json(out)
    assert data["relint"] is False


@pytest.mark.parametrize("edges,v_in,rho", [
    ([(0, 1), (1, 2)], 2, [1.0, 1.0, 13.0]),
    ([(0, 1), (1, 2), (2, 3)], 3, [1.0, 1.0, 6.0, 6.0]),
    ([(0, 1), (1, 2), (2, 3), (0, 3)], 2, [1.0, 1.0, 20.0, 1.0]),
])
def test_check_long_walk_target_is_member(tmp_path, edges, v_in, rho):
    # Expected walk length sum(r) - 1 exceeds 8n on each of these targets.
    g = ww.build_graph(len(rho), edges, v_in=v_in, v_out=0)
    inst = tmp_path / "g.json"
    ww.save_instance(inst, g)
    r = ww.expected_occupation_fixed_point(g, ww.derived_weights(g, rho)).values
    target = tmp_path / "r.json"
    target.write_text(json.dumps(r.tolist()))
    out = str(tmp_path / "report.json")
    assert main(["check", "--instance", str(inst), "--target", str(target),
                 "--out", out]) == 0
    assert read_json(out)["relint"] is True


# -- gradcheck -----------------------------------------------------------------------


def test_gradcheck_p3(p3_file, capsys):
    assert main(["gradcheck", "--instance", p3_file, "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_k3_with_report(k3_file, tmp_path):
    out = str(tmp_path / "g.json")
    assert main(["gradcheck", "--instance", k3_file, "--seed", "1",
                 "--out", out]) == 0
    data = read_json(out)
    assert_versions(data["manifest"])
    assert data["passed"] is True and data["max_rel_error"] <= 1e-5


def test_gradcheck_reports_both_routes(k3_file, tmp_path, capsys):
    out = str(tmp_path / "g.json")
    assert main(["gradcheck", "--instance", k3_file, "--seed", "2",
                 "--out", out]) == 0
    data = read_json(out)
    routes = (data["adjoint_rel_error"], data["green_rel_error"])
    assert data["max_rel_error"] == max(routes) <= 1e-5
    printed = capsys.readouterr().out
    assert "adjoint" in printed and "green" in printed


def test_missing_instance_file(tmp_path, capsys):
    assert main(["expect", "--instance", str(tmp_path / "nope.json")]) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("field,value,message", [
    ("edges", [[0, 1], [1, 1.9]], "edge (1, 1.9) has a non-integer endpoint"),
    ("v_in", 2.5, "v_in=2.5 is not an integer"),
    ("n", 3.0, "n=3.0 is not an integer"),
])
def test_non_integer_instance_field_is_input_error(field, value, message, tmp_path, capsys):
    # int() used to truncate these to a different, valid graph.
    data = {"n": 3, "edges": [[0, 1], [1, 2]], "v_in": 2, "v_out": 0}
    data[field] = value
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    target = tmp_path / "r.json"
    target.write_text(json.dumps([1.0, 2.0, 2.0]))
    assert main(["solve", "--instance", str(inst), "--target", str(target)]) == 1
    assert message in capsys.readouterr().err
