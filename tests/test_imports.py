"""Import boundaries: scipy.linalg and multiprocessing load only on the
paths that call them, and no library path loads scipy.optimize.  The Monte
Carlo, fixed-point, Newton, closed-form and max-flow relint routes run on
numpy alone; the Green's route loads scipy.linalg (``eigh``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import walkweights as ww

HEAVY = ("scipy.linalg", "scipy.optimize", "multiprocessing")

PROBE = f"""
import sys
import walkweights as ww
import walkweights.cli

def loaded():
    return sorted(m for m in {HEAVY!r} if m in sys.modules)

g = ww.build_graph(4, [(0, 1), (1, 2), (2, 3)], v_in=3, v_out=0)
w = ww.derived_weights(g, [1.0, 1.0, 1.0, 0.5])
ww.empirical_occupation(g, w, 500, seed=7)
print(loaded())
ww.reconstruct_weights(g, [1.0, 2.0, 3.0, 2.0])
print(loaded())
ww.expected_occupation_fixed_point(g, w)
ww.solve_reducible(g, [1.0, 2.0, 3.0, 2.0])
print(loaded())
ww.expected_occupation_green(g, w)
print(loaded())
ww.relint_membership(g, [1.0, 2.0, 3.0, 2.0])
print(loaded())
"""


def run_probe(code: str) -> list[str]:
    """Lines printed by ``code`` run in a fresh interpreter on this tree."""
    src = str(Path(ww.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


def test_heavy_modules_load_on_first_use():
    assert run_probe(PROBE) == [
        "[]",
        "[]",
        "[]",
        "['scipy.linalg']",
        "['scipy.linalg']",
    ]


def test_check_with_target_loads_no_heavy_module(tmp_path):
    instance = Path(__file__).resolve().parents[1] / "instances" / "grid3x3.json"
    g, _ = ww.load_instance(instance)
    target = tmp_path / "target.json"
    target.write_text(json.dumps(ww.expected_occupation_fixed_point(
        g, ww.derived_weights(g, np.linspace(0.5, 2.0, g.n))).values.tolist()))
    probe = f"""
import sys
from walkweights import cli
code = cli.main(["check", "--instance", {str(instance)!r}, "--target", {str(target)!r},
                 "--out", {str(tmp_path / "report.json")!r}])
print(code, sorted(m for m in {HEAVY!r} if m in sys.modules))
"""
    assert run_probe(probe) == ["0 []"]
    assert json.loads((tmp_path / "report.json").read_text())["relint"] is True
