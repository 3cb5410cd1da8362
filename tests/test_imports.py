"""Import boundaries: scipy.linalg, scipy.optimize and multiprocessing load
only on the paths that call them, so a Monte Carlo run starts without them."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import walkweights as ww
from walkweights import solvability
from synth import path_instance

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
ww.relint_membership(g, [1.0, 2.0, 3.0, 2.0])
print(loaded())
"""


def test_heavy_modules_load_on_first_use():
    src = str(Path(ww.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [
        "[]",
        "['scipy.linalg']",
        "['scipy.linalg', 'scipy.optimize']",
    ]


def test_relint_goes_through_module_linprog(monkeypatch):
    # The benchmark's tracer times the LP by wrapping ``solvability.linprog``.
    calls = []
    forward = solvability.linprog

    def spy(*args, **kwargs):
        calls.append(kwargs["A_eq"].shape)
        return forward(*args, **kwargs)

    monkeypatch.setattr(solvability, "linprog", spy)
    g = path_instance(3)
    assert ww.relint_membership(g, np.array([1.0, 2.0, 2.0]))
    assert len(calls) == 1
