"""The three workloads: their operations and the check on each result.

A workload's ``setup`` turns a seed into a fixed list of ``Op``s.  Each op
has a ``run`` (timed: one call into the library) and a ``check`` (untimed:
compares the result with the benchmark's own reference or with a property
the method must have, and returns the reasons it failed).  Calls go
through module attributes looked up at call time, so the traced run's
wrappers see them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import reference


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    # A known program fault that makes this op fail on every run, and the
    # start of the failure reason it produces.
    known_fault: str | None = None
    fault_reason: str = ""


# -- reconstruct -----------------------------------------------------------------

COST_TOL = 1e-8
ITER_BUDGET = 5000
RECON_TAU_TOL = 1e-4


def _reconstruct_op(ww, inst: inputs.Instance, rho: np.ndarray) -> Op:
    target = reference.occupation(inst.n, inst.edges, inst.v_in, inst.v_out, rho)
    g = ww.build_graph(inst.n, inst.edges, inst.v_in, inst.v_out)
    cfg = ww.ReconstructionConfig(max_iters=ITER_BUDGET, cost_tol=COST_TOL)
    recon = ww.reconstruct

    def check(res) -> list[str]:
        if res.status != "converged":
            return [f"status {res.status} after {len(res.log) - 1} iterations "
                    f"(cost {res.final_cost:.3e})"]
        if tuple(res.support) != tuple(range(inst.n)):
            return [f"support {res.support} is not every vertex"]
        # Compare walks, not weights: on a bipartite graph a whole colour
        # class can be rescaled without changing any transition.
        tau = reference.occupation(inst.n, inst.edges, inst.v_in, inst.v_out, res.weights.rho)
        gap = float(np.abs(tau - target).max())
        if gap > RECON_TAU_TOL:
            return [f"recovered weights miss the target by {gap:.3e} (tol {RECON_TAU_TOL:.0e})"]
        return []

    return Op(inst.name, lambda: recon.reconstruct_weights(g, target, cfg), check)


def setup_reconstruct(ww, seed: int, workdir: Path) -> list[Op]:
    """The fixed catalogue (see ``inputs.reconstruct_catalogue``), run in an
    order drawn from the seed."""
    rng = inputs.seeded_rng(seed, "reconstruct")
    catalogue = inputs.reconstruct_catalogue()
    return [_reconstruct_op(ww, *catalogue[k]) for k in rng.permutation(len(catalogue))]


# -- sample ----------------------------------------------------------------------

# Walk steps per operation, per graph, chosen so that every op takes roughly
# the same time today; and draws per graph per round.
SAMPLE_STEPS = {"dense9": 3_000_000, "grid10x10": 1_500_000, "tree200": 800_000, "grid20x20": 600_000}
SAMPLE_DRAWS = 3
# Every vertex must be reached by this many walks in expectation, so that
# the 5-standard-error check compares near-normal means.
MIN_EXPECTED_HITS = 50
# Walkers lean towards the exit.  Walk lengths then vary less (coefficient
# of variation ~0.6-1.0 instead of ~0.9-1.1) and each op runs more, shorter
# walks, so the steps an op actually takes stay within a few per cent of
# its budget whatever the seed.
SAMPLE_PULL = 0.1
Z_TOL = 5.0


def _sample_op(ww, inst: inputs.Instance, rho: np.ndarray, mc_seed: int) -> Op:
    mom = reference.moments(inst.n, inst.edges, inst.v_in, inst.v_out, rho)
    length = float(mom.mean.sum()) - 1.0
    N = max(math.ceil(SAMPLE_STEPS[inst.name] / length),
            math.ceil(MIN_EXPECTED_HITS / float(mom.hit.min())))
    g = ww.build_graph(inst.n, inst.edges, inst.v_in, inst.v_out)
    w = ww.derived_weights(g, rho)
    occ = ww.occupation

    def check(vec) -> list[str]:
        reasons = []
        if vec.values[inst.v_out] != 1.0:
            reasons.append(f"mean at v_out is {vec.values[inst.v_out]!r}, not 1")
        se = np.sqrt(mom.var / N)
        dev = np.abs(vec.values - mom.mean)
        # A vertex whose visit count cannot vary must match exactly.
        z = np.divide(dev, se, out=np.where(dev > 0, np.inf, 0.0), where=se > 0)
        worst = int(np.argmax(z))
        if z[worst] > Z_TOL:
            reasons.append(f"vertex {worst} mean {vec.values[worst]:.6g} is {z[worst]:.2f} "
                           f"standard errors from the reference {mom.mean[worst]:.6g}")
        return reasons

    label = f"{inst.name} N={N}"
    return Op(label, lambda: occ.empirical_occupation(g, w, N, mc_seed, workers=1), check)


def setup_sample(ww, seed: int, workdir: Path) -> list[Op]:
    rng = inputs.seeded_rng(seed, "sample")
    ops = []
    for base in inputs.sample_catalogue():
        for _ in range(SAMPLE_DRAWS):
            inst = base.relabel(rng)
            rho = inputs.hidden_weights(rng, inst, pull=SAMPLE_PULL)
            ops.append(_sample_op(ww, inst, rho, int(rng.integers(2**31))))
    return ops


# -- exact -----------------------------------------------------------------------

# Hidden weights lean towards v_out so that walks stay well inside the
# default trace cap (4n): the relint check then never escalates, and its
# cost follows the graph rather than the seed.
EXACT_PULL = 0.5
SOLVE_TAU_TOL = 1e-8
RELINT_TRUNCATION = "relint truncates the trace set at walk length 8n"


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def _exact_op(ww, inst: inputs.Instance, rho: np.ndarray, workdir: Path, k: int,
              known_fault: str | None = None) -> Op:
    r = reference.occupation(inst.n, inst.edges, inst.v_in, inst.v_out, rho)
    spec = {"n": inst.n, "edges": [list(e) for e in inst.edges],
            "v_in": inst.v_in, "v_out": inst.v_out}
    inst_path = _write_json(workdir / f"instance-{k}.json", spec)
    target_path = _write_json(workdir / f"target-{k}.json", {"tau": r.tolist()})
    check_out = workdir / f"check-{k}.json"
    solve_out = workdir / f"solve-{k}.json"
    bipartite = reference.is_bipartite(inst.n, inst.edges)
    cli = ww.cli

    def run():
        args = ["--instance", inst_path, "--target", target_path, "--out"]
        return (cli.main(["check", *args, str(check_out)]),
                cli.main(["solve", *args, str(solve_out)]))

    def check(codes) -> list[str]:
        reasons = []
        if codes != (0, 0):
            reasons.append(f"exit codes check={codes[0]} solve={codes[1]}")
        if codes[0] == 0:
            out = json.loads(check_out.read_text())
            check_out.unlink()
            dim = inst.n - 2 if bipartite else inst.n - 1
            if out["hull_dim"] != dim:
                reasons.append(f"hull_dim {out['hull_dim']}, expected {dim}")
            if out["relint"] is not True:
                reasons.append(f"relint {out['relint']} at cap_used {out['cap_used']}")
        if codes[1] == 0:
            out = json.loads(solve_out.read_text())
            solve_out.unlink()
            tau = reference.occupation(inst.n, inst.edges, inst.v_in, inst.v_out, out["rho"])
            gap = float(np.abs(tau - r).max())
            if gap > SOLVE_TAU_TOL:
                reasons.append(f"solved rho misses the target by {gap:.3e}")
        return reasons

    return Op(inst.name, run, check, known_fault, "relint False" if known_fault else "")


def setup_exact(ww, seed: int, workdir: Path) -> list[Op]:
    rng = inputs.seeded_rng(seed, "exact")
    ops = []
    for inst in inputs.exact_catalogue():
        inst = inst.relabel(rng)
        rho = inputs.hidden_weights(rng, inst, pull=EXACT_PULL)
        ops.append(_exact_op(ww, inst, rho, workdir, len(ops)))
    for inst, rho in inputs.long_walk_cases():
        ops.append(_exact_op(ww, inst, rho, workdir, len(ops), RELINT_TRUNCATION))
    return ops


# Why each workload is there is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[object, int, Path], list[Op]]] = {
    "reconstruct": setup_reconstruct,
    "sample": setup_sample,
    "exact": setup_exact,
}
