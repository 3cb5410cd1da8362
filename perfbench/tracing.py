"""Per-layer spans for the traced run.

``Tracer.install`` swaps each traced library function for a timing wrapper
in every ``walkweights`` module that holds a reference to it, because that
is the name callers look up (``reconstruct`` calls its own imported
``expected_occupation_fixed_point``, not ``occupation``'s).  ``uninstall``
puts the originals back; with tracing off nothing is ever replaced.

Spans live in memory as (kind, start, end, parent) and are written out as
one ``.npz`` file when the run ends.  A layer's self time is its span time
minus the time of the traced spans directly inside it.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span kind).  Several attributes may share a kind.
TARGETS = (
    ("graph_core", "build_graph", "graph_core.build_graph"),
    ("graph_core", "derived_weights", "graph_core.derived_weights"),
    ("occupation", "expected_occupation_fixed_point", "occupation.fixed_point"),
    ("occupation", "empirical_occupation", "occupation.mc"),
    ("spectral_green", "spectral_data", "spectral_green.spectral_data"),
    ("spectral_green", "pseudoinverse_derivative", "spectral_green.pinv_derivative"),
    ("reconstruct", "reconstruct_weights", "reconstruct.reconstruct_weights"),
    ("reconstruct", "occupation_gradient", "reconstruct.gradient"),
    ("reconstruct", "cost", "reconstruct.cost"),
    ("solvability", "relint_membership", "solvability.relint"),
    ("solvability", "linprog", "solvability.lp"),
    ("solvability", "hull_dimension", "solvability.hull_dimension"),
    ("solvability", "solve_path", "solvability.solve"),
    ("solvability", "solve_complete", "solvability.solve"),
    ("solvability", "solve_reducible", "solvability.solve"),
    ("cli", "main", "cli"),
)

# Per-layer metrics, in report order: name -> unit.
LAYER_METRICS = {
    "reconstruct.iters": "count",
    "reconstruct.gradient_calls": "count",
    "reconstruct.gradient_self_s": "s",
    "reconstruct.iter_s": "s",
    "reconstruct.cost_calls": "count",
    "reconstruct.backtracks": "count",
    "reconstruct.cost_s": "s",
    "spectral_green.spectral_data_calls": "count",
    "spectral_green.spectral_data_s": "s",
    "spectral_green.pinv_derivative_calls": "count",
    "spectral_green.pinv_derivative_s": "s",
    "occupation.fixed_point_calls": "count",
    "occupation.fixed_point_s": "s",
    "occupation.mc_walks": "count",
    "occupation.mc_steps": "count",
    "occupation.mc_s": "s",
    "occupation.mc_steps_per_s": "1/s",
    "solvability.relint_calls": "count",
    "solvability.traces": "count",
    "solvability.relint_s": "s",
    "solvability.lp_s": "s",
    "solvability.hull_dimension_s": "s",
    "solvability.solve_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "graph_core.build_graph_calls": "count",
    "graph_core.build_graph_s": "s",
    "graph_core.derived_weights_calls": "count",
    "graph_core.derived_weights_s": "s",
    "trace.overhead_s": "s",
}


def _count_result(tracer, kind, args, kwargs, result) -> None:
    """Work counts read off a traced call's arguments and result."""
    if kind == "occupation.mc":
        N = kwargs["N"] if "N" in kwargs else args[2]
        tracer.counts["mc_walks"] += N
        # Every walk's trace sums to its length + 1, so the mean trace sums
        # to (steps / N) + 1.
        tracer.counts["mc_steps"] += round(float(np.sum(result.values)) * N) - N
    elif kind == "reconstruct.reconstruct_weights":
        tracer.counts["iters"] += len(result.log) - 1
    elif kind == "solvability.lp":
        tracer.counts["traces"] += kwargs["A_eq"].shape[1] - 1


class Tracer:
    def __init__(self):
        self.kinds: list[str] = []
        self._kind_index: dict[str, int] = {}
        self.kind = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: dict[str, int] = {"mc_walks": 0, "mc_steps": 0, "iters": 0, "traces": 0}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, kind: str):
        if kind not in self._kind_index:
            self._kind_index[kind] = len(self.kinds)
            self.kinds.append(kind)
        k = self._kind_index[kind]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.kind.append(k)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            _count_result(self, kind, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "walkweights" or name.startswith("walkweights."))
        ]
        for mod_name, attr, kind in TARGETS:
            original = getattr(sys.modules[f"walkweights.{mod_name}"], attr)
            wrapper = self._wrap(original, kind)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        self._patched.append((m, name, original))

    def uninstall(self) -> None:
        for m, name, original in reversed(self._patched):
            setattr(m, name, original)
        self._patched.clear()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """kind -> (calls, inclusive seconds, self seconds)."""
        kind, parent = np.array(self.kind, dtype=int), np.array(self.parent, dtype=int)
        dur = np.array(self.end) - np.array(self.start)
        inner = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(inner, parent[nested], dur[nested])
        out = {}
        for k, name in enumerate(self.kinds):
            mask = kind == k
            out[name] = (int(mask.sum()), float(dur[mask].sum()), float((dur - inner)[mask].sum()))
        return out

    def layer_metrics(self, rounds: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics per round of the workload (see LAYER_METRICS)."""
        totals = self.totals()
        calls, incl, self_s = ({k: v[i] for k, v in totals.items()} for i in range(3))
        iters = self.counts["iters"]
        mc_s = self_s["occupation.mc"]
        m = {
            "reconstruct.iters": iters,
            "reconstruct.gradient_calls": calls["reconstruct.gradient"],
            "reconstruct.gradient_self_s": self_s["reconstruct.gradient"],
            "reconstruct.iter_s": incl["reconstruct.reconstruct_weights"] / iters if iters else 0.0,
            "reconstruct.cost_calls": calls["reconstruct.cost"],
            "reconstruct.backtracks": calls["reconstruct.cost"] - iters,
            "reconstruct.cost_s": self_s["reconstruct.cost"],
            "spectral_green.spectral_data_calls": calls["spectral_green.spectral_data"],
            "spectral_green.spectral_data_s": self_s["spectral_green.spectral_data"],
            "spectral_green.pinv_derivative_calls": calls["spectral_green.pinv_derivative"],
            "spectral_green.pinv_derivative_s": self_s["spectral_green.pinv_derivative"],
            "occupation.fixed_point_calls": calls["occupation.fixed_point"],
            "occupation.fixed_point_s": self_s["occupation.fixed_point"],
            "occupation.mc_walks": self.counts["mc_walks"],
            "occupation.mc_steps": self.counts["mc_steps"],
            "occupation.mc_s": mc_s,
            "occupation.mc_steps_per_s": self.counts["mc_steps"] / mc_s if mc_s else 0.0,
            "solvability.relint_calls": calls["solvability.relint"],
            "solvability.traces": self.counts["traces"],
            "solvability.relint_s": self_s["solvability.relint"],
            "solvability.lp_s": self_s["solvability.lp"],
            "solvability.hull_dimension_s": self_s["solvability.hull_dimension"],
            "solvability.solve_s": self_s["solvability.solve"],
            "cli.calls": calls["cli"],
            "cli.self_s": self_s["cli"],
            "graph_core.build_graph_calls": calls["graph_core.build_graph"],
            "graph_core.build_graph_s": self_s["graph_core.build_graph"],
            "graph_core.derived_weights_calls": calls["graph_core.derived_weights"],
            "graph_core.derived_weights_s": self_s["graph_core.derived_weights"],
        }
        # Ratios are per call or per step already; everything else is summed
        # over the traced rounds and reported per round.
        ratios = ("reconstruct.iter_s", "occupation.mc_steps_per_s")
        out = {k: (v if k in ratios else v / rounds) for k, v in m.items()}
        out["trace.overhead_s"] = overhead_s
        return out

    def save(self, path: Path) -> None:
        np.savez(
            path,
            kinds=np.array(self.kinds),
            kind=np.array(self.kind, dtype=int),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=int),
        )
