"""The benchmark's tracer patches library functions by name; every name it
lists must exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.TARGETS:
        mod = importlib.import_module(f"walkweights.{module}")
        assert callable(getattr(mod, attr, None)), f"walkweights.{module}.{attr}"
