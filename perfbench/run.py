"""Run one benchmark workload against the library in this checkout.

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 30 --trace 0

The workload's operations are fixed by the seed; the run repeats whole
rounds of them until another round would overrun ``--seconds`` (at least
one round), checks every result, prints a report, and ends with one JSON
line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones and nothing is
wrapped.  With ``--trace 1`` the run alternates plain and traced rounds and
reports the per-layer metrics of the traced ones, plus the tracing
overhead: traced batch time minus plain batch time.  Exit code 2 means the
checkout holds no library to measure.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402

import checkout  # noqa: E402

checkout.pin_threads()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Round:
    op_seconds: list[float] = field(default_factory=list)
    op_cpu_seconds: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    failures: list[tuple[object, list[str]]] = field(default_factory=list)


def per_op_medians(rounds: list[Round], attr: str = "op_seconds") -> list[float]:
    """Each operation's median over rounds.

    The box is shared, so a burst of outside load can slow one round by a
    factor of two; taking every op's median over the rounds before summing
    keeps one slow round from moving the batch figures.
    """
    return [statistics.median(col) for col in zip(*(getattr(r, attr) for r in rounds))]


def _cpu() -> float:
    """User + system CPU seconds of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_round(ops) -> Round:
    rnd = Round()
    start = time.perf_counter()
    for op in ops:
        c0, t0 = _cpu(), time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), _cpu()
        rnd.op_seconds.append(t1 - t0)
        rnd.op_cpu_seconds.append(c1 - c0)
        reasons = [error] if error else op.check(out)
        if reasons:
            rnd.failures.append((op, reasons))
    rnd.elapsed = time.perf_counter() - start
    return rnd


def run_rounds(ops, seconds: float, tracer=None) -> tuple[list[Round], list[Round]]:
    """Whole rounds until ``seconds`` would be overrun; returns (plain, traced).

    Without a tracer every round is plain.  With one, rounds alternate
    plain/traced, starting plain, and at least two plain rounds and one
    traced round run: the first round warms caches and lazy imports, so it
    is left out of the overhead comparison.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        if trace_this:
            tracer.install()
            try:
                traced.append(run_round(ops))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_round(ops))
        elapsed = time.perf_counter() - start
        longest = max(r.elapsed for r in plain + traced)
        if elapsed + longest > seconds and (tracer is None or (traced and len(plain) > 1)):
            return plain, traced


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def report(name, seed, rounds, metrics, units) -> None:
    print(f"workload {name}, seed {seed}: {len(rounds)} round(s) of "
          f"{len(rounds[0].op_seconds)} operations")
    width = max(map(len, metrics))
    for key, value in metrics.items():
        print(f"  {key:<{width}}  {value:.6g} {units[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        ww = checkout.import_library()
    except (checkout.MissingLibrary, ImportError) as exc:
        print(f"error: cannot load the library from this checkout: {exc}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - T0

    checkout.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=checkout.OUT)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            ops = setup(ww, args.seed, Path(workdir))
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        tracer = tracing.Tracer() if args.trace else None
        plain, traced = run_rounds(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    if args.trace:
        overhead = sum(per_op_medians(traced)) - sum(per_op_medians(plain[1:]))
        metrics = tracer.layer_metrics(len(traced), overhead)
        units = tracing.LAYER_METRICS
        spans = checkout.OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans)
        report(args.workload, args.seed, traced, metrics, units)
        print(f"  spans written to {spans.relative_to(checkout.ROOT)}")
    else:
        op_s = per_op_medians(plain)
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(op_s),
            "op_s_p50": statistics.median(op_s),
            "cpu_s": sum(per_op_medians(plain, "op_cpu_seconds")),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
        report(args.workload, args.seed, plain, metrics, units)

    attempted = sum(len(r.op_seconds) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    correct = all(
        op.known_fault and all(reason.startswith(op.fault_reason) for reason in reasons)
        for op, reasons in failures
    )
    print(f"  attempted {attempted}, failed {len(failures)}")
    tally = Counter((op.label, op.known_fault, "; ".join(reasons)) for op, reasons in failures)
    for (label, fault, reason), count in sorted(tally.items(), key=str):
        known = f" [known fault: {fault}]" if fault else " [UNEXPECTED]"
        print(f"  failed x{count}: {label}: {reason}{known}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
