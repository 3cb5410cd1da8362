"""Command-line front end: expect, reconstruct, solve, check, gradcheck.

Every artifact embeds a manifest (command, seed, instance hash, and the
walkweights, numpy and scipy versions that produced it) and is written
atomically (temp file + rename), so interrupted runs never leave
partial files and identical manifests always reproduce identical bytes.

Exit codes: 0 success, 1 input error, 2 non-convergence (including an
exact solve whose forward round trip misses the target), 3 structural
rejection (target outside the solvable cone / irreducible).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from . import __version__, occupation, reconstruct, solvability
from .errors import Irreducible, NoDescent, NotInPsi, VerificationError, WalkWeightsError
from .graph_core import derived_weights, instance_to_dict, load_instance

__all__ = ["main"]

GRADCHECK_TOL = 1e-5

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_STRUCTURAL = 3


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    # mkstemp makes the file owner-only; the artifact gets the mode a plain
    # open(path, "w") would create it with.
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            os.chmod(tmp, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _instance_hash(g, w) -> str:
    payload = instance_to_dict(g, None if w is None else w.rho)
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _manifest(command: str, g, w, **fields) -> dict:
    m = {
        "command": command,
        "instance_sha256": _instance_hash(g, w),
        "versions": {
            "walkweights": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    m.update({k: v for k, v in fields.items() if v is not None})
    return m


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _emit_csv(body: str, manifest: dict, out: str) -> None:
    header = "# manifest: " + json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    _atomic_write(out, header + "\n" + body)


def _load_target(path: str):
    """The target list of a file holding either the list or {"tau": list};
    the library checks its shape and entries."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        if "tau" not in data:
            raise ValueError(f"target file {path} lacks a 'tau' field")
        data = data["tau"]
    return data


def _require_weights(w, instance_path):
    if w is None:
        raise ValueError(f"instance {instance_path} has no 'rho' field but weights are required")
    return w


# -- commands ---------------------------------------------------------------


def _cmd_expect(args) -> int:
    g, w = load_instance(args.instance)
    w = _require_weights(w, args.instance)
    if args.method == "fixedpoint":
        vec = occupation.expected_occupation_fixed_point(g, w)
    elif args.method == "green":
        vec = occupation.expected_occupation_green(g, w)
    elif args.method == "montecarlo":
        if args.seed is None:
            raise ValueError("--seed is required for method=montecarlo")
        vec = occupation.empirical_occupation(g, w, args.N, args.seed, workers=args.workers)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown method {args.method}")

    # The Monte Carlo bytes depend on the engine N routes to, on the chunk
    # width (per-walk engine) or batch count (count engine, and the routing
    # rule), on the rule that turns a seed into walks and on numpy's PCG64
    # stream, so the manifest names them all.
    mc = args.method == "montecarlo"
    manifest = _manifest(
        "expect", g, w, method=args.method,
        seed=args.seed if mc else None,
        N=args.N if mc else None,
        engine=occupation.mc_engine(g, args.N) if mc else None,
        chunk_size=occupation.DEFAULT_CHUNK if mc else None,
        batches=occupation.COUNT_BATCHES if mc else None,
        stream_version=occupation.STREAM_VERSION if mc else None,
    )
    if args.out is not None and args.out.endswith(".csv"):
        _emit_csv(occupation.occupation_to_csv(vec), manifest, args.out)
    else:
        payload = {"manifest": manifest, "method": args.method}
        payload.update(occupation.occupation_to_dict(vec))
        _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    g, _ = load_instance(args.instance)
    tau = _load_target(args.target)
    cfg = reconstruct.ReconstructionConfig(
        max_iters=args.max_iters, cost_tol=args.cost_tol
    )
    status = "no_descent"
    try:
        result = reconstruct.reconstruct_weights(g, tau, cfg)
        status = result.status
    except NoDescent as exc:
        result = exc.result
        print(f"warning: {exc}", file=sys.stderr)

    manifest = _manifest(
        "reconstruct", g, None, max_iters=args.max_iters, cost_tol=args.cost_tol,
        step_rule="newton_log_likelihood",
    )
    payload = {
        "manifest": manifest,
        "rho": [float(x) for x in result.weights.rho],
        "support": list(result.support),
        "status": status,
        "final_cost": result.final_cost,
        "iterations": len(result.log),
    }
    _emit_json(payload, args.out)
    if args.iters is not None:
        body = "iter,cost,step\n" + "".join(
            f"{rec.iteration},{rec.cost!r},{rec.step!r}\n" for rec in result.log
        )
        _emit_csv(body, manifest, args.iters)
    return EXIT_OK if status == "converged" else EXIT_NO_CONVERGENCE


def _cmd_solve(args) -> int:
    g, _ = load_instance(args.instance)
    r = _load_target(args.target)
    w = solvability.solve_reducible(g, r)
    family = solvability.detect_family(g)
    if family == "other":
        family = "reducible"
    manifest = _manifest("solve", g, None, family=family)
    _emit_json(
        {"manifest": manifest, "family": family,
         "rho": [float(x) for x in w.rho]},
        args.out,
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    g, _ = load_instance(args.instance)
    relint = None
    if args.target is not None:
        r = _load_target(args.target)
        relint = bool(solvability.relint_membership(g, r).member)
    _emit_json(
        {
            "manifest": _manifest("check", g, None),
            "hull_dim": solvability.hull_dimension(g),
            "bipartite": g.bipartite,
            "relint": relint,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    g, _ = load_instance(args.instance)
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    rho = rng.uniform(0.2, 5.0, g.n)
    rho[g.v_out] = 1.0
    hidden = rng.uniform(0.2, 5.0, g.n)
    hidden[g.v_out] = 1.0
    tau_hat = occupation.expected_occupation_fixed_point(g, derived_weights(g, hidden)).values

    w = derived_weights(g, rho)
    exact = reconstruct.complex_step_gradient(g, rho, tau_hat)
    scale = max(1.0, np.abs(exact).max())
    errors = {}
    for mode in ("adjoint", "green"):
        grad = reconstruct.occupation_gradient(g, w, tau_hat, mode=mode)
        errors[mode] = float(np.abs(grad - exact).max() / scale)
    err = max(errors.values())
    passed = err <= GRADCHECK_TOL
    print(
        f"gradcheck: max relative error {err:.3e} (adjoint {errors['adjoint']:.3e}, "
        f"green {errors['green']:.3e}; tol {GRADCHECK_TOL:.0e}) "
        f"-> {'PASS' if passed else 'FAIL'}"
    )
    if args.out is not None:
        manifest = _manifest("gradcheck", g, None, seed=args.seed)
        _emit_json(
            {
                "manifest": manifest,
                "max_rel_error": err,
                "adjoint_rel_error": errors["adjoint"],
                "green_rel_error": errors["green"],
                "passed": passed,
            },
            args.out,
        )
    return EXIT_OK if passed else EXIT_NO_CONVERGENCE


# -- argument parsing ---------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkweights",
        description="Occupation times of absorbing walks on weighted graphs: "
        "forward maps, weight reconstruction, and exact solvability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expect", help="compute an occupation vector")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=("green", "fixedpoint", "montecarlo"),
                   default="fixedpoint")
    p.add_argument("--N", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_expect)

    p = sub.add_parser("reconstruct", help="recover weights from a target")
    p.add_argument("--instance", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--iters", default=None, help="iteration log CSV path")
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--cost-tol", type=float, default=1e-8)
    p.set_defaults(run=_cmd_reconstruct)

    p = sub.add_parser("solve", help="exact solve for path/complete/reducible")
    p.add_argument("--instance", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("check", help="hull dimension and relint membership")
    p.add_argument("--instance", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser(
        "gradcheck", help="adjoint and Green's-chain vs complex-step gradient"
    )
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (NotInPsi, Irreducible) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except VerificationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (WalkWeightsError, OSError, ValueError, json.JSONDecodeError) as exc:
        name = type(exc).__name__ if isinstance(exc, WalkWeightsError) else "error"
        print(f"{name}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
