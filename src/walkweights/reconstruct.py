"""Weight reconstruction from target occupation times.

The cost is the squared l2 gap between the target tau-hat and the model's
expected occupation vector.  Its gradient with respect to each free vertex
weight (v_out stays pinned at 1) comes from the adjoint of the pinned
fixed-point system A r = e_out that the cost already solves: one transposed
back-solve with A's LU factors and a few adjacency mat-vecs per descent
point.  The paper's Green's-function chain (weight jacobians, the
normalized-Laplacian derivative, the null-eigenvector derivative, and the
pseudoinverse derivative formula) stays as ``occupation_gradient``'s
``mode="green"``, the reference oracle the adjoint is tested against.  Both
are checked against ``complex_step_gradient``, which differentiates the same
pinned system at a complex weight and is exact to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import (
    Disconnected,
    InvalidTarget,
    NoDescent,
    SingularSystem,
    SupportMismatch,
    ZeroVariance,
)
from .graph_core import GraphInstance, WeightAssignment, _induced_subgraph, derived_weights
from .occupation import (
    _pinned_fixed_point,
    _target_array,
    expected_occupation_fixed_point,
)
from .spectral_green import SpectralData, pseudoinverse_derivative, spectral_data

__all__ = [
    "FixedStep",
    "Backtracking",
    "ReconstructionConfig",
    "DerivativeBundle",
    "GradientReport",
    "IterationRecord",
    "ReconstructionResult",
    "cost",
    "weight_jacobians",
    "green_derivative",
    "occupation_gradient",
    "complex_step_gradient",
    "restrict_support",
    "reconstruct_weights",
    "expertise_correlation",
]

_MIN_ETA = 1e-18


@dataclass(frozen=True)
class FixedStep:
    eta: float


@dataclass(frozen=True)
class Backtracking:
    eta0: float = 0.1
    shrink: float = 0.5
    armijo_c: float = 1e-4


@dataclass(frozen=True)
class ReconstructionConfig:
    max_iters: int = 10_000
    cost_tol: float = 1e-8
    step_rule: FixedStep | Backtracking = Backtracking()
    positivity_floor: float = 1e-8

    def __post_init__(self):
        if self.cost_tol <= 0:
            raise ValueError("cost_tol must be positive")
        if self.positivity_floor <= 0:
            raise ValueError("positivity_floor must be positive")


@dataclass(frozen=True)
class DerivativeBundle:
    """All pieces of d(quantity)/d rho(x) for one differentiation vertex x.

    ``d_script_green``/``d_big_green`` stay None until the Green chain is
    evaluated (they need spectral data).  ``d_T`` is the diagonal matrix of
    ``d_tilde_rho``.
    """

    vertex: int
    d_tilde_rho: np.ndarray
    d_vol: float
    d_norm_laplacian: np.ndarray
    d_phi0: np.ndarray
    d_projector: np.ndarray
    d_script_green: np.ndarray | None = None
    d_big_green: np.ndarray | None = None

    @property
    def d_T(self) -> np.ndarray:
        return np.diag(self.d_tilde_rho)


@dataclass(frozen=True)
class GradientReport:
    """Cost, gradient over the free vertices, and retained derivatives."""

    cost: float
    gradient: np.ndarray
    free_vertices: tuple[int, ...]
    tau: np.ndarray
    bundles: tuple[DerivativeBundle, ...] | None = None


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    cost: float
    step: float


@dataclass(frozen=True)
class ReconstructionResult:
    weights: WeightAssignment
    instance: GraphInstance
    support: tuple[int, ...]
    log: tuple[IterationRecord, ...]
    converged: bool
    status: str
    final_cost: float


def _check_full_support(g: GraphInstance, tau: np.ndarray) -> None:
    zeros = np.flatnonzero(~(tau > 0))
    if zeros.size:
        raise SupportMismatch(
            f"tau_hat is not strictly positive at vertices {zeros.tolist()}; "
            "restrict to the support subgraph first (restrict_support)"
        )


def cost(g: GraphInstance, w: WeightAssignment, tau_hat) -> float:
    """Squared l2 distance between tau_hat and the model occupation vector.

    The v_out coordinate contributes nothing: both sides equal 1 there by
    the proper-walk convention.
    """
    tau = _target_array(tau_hat, g.n)
    _check_full_support(g, tau)
    model = expected_occupation_fixed_point(g, w).values
    resid = model - tau
    resid[g.v_out] = 0.0
    return float(resid @ resid)


def weight_jacobians(g: GraphInstance, w: WeightAssignment, x: int) -> DerivativeBundle:
    """Derivatives of tilde_rho, vol, the normalized Laplacian, the null
    eigenvector, and its projector with respect to rho(x).

    The normalized Laplacian's off-diagonal is the *negative* of
    rho(y)rho(z)/sqrt(tilde(y)tilde(z)), so the quotient-rule derivative is
    negated; the diagonal is identically 1 and contributes nothing.  The
    null-eigenvector derivative applies the full square-root chain rule to
    phi0(y) = sqrt(tilde(y)/vol).
    """
    n = g.n
    rho, tilde, vol = w.rho, w.tilde_rho, w.vol
    d_tilde = np.where(g.adjacency[x] > 0, rho, 0.0)
    d_tilde[x] = w.rho_star[x]
    d_vol = 2.0 * w.rho_star[x]

    dL = np.zeros((n, n))
    for y, z in g.edges:
        N = rho[y] * rho[z]
        D = np.sqrt(tilde[y] * tilde[z])
        dN = (rho[z] if y == x else 0.0) + (rho[y] if z == x else 0.0)
        dD = (tilde[y] * d_tilde[z] + tilde[z] * d_tilde[y]) / (2.0 * D)
        val = -(dN * D - N * dD) / (D * D)
        dL[y, z] = val
        dL[z, y] = val

    phi0 = np.sqrt(tilde / vol)
    d_ratio = (vol * d_tilde - tilde * d_vol) / vol**2
    d_phi0 = d_ratio / (2.0 * phi0)
    d_projector = np.outer(d_phi0, phi0) + np.outer(phi0, d_phi0)

    return DerivativeBundle(
        vertex=x,
        d_tilde_rho=d_tilde,
        d_vol=d_vol,
        d_norm_laplacian=dL,
        d_phi0=d_phi0,
        d_projector=d_projector,
    )


def _fill_green_derivative(
    w: WeightAssignment, spec: SpectralData, bundle: DerivativeBundle
) -> DerivativeBundle:
    scriptG, bigG = spec.scriptG, spec.bigG
    d_script = pseudoinverse_derivative(
        scriptG, bundle.d_norm_laplacian, np.outer(spec.phi0, spec.phi0),
        bundle.d_projector,
    )
    tilde = w.tilde_rho
    ratio = bundle.d_tilde_rho / tilde
    sq = np.sqrt(tilde)
    # dG = 1/2 T' T^-1 G + T^1/2 dScriptG T^-1/2 - 1/2 G T^-1 T'
    d_big = (
        0.5 * ratio[:, None] * bigG
        + d_script * sq[:, None] / sq[None, :]
        - 0.5 * bigG * ratio[None, :]
    )
    return replace(bundle, d_script_green=d_script, d_big_green=d_big)


def green_derivative(
    g: GraphInstance, w: WeightAssignment, spec: SpectralData, x: int
) -> np.ndarray:
    """dG/d rho(x) for the similarity-transformed Green's matrix."""
    if spec.bigG is None:
        spec = spectral_data(g, w)
    bundle = _fill_green_derivative(w, spec, weight_jacobians(g, w, x))
    return bundle.d_big_green


def _d_tau(
    g: GraphInstance, w: WeightAssignment, spec: SpectralData, bundle: DerivativeBundle
) -> np.ndarray:
    """Derivative of the (patched) occupation vector with respect to rho(x)."""
    G, dG = spec.bigG, bundle.d_big_green
    t, dt = w.tilde_rho, bundle.d_tilde_rho
    i, o = g.v_in, g.v_out

    def term(a, b):
        # value and derivative of G(a, b) / tilde(a); b may be a slice
        val = G[a, b] / t[a]
        dval = (dG[a, b] * t[a] - G[a, b] * dt[a]) / t[a] ** 2
        return val, dval

    all_v = np.arange(g.n)
    v1, d1 = term(o, o)
    v2, d2 = term(i, o)
    v3, d3 = term(o, all_v)
    v4, d4 = term(i, all_v)
    S = v1 - v2 - v3 + v4
    dS = d1 - d2 - d3 + d4
    d_tau = dt * S + t * dS
    d_tau[o] = 0.0  # tau(v_out) is pinned at 1 by convention
    return d_tau


def _adjoint_gradient(
    g: GraphInstance, w: WeightAssignment, r: np.ndarray, lu, resid: np.ndarray
) -> np.ndarray:
    """d(cost)/d rho over all vertices by the adjoint of A r = e_out.

    With A^T lam = 2 resid, d(cost)/d rho(x) = -lam^T (dA/d rho(x)) r.  Only
    M's transient block depends on rho, M(v, u) = rho(v) / s(u) with
    s = adj @ rho, so that product collapses to two adjacency mat-vecs.
    The v_out entry is meaningless (rho(v_out) is pinned).
    """
    adj, out = g.adjacency, g.v_out
    lam = scipy.linalg.lu_solve(lu, 2.0 * resid, trans=1)
    s = adj @ w.rho
    q = r / s
    q[out] = 0.0
    lam_rho = lam * w.rho
    lam_rho[out] = 0.0
    c = adj @ lam_rho
    return -(lam * (adj @ q) - adj @ (q * c / s))


def occupation_gradient(
    g: GraphInstance, w: WeightAssignment, tau_hat, *, mode: str = "adjoint"
) -> GradientReport:
    """Cost and its gradient over V minus v_out.

    ``mode="adjoint"`` back-solves the transposed pinned fixed-point system
    with the LU factors of the forward solve.  ``mode="green"`` walks the
    paper's Green's-function chain and retains each vertex's derivative
    bundle; the residual itself still uses the fixed-point occupation
    vector (the two forward routes agree to well below gradient
    tolerances).

    Both routes lose digits to rounding on wide weight spreads: with every
    weight at 1e-2 or 1e2 (400 random trees and graphs, n = 3..9) the
    Green's chain was off from ``complex_step_gradient`` by up to 2.0e-7
    relative and the adjoint by up to 9.0e-8, against medians of 1.3e-13
    and 4.0e-14.
    """
    if mode not in ("adjoint", "green"):
        raise ValueError(f"unknown gradient mode {mode!r}")
    tau = _target_array(tau_hat, g.n)
    _check_full_support(g, tau)
    free = tuple(v for v in range(g.n) if v != g.v_out)
    r, lu = _pinned_fixed_point(g, w.rho)
    resid = r - tau
    resid[g.v_out] = 0.0
    theta = float(resid @ resid)

    bundles = None
    if mode == "adjoint":
        grad = _adjoint_gradient(g, w, r, lu, resid)[list(free)]
    else:
        spec = spectral_data(g, w)
        bundles = tuple(
            _fill_green_derivative(w, spec, weight_jacobians(g, w, x)) for x in free
        )
        grad = np.array(
            [2.0 * float(resid @ _d_tau(g, w, spec, b)) for b in bundles]
        )
    return GradientReport(
        cost=theta, gradient=grad, free_vertices=free, tau=r, bundles=bundles
    )


def complex_step_gradient(g: GraphInstance, rho, tau_hat) -> np.ndarray:
    """Cost gradient over the free vertices by the complex step.

    tau is rational in rho, so Im tau(rho + i h e_x) / h equals
    d tau / d rho(x) up to O(h^2) with no subtractive cancellation; with
    h = 1e-30 * max(1, rho(x)) that term is far below rounding, so each
    column is exact to rounding and no step size has to be tuned.  The
    chain rule through the square, 2 resid . d tau / d rho(x), takes the
    residual of the real solve that ``cost`` sees: the complex solve's
    real part rounds differently, and near a zero residual that rounding
    would dominate the gradient.
    """
    rho = np.asarray(rho, dtype=float)
    tau = _target_array(tau_hat, g.n)
    _check_full_support(g, tau)
    r, _ = _pinned_fixed_point(g, rho)
    resid = r - tau
    resid[g.v_out] = 0.0
    free = [v for v in range(g.n) if v != g.v_out]
    grad = np.empty(len(free))
    for k, x in enumerate(free):
        h = 1e-30 * max(1.0, rho[x])
        z = rho.astype(complex)
        z[x] += 1j * h
        grad[k] = 2.0 * float(resid @ _pinned_fixed_point(g, z)[0].imag) / h
    return grad


def restrict_support(
    g: GraphInstance, tau_hat
) -> tuple[GraphInstance, np.ndarray, tuple[int, ...]]:
    """Induce the subgraph on supp(tau_hat) and re-index the target.

    Raises InvalidTarget on a negative or non-finite entry.  The support
    must contain v_in and v_out, stay connected, and remain connected after
    removing v_out (otherwise the forward map is not defined on it).
    """
    tau = _target_array(tau_hat, g.n)
    if np.any(tau < 0):
        v = int(np.flatnonzero(tau < 0)[0])
        raise InvalidTarget(f"target entry at vertex {v} is {tau[v]}, negative")
    support = tuple(int(v) for v in np.flatnonzero(tau > 0))
    if g.v_in not in support or g.v_out not in support:
        raise SupportMismatch("supp(tau_hat) must contain both v_in and v_out")
    try:
        sub = _induced_subgraph(g, support)
    except Disconnected as exc:
        raise SupportMismatch(f"supp(tau_hat) is disconnected: {exc}") from exc
    if not sub.out_removed_connected:
        raise SupportMismatch("supp(tau_hat) minus v_out is disconnected")
    return sub, tau[list(support)], support


def reconstruct_weights(
    g: GraphInstance,
    tau_hat,
    cfg: ReconstructionConfig | None = None,
    rho0=None,
) -> ReconstructionResult:
    """Steepest descent on the occupation cost from a uniform start.

    Restricts to supp(tau_hat) first, keeps rho(v_out) pinned at exactly 1,
    and projects every step onto [positivity_floor, inf).  With the
    backtracking rule the cost is nonincreasing across iterations; line
    search underflow raises NoDescent carrying the partial result.

    ``rho0`` overrides the uniform start (indexed over the *support*
    vertices); whether distinct starts reach distinct minimizers is an
    open question, so multi-start runs are the caller's experiment.
    """
    cfg = cfg or ReconstructionConfig()
    sub, tau, support = restrict_support(g, tau_hat)
    n = sub.n
    free = [v for v in range(n) if v != sub.v_out]
    if rho0 is None:
        rho = np.ones(n)
    else:
        rho = np.asarray(rho0, dtype=float).copy()
        if rho.shape != (n,):
            raise ValueError(f"rho0 has shape {rho.shape}, expected ({n},)")
        if np.any(rho <= 0):
            raise ValueError("rho0 must be strictly positive")
        rho /= rho[sub.v_out]
    log: list[IterationRecord] = []

    eta_prev: float | None = None
    prev_free: np.ndarray | None = None
    prev_grad: np.ndarray | None = None

    def result(status: str, theta: float) -> ReconstructionResult:
        return ReconstructionResult(
            weights=derived_weights(sub, rho),
            instance=sub,
            support=support,
            log=tuple(log),
            converged=status == "converged",
            status=status,
            final_cost=theta,
        )

    def cost_of(vec: np.ndarray) -> float:
        # Candidates clamped to the positivity floor can make the pinned
        # system numerically singular; treat that as an infeasible trial.
        try:
            return cost(sub, derived_weights(sub, vec), tau)
        except SingularSystem:
            return float("inf")

    for it in range(cfg.max_iters):
        rep = occupation_gradient(sub, derived_weights(sub, rho), tau)
        theta = rep.cost
        if theta <= cfg.cost_tol:
            log.append(IterationRecord(it, theta, 0.0))
            return result("converged", theta)

        grad = rep.gradient
        if isinstance(cfg.step_rule, FixedStep):
            eta = cfg.step_rule.eta
            rho_new = rho.copy()
            rho_new[free] = np.maximum(
                rho[free] - eta * grad, cfg.positivity_floor
            )
        else:
            rule = cfg.step_rule
            gg = float(grad @ grad)
            # Trial step: adaptive Barzilai-Borwein spectral step when the
            # previous iterate gives a usable curvature estimate, otherwise
            # grow from the last accepted step (never above eta0 in that
            # case).  The Armijo backtracking below safeguards either
            # choice, so the descent property is unaffected; plain eta0
            # restarts stall on ill-conditioned instances.
            eta = None
            if prev_free is not None:
                s = rho[free] - prev_free
                y = grad - prev_grad
                sy = float(s @ y)
                if sy > 0:
                    bb1 = float(s @ s) / sy
                    bb2 = sy / float(y @ y)
                    eta = min(bb2 if bb2 < 0.8 * bb1 else bb1, 1e8)
            if eta is None:
                eta = rule.eta0 if eta_prev is None else min(
                    rule.eta0, eta_prev / rule.shrink
                )
            prev_free = rho[free].copy()
            prev_grad = grad.copy()
            rho_new = None
            while eta >= _MIN_ETA:
                cand = rho.copy()
                cand[free] = np.maximum(
                    rho[free] - eta * grad, cfg.positivity_floor
                )
                # Strict decrease so that zero-movement candidates (step
                # underflow) surface as NoDescent instead of treadmilling.
                if cost_of(cand) < theta - rule.armijo_c * eta * gg:
                    rho_new = cand
                    break
                eta *= rule.shrink
            if rho_new is None:
                log.append(IterationRecord(it, theta, 0.0))
                raise NoDescent(
                    f"line search underflowed at iteration {it} "
                    f"(cost {theta:.3e})",
                    result=result("no_descent", theta),
                )
        log.append(IterationRecord(it, theta, eta))
        rho = rho_new
        eta_prev = eta

    theta = cost_of(rho)
    log.append(IterationRecord(cfg.max_iters, theta, 0.0))
    if theta <= cfg.cost_tol:
        return result("converged", theta)
    return result("max_iters", theta)


def expertise_correlation(g: GraphInstance, w: WeightAssignment) -> float:
    """Pearson correlation between rho and graphical distance to v_out."""
    d = g.distances.astype(float)
    rho = w.rho
    rho_c = rho - rho.mean()
    d_c = d - d.mean()
    s_rho = float(np.sqrt(rho_c @ rho_c))
    s_d = float(np.sqrt(d_c @ d_c))
    if s_rho <= 1e-15 * max(1.0, float(np.abs(rho).max())):
        raise ZeroVariance("rho is constant; correlation undefined")
    if s_d == 0.0:
        raise ZeroVariance("distance to v_out is constant; correlation undefined")
    return float((rho_c @ d_c) / (s_rho * s_d))
