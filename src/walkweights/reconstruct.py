"""Weight reconstruction from target occupation times.

The cost is the squared l2 gap between the target tau-hat and the model's
expected occupation vector, with rho(v_out) pinned at 1; both loops stop on
it, measured by the pinned fixed-point solve A r = e_out.  With x = log rho,
walks with mean occupation vector r have the concave log-likelihood
L(x) = a . x - sum_{v != v_out} r(v) log sum_{z~v} e^{x_z}, a = r - e_in
(each step is a conditional-logit choice), whose gradient vanishes exactly
where tau(rho) = r.  ``reconstruct_weights`` runs damped Newton on -L, whose
derivatives need no solve with A.  ``steepest_descent``, the paper's
projected descent on the weights, takes the cost gradient by the adjoint:
one transposed back-solve with A's LU factors and a few adjacency mat-vecs
(``occupation_gradient``).

The paper's Green's-function chain (weight jacobians, the
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
    "steepest_descent",
    "expertise_correlation",
]

# Damped Newton on -L moves no log weight by more than _NEWTON_MAX_LOG_STEP
# per iteration.  Below a Newton decrement of _NEWTON_FULL_STEP * |L|, L's
# rounding makes Armijo's test backtrack to a crawl; the full step is taken.
_NEWTON_MAX_LOG_STEP = 1.0
_NEWTON_FULL_STEP = 1e-8

# Both loops backtrack by _SHRINK to Armijo's sufficient decrease _ARMIJO_C;
# below _MIN_STEP the line search has underflowed, which is a stall.
# Steepest descent starts a step with no usable Barzilai-Borwein estimate at
# most at _SD_ETA0 and projects every step onto [_SD_FLOOR, inf).
_ARMIJO_C = 1e-4
_SHRINK = 0.5
_MIN_STEP = 1e-18
_SD_ETA0 = 0.1
_SD_FLOOR = 1e-8


@dataclass(frozen=True)
class ReconstructionConfig:
    """Stopping rule of ``reconstruct_weights`` and ``steepest_descent``:
    at most ``max_iters`` iterations, converged once the cost is at most
    ``cost_tol``."""

    max_iters: int = 10_000
    cost_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be nonnegative, got {self.max_iters}")
        if self.cost_tol <= 0:
            raise ValueError("cost_tol must be positive")


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
    """Cost at the start of an iteration and the step that left it.

    ``step`` is the accepted share of the Newton step in
    ``reconstruct_weights`` (1.0 is the full step) and the accepted step
    length eta in ``steepest_descent``.  The record of the point where the
    run stops carries 0.0.
    """

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
    resid = expected_occupation_fixed_point(g, w).values - tau
    resid[g.v_out] = 0.0
    return float(resid @ resid)


def _pinned_residual(g: GraphInstance, rho: np.ndarray, tau: np.ndarray):
    """r, the LU factors of A, and r - tau with its v_out entry zeroed."""
    r, lu = _pinned_fixed_point(g, rho)
    resid = r - tau
    resid[g.v_out] = 0.0
    return r, lu, resid


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
    g: GraphInstance, rho: np.ndarray, r: np.ndarray, lu, resid: np.ndarray
) -> np.ndarray:
    """d(cost)/d rho over all vertices by the adjoint of A r = e_out.

    With A^T lam = 2 resid, d(cost)/d rho(x) = -lam^T (dA/d rho(x)) r.  Only
    M's transient block depends on rho, M(v, u) = rho(v) / s(u) with
    s = adj @ rho, so that product collapses to two adjacency mat-vecs.
    The v_out entry is meaningless (rho(v_out) is pinned).
    """
    adj, out = g.adjacency, g.v_out
    (getrs,) = scipy.linalg.get_lapack_funcs(("getrs",), (lu[0],))
    lam = getrs(*lu, 2.0 * resid, trans=1)[0]
    s = adj @ rho
    q = r / s
    q[out] = 0.0
    lam_rho = lam * rho
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
    r, lu, resid = _pinned_residual(g, w.rho, tau)
    theta = float(resid @ resid)

    bundles = None
    if mode == "adjoint":
        grad = _adjoint_gradient(g, w.rho, r, lu, resid)[list(free)]
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


def _complex_step_jacobian(g: GraphInstance, rho: np.ndarray) -> np.ndarray:
    """dr/drho over the free vertices, an (n, n - 1) matrix, by the complex
    step.

    r is rational in rho, so Im r(rho + i h e_x) / h equals dr/drho(x) up
    to O(h^2) with no subtractive cancellation; with
    h = 1e-30 * max(1, rho(x)) that term is far below rounding, so each
    column is exact to rounding and no step size has to be tuned.
    """
    free = [v for v in range(g.n) if v != g.v_out]
    J = np.empty((g.n, len(free)))
    for k, x in enumerate(free):
        h = 1e-30 * max(1.0, rho[x])
        z = rho.astype(complex)
        z[x] += 1j * h
        J[:, k] = _pinned_fixed_point(g, z)[0].imag / h
    return J


def complex_step_gradient(g: GraphInstance, rho, tau_hat) -> np.ndarray:
    """Cost gradient over the free vertices by the complex step.

    The chain rule through the square, 2 resid . dr/drho(x), takes the
    residual of the real solve that ``cost`` sees: the complex solve's
    real part rounds differently, and near a zero residual that rounding
    would dominate the gradient.
    """
    rho = np.asarray(rho, dtype=float)
    tau = _target_array(tau_hat, g.n)
    _check_full_support(g, tau)
    resid = _pinned_residual(g, rho, tau)[2]
    return 2.0 * resid @ _complex_step_jacobian(g, rho)


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
        sub = g if len(support) == g.n else _induced_subgraph(g, support)
    except Disconnected as exc:
        raise SupportMismatch(f"supp(tau_hat) is disconnected: {exc}") from exc
    if not sub.out_removed_connected:
        raise SupportMismatch("supp(tau_hat) minus v_out is disconnected")
    return sub, tau[list(support)], support


def _start(g: GraphInstance, tau_hat, rho0):
    """The support subgraph, its target, the support, and the start point.

    ``rho0`` (indexed over the support vertices) overrides the uniform
    start; it is rescaled so rho(v_out) = 1.
    """
    sub, tau, support = restrict_support(g, tau_hat)
    n = sub.n
    if rho0 is None:
        return sub, tau, support, np.ones(n)
    rho = np.asarray(rho0, dtype=float).copy()
    if rho.shape != (n,):
        raise ValueError(f"rho0 has shape {rho.shape}, expected ({n},)")
    bad = np.flatnonzero(~(np.isfinite(rho) & (rho > 0)))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"rho0[{k}] (vertex {support[k]}) is {rho[k]}, not a positive real"
        )
    rho /= rho[sub.v_out]
    return sub, tau, support, rho


def _trial(g: GraphInstance, rho: np.ndarray, tau: np.ndarray):
    """The cost at a trial point and its ``_pinned_residual`` triple; the
    cost is inf when the point is not positive and finite or the pinned
    system there is singular, so the trial is rejected."""
    if np.all(np.isfinite(rho) & (rho > 0)):
        try:
            r, lu, resid = _pinned_residual(g, rho, tau)
            return float(resid @ resid), (r, lu, resid)
        except SingularSystem:
            pass
    return float("inf"), None


def _result(
    sub: GraphInstance,
    support: tuple[int, ...],
    rho: np.ndarray,
    log: list[IterationRecord],
    it: int,
    theta: float,
    status: str,
) -> ReconstructionResult:
    """The result of a run that stops at iteration ``it``, after closing
    its log with that point's record."""
    log.append(IterationRecord(it, theta, 0.0))
    return ReconstructionResult(
        weights=derived_weights(sub, rho),
        instance=sub,
        support=support,
        log=tuple(log),
        converged=status == "converged",
        status=status,
        final_cost=theta,
    )


def _likelihood_derivatives(adj, to_out, r, a, rho):
    """Gradient and Hessian of -L in the free vertices' log weights, at
    their weights rho (complex for the complex-step test).  ``adj`` is their
    adjacency block, ``to_out`` their edges to v_out (of weight 1), ``r``
    and ``a`` their departures and arrivals.  With S = adj @ rho + to_out,
    q = r / S and B = diag(rho) adj: grad = rho * (adj @ q) - a and
    -H = diag(rho * (adj @ q)) - B diag(q / S) B^T."""
    s = adj @ rho + to_out
    q = r / s
    p = rho * (adj @ q)
    bt = adj * rho
    return p - a, np.diag(p) - bt.T @ ((q / s)[:, None] * bt)


def reconstruct_weights(
    g: GraphInstance,
    tau_hat,
    cfg: ReconstructionConfig | None = None,
    rho0=None,
) -> ReconstructionResult:
    """Fit vertex weights to the target occupation times by damped Newton
    on -L over x = log rho, from a uniform start.

    Restricts to supp(tau_hat) first and keeps rho(v_out) pinned at exactly
    1.  Each Newton step is capped, then halved until -L meets Armijo's test
    and the pinned forward solve at the trial succeeds.  A target off the
    trace hull has no maximiser of L: weights run to 0 or infinity and the
    run ends at ``max_iters`` or with NoDescent, which carries the partial
    result.  On the hull's boundary the cost still tends to 0.

    ``rho0`` overrides the uniform start (indexed over the *support*
    vertices; zero, negative or non-finite entries raise ValueError).  All
    starts reach one transition matrix: along a segment of L's maximisers,
    a convex set, every log-sum-exp term is affine, so no softmax row moves.
    """
    cfg = cfg or ReconstructionConfig()
    sub, tau, support, rho = _start(g, tau_hat, rho0)
    free = np.flatnonzero(np.arange(sub.n) != sub.v_out)
    adj, to_out = sub.adjacency[free][:, free], sub.adjacency[free, sub.v_out]
    r = tau[free]
    a = r - (free == sub.v_in)
    # -L is linear along u, a bipartite graph's class opposite v_out; with no
    # gradient part along u and -H + u u^T regular, no step moves along u.
    u = np.zeros(len(free))
    if sub.bipartite:
        u[sub.bipartition[free] < 0] = 1.0
        u /= np.sqrt(u.sum())
    log: list[IterationRecord] = []

    def neg_log_likelihood(x):
        rho_free = np.exp(x)
        return float(r @ np.log(adj @ rho_free + to_out) - a @ x), rho_free

    x = np.log(rho[free])
    f = neg_log_likelihood(x)[0]
    resid = _pinned_residual(sub, rho, tau)[2]
    theta = float(resid @ resid)

    for it in range(cfg.max_iters):
        if theta <= cfg.cost_tol:
            return _result(sub, support, rho, log, it, theta, "converged")
        grad, hess = _likelihood_derivatives(adj, to_out, r, a, rho[free])
        grad -= u * (u @ grad)
        (gesv,) = scipy.linalg.get_lapack_funcs(("gesv",), (hess,))
        dx, info = gesv(hess + np.outer(u, u), -grad)[2:]
        scale = _NEWTON_MAX_LOG_STEP / max(_NEWTON_MAX_LOG_STEP, np.abs(dx).max())
        dx *= scale
        slope = float(grad @ dx)
        full = -slope < _NEWTON_FULL_STEP * abs(f)
        t = 0.0 if info or not np.isfinite(slope) else 1.0
        while True:
            if t < _MIN_STEP:
                raise NoDescent(
                    f"no Newton step at iteration {it} (cost {theta:.3e})",
                    result=_result(sub, support, rho, log, it, theta, "no_descent"),
                )
            cand_x = x + t * dx
            cand_f, cand_free = neg_log_likelihood(cand_x)
            if np.isfinite(cand_f) and (full or cand_f <= f + _ARMIJO_C * t * slope):
                cand = rho.copy()
                cand[free] = cand_free
                trial, state = _trial(sub, cand, tau)
                if state is not None:
                    break
            t *= _SHRINK
        log.append(IterationRecord(it, theta, t * scale))
        x, f, rho, theta = cand_x, cand_f, cand, trial

    status = "converged" if theta <= cfg.cost_tol else "max_iters"
    return _result(sub, support, rho, log, cfg.max_iters, theta, status)


def steepest_descent(
    g: GraphInstance,
    tau_hat,
    cfg: ReconstructionConfig | None = None,
    rho0=None,
) -> ReconstructionResult:
    """The paper's reconstruction: projected steepest descent on rho with an
    Armijo line search, from a uniform start.

    Same support restriction, pinning, start point and result as
    ``reconstruct_weights``.  The gradient is the adjoint one.  The trial
    step is the Barzilai-Borwein spectral step when the previous iterate
    gives a usable curvature estimate, otherwise it grows from the last
    accepted step, never above _SD_ETA0; plain restarts at _SD_ETA0 stall
    on ill-conditioned instances.  Backtracking keeps either choice a
    descent step, every step is projected onto [_SD_FLOOR, inf), and the
    cost strictly decreases across iterations.  When the line search
    underflows, NoDescent carries the partial result.
    """
    cfg = cfg or ReconstructionConfig()
    sub, tau, support, rho = _start(g, tau_hat, rho0)
    free = [v for v in range(sub.n) if v != sub.v_out]
    log: list[IterationRecord] = []
    r, lu, resid = _pinned_residual(sub, rho, tau)
    theta = float(resid @ resid)
    eta_prev: float | None = None
    prev_free: np.ndarray | None = None
    prev_grad: np.ndarray | None = None

    for it in range(cfg.max_iters):
        if theta <= cfg.cost_tol:
            return _result(sub, support, rho, log, it, theta, "converged")
        grad = _adjoint_gradient(sub, rho, r, lu, resid)[free]
        gg = float(grad @ grad)
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
            eta = _SD_ETA0 if eta_prev is None else min(_SD_ETA0, eta_prev / _SHRINK)
        prev_free, prev_grad = rho[free], grad
        while True:
            if eta < _MIN_STEP:
                raise NoDescent(
                    f"line search underflowed at iteration {it} (cost {theta:.3e})",
                    result=_result(sub, support, rho, log, it, theta, "no_descent"),
                )
            cand = rho.copy()
            cand[free] = np.maximum(rho[free] - eta * grad, _SD_FLOOR)
            trial, state = _trial(sub, cand, tau)
            # Strict decrease, so that a step too short to move any weight
            # surfaces as NoDescent instead of treadmilling.
            if trial < theta - _ARMIJO_C * eta * gg:
                break
            eta *= _SHRINK
        log.append(IterationRecord(it, theta, eta))
        rho, (r, lu, resid), theta = cand, state, trial
        eta_prev = eta

    status = "converged" if theta <= cfg.cost_tol else "max_iters"
    return _result(sub, support, rho, log, cfg.max_iters, theta, status)


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
