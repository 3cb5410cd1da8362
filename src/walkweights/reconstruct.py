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
one solve with A^T and a few adjacency mat-vecs (``occupation_gradient``).

The paper's Green's-function chain (weight jacobians, the
normalized-Laplacian derivative, the null-eigenvector derivative, and the
pseudoinverse derivative formula) stays as ``occupation_gradient``'s
``mode="green"``, the reference oracle the adjoint is tested against.  Both
are checked against ``complex_step_gradient``, which differentiates the same
pinned system at a complex weight and is exact to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    Disconnected,
    InvalidTarget,
    NoDescent,
    SingularSystem,
    SupportMismatch,
    ZeroVariance,
)
from .graph_core import (
    GraphInstance,
    WeightAssignment,
    _check_vertex,
    _induced_subgraph,
    derived_weights,
)
from .occupation import (
    _pinned_fixed_point,
    _target_array,
    expected_occupation_fixed_point,
)
from .spectral_green import SpectralData, pseudoinverse_derivative, spectral_data

__all__ = [
    "ReconstructionConfig",
    "DerivativeBundle",
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
    """The weight-side derivatives with respect to rho(x) for one
    differentiation vertex x: of tilde_rho, vol, the normalized Laplacian,
    its null eigenvector phi0 and the projector phi0 phi0*.  They need no
    spectral data; ``green_derivative`` carries them to dG."""

    d_tilde_rho: np.ndarray
    d_vol: float
    d_norm_laplacian: np.ndarray
    d_phi0: np.ndarray
    d_projector: np.ndarray


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
    """r, the pinned matrix A, and r - tau with its v_out entry zeroed."""
    r, A = _pinned_fixed_point(g, rho)
    resid = r - tau
    resid[g.v_out] = 0.0
    return r, A, resid


def weight_jacobians(g: GraphInstance, w: WeightAssignment, x: int) -> DerivativeBundle:
    """Derivatives of tilde_rho, vol, the normalized Laplacian, the null
    eigenvector, and its projector with respect to rho(x).

    Off the diagonal the normalized Laplacian is -K with
    K(y, z) = rho(y)rho(z)/sqrt(tilde(y)tilde(z)) on edges, whose
    log-derivative is e(y) + e(z) with e = [. = x]/rho - d_tilde/(2 tilde);
    the diagonal is identically 1 and contributes nothing.  The
    null-eigenvector derivative applies the full square-root chain rule to
    phi0(y) = sqrt(tilde(y)/vol).
    """
    _check_vertex(g.n, x, "x")
    rho, tilde, vol = w.rho, w.tilde_rho, w.vol
    d_tilde = np.where(g.adjacency[x] > 0, rho, 0.0)
    d_tilde[x] = w.rho_star[x]
    d_vol = 2.0 * w.rho_star[x]

    inv_sqrt = 1.0 / np.sqrt(tilde)
    K = w.edge_wt * inv_sqrt[:, None] * inv_sqrt[None, :]
    e = -0.5 * d_tilde / tilde
    e[x] += 1.0 / rho[x]
    dL = -K * (e[:, None] + e[None, :])

    phi0 = np.sqrt(tilde / vol)
    d_ratio = (vol * d_tilde - tilde * d_vol) / vol**2
    d_phi0 = d_ratio / (2.0 * phi0)
    d_projector = np.outer(d_phi0, phi0) + np.outer(phi0, d_phi0)

    return DerivativeBundle(
        d_tilde_rho=d_tilde,
        d_vol=d_vol,
        d_norm_laplacian=dL,
        d_phi0=d_phi0,
        d_projector=d_projector,
    )


def _d_big_green(
    w: WeightAssignment, spec: SpectralData, bundle: DerivativeBundle
) -> np.ndarray:
    """dG/d rho(x) from the bundle of vertex x, by the pseudoinverse
    derivative of scriptG and the product rule through
    G = T^1/2 scriptG T^-1/2."""
    phi0 = spec.phi0
    d_script = pseudoinverse_derivative(
        spec.scriptG, bundle.d_norm_laplacian, np.outer(phi0, phi0),
        bundle.d_projector,
    )
    ratio = bundle.d_tilde_rho / w.tilde_rho
    sq = np.sqrt(w.tilde_rho)
    # dG = 1/2 T' T^-1 G + T^1/2 dScriptG T^-1/2 - 1/2 G T^-1 T'
    return (
        0.5 * ratio[:, None] * spec.bigG
        + d_script * sq[:, None] / sq[None, :]
        - 0.5 * spec.bigG * ratio[None, :]
    )


def green_derivative(
    g: GraphInstance, w: WeightAssignment, spec: SpectralData, x: int
) -> np.ndarray:
    """dG/d rho(x) for the similarity-transformed Green's matrix."""
    return _d_big_green(w, spec, weight_jacobians(g, w, x))


def _d_tau(
    g: GraphInstance, w: WeightAssignment, spec: SpectralData, bundle: DerivativeBundle
) -> np.ndarray:
    """Derivative of the (patched) occupation vector with respect to rho(x)."""
    G, dG = spec.bigG, _d_big_green(w, spec, bundle)
    t, dt = w.tilde_rho, bundle.d_tilde_rho
    o = g.v_out

    def row(a):
        # (G(a, o) - G(a, .)) / tilde(a) and its derivative
        diff, d_diff = G[a, o] - G[a], dG[a, o] - dG[a]
        return diff / t[a], (d_diff - diff * dt[a] / t[a]) / t[a]

    (s_o, ds_o), (s_i, ds_i) = row(o), row(g.v_in)
    d_tau = dt * (s_o - s_i) + t * (ds_o - ds_i)
    d_tau[o] = 0.0  # tau(v_out) is pinned at 1 by convention
    return d_tau


def _adjoint_gradient(
    g: GraphInstance, rho: np.ndarray, r: np.ndarray, A: np.ndarray, resid: np.ndarray
) -> np.ndarray:
    """d(cost)/d rho over all vertices by the adjoint of A r = e_out.

    With A^T lam = 2 resid, d(cost)/d rho(x) = -lam^T (dA/d rho(x)) r.  Only
    M's transient block depends on rho, M(v, u) = rho(v) / s(u) with
    s = adj @ rho, so that product collapses to two adjacency mat-vecs.
    The v_out entry is meaningless (rho(v_out) is pinned).
    """
    adj, out = g.adjacency, g.v_out
    lam = np.linalg.solve(A.T, 2.0 * resid)
    s = adj @ rho
    q = r / s
    q[out] = 0.0
    lam_rho = lam * rho
    lam_rho[out] = 0.0
    c = adj @ lam_rho
    return -(lam * (adj @ q) - adj @ (q * c / s))


def occupation_gradient(
    g: GraphInstance, w: WeightAssignment, tau_hat, *, mode: str = "adjoint"
) -> np.ndarray:
    """The cost's gradient over V minus v_out, in vertex order, as
    ``complex_step_gradient`` returns it; the cost itself is ``cost``.

    ``mode="adjoint"`` solves the transposed pinned fixed-point system with
    the forward solve's matrix A.  ``mode="green"`` walks the paper's
    Green's-function chain one free vertex at a time; the residual itself
    still uses the fixed-point occupation vector (the two forward routes
    agree to well below gradient tolerances).

    Both routes lose digits to rounding as the pinned system A r = e_out
    grows ill-conditioned, and no fixed bound holds for either.  With every
    weight at 1e-2 or 1e2 (400 random trees and graphs, n = 3..9) the
    Green's chain and the adjoint were off from ``complex_step_gradient``
    by medians of 7.9e-14 and 3.3e-14 relative, but the error grows with
    cond(A): on a 9-vertex tree with cond(A) = 1.4e9 the Green's chain was
    off by 9.2e-2 relative from a 60-digit reference, the adjoint by 1.4e-4
    and the complex step itself by 3.6e-4.
    """
    if mode not in ("adjoint", "green"):
        raise ValueError(f"unknown gradient mode {mode!r}")
    tau = _target_array(tau_hat, g.n)
    _check_full_support(g, tau)
    free = [v for v in range(g.n) if v != g.v_out]
    r, A, resid = _pinned_residual(g, w.rho, tau)
    if mode == "adjoint":
        return _adjoint_gradient(g, w.rho, r, A, resid)[free]
    spec = spectral_data(g, w)
    return np.array([
        2.0 * float(resid @ _d_tau(g, w, spec, weight_jacobians(g, w, x)))
        for x in free
    ])


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
            r, A, resid = _pinned_residual(g, rho, tau)
            return float(resid @ resid), (r, A, resid)
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
    and the pinned forward solve at the trial succeeds; once the Newton
    decrement is below ``_NEWTON_FULL_STEP * |L|`` the full step is taken.
    A target off the trace hull has no maximiser of L: weights run to 0 or
    infinity, or L restricted to the gauge complement peaks at a point that
    misses the target, and the run ends at ``max_iters`` or with NoDescent,
    which carries the partial result.  NoDescent is also raised when a full
    step, taken without backtracking, leaves the cost no lower: L is at its
    maximum to rounding, and the cost there is the run's floor, whether the
    target was off the hull or ``cost_tol`` lies below the forward solve's
    rounding.  On the hull's boundary the cost still tends to 0.

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
    uu = np.outer(u, u)
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
        try:
            dx = np.linalg.solve(hess + uu, -grad)
        except np.linalg.LinAlgError:
            dx = np.full_like(grad, np.nan)  # no step: t = 0 below
        scale = _NEWTON_MAX_LOG_STEP / max(_NEWTON_MAX_LOG_STEP, np.abs(dx).max())
        dx *= scale
        slope = float(grad @ dx)
        full = -slope < _NEWTON_FULL_STEP * abs(f)
        t = 1.0 if np.isfinite(slope) else 0.0
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
        if full and t == 1.0 and trial >= theta:
            raise NoDescent(
                f"full Newton step did not lower the cost at iteration {it} "
                f"(cost {theta:.3e})",
                result=_result(sub, support, rho, log, it, theta, "no_descent"),
            )
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
    r, A, resid = _pinned_residual(sub, rho, tau)
    theta = float(resid @ resid)
    eta_prev: float | None = None
    prev_free: np.ndarray | None = None
    prev_grad: np.ndarray | None = None

    for it in range(cfg.max_iters):
        if theta <= cfg.cost_tol:
            return _result(sub, support, rho, log, it, theta, "converged")
        grad = _adjoint_gradient(sub, rho, r, A, resid)[free]
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
        rho, (r, A, resid), theta = cand, state, trial
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
