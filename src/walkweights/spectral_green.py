"""Normalized-Laplacian spectra, discrete Green's functions, and the
derivative of a symmetric matrix pseudoinverse.

The Green's kernels come in two flavors: ``scriptG`` is the Moore-Penrose
pseudoinverse of the normalized Laplacian (spectral sum over the nonzero
eigenpairs), and ``bigG = T^{1/2} scriptG T^{-1/2}`` is the similarity
transform that enters the hitting-time and occupation-time formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy

from .errors import (
    DimensionMismatch,
    EigenFailure,
    NotSymmetric,
    ZeroEigenvalueAmbiguous,
)
from .graph_core import GraphInstance, WeightAssignment, laplacians

__all__ = [
    "SpectralData",
    "eigendecompose",
    "greens_functions",
    "spectral_data",
    "pseudoinverse_derivative",
    "null_mask",
]

# Scale-aware zero band: |lambda| <= ZERO_BAND * max(1, lambda_max) counts
# as a null eigenvalue.
ZERO_BAND = 1e-9

_SYM_TOL = 1e-10
_RECON_TOL = 1e-10
_IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class SpectralData:
    """Eigenpairs of the normalized Laplacian, plus Green's matrices.

    ``eigenvalues`` are nondecreasing; ``eigenvectors`` holds orthonormal
    columns, each sign-fixed so its largest-magnitude entry is positive.
    ``scriptG``/``bigG`` are None until :func:`greens_functions` fills them.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    scriptG: np.ndarray | None = None
    bigG: np.ndarray | None = None

    @property
    def phi0(self) -> np.ndarray:
        return self.eigenvectors[:, 0]


def null_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """Boolean mask of eigenvalues classified as zero."""
    lam_max = float(eigenvalues[-1]) if len(eigenvalues) else 0.0
    return np.abs(eigenvalues) <= ZERO_BAND * max(1.0, lam_max)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, j])))
        if out[k, j] < 0:
            out[:, j] = -out[:, j]
    return out


def eigendecompose(normL: np.ndarray) -> SpectralData:
    """Orthonormal eigenbasis of a symmetric PSD matrix.

    Raises NotSymmetric when the input is visibly asymmetric and
    EigenFailure when LAPACK fails or the spectral reconstruction of the
    input misses ``1e-10 * ||normL||``.
    """
    normL = np.asarray(normL, dtype=float)
    if normL.ndim != 2 or normL.shape[0] != normL.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {normL.shape}")
    scale = max(1.0, float(np.abs(normL).max()))
    if np.abs(normL - normL.T).max() > _SYM_TOL * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        lam, phi = scipy.linalg.eigh(normL)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenFailure(f"eigh failed: {exc}") from exc
    phi = _fix_signs(phi)
    recon = (phi * lam[None, :]) @ phi.T
    norm = np.linalg.norm(normL)
    if np.linalg.norm(normL - recon) > _RECON_TOL * max(1.0, norm):
        raise EigenFailure("spectral reconstruction exceeds tolerance")
    return SpectralData(eigenvalues=lam, eigenvectors=phi)


def _script_green(spec: SpectralData) -> np.ndarray:
    """Pseudoinverse of the normalized Laplacian from its eigenpairs."""
    mask = null_mask(spec.eigenvalues)
    if int(mask.sum()) != 1:
        raise ZeroEigenvalueAmbiguous(
            f"{int(mask.sum())} eigenvalues in the zero band; "
            "expected exactly one (is the graph connected?)"
        )
    lam = spec.eigenvalues
    phi = spec.eigenvectors
    inv = np.where(mask, 0.0, 1.0 / np.where(mask, 1.0, lam))
    return (phi * inv[None, :]) @ phi.T


def greens_functions(spec: SpectralData, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Green's matrices (scriptG, bigG) from eigenpairs and T = diag(tilde_rho).

    Verifies the pseudoinverse identities scriptG @ normL = I - phi0 phi0*
    and scriptG @ phi0 = 0 on every evaluation, relative to
    max|scriptG| * max|normL|: rounding in the products grows with that
    scale, which reaches ~1e8 near the positivity floor.
    """
    scriptG = _script_green(spec)
    lam = spec.eigenvalues
    phi = spec.eigenvectors
    normL = (phi * lam[None, :]) @ phi.T
    phi0 = spec.phi0
    proj = np.eye(len(lam)) - np.outer(phi0, phi0)
    tol = _IDENTITY_TOL * float(np.abs(scriptG).max() * np.abs(normL).max())
    if np.abs(scriptG @ normL - proj).max() > tol:
        raise EigenFailure("pseudoinverse identity scriptG @ L = I - P violated")
    if np.abs(scriptG @ phi0).max() > tol:
        raise EigenFailure("pseudoinverse identity scriptG @ phi0 = 0 violated")
    T = np.asarray(T, dtype=float)
    t_diag = np.diag(T) if T.ndim == 2 else T
    sq = np.sqrt(t_diag)
    bigG = scriptG * sq[:, None] / sq[None, :]
    return scriptG, bigG


def spectral_data(g: GraphInstance, w: WeightAssignment) -> SpectralData:
    """Eigendecompose the normalized Laplacian of (g, w) and attach both
    Green's matrices."""
    _, T, normL = laplacians(g, w)
    spec = eigendecompose(normL)
    scriptG, bigG = greens_functions(spec, T)
    return replace(spec, scriptG=scriptG, bigG=bigG)


def pseudoinverse_derivative(
    A: np.ndarray, Bprime: np.ndarray, P: np.ndarray, Pprime: np.ndarray
) -> np.ndarray:
    """Derivative of the pseudoinverse A of a symmetric matrix path B(t).

    With P the projector onto null(B) and primes denoting d/dt along a
    constant-rank path:

        A' = -(P' + A B') A - A P'

    The caller supplies B' and P' from whatever parameterization is being
    differentiated; the formula itself involves no eigendecomposition.
    """
    mats = {"A": np.asarray(A, float), "Bprime": np.asarray(Bprime, float),
            "P": np.asarray(P, float), "Pprime": np.asarray(Pprime, float)}
    shape = mats["A"].shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch(f"A must be square, got {shape}")
    for name, m in mats.items():
        if m.shape != shape:
            raise DimensionMismatch(f"{name} has shape {m.shape}, expected {shape}")
    A, Bprime, P, Pprime = mats["A"], mats["Bprime"], mats["P"], mats["Pprime"]
    return -(Pprime + A @ Bprime) @ A - A @ Pprime
