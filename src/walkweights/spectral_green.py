"""Normalized-Laplacian spectra, discrete Green's functions, and the
derivative of a symmetric matrix pseudoinverse.

The Green's kernels come in two flavors: ``scriptG`` is the Moore-Penrose
pseudoinverse of the normalized Laplacian (spectral sum over the nonzero
eigenpairs), and ``bigG = T^{1/2} scriptG T^{-1/2}`` is the similarity
transform that enters the hitting-time and occupation-time formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Eigenpairs of the normalized Laplacian and both Green's matrices,
    built only by :func:`spectral_data`.

    ``eigenvalues`` are nondecreasing; ``eigenvectors`` holds orthonormal
    columns, each sign-fixed so its largest-magnitude entry is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    scriptG: np.ndarray
    bigG: np.ndarray

    @property
    def phi0(self) -> np.ndarray:
        return self.eigenvectors[:, 0]


def null_mask(eigenvalues: np.ndarray) -> np.ndarray:
    """Boolean mask of eigenvalues classified as zero."""
    lam_max = float(eigenvalues[-1]) if len(eigenvalues) else 0.0
    return np.abs(eigenvalues) <= ZERO_BAND * max(1.0, lam_max)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive."""
    k = np.argmax(np.abs(vectors), axis=0)
    return vectors * np.sign(vectors[k, np.arange(vectors.shape[1])])


def eigendecompose(normL: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenbasis ``(eigenvalues, eigenvectors)`` of a symmetric
    PSD matrix.

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
    return lam, phi


def greens_functions(
    eigenvalues: np.ndarray, eigenvectors: np.ndarray, tilde_rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Green's matrices (scriptG, bigG) from the eigenpairs of the
    normalized Laplacian and the vertex volumes tilde_rho.

    scriptG is the spectral sum over the nonzero eigenpairs; it raises
    ZeroEigenvalueAmbiguous unless exactly one eigenvalue is in the zero
    band.  Verifies the pseudoinverse identities scriptG @ normL =
    I - phi0 phi0* and scriptG @ phi0 = 0 on every evaluation, relative to
    max|scriptG| * max|normL|: rounding in the products grows with that
    scale, which reaches ~1e8 near the positivity floor.
    """
    lam, phi = eigenvalues, eigenvectors
    mask = null_mask(lam)
    if int(mask.sum()) != 1:
        raise ZeroEigenvalueAmbiguous(
            f"{int(mask.sum())} eigenvalues in the zero band; "
            "expected exactly one (is the graph connected?)"
        )
    inv = np.where(mask, 0.0, 1.0 / np.where(mask, 1.0, lam))
    scriptG = (phi * inv[None, :]) @ phi.T
    normL = (phi * lam[None, :]) @ phi.T
    phi0 = phi[:, 0]
    proj = np.eye(len(lam)) - np.outer(phi0, phi0)
    tol = _IDENTITY_TOL * float(np.abs(scriptG).max() * np.abs(normL).max())
    if np.abs(scriptG @ normL - proj).max() > tol:
        raise EigenFailure("pseudoinverse identity scriptG @ L = I - P violated")
    if np.abs(scriptG @ phi0).max() > tol:
        raise EigenFailure("pseudoinverse identity scriptG @ phi0 = 0 violated")
    sq = np.sqrt(np.asarray(tilde_rho, dtype=float))
    bigG = scriptG * sq[:, None] / sq[None, :]
    return scriptG, bigG


def spectral_data(g: GraphInstance, w: WeightAssignment) -> SpectralData:
    """Eigendecompose the normalized Laplacian of (g, w) and build both
    Green's matrices."""
    normL = laplacians(g, w)[2]
    lam, phi = eigendecompose(normL)
    scriptG, bigG = greens_functions(lam, phi, w.tilde_rho)
    return SpectralData(eigenvalues=lam, eigenvectors=phi, scriptG=scriptG, bigG=bigG)


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
    A, Bprime, P, Pprime = (np.asarray(m, float) for m in (A, Bprime, P, Pprime))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    for name, m in (("Bprime", Bprime), ("P", P), ("Pprime", Pprime)):
        if m.shape != A.shape:
            raise DimensionMismatch(f"{name} has shape {m.shape}, expected {A.shape}")
    return -(Pprime + A @ Bprime) @ A - A @ Pprime
