"""Spectra, Green's matrices, and the pseudoinverse derivative."""

import numpy as np
import pytest
import scipy.linalg

import walkweights as ww
from synth import complete_instance, path_instance, random_connected_instance, random_rho
from walkweights.errors import NotSymmetric, ZeroEigenvalueAmbiguous
from walkweights.graph_core import laplacians
from walkweights.spectral_green import eigendecompose, greens_functions, null_mask


def test_single_edge_eigenpairs():
    g = ww.build_graph(2, [(0, 1)], v_in=1, v_out=0)
    spec = ww.spectral_data(g, ww.derived_weights(g, np.ones(2)))
    assert spec.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)
    assert spec.eigenvectors[:, 1] == pytest.approx(
        np.array([1.0, -1.0]) / np.sqrt(2.0), abs=1e-12
    )


def test_p3_null_eigenvector():
    g = path_instance(3)
    spec = ww.spectral_data(g, ww.derived_weights(g, np.ones(3)))
    assert abs(spec.eigenvalues[0]) <= 1e-12
    # phi0(y) = sqrt(tilde_rho(y) / vol) = (1, sqrt 2, 1) / 2
    assert spec.phi0 == pytest.approx([0.5, np.sqrt(2) / 2, 0.5], abs=1e-12)


def test_k3_spectrum():
    g = complete_instance(3)
    spec = ww.spectral_data(g, ww.derived_weights(g, np.ones(3)))
    assert spec.eigenvalues == pytest.approx([0.0, 1.5, 1.5], abs=1e-12)


def test_not_symmetric_rejected():
    with pytest.raises(NotSymmetric):
        eigendecompose(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eigendecompose_reconstruction_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        g = random_connected_instance(n, rng)
        w = ww.derived_weights(g, random_rho(g, rng))
        _, _, normL = laplacians(g, w)
        lam, phi = eigendecompose(normL)
        assert np.abs(phi.T @ phi - np.eye(n)).max() <= 1e-10
        recon = (phi * lam[None, :]) @ phi.T
        assert np.linalg.norm(normL - recon) <= 1e-10 * max(1, np.linalg.norm(normL))


def test_sign_convention_deterministic():
    g = path_instance(4)
    w = ww.derived_weights(g, np.array([1.0, 0.7, 1.9, 0.4]))
    a = ww.spectral_data(g, w)
    b = ww.spectral_data(g, w)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    for j in range(g.n):
        col = a.eigenvectors[:, j]
        assert col[int(np.argmax(np.abs(col)))] > 0


def test_greens_single_edge():
    g = ww.build_graph(2, [(0, 1)], v_in=1, v_out=0)
    spec = ww.spectral_data(g, ww.derived_weights(g, np.ones(2)))
    quarter = np.array([[0.25, -0.25], [-0.25, 0.25]])
    assert np.abs(spec.scriptG - quarter).max() <= 1e-12
    assert np.abs(spec.bigG - quarter).max() <= 1e-12


def test_greens_identities_random():
    rng = np.random.default_rng(4)
    for _ in range(15):
        g = random_connected_instance(int(rng.integers(2, 9)), rng)
        w = ww.derived_weights(g, random_rho(g, rng))
        _, _, normL = laplacians(g, w)
        spec = ww.spectral_data(g, w)
        G = spec.scriptG
        assert np.abs(G - G.T).max() <= 1e-12
        proj = np.eye(g.n) - np.outer(spec.phi0, spec.phi0)
        assert np.abs(G @ normL + np.outer(spec.phi0, spec.phi0) - np.eye(g.n)).max() <= 1e-10
        assert np.abs(G @ spec.phi0).max() <= 1e-10
        assert np.abs(G @ normL - proj).max() <= 1e-10


def test_green_matches_independent_pseudoinverse():
    # Dual route: spectral bigG against T^{1/2} pinv(normL) T^{-1/2} with
    # numpy's SVD pseudoinverse as the independent side.
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_connected_instance(int(rng.integers(2, 9)), rng)
        w = ww.derived_weights(g, random_rho(g, rng))
        _, _, normL = laplacians(g, w)
        spec = ww.spectral_data(g, w)
        sq = np.sqrt(w.tilde_rho)
        other = np.linalg.pinv(normL) * sq[:, None] / sq[None, :]
        assert np.abs(spec.bigG - other).max() <= 1e-9


def test_disconnected_spectrum_ambiguous():
    # Two-component normalized Laplacian has a double zero eigenvalue.
    block = np.array([[1.0, -1.0], [-1.0, 1.0]])
    normL = scipy.linalg.block_diag(block, block)
    lam, phi = eigendecompose(normL)
    assert int(null_mask(lam).sum()) == 2
    with pytest.raises(ZeroEigenvalueAmbiguous):
        greens_functions(lam, phi, np.ones(4))


# -- pseudoinverse derivative --------------------------------------------------


def constant_rank_path(n, k, rng):
    """Smooth symmetric matrix path with a fixed k-dimensional null space.

    Returns pieces(t) -> (B, B', P, P') where P projects onto null(B).
    """
    raw = rng.normal(size=(n, n))
    S = raw - raw.T
    Q0, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mag = rng.uniform(0.5, 2.0, n - k) * rng.choice([-1.0, 1.0], n - k)
    slope = rng.uniform(-0.3, 0.3, n - k)

    def pieces(t):
        Q = scipy.linalg.expm(t * S) @ Q0
        d = np.concatenate([np.zeros(k), mag + slope * t])
        dd = np.concatenate([np.zeros(k), slope])
        B = (Q * d) @ Q.T
        Bp = S @ B - B @ S + (Q * dd) @ Q.T
        e = np.concatenate([np.ones(k), np.zeros(n - k)])
        P = (Q * e) @ Q.T
        Pp = S @ P - P @ S
        return B, Bp, P, Pp

    return pieces


def test_derivative_of_scaled_identity():
    # B(t) = t I at t = 2: full rank, P = P' = 0, A = I/2, A' = -I/4.
    n = 3
    A = np.eye(n) / 2.0
    Ap = ww.pseudoinverse_derivative(A, np.eye(n), np.zeros((n, n)), np.zeros((n, n)))
    assert np.abs(Ap + np.eye(n) / 4.0).max() <= 1e-15


def test_derivative_of_constant_matrix_is_zero():
    rng = np.random.default_rng(6)
    raw = rng.normal(size=(4, 4))
    B = raw + raw.T
    A = scipy.linalg.pinvh(B)
    Ap = ww.pseudoinverse_derivative(A, np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
    assert np.abs(Ap).max() <= 1e-15


def test_dimension_mismatch():
    with pytest.raises(ww.errors.DimensionMismatch):
        ww.pseudoinverse_derivative(
            np.eye(3), np.eye(2), np.zeros((3, 3)), np.zeros((3, 3))
        )


@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 1), (6, 2)])
def test_derivative_matches_finite_differences(n, k):
    rng = np.random.default_rng(100 * n + k)
    pieces = constant_rank_path(n, k, rng)
    t0, h = 0.03, 1e-5
    B, Bp, P, Pp = pieces(t0)
    A = scipy.linalg.pinvh(B)
    # pseudoinverse identities hold along the path
    assert np.abs(A @ B - (np.eye(n) - P)).max() <= 1e-10
    assert np.abs(B @ A - (np.eye(n) - P)).max() <= 1e-10
    assert np.abs(A @ P).max() <= 1e-10
    Ap = ww.pseudoinverse_derivative(A, Bp, P, Pp)
    fd = (
        scipy.linalg.pinvh(pieces(t0 + h)[0])
        - scipy.linalg.pinvh(pieces(t0 - h)[0])
    ) / (2.0 * h)
    rel = np.abs(Ap - fd).max() / max(1.0, np.abs(fd).max())
    assert rel <= 1e-6
