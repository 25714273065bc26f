"""Eigensolver certification tests."""

import numpy as np
import pytest
import scipy.linalg

from qbnf.eigensolve import EigensolveError, eigenvalues, spectral_norm


def _match_sets(a, b, tol):
    a = sorted(a, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    b = sorted(b, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def test_diagonal():
    s = eigenvalues(np.diag([1.0, 2.0 + 3.0j]))
    assert _match_sets(s.eigenvalues, [1.0, 2.0 + 3.0j], 1e-14)
    assert np.all(s.residuals <= 1e-8 * s.matrix_norm)


def test_rotation_matrix():
    s = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert _match_sets(s.eigenvalues, [1j, -1j], 1e-14)


def test_companion_cube_roots():
    # companion matrix of z^3 - 1; oracle: numpy polynomial roots
    C = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    s = eigenvalues(C)
    roots = np.roots([1.0, 0.0, 0.0, -1.0])
    assert _match_sets(s.eigenvalues, list(roots), 1e-12)


def test_trace_identity(rng):
    for n in (5, 20, 60):
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = eigenvalues(M)
        assert abs(np.sum(s.eigenvalues) - np.trace(M)) <= 1e-8 * n * s.matrix_norm


def test_unitary_similarity_invariance(rng):
    n = 24
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    s1 = eigenvalues(M)
    s2 = eigenvalues(Q @ M @ Q.conj().T)
    for z in s1.eigenvalues:
        assert np.min(np.abs(s2.eigenvalues - z)) <= 1e-8 * max(1.0, s1.matrix_norm)


def test_residual_certificate(rng):
    n = 40
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s = eigenvalues(M)
    assert len(s) == n
    assert np.all(s.residuals <= 1e-8 * s.matrix_norm)
    # residuals really are upper bounds for the smallest singular value
    for z, r in list(zip(s.eigenvalues, s.residuals))[:5]:
        smin = np.linalg.svd(M - z * np.eye(n), compute_uv=False)[-1]
        assert smin <= r + 1e-12


def test_spectral_norm_close_to_svd(rng):
    M = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    exact = np.linalg.norm(M, 2)
    est = spectral_norm(M)
    assert est <= exact + 1e-9
    assert est >= 0.98 * exact


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))


def test_spectral_norm_bit_equal_to_per_iteration_adjoint(rng):
    # reference: the same power iteration, forming the adjoint on every step
    def per_iteration(M, iters=60, tol=1e-10):
        n = M.shape[0]
        v = np.ones(n, dtype=complex) / np.sqrt(n)
        prev = 0.0
        for _ in range(iters):
            w = M.conj().T @ (M @ v)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0
            v = w / nw
            sigma = np.sqrt(nw)
            if abs(sigma - prev) <= tol * max(sigma, 1.0):
                return float(sigma)
            prev = sigma
        return float(prev)

    for n in (1, 7, 64, 201):
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert spectral_norm(M) == per_iteration(M)
        assert spectral_norm(M[:, ::-1]) == per_iteration(M[:, ::-1])


def _block_diagonal(rng, sizes):
    n = sum(sizes)
    M = np.zeros((n, n), dtype=complex)
    start = 0
    for k in sizes:
        M[start:start + k, start:start + k] = (
            rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        )
        start += k
    return M


def _permuted(rng, M):
    perm = rng.permutation(M.shape[0])
    return M[np.ix_(perm, perm)]


def test_blockwise_match_dense(rng, monkeypatch):
    sizes = [1, 4, 9, 2, 16, 1, 7]
    M = _permuted(rng, _block_diagonal(rng, sizes))
    dense = eigenvalues(M)
    solved = []
    eig = scipy.linalg.eig

    def recording_eig(A):
        solved.append(A.shape[0])
        return eig(A)

    monkeypatch.setattr(scipy.linalg, "eig", recording_eig)
    blocks = eigenvalues(M, blockwise=True)
    assert sorted(solved) == sorted(sizes)
    assert len(blocks) == len(dense) == M.shape[0]
    for z in dense.eigenvalues:
        assert np.min(np.abs(blocks.eigenvalues - z)) <= 1e-12 * dense.matrix_norm
    for z in blocks.eigenvalues:
        assert np.min(np.abs(dense.eigenvalues - z)) <= 1e-12 * dense.matrix_norm
    assert np.all(blocks.residuals <= 1e-8 * blocks.matrix_norm)
    # the certificate is read off the whole matrix
    assert blocks.matrix_norm == dense.matrix_norm
    assert blocks.matrix_fingerprint == dense.matrix_fingerprint


def test_blockwise_single_component_is_dense_solve(rng):
    # two blocks joined by one entry: weakly, not strongly, connected
    M = _block_diagonal(rng, [12, 18])
    M[3, 20] = 0.5
    for A in (_permuted(rng, M), _permuted(rng, M.T)):
        dense = eigenvalues(A)
        blocks = eigenvalues(A, blockwise=True)
        assert np.array_equal(blocks.eigenvalues, dense.eigenvalues)
        assert np.array_equal(blocks.residuals, dense.residuals)
        assert blocks.matrix_norm == dense.matrix_norm
        assert blocks.matrix_fingerprint == dense.matrix_fingerprint


def test_blockwise_diagonal():
    d = np.array([3.0, -1.0 + 2.0j, 0.0, 0.5j, 3.0])
    s = eigenvalues(np.diag(d), blockwise=True)
    assert np.array_equal(s.eigenvalues, d)
    assert np.all(s.residuals == 0.0)
    assert s.matrix_norm == eigenvalues(np.diag(d)).matrix_norm


def test_blockwise_certificate_failure(rng):
    M = _permuted(rng, _block_diagonal(rng, [3, 5, 2]))
    with pytest.raises(EigensolveError) as info:
        eigenvalues(M, tol_rel=1e-30, blockwise=True)
    partial = info.value.partial
    assert partial is not None and len(partial) == M.shape[0]
    assert partial.matrix_fingerprint == eigenvalues(M).matrix_fingerprint


def test_blockwise_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((0, 0)), blockwise=True)
    with pytest.raises(ValueError):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]), blockwise=True)
    with pytest.raises(ValueError):
        eigenvalues(np.array([[1.0, 0.0], [0.0, np.inf]]), blockwise=True)
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)), blockwise=True)
