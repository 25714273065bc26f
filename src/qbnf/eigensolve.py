"""Dense non-Hermitian eigenvalue computation with residual certificates.

The solver is LAPACK's balancing + Hessenberg + shifted-QR route through
scipy.  Each returned eigenvalue carries the residual
||M v - z v|| / ||v|| of its computed eigenvector, an upper bound for the
smallest singular value of (M - z I); the certificate requires every
residual to stay below tol_rel * ||M||_2.

With ``blockwise=True`` the same solve runs on each diagonal block of a
matrix whose sparsity pattern splits into independent blocks (the widened
operator of the stability check does).  A block eigenvector padded with
zeros is an eigenvector of the whole matrix with the same residual, so
the joined spectrum is certified exactly like a dense one: against
tol_rel * ||M||_2 of the whole matrix, with the whole matrix's
fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = ["Spectrum", "EigensolveError", "eigenvalues", "spectral_norm"]


class EigensolveError(ArithmeticError):
    """Eigenvalue iteration failed or the residual certificate does not hold."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass
class Spectrum:
    eigenvalues: np.ndarray
    residuals: np.ndarray
    matrix_fingerprint: str
    matrix_norm: float

    def __len__(self):
        return len(self.eigenvalues)


def spectral_norm(M: np.ndarray, iters: int = 60, tol: float = 1e-10) -> float:
    """Largest singular value by deterministic power iteration on M*M."""
    n = M.shape[0]
    if n == 0:
        return 0.0
    v = np.ones(n, dtype=complex) / np.sqrt(n)
    MH = M.conj().T
    prev = 0.0
    for _ in range(iters):
        w = MH @ (M @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        sigma = np.sqrt(nw)
        if abs(sigma - prev) <= tol * max(sigma, 1.0):
            return float(sigma)
        prev = sigma
    return float(prev)


def _fingerprint(M: np.ndarray) -> str:
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(M).tobytes()).hexdigest()[:16]


def _solve(A: np.ndarray):
    """Eigenvalues of A and the residual of each computed eigenvector."""
    try:
        w, V = scipy.linalg.eig(A)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigensolveError(f"QR iteration failed: {exc}") from exc
    R = A @ V - V * w[np.newaxis, :]
    vn = np.linalg.norm(V, axis=0)
    vn[vn == 0.0] = 1.0
    return w, np.linalg.norm(R, axis=0) / vn


def _components(A: np.ndarray) -> list[np.ndarray]:
    """Index sets of the weakly connected components of A's sparsity pattern.

    Min-label propagation over the non-zero entries, with pointer jumping
    after each sweep; components come out ordered by their smallest index.
    Plain numpy, because importing ``scipy.sparse.csgraph`` alone raises a
    run's peak memory by about 5 MB.
    """
    rows, cols = np.nonzero(A)
    labels = np.arange(A.shape[0])
    while True:
        low = np.minimum(labels[rows], labels[cols])
        new = labels.copy()
        np.minimum.at(new, rows, low)
        np.minimum.at(new, cols, low)
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, labels):
            break
        labels = new
    return [np.flatnonzero(labels == root) for root in np.unique(labels)]


def eigenvalues(M, *, tol_rel: float = 1e-8, blockwise: bool = False) -> Spectrum:
    """Certified spectrum of a dense complex matrix.

    Accepts an OperatorMatrix or a plain ndarray.  Raises
    EigensolveError (carrying whatever partial data exists) when the QR
    iteration fails to converge or any residual exceeds
    tol_rel * ||M||_2.

    With ``blockwise`` the matrix is solved one independent diagonal
    block at a time (the weakly connected components of its sparsity
    pattern), and the eigenvalues come block by block, in the order of
    each block's smallest index.  The certificate, fingerprint and norm
    are still those of the whole matrix; a single-block matrix is solved
    in place and gives the dense result bit for bit.
    """
    A = np.asarray(getattr(M, "matrix", M), dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    fp = _fingerprint(A)
    blocks = _components(A) if blockwise else []
    if len(blocks) > 1:
        parts = [_solve(A[np.ix_(idx, idx)]) for idx in blocks]
        w = np.concatenate([p[0] for p in parts])
        residuals = np.concatenate([p[1] for p in parts])
    else:
        w, residuals = _solve(A)
    norm = spectral_norm(A)
    spec = Spectrum(w, residuals, fp, norm)
    bound = tol_rel * max(norm, np.finfo(float).tiny)
    worst = float(np.max(residuals)) if len(residuals) else 0.0
    if worst > bound:
        raise EigensolveError(
            f"residual certificate failed: max residual {worst:.3e} > {bound:.3e}",
            partial=spec,
        )
    return spec
