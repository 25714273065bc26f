"""Dense non-Hermitian eigenvalue computation with residual certificates.

The solver is LAPACK's balancing + Hessenberg + shifted-QR route through
scipy.  Each returned eigenvalue carries the residual
||M v - z v|| / ||v|| of its computed eigenvector, an upper bound for the
smallest singular value of (M - z I); the certificate requires every
residual to stay below tol_rel * ||M||_2.  ||M||_2 comes from power
iteration on M's non-zero entries, which approaches it from below, so
the certificate is at least as strict as stated.

With ``blockwise=True`` the same solve runs on each diagonal block of a
matrix whose couplings split it into independent blocks (the widened
operator of the stability check does).  Only an entry with
|m_ij| > PATTERN_EPS * max|M| couples i and j; smaller ones are rounding
left over from assembly and do not merge blocks.  1x1 blocks are taken
all at once: the eigenvalue is the diagonal entry.  Every block
eigenvector, padded with zeros, has its residual measured against the
whole matrix, the entries left out of the pattern included, and the
joined spectrum is certified exactly like a dense one: against
tol_rel * ||M||_2 of the whole matrix, with the whole matrix's
fingerprint.  A pattern that cut a real coupling shows as a large
residual, so it fails the certificate rather than passing unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Spectrum", "EigensolveError", "eigenvalues", "spectral_norm"]

#: an entry couples two indices of a blockwise solve only when
#: |m_ij| > PATTERN_EPS * max|M|
PATTERN_EPS = np.finfo(float).eps


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


def _spmv(index, values, n):
    """Sum complex ``values`` into ``n`` slots by ``index``."""
    return np.bincount(index, values.real, n) + 1j * np.bincount(index, values.imag, n)


def spectral_norm(M: np.ndarray, iters: int = 60, tol: float = 1e-10) -> float:
    """Largest singular value by deterministic power iteration on M*M.

    The products run over M's non-zero entries only (index arrays and
    ``np.bincount``), since the assembled operators are well under 1 %
    dense.  Power iteration approaches the largest singular value from
    below, so the result is a lower bound for ||M||_2 (up to rounding): a
    residual bound tol_rel * sigma is then at most tol_rel * ||M||_2.
    """
    n = M.shape[0]
    if n == 0:
        return 0.0
    rows, cols = np.nonzero(M)
    vals = M[rows, cols]
    vals_h = vals.conj()
    v = np.ones(n, dtype=complex) / np.sqrt(n)
    prev = 0.0
    for _ in range(iters):
        w = _spmv(cols, vals_h * _spmv(rows, vals * v[cols], n)[rows], n)
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


def _eig(A: np.ndarray):
    # imported here: ``import qbnf`` and the solve-free CLI commands skip
    # the cost of loading scipy.linalg
    import scipy.linalg

    try:
        return scipy.linalg.eig(A)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigensolveError(f"QR iteration failed: {exc}") from exc


def _residual_norms(R: np.ndarray, V: np.ndarray) -> np.ndarray:
    vn = np.linalg.norm(V, axis=0)
    vn[vn == 0.0] = 1.0
    return np.linalg.norm(R, axis=0) / vn


def _solve(A: np.ndarray):
    """Eigenvalues of A and the residual of each computed eigenvector."""
    w, V = _eig(A)
    return w, _residual_norms(A @ V - V * w[np.newaxis, :], V)


def _components(A: np.ndarray) -> list[np.ndarray]:
    """Index sets of the weakly connected components of A's couplings.

    The edges are the entries with |a_ij| > PATTERN_EPS * max|A|.
    Min-label propagation over them, with pointer jumping after each
    sweep; components come out ordered by their smallest index.  Plain
    numpy, because importing ``scipy.sparse.csgraph`` alone raises a run's
    peak memory by about 5 MB.
    """
    rows, cols = np.nonzero(A)
    mag = np.abs(A[rows, cols])
    if len(mag):
        edge = mag > PATTERN_EPS * mag.max()
        rows, cols = rows[edge], cols[edge]
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


def _solve_blocks(A: np.ndarray, blocks: list[np.ndarray]):
    """Eigenvalues block by block, each residual taken on the whole of A."""
    n = A.shape[0]
    order = np.concatenate(blocks)
    sizes = np.array([len(idx) for idx in blocks])
    starts = np.cumsum(sizes) - sizes
    w = np.empty(n, dtype=complex)
    residuals = np.empty(n)
    # 1x1 blocks: eigenvector e_i, eigenvalue a_ii, residual the norm of
    # the rest of column i
    one = starts[sizes == 1]
    i = order[one]
    rows, cols = np.nonzero(A)
    off = rows != cols
    colsq = np.bincount(cols[off], np.abs(A[rows[off], cols[off]]) ** 2, n)
    w[one] = A[i, i]
    residuals[one] = np.sqrt(colsq[i])
    for start, size in zip(starts[sizes > 1], sizes[sizes > 1]):
        idx = order[start:start + size]
        wb, V = _eig(A[np.ix_(idx, idx)])
        R = A[:, idx] @ V
        R[idx] -= V * wb[np.newaxis, :]
        w[start:start + size] = wb
        residuals[start:start + size] = _residual_norms(R, V)
    return w, residuals


def eigenvalues(M, *, tol_rel: float = 1e-8, blockwise: bool = False) -> Spectrum:
    """Certified spectrum of a dense complex matrix.

    Accepts an OperatorMatrix or a plain ndarray.  Raises
    EigensolveError (carrying whatever partial data exists) when the QR
    iteration fails to converge or any residual exceeds
    tol_rel * ||M||_2, with ||M||_2 from power iteration on the non-zero
    entries (a lower bound).

    With ``blockwise`` the matrix is solved one independent diagonal
    block at a time: the weakly connected components of the entries
    with |m_ij| > PATTERN_EPS * max|M|, 1x1 blocks all in one step.  The
    eigenvalues come block by block, in the order of each block's
    smallest index, and each residual is that of the zero-padded block
    eigenvector on the whole matrix.  The certificate, fingerprint and
    norm are those of the whole matrix; a single-block matrix is solved in
    place and gives the dense result bit for bit.
    """
    A = np.asarray(getattr(M, "matrix", M), dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError("expected a nonempty square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    fp = _fingerprint(A)
    blocks = _components(A) if blockwise else []
    if len(blocks) > 1:
        w, residuals = _solve_blocks(A, blocks)
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
