"""Non-Hermitian eigenvalue computation with residual certificates.

Matrices come in as an OperatorMatrix, the one triplet type, defined
here and re-exported by ``quantize``: a NamedTuple (dim, rows, cols,
values) of the non-zero entries in row-major order.  A plain ndarray is
read into one by a single ``np.nonzero`` scan.  The finiteness check,
the fingerprint (a hash of the dimension and the triplets), the norm and
the block pattern are read off the triplets.

The solver is LAPACK's balancing + Hessenberg + shifted-QR route through
scipy.  Each returned eigenvalue carries the residual
||M v - z v|| / ||v|| of its computed eigenvector, an upper bound for the
smallest singular value of (M - z I); the certificate requires every
residual to stay below TOL_REL * ||M||_2.  ||M||_2 comes from power
iteration on M's non-zero entries, which approaches it from below, so
the certificate is at least as strict as stated.

There is one solve: LAPACK on each diagonal block of a partition of the
indices, every block built from the triplets in Fortran order and
overwritten in place.  The partition is the only choice made:

- by default, one block of all indices, so the matrix is solved in one
  piece;
- when every stored entry lies on the diagonal, one block per index.
  The eigenvalues are then the diagonal entries in index order, with
  zero residuals.  That is exactly what LAPACK returns, because its
  balancing isolates every eigenvalue of a diagonal matrix without a
  permutation and leaves the QR step nothing to do.  The rule keys on
  the stored entries, not on the coupling pattern below: a matrix that
  is diagonal only once rounding-level entries are cut is still one
  block, whose solve sets the last digits of its eigenvalues;
- with ``blockwise=True``, the independent blocks of the matrix's
  couplings (the widened operator of the stability check splits into
  many).  Only an entry with |m_ij| > PATTERN_EPS * max|M| couples i and
  j; smaller ones are rounding left over from assembly and do not merge
  blocks.  Solving a base operator this way would move the last digits
  of its eigenvalues, which is why it is not the default.

1x1 blocks are taken all at once: the eigenvalue is the diagonal entry.
Every block eigenvector, padded with zeros, has its residual measured
against the whole matrix, the entries left out of the pattern included,
from the block's columns over the rows where they hold entries; the
joined spectrum is certified against TOL_REL * ||M||_2 of the whole
matrix, with the whole matrix's fingerprint.  A pattern that cut a real
coupling shows as a large residual, so it fails the certificate rather
than passing unnoticed.  No matrix is made dense beyond its blocks.

Memory: a block's product with its eigenvectors V is formed 64 columns
at a time, so besides LAPACK's own block, eigenvectors and workspace a
solve holds V, the block's columns C and one slab of C @ V; a matrix
solved in one piece peaks at about two dense n x n arrays, not three.
The slabs start at multiples of 64 columns, the last taking the
remainder.  With those edges the BLAS product gives the columns of the
whole C @ V bit for bit (checked at 1 to 4 BLAS threads); slabs at other
edges (65 or 71 columns, say) move the last bits of the residuals, which
the spectrum artifacts record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["OperatorMatrix", "Spectrum", "EigensolveError", "eigenvalues", "spectral_norm"]

#: the certificate: every residual at most TOL_REL * ||M||_2
TOL_REL = 1e-8

#: an entry couples two indices of a blockwise solve only when
#: |m_ij| > PATTERN_EPS * max|M|
PATTERN_EPS = np.finfo(float).eps

#: steps and relative tolerance of the power iteration in spectral_norm
_NORM_ITERS = 60
_NORM_TOL = 1e-10


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
    #: whether the power iteration for matrix_norm met its tolerance; either
    #: way matrix_norm is a lower bound for ||M||_2
    norm_converged: bool = True

    def __len__(self):
        return len(self.eigenvalues)


class OperatorMatrix(NamedTuple):
    """A square complex matrix as canonical triplets.

    ``rows``, ``cols`` and ``values`` list the non-zero entries in
    row-major order.  An assembled operator sums each value from +0.0, in
    assembly order, over the contributions to its entry, and drops the
    entries that sum to exactly zero.  ``matrix`` builds the dense array
    on each access.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        M = np.zeros((self.dim, self.dim), dtype=complex)
        M[self.rows, self.cols] = self.values
        return M


def _triplets(M) -> OperatorMatrix:
    """An OperatorMatrix as it is, a dense matrix's non-zeros by one scan."""
    if isinstance(M, OperatorMatrix):
        return M
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    rows, cols = np.nonzero(A)
    return OperatorMatrix(A.shape[0], rows, cols, A[rows, cols])


def _spmv(index, values, n):
    """Sum complex ``values`` into ``n`` slots by ``index``."""
    return np.bincount(index, values.real, n) + 1j * np.bincount(index, values.imag, n)


def spectral_norm(M) -> tuple[float, bool]:
    """Largest singular value by deterministic power iteration on M*M.

    ``M`` is a dense matrix or an OperatorMatrix; the products run over its
    non-zero entries only (index arrays and ``np.bincount``), since the
    assembled operators are well under 1 % dense.  The iteration starts
    from the normalized all-ones vector; only when M*M maps that to zero on
    a non-zero M does it restart from a fixed pseudo-random vector.  Power
    iteration approaches the largest singular value from below, so the
    result is a lower bound for ||M||_2 (up to rounding): a residual bound
    TOL_REL * sigma is then at most TOL_REL * ||M||_2.  Returns
    ``(sigma, converged)``, where ``converged`` says whether two
    successive estimates met ``_NORM_TOL`` within ``_NORM_ITERS`` steps.
    """
    n, rows, cols, vals = _triplets(M)
    if not len(vals):
        return 0.0, True
    vals_h = vals.conj()

    def gram(v):  # M* M v
        return _spmv(cols, vals_h * _spmv(rows, vals * v[cols], n)[rows], n)

    sigma, converged = 0.0, False
    v = np.ones(n, dtype=complex) / np.sqrt(n)
    for i in range(_NORM_ITERS):
        w = gram(v)
        nw = np.linalg.norm(w)
        if nw == 0.0 and i == 0:
            # the start vector lies in the kernel of M*M, as it does when
            # the rows of M sum to zero; a generic fixed vector does not
            g = np.random.default_rng(0).standard_normal((2, n))
            w = gram((g[0] + 1j * g[1]) / np.linalg.norm(g))
            nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        v = w / nw
        prev, sigma = sigma, float(np.sqrt(nw))
        converged = abs(sigma - prev) <= _NORM_TOL * max(sigma, 1.0)
        if converged:
            break
    return sigma, converged


def _fingerprint(T: OperatorMatrix) -> str:
    """Hash of the dimension and the triplets, so it reads nnz entries, not n^2."""
    import hashlib

    digest = hashlib.sha256(np.int64(T.dim).tobytes())
    for a in (T.rows.astype(np.int64, copy=False), T.cols.astype(np.int64, copy=False),
              T.values):
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()[:16]


def _eig(A: np.ndarray, overwrite: bool = False):
    # imported here: ``import qbnf`` and the solve-free CLI commands skip
    # the cost of loading scipy.linalg
    import scipy.linalg

    try:
        return scipy.linalg.eig(A, overwrite_a=overwrite)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigensolveError(f"QR iteration failed: {exc}") from exc


def _residual_norms(R: np.ndarray, V: np.ndarray) -> np.ndarray:
    vn = np.linalg.norm(V, axis=0)
    vn[vn == 0.0] = 1.0
    return np.linalg.norm(R, axis=0) / vn


#: columns per slab of a block's residuals; slab edges at its multiples
#: keep the BLAS product's bits (see the module docstring)
_RESIDUAL_COLS = 64


def _components(M) -> list[np.ndarray]:
    """Index sets of the weakly connected components of M's couplings.

    ``M`` is an OperatorMatrix or a dense matrix.  The edges are
    the entries with |m_ij| > PATTERN_EPS * max|M|.  Min-label propagation
    over them, with pointer jumping after each sweep; components come out
    ordered by their smallest index.  Plain numpy, because importing
    ``scipy.sparse.csgraph`` alone raises a run's peak memory by about 5 MB.
    """
    n, rows, cols, vals = _triplets(M)
    mag = np.abs(vals)
    if len(mag):
        edge = mag > PATTERN_EPS * mag.max()
        rows, cols = rows[edge], cols[edge]
    labels = np.arange(n)
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
    # a stable sort keeps each component's indices ascending; every label
    # is its component's smallest index, so the groups come in that order
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _solve_blocks(T: OperatorMatrix, blocks: list[np.ndarray]):
    """Eigenvalues block by block, each residual taken on the whole matrix.

    ``blocks`` partitions the indices, each block ascending; a matrix
    solved in one piece is the single block of all its indices.  A larger
    block is built from the triplets whose row and column both lie in it,
    in Fortran order, for LAPACK to overwrite.  Its columns of the whole
    matrix then come from the triplets as a dense slab C over its support
    rows only: the block's indices and the rows of its columns' entries,
    in index order.  C @ V holds every non-zero row of the whole matrix
    times the zero-padded block eigenvectors, the entries the pattern left
    out included.  It is formed one slab of columns at a time, starting
    at multiples of ``_RESIDUAL_COLS`` with the remainder in the last (so
    at least two columns each, and one slab under 128 columns); V * w
    comes off the slab's rows at the block's indices, and its norms sum
    each column in row order.  The block is freed before C is built, so
    V, C and one slab of C @ V are the most alive at once.  At these
    edges each slab is bit for bit the columns of the whole product, and
    the one block of all indices gives the dense solve of the whole
    matrix bit for bit.
    """
    n, rows, cols, vals = T
    order = np.concatenate(blocks)
    sizes = np.array([len(idx) for idx in blocks])
    starts = np.cumsum(sizes) - sizes
    block_of = np.empty(n, dtype=np.intp)
    block_of[order] = np.repeat(np.arange(len(blocks)), sizes)
    place = np.empty(n, dtype=np.intp)
    place[order] = np.arange(n) - np.repeat(starts, sizes)
    w = np.empty(n, dtype=complex)
    residuals = np.empty(n)
    # 1x1 blocks: eigenvector e_i, eigenvalue m_ii, residual the norm of
    # the rest of column i
    one = starts[sizes == 1]
    i = order[one]
    diag = rows == cols
    d = np.zeros(n, dtype=complex)
    d[rows[diag]] = vals[diag]
    colsq = np.bincount(cols[~diag], np.abs(vals[~diag]) ** 2, n)
    w[one] = d[i]
    residuals[one] = np.sqrt(colsq[i])
    # the entries of each larger block's columns, grouped by block
    col_block = block_of[cols]
    by_block = np.argsort(col_block, kind="stable")
    bounds = np.searchsorted(col_block, np.arange(len(blocks) + 1), sorter=by_block)
    for b in np.flatnonzero(sizes > 1):
        idx = blocks[b]
        start, size = starts[b], sizes[b]
        k = by_block[bounds[b]:bounds[b + 1]]
        inside = k[block_of[rows[k]] == b]
        A = np.zeros((size, size), dtype=complex, order="F")
        A[place[rows[inside]], place[cols[inside]]] = vals[inside]
        wb, V = _eig(A, overwrite=True)
        del A  # overwritten by LAPACK
        support = np.union1d(idx, rows[k])
        at = np.searchsorted(support, idx)
        C = np.zeros((len(support), size), dtype=complex)
        C[np.searchsorted(support, rows[k]), place[cols[k]]] = vals[k]
        step = _RESIDUAL_COLS
        edges = [*range(0, max(size // step, 1) * step, step), size]
        for lo, hi in zip(edges[:-1], edges[1:]):
            R = C @ V[:, lo:hi]
            R[at] -= V[:, lo:hi] * wb[lo:hi]
            residuals[start + lo:start + hi] = _residual_norms(R, V[:, lo:hi])
        w[start:start + size] = wb
    return w, residuals


def eigenvalues(M, *, blockwise: bool = False) -> Spectrum:
    """Certified spectrum of a complex matrix.

    Accepts an OperatorMatrix or a plain ndarray; both are read through
    their triplets (those an OperatorMatrix holds, or one scan of a dense
    array), so a dense input's -0.0 entries, on or off the diagonal, read
    as +0.0: the triplets do not store a zero.  Assembled operators hold
    no zeros.  Raises EigensolveError (carrying whatever partial data
    exists) when the QR iteration fails to converge or any residual
    exceeds TOL_REL * ||M||_2, with ||M||_2 from power iteration on the
    non-zero entries (a lower bound; ``Spectrum.norm_converged`` says
    whether the iteration met its tolerance).

    Every matrix takes the one block solve; only the partition differs.
    By default the matrix is one block, solved in one piece, unless every
    stored entry lies on the diagonal: then each index is its own block,
    so the eigenvalues are the diagonal entries in index order and the
    residuals are zero, LAPACK's own result bit for bit.  With
    ``blockwise`` the blocks are the weakly connected components of the
    entries with |m_ij| > PATTERN_EPS * max|M|.  Each block, and its
    columns of the whole matrix over their non-zero rows, are built from
    the triplets, so no matrix is made dense beyond its blocks.  The
    eigenvalues come block by block, in the order of each block's
    smallest index, and each residual is that of the zero-padded block
    eigenvector on the whole matrix.  The certificate, fingerprint and
    norm are those of the whole matrix.
    """
    T = _triplets(M)
    if T.dim == 0:
        raise ValueError("expected a nonempty square matrix")
    if not np.all(np.isfinite(T.values)):
        raise ValueError("matrix has non-finite entries")
    fp = _fingerprint(T)
    if blockwise or np.array_equal(T.rows, T.cols):
        blocks = _components(T)
    else:
        blocks = [np.arange(T.dim)]
    w, residuals = _solve_blocks(T, blocks)
    norm, converged = spectral_norm(T)
    spec = Spectrum(w, residuals, fp, norm, converged)
    bound = TOL_REL * max(norm, np.finfo(float).tiny)
    worst = float(np.max(residuals)) if len(residuals) else 0.0
    if worst > bound:
        raise EigensolveError(
            f"residual certificate failed: max residual {worst:.3e} > {bound:.3e}",
            partial=spec,
        )
    return spec
