"""The blockwise solve on full-height column slabs, kept as a test oracle.

``qbnf.eigensolve._solve_blocks`` builds each larger block's column slab
over the block's support rows only.  It must give exactly what this
version gives, which builds every slab over all n rows of the matrix: the
same eigenvalue bits, in the same order, and the same residuals.
"""

import numpy as np

from qbnf.eigensolve import _eig, _residual_norms


def slab_solve_blocks(T, blocks):
    """Eigenvalues block by block, each residual taken on the whole matrix.

    A block's columns of the whole matrix come from the triplets as a dense
    n x size slab C; C[idx] is the diagonal block and C @ V the product of
    the whole matrix with the zero-padded block eigenvectors.
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
        C = np.zeros((n, size), dtype=complex)
        C[rows[k], place[cols[k]]] = vals[k]
        wb, V = _eig(C[idx])
        R = C @ V
        R[idx] -= V * wb[np.newaxis, :]
        w[start:start + size] = wb
        residuals[start:start + size] = _residual_norms(R, V)
    return w, residuals
