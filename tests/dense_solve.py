"""The dense solve of a whole matrix in one piece, kept as a test oracle.

``qbnf.eigensolve.eigenvalues`` solves every matrix through its block
loop; a matrix that it does not split is the one block of all its
indices.  On such a matrix it must give exactly what this version gives,
which makes the matrix dense and solves it in one piece: the same
eigenvalue bits, in the same order, and the same residual bits.
"""

import numpy as np

from qbnf.eigensolve import _RESIDUAL_COLS, _eig


def dense_solve(M, T):
    """Eigenvalues of M and the residual of each computed eigenvector.

    LAPACK works in place on a Fortran-ordered copy of M: built from the
    triplets for an OperatorMatrix, copied for an ndarray.  The one
    product M @ V runs on the row-major matrix (``M.matrix``, rebuilt from
    the triplets); V * w is taken off it and the column norms are read in
    blocks of at least two columns, in place, so no further n x n array is
    made.  Each norm sums its column in row order, as a whole-matrix
    column norm does, so the residuals keep their bits.
    """
    if hasattr(M, "rows"):
        A = np.zeros((T.dim, T.dim), dtype=complex, order="F")
        A[T.rows, T.cols] = T.values
    else:
        A = np.array(M, dtype=complex, order="F")
    w, V = _eig(A, overwrite=True)
    del A  # overwritten by LAPACK
    R = np.asarray(getattr(M, "matrix", M), dtype=complex) @ V
    edges = np.linspace(0, T.dim, max(T.dim // _RESIDUAL_COLS, 1) + 1).astype(int)
    residuals = np.empty(T.dim)
    for lo, hi in zip(edges[:-1], edges[1:]):
        R[:, lo:hi] -= V[:, lo:hi] * w[lo:hi]
        residuals[lo:hi] = np.linalg.norm(R[:, lo:hi], axis=0)
    vn = np.linalg.norm(V, axis=0)
    vn[vn == 0.0] = 1.0
    return w, residuals / vn
