"""Eigensolver certification tests."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from dense_solve import dense_solve
from qbnf import eigensolve
from qbnf.eigensolve import PATTERN_EPS, EigensolveError, _triplets, eigenvalues, spectral_norm
from qbnf.scenario import assembled_operator, bundled_scenarios, load_config


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
    est, _ = spectral_norm(M)
    assert est <= exact + 1e-9
    assert est >= 0.98 * exact


def _sparse(rng, n, density):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return M * (rng.random((n, n)) < density)


def _dense_power_iteration(M, iters=60, tol=1e-10):
    # spectral_norm's iteration, with dense products
    n = M.shape[0]
    v = np.ones(n, dtype=complex) / np.sqrt(n)
    prev = 0.0
    for _ in range(iters):
        w = M.conj().T @ (M @ v)
        nw = np.linalg.norm(w)
        v = w / nw
        sigma = np.sqrt(nw)
        if abs(sigma - prev) <= tol * max(sigma, 1.0):
            return float(sigma)
        prev = sigma
    return float(prev)


def test_spectral_norm_is_a_lower_bound(rng):
    # power iteration approaches ||M||_2 from below: the certificate bound
    # TOL_REL * sigma is never looser than stated
    for n, density in ((1, 1.0), (7, 1.0), (64, 0.05), (201, 0.01), (201, 1.0)):
        M = _sparse(rng, n, density)
        for A in (M, M.real):
            assert spectral_norm(A)[0] <= np.linalg.norm(A, 2) * (1 + 1e-13)


def test_spectral_norm_matches_dense_iteration_at_convergence(rng):
    # a dominant singular value, so both iterations converge well inside 1e-12
    n = 120
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    s = np.concatenate([[3.0], rng.uniform(0.0, 0.15, n - 1)])
    dense = Q @ np.diag(s) @ Q[::-1].conj().T
    sparse = _permuted(rng, np.diag(s) + np.diag(0.01 * rng.normal(size=n - 1), 1))
    for M in (dense, sparse):
        exact = np.linalg.norm(M, 2)
        sigma, converged = spectral_norm(M)
        assert converged
        assert sigma == pytest.approx(_dense_power_iteration(M), rel=1e-12)
        assert sigma == pytest.approx(exact, rel=1e-12)


def test_spectral_norm_of_block_diagonal_is_largest_block_norm(rng):
    sizes = [3, 8, 1, 20, 5]
    M = 0.2 * _block_diagonal(rng, sizes) / np.sqrt(max(sizes))
    # the largest block: a dominant rank-one part, so the iteration converges
    u = rng.normal(size=8) + 1j * rng.normal(size=8)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    M[3:11, 3:11] += 2.0 * np.outer(u, v.conj()) / np.linalg.norm(u) / np.linalg.norm(v)
    starts = np.cumsum(sizes) - sizes
    largest = max(np.linalg.norm(M[a:a + k, a:a + k], 2) for a, k in zip(starts, sizes))
    assert spectral_norm(_permuted(rng, M))[0] == pytest.approx(largest, rel=1e-12)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)))


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

    def recording_eig(A, **options):
        solved.append(A.shape[0])
        return eig(A, **options)

    monkeypatch.setattr(scipy.linalg, "eig", recording_eig)
    blocks = eigenvalues(M, blockwise=True)
    # 1x1 blocks are read off the diagonal without a solve
    assert sorted(solved) == sorted(k for k in sizes if k > 1)
    assert len(blocks) == len(dense) == M.shape[0]
    for z in dense.eigenvalues:
        assert np.min(np.abs(blocks.eigenvalues - z)) <= 1e-12 * dense.matrix_norm
    for z in blocks.eigenvalues:
        assert np.min(np.abs(dense.eigenvalues - z)) <= 1e-12 * dense.matrix_norm
    assert np.all(blocks.residuals <= 1e-8 * blocks.matrix_norm)
    # the certificate is read off the whole matrix
    assert blocks.matrix_norm == dense.matrix_norm
    assert blocks.matrix_fingerprint == dense.matrix_fingerprint


def _assert_dense_solve_bits(M, s):
    """``s`` holds the eigenvalue and residual bits of one dense solve of M."""
    w, residuals = dense_solve(M, _triplets(M))
    assert np.array_equal(s.eigenvalues.view(np.uint64), w.view(np.uint64))
    assert np.array_equal(s.residuals.view(np.uint64), residuals.view(np.uint64))


def test_blockwise_single_component_is_dense_solve(rng):
    # two blocks joined by one entry: weakly, not strongly, connected
    M = _block_diagonal(rng, [12, 18])
    M[3, 20] = 0.5
    for A in (_permuted(rng, M), _permuted(rng, M.T)):
        _assert_dense_solve_bits(A, eigenvalues(A, blockwise=True))


@pytest.mark.parametrize("n", [2, 63, 64, 65, 130, 200])
@pytest.mark.parametrize("density", [1.0, 0.1])
def test_solve_gives_the_dense_oracle_bits(rng, n, density):
    # both sides of the residual slab edge (64 columns), and three slabs
    # whose last takes the remainder
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    M[rng.random((n, n)) >= density] = 0.0
    M[0, 1] = 1.0  # never diagonal, so never read off the diagonal
    _assert_dense_solve_bits(M, eigenvalues(M))


@pytest.mark.parametrize("name, h", [
    pytest.param(name, h, id=f"{name}-h{h}")
    for name in bundled_scenarios() for h in load_config(name).h_values
])
def test_bundled_base_operators_give_the_dense_oracle_bits(name, h):
    op = assembled_operator(load_config(name), h)
    _assert_dense_solve_bits(op, eigenvalues(op))


def test_solve_holds_under_three_dense_arrays_at_its_peak():
    # LAPACK needs the block and its eigenvectors; the residuals add the
    # support-row slab C and one 64-column slab of C @ V, not all of C @ V
    cfg = load_config("cylinder_cubic")
    op = assembled_operator(cfg, cfg.h_values[0])
    eigenvalues(op)  # scipy.linalg is imported outside the measured call
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        eigenvalues(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense = 16 * op.dim ** 2
    assert op.dim == 464
    assert peak < 2.8 * dense, f"peak {peak / dense:.2f} n x n complex arrays"


def test_blockwise_diagonal():
    d = np.array([3.0, -1.0 + 2.0j, 0.0, 0.5j, 3.0])
    s = eigenvalues(np.diag(d), blockwise=True)
    assert np.array_equal(s.eigenvalues, d)
    assert np.all(s.residuals == 0.0)
    assert s.matrix_norm == eigenvalues(np.diag(d)).matrix_norm


def test_blockwise_certificate_failure(rng, monkeypatch):
    M = _permuted(rng, _block_diagonal(rng, [3, 5, 2]))
    with monkeypatch.context() as patch, pytest.raises(EigensolveError) as info:
        patch.setattr(eigensolve, "TOL_REL", 1e-30)
        eigenvalues(M, blockwise=True)
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


def _no_lapack(A):
    raise AssertionError("diagonal matrix sent to LAPACK")


def test_diagonal_matrix_gives_lapack_bits_without_lapack(rng, monkeypatch):
    # LAPACK's balancing isolates every eigenvalue of a diagonal matrix in
    # place, so xGEEV returns the diagonal in index order with unit
    # eigenvectors; the 1x1 rule gives those bits with no dense solve
    for n in (2, 7, 64, 301):
        d = rng.normal(size=n) + 1j * rng.normal(size=n)
        d[rng.random(n) < 0.2] = d[0]  # repeated eigenvalues
        d[rng.random(n) < 0.2] = 0.0
        pick = rng.random(n)
        d.real[pick < 0.1] = -0.0  # signed zeros in non-zero entries
        d.imag[(pick >= 0.1) & (pick < 0.2)] = -0.0
        d.imag[(pick >= 0.2) & (pick < 0.3)] = 0.0
        d[0], d[-1] = complex(-0.0, 1.5), complex(2.5, -0.0)
        d[d == 0] = 0.0  # zero entries are +0.0 (see the next test)
        lapack, _ = scipy.linalg.eig(np.diag(d))
        with monkeypatch.context() as m:
            m.setattr(scipy.linalg, "eig", _no_lapack)
            s = eigenvalues(np.diag(d))
        assert np.array_equal(s.eigenvalues.view(np.uint64), lapack.view(np.uint64))
        assert np.all(s.residuals == 0.0)
        assert s.matrix_norm == spectral_norm(np.diag(d))[0]


def test_diagonal_matrix_negative_zero_entry_reads_as_positive_zero(monkeypatch):
    # the one known departure from LAPACK's bits: a dense input whose
    # diagonal holds a zero with a -0.0 part.  The triplets do not store a
    # zero, so it reads as +0.0, where LAPACK returns the entry as given.
    # Assembled operators never hold one: assembly drops exact zeros.
    d = np.array([1.0, complex(-0.0, 0.0), 2.0j, complex(0.0, -0.0)])
    lapack, _ = scipy.linalg.eig(np.diag(d))
    with monkeypatch.context() as m:
        m.setattr(scipy.linalg, "eig", _no_lapack)
        s = eigenvalues(np.diag(d))
    assert np.array_equal(s.eigenvalues, lapack)
    sign = np.signbit(np.stack([s.eigenvalues.real, s.eigenvalues.imag]))
    assert not sign.any()
    assert np.signbit(lapack[1].real) and np.signbit(lapack[3].imag)
    # off the diagonal too: a -0.0 entry gives the bits of a +0.0 one
    M = np.array([[1.0, 2.0, 0.0], [0.5j, -1.0, 0.0], [0.0, 3.0, 2.0]], dtype=complex)
    N = M.copy()
    N[0, 2], N[2, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
    a, b = eigenvalues(M), eigenvalues(N)
    assert np.array_equal(a.eigenvalues.view(np.uint64), b.eigenvalues.view(np.uint64))
    assert np.array_equal(a.residuals.view(np.uint64), b.residuals.view(np.uint64))
    assert a.matrix_fingerprint == b.matrix_fingerprint


def _chained(rng, sizes, above):
    """Permuted block-diagonal matrix whose consecutive blocks are joined,
    both ways, by one real entry of modulus PATTERN_EPS * max|M|, or one
    ulp more with ``above``."""
    M = _block_diagonal(rng, sizes)
    coupling = PATTERN_EPS * np.abs(M).max()
    if above:
        coupling = np.nextafter(coupling, np.inf)
    starts = np.cumsum(sizes) - sizes
    for a, b in zip(starts[:-1], starts[1:]):
        M[a, b] = coupling
        M[b, a] = -coupling
    return _permuted(rng, M)


def test_blockwise_rounding_level_entries_do_not_join_blocks(rng, monkeypatch):
    sizes = [1, 4, 9, 2, 16, 1, 7]
    M = _chained(rng, sizes, above=False)
    dense = eigenvalues(M)
    solved = []
    eig = scipy.linalg.eig

    def recording_eig(A, **options):
        solved.append(A.shape[0])
        return eig(A, **options)

    monkeypatch.setattr(scipy.linalg, "eig", recording_eig)
    blocks = eigenvalues(M, blockwise=True)
    assert sorted(solved) == sorted(k for k in sizes if k > 1)
    assert _match_sets(blocks.eigenvalues, dense.eigenvalues, 1e-12 * dense.matrix_norm)
    assert np.all(blocks.residuals <= 1e-8 * blocks.matrix_norm)
    assert blocks.matrix_norm == dense.matrix_norm
    assert blocks.matrix_fingerprint == dense.matrix_fingerprint


def test_blockwise_entries_above_the_pattern_threshold_join_blocks(rng):
    M = _chained(rng, [1, 4, 9, 2, 16, 1, 7], above=True)
    dense = eigenvalues(M)
    blocks = eigenvalues(M, blockwise=True)
    assert np.array_equal(blocks.eigenvalues, dense.eigenvalues)
    assert np.array_equal(blocks.residuals, dense.residuals)


def test_blockwise_residuals_are_taken_on_the_whole_matrix(rng):
    # one large diagonal entry lifts the pattern threshold above delta, so
    # the delta couplings join no blocks; every column i also holds delta at
    # row (i + n/2) mod n, in another block, so each unit block eigenvector
    # has a residual of delta on the whole matrix and ~1e-15 on its block
    sizes = [1, 3, 1, 4, 1]
    n = sum(sizes)
    M = _block_diagonal(rng, sizes)
    M[n - 1, n - 1] = 1e6
    delta = 1e-10
    assert delta < PATTERN_EPS * 1e6
    M[(np.arange(n) + n // 2) % n, np.arange(n)] = delta
    s = eigenvalues(_permuted(rng, M), blockwise=True)
    assert np.allclose(s.residuals, delta, rtol=1e-4, atol=0.0)


def test_import_does_not_load_scipy_linalg():
    # scipy.linalg loads at the first solve, so ``import qbnf`` and the
    # solve-free commands (``qbnf bnf``, ``qbnf lattice``) skip it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, qbnf, qbnf.scenario; print('scipy.linalg' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_spectral_norm_when_the_rows_sum_to_zero():
    # the all-ones start vector lies in the kernel of a graph Laplacian
    L = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    assert spectral_norm(L)[0] == pytest.approx(3.0, rel=1e-12)
    s = eigenvalues(L)
    assert s.matrix_norm == pytest.approx(3.0, rel=1e-12) and s.norm_converged
    assert _match_sets(s.eigenvalues, [0.0, 3.0, 3.0], 1e-12)
    assert spectral_norm(np.zeros((3, 3))) == (0.0, True)


def test_norm_convergence_is_reported():
    # top singular values 1 and 1 - 1e-4: 60 power steps do not settle to 1e-10
    M = np.diag([1.0, 1.0 - 1e-4, 0.5])
    sigma, converged = spectral_norm(M)
    assert not converged
    assert spectral_norm(M) == (sigma, converged) and sigma <= 1.0
    s = eigenvalues(M)
    assert not s.norm_converged and s.matrix_norm == sigma
    # a clear gap converges, and the certificate is unchanged either way
    s = eigenvalues(np.diag([1.0, 0.1, 0.01]))
    assert s.norm_converged and s.matrix_norm == pytest.approx(1.0, rel=1e-12)


def test_triplet_and_dense_inputs_agree():
    from qbnf.quantize import CylinderBasis, assemble_cylinder, metaplectic_substitute
    from qbnf.symbols import FormalSymbol, PhaseSpec

    spec = PhaseSpec.cylinder(8, 4)
    sym = metaplectic_substitute(
        FormalSymbol.monomial(spec, 1.0, a=1) + FormalSymbol.monomial(spec, 0.5, alpha=1, beta=1)
        + FormalSymbol.monomial(spec, 0.1, m=1, alpha=3)
    )
    op = assemble_cylinder(sym, CylinderBasis(-3, 3, 5, 0.1))
    for blockwise in (False, True):
        a = eigenvalues(op, blockwise=blockwise)
        b = eigenvalues(op.matrix, blockwise=blockwise)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.residuals, b.residuals)
        assert a.matrix_norm == b.matrix_norm
        assert a.matrix_fingerprint == b.matrix_fingerprint
    assert eigenvalues(2 * op.matrix).matrix_fingerprint != a.matrix_fingerprint
