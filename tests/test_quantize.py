"""Matrix assembly tests: ladder algebra, midpoint rule, composition."""

import math

import numpy as np
import pytest
import scipy.linalg

from qbnf.quantize import (
    CylinderBasis,
    DimensionCapError,
    SaddleBasis,
    assemble_cylinder,
    assemble_saddle,
    complex_scale,
    direct_spectrum,
    ladder_momentum,
    ladder_position,
    metaplectic_substitute,
    weyl_monomial_matrix,
)
from qbnf.symbols import FormalSymbol, PhaseSpec, moyal_star, poisson_bracket, star_conjugate

from basis_labels import cylinder_index, cylinder_labels, saddle_index, tau_value
from conftest import random_symbol, symbols_close
from dict_symbol import dict_evaluate

SPEC = PhaseSpec.cylinder(8, 8)
SPEC2 = PhaseSpec.saddle(8)


def mono(coef, **kw):
    return FormalSymbol.monomial(SPEC, coef, **kw)


def mono2(coef, **kw):
    return FormalSymbol.monomial(SPEC2, coef, **kw)


# --------------------------------------------------------------------------
# canonical identifications
# --------------------------------------------------------------------------

def test_complex_scale_quadratic():
    l1, l2 = 1.0, math.sqrt(2.0)
    p0 = (
        mono2(0.5 * l1, beta=(2, 0)) - mono2(0.5 * l1, alpha=(2, 0))
        + mono2(0.5 * l2, beta=(0, 2)) + mono2(0.5 * l2, alpha=(0, 2))
    )
    out = complex_scale(p0)
    expected = (
        mono2(0.5 * l1 / 1j, beta=(2, 0)) + mono2(0.5 * l1 / 1j, alpha=(2, 0))
        + mono2(0.5 * l2, beta=(0, 2)) + mono2(0.5 * l2, alpha=(0, 2))
    )
    assert symbols_close(out, expected)


def test_complex_scale_quartics():
    assert symbols_close(complex_scale(mono2(1, alpha=(4, 0))), mono2(-1, alpha=(4, 0)))
    assert symbols_close(
        complex_scale(mono2(1, alpha=(2, 2))), mono2(1j, alpha=(2, 2))
    )


def test_metaplectic_action_product():
    out = metaplectic_substitute(mono(1, alpha=1, beta=1))
    expected = mono(1 / 2j, alpha=2) + mono(1 / 2j, beta=2)
    assert symbols_close(out, expected)


def test_metaplectic_canonical():
    # substituted pair keeps {xi, x} = 1
    x, xi = mono(1, alpha=1), mono(1, beta=1)
    sx, sxi = metaplectic_substitute(x), metaplectic_substitute(xi)
    assert symbols_close(poisson_bracket(sxi, sx), FormalSymbol.constant(SPEC, 1.0))


def test_metaplectic_pointwise(rng):
    # evaluation oracle: p(x, xi) equals the substituted symbol at (y, eta)
    s = 1.0 / math.sqrt(2.0)
    for _ in range(6):
        p = random_symbol(SPEC, rng, n_terms=5)
        q = metaplectic_substitute(p)
        y, eta, t, tau, h = rng.uniform(0.2, 1.0, size=5)
        x = (y - 1j * eta) * s
        xi = (-1j * y + eta) * s
        lhs = dict_evaluate(p.terms, t=t, tau=tau, pairs=((x, xi),), h=h)
        rhs = dict_evaluate(q.terms, t=t, tau=tau, pairs=((y, eta),), h=h)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# --------------------------------------------------------------------------
# ladder matrices
# --------------------------------------------------------------------------

def test_ladder_commutator():
    h = 0.3
    Y, E = ladder_position(8, h), ladder_momentum(8, h)
    C = Y @ E - E @ Y
    assert np.allclose(np.diag(C)[:-1], 1j * h)


def test_weyl_monomial_matches_oscillator():
    h = 0.2
    W = weyl_monomial_matrix(2, 0, 6, h) + weyl_monomial_matrix(0, 2, 6, h)
    expected = np.diag(2 * (np.arange(7) + 0.5) * h)
    assert np.allclose(W, expected, atol=1e-14)


def test_weyl_monomial_entries_exact_at_boundary():
    # enlarged-range construction makes even the top rows exact
    h = 0.1
    big = weyl_monomial_matrix(4, 0, 30, h)
    small = weyl_monomial_matrix(4, 0, 10, h)
    assert np.allclose(big[:11, :11], small, atol=1e-14)


# --------------------------------------------------------------------------
# cylinder assembly
# --------------------------------------------------------------------------

BASIS = CylinderBasis(-4, 4, 8, 0.1, action=0.3)


def test_assemble_tau_diagonal():
    M = assemble_cylinder(mono(1, a=1), BASIS).matrix
    expect = np.repeat(0.1 * np.arange(-4, 5) - 0.3 / (2 * math.pi), 9)
    assert np.allclose(np.diag(M), expect)
    assert np.allclose(M, np.diag(np.diag(M)))


def test_assemble_oscillator_diagonal():
    iota = mono(0.5, alpha=2) + mono(0.5, beta=2)
    M = assemble_cylinder(iota, BASIS).matrix
    expect = np.tile((np.arange(9) + 0.5) * 0.1, 9)
    assert np.allclose(np.diag(M), expect)
    assert np.allclose(M, np.diag(np.diag(M)))


def test_assemble_position_offdiagonal():
    M = assemble_cylinder(mono(1, alpha=1), BASIS).matrix
    h = BASIS.h
    for k in (-2, 0, 3):
        for l in range(7):
            r, c = cylinder_index(BASIS, k, l + 1), cylinder_index(BASIS, k, l)
            assert abs(M[r, c] - math.sqrt(0.5 * h * (l + 1))) < 1e-14
            assert abs(M[c, r] - math.sqrt(0.5 * h * (l + 1))) < 1e-14


def test_assemble_midpoint_rule():
    M = assemble_cylinder(mono(1, m=1, a=1), BASIS).matrix
    for k in range(-4, 4):
        for l in range(9):
            r, c = cylinder_index(BASIS, k + 1, l), cylinder_index(BASIS, k, l)
            expect = 0.5 * (tau_value(BASIS, k, l) + tau_value(BASIS, k + 1, l))
            assert abs(M[r, c] - expect) < 1e-14


def test_assemble_k_bandwidth():
    sym = mono(1, m=2, a=1) + mono(0.5, m=-1, alpha=1)
    M = assemble_cylinder(sym, BASIS).matrix
    for (k1, l1) in cylinder_labels(BASIS):
        for (k2, l2) in cylinder_labels(BASIS):
            if abs(k1 - k2) > 2 and M[cylinder_index(BASIS, k1, l1),
                                      cylinder_index(BASIS, k2, l2)] != 0:
                raise AssertionError("coupling beyond the symbol Fourier bandwidth")


def test_assemble_selfadjoint_for_real_symbols(rng):
    for _ in range(5):
        sym = random_symbol(SPEC, rng, n_terms=6, classical=True, real=True)
        M = assemble_cylinder(sym, BASIS).matrix
        assert np.allclose(M, M.conj().T, atol=1e-12 * max(1.0, abs(M).max()))


def test_assemble_commutation_interior():
    Mx = assemble_cylinder(mono(1, alpha=1), BASIS).matrix
    Mxi = assemble_cylinder(mono(1, beta=1), BASIS).matrix
    C = Mx @ Mxi - Mxi @ Mx
    h = BASIS.h
    for k in range(-4, 5):
        for l in range(8):  # interior levels
            i = cylinder_index(BASIS, k, l)
            col = C[:, i].copy()
            col[i] -= 1j * h
            assert np.max(np.abs(col)) < 1e-13


def _interior_cols(basis, reach_k, reach_l):
    return [
        cylinder_index(basis, k, l)
        for k in range(basis.k_min + reach_k, basis.k_max - reach_k + 1)
        for l in range(0, basis.levels - reach_l + 1)
    ]


def test_assemble_composition_consistency(rng):
    # ground truth for every sign convention: matrices compose like symbols;
    # the working grade is chosen so the symbol product is never truncated
    # (angle channels convert tau powers into h powers, adding grade)
    spec = PhaseSpec.cylinder(16, 16)
    for _ in range(6):
        a = random_symbol(spec, rng, n_terms=3, max_exp=1, max_mode=1)
        b = random_symbol(spec, rng, n_terms=3, max_exp=1, max_mode=1)
        Ma = assemble_cylinder(a, BASIS).matrix
        Mb = assemble_cylinder(b, BASIS).matrix
        Mab = assemble_cylinder(moyal_star(a, b), BASIS).matrix
        prod = Ma @ Mb
        reach_k = max((abs(key[0]) for key in b.terms), default=0) // 2 + 1
        reach_l = 2
        cols = _interior_cols(BASIS, reach_k, reach_l)
        scale = max(1.0, np.abs(prod).max())
        err = max(np.abs(prod[:, c] - Mab[:, c]).max() for c in cols)
        assert err <= 1e-10 * scale


def test_star_conjugation_matrix_oracle(rng):
    # exp(-i A_hat / h) M exp(i A_hat / h) realizes star_conjugate
    h = BASIS.h
    p = mono(1, a=1) + mono(1, alpha=1, beta=1) + mono(0.1, m=1, j=1)
    A = mono(0.05, m=1, a=1, j=1) + mono(0.03, m=-1, j=1)
    out = star_conjugate(p, A)
    Mp = assemble_cylinder(metaplectic_substitute(p), BASIS).matrix
    Mout = assemble_cylinder(metaplectic_substitute(out), BASIS).matrix
    MA = assemble_cylinder(metaplectic_substitute(A), BASIS).matrix / h
    U = scipy.linalg.expm(1j * MA)
    Uinv = scipy.linalg.expm(-1j * MA)
    conj = Uinv @ Mp @ U
    cols = _interior_cols(BASIS, 3, 4)
    rows = np.array(_interior_cols(BASIS, 3, 4))
    sub = np.ix_(rows, np.array(cols))
    assert np.max(np.abs(conj[sub] - Mout[sub])) < 1e-8


def test_star_conjugation_spectrum_invariant():
    p = mono(1, a=1) + mono(1, alpha=1, beta=1)
    A = mono(0.2, m=1, j=1)
    out = star_conjugate(p, A)
    # conjugation cannot move eigenvalues; compare sorted spectra loosely on
    # the interior-dominated part
    Mp = assemble_cylinder(metaplectic_substitute(p), BASIS).matrix
    Mo = assemble_cylinder(metaplectic_substitute(out), BASIS).matrix
    sp_p = np.sort_complex(np.linalg.eigvals(Mp))
    sp_o = np.sort_complex(np.linalg.eigvals(Mo))
    # match interior eigenvalues only: both spectra agree where the basis is
    # adequate; compare the central cluster
    close = 0
    for z in sp_p:
        if np.min(np.abs(sp_o - z)) < 1e-6:
            close += 1
    assert close >= 0.8 * len(sp_p)


# --------------------------------------------------------------------------
# non-orientable assembly
# --------------------------------------------------------------------------

def test_nonorientable_floquet_coupling():
    spec = PhaseSpec.cylinder(8, 8, orientable=False)
    basis = CylinderBasis(-3, 3, 6, 0.1, orientable=False)
    sym = FormalSymbol.monomial(spec, 1.0, m=0.5, alpha=1)
    M = assemble_cylinder(sym, basis).matrix
    # e^{it/2} y couples (k, l) -> (k', l +- 1) with k' = k + (1 +- ... )/2
    nz = np.argwhere(np.abs(M) > 0)
    for r, c in nz:
        kr, lr = divmod(r, 7)
        kc, lc = divmod(c, 7)
        kr += basis.k_min
        kc += basis.k_min
        tau_r = tau_value(basis, kr, lr)
        tau_c = tau_value(basis, kc, lc)
        assert abs(tau_r - tau_c - 0.5 * basis.h) < 1e-12
        assert abs(lr - lc) == 1


def test_nonorientable_rejects_parity_violation():
    spec = PhaseSpec.cylinder(8, 8, orientable=True)
    basis = CylinderBasis(-3, 3, 6, 0.1, orientable=False)
    sym = FormalSymbol.monomial(spec, 1.0, m=1, alpha=1)  # even 2m, odd degree
    with pytest.raises(ValueError):
        assemble_cylinder(sym, basis)


def test_orientability_flag_mismatch():
    basis = CylinderBasis(-3, 3, 6, 0.1, orientable=False)
    with pytest.raises(ValueError):
        assemble_cylinder(mono(1, a=1), basis)


# --------------------------------------------------------------------------
# saddle assembly
# --------------------------------------------------------------------------

def test_assemble_saddle_quadratic_diagonal():
    h = 0.05
    l1, l2 = 1.0, 2.0
    basis = SaddleBasis(6, 6, h)
    p0 = (
        mono2(0.5 * l1, beta=(2, 0)) - mono2(0.5 * l1, alpha=(2, 0))
        + mono2(0.5 * l2, beta=(0, 2)) + mono2(0.5 * l2, alpha=(0, 2))
    )
    M = assemble_saddle(complex_scale(p0), basis).matrix
    expect = np.array(
        [
            -1j * l1 * (k + 0.5) * h + l2 * (l + 0.5) * h
            for k in range(7)
            for l in range(7)
        ]
    )
    assert np.allclose(M, np.diag(expect), atol=1e-13)


def test_assemble_saddle_identity():
    basis = SaddleBasis(4, 5, 0.1)
    M = assemble_saddle(FormalSymbol.constant(SPEC2, 1.0), basis).matrix
    assert np.allclose(M, np.eye(basis.dim))


def test_assemble_saddle_x1sq_pattern():
    basis = SaddleBasis(5, 2, 0.1)
    M = assemble_saddle(mono2(1, alpha=(2, 0)), basis).matrix
    W = weyl_monomial_matrix(2, 0, 5, 0.1)
    assert np.allclose(M, np.kron(W, np.eye(3)))


@pytest.mark.parametrize("call, match", [
    (lambda: metaplectic_substitute(mono2(1, alpha=(1, 0), beta=(1, 0))), "cylinder symbols"),
    (lambda: assemble_cylinder(mono2(1, alpha=(1, 0)), BASIS), "expects a cylinder symbol"),
    (lambda: assemble_saddle(mono(1, alpha=1), SaddleBasis(4, 4, 0.1)), "two-pair symbol"),
], ids=["metaplectic", "assemble_cylinder", "assemble_saddle"])
def test_identification_and_assembly_refuse_the_other_geometry(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_assemble_saddle_composition(rng):
    basis = SaddleBasis(8, 8, 0.1)
    spec = PhaseSpec.saddle(12)
    for _ in range(4):
        a = random_symbol(spec, rng, n_terms=3, max_exp=1)
        b = random_symbol(spec, rng, n_terms=3, max_exp=1)
        Ma = assemble_saddle(a, basis).matrix
        Mb = assemble_saddle(b, basis).matrix
        Mab = assemble_saddle(moyal_star(a, b), basis).matrix
        prod = Ma @ Mb
        cols = [
            saddle_index(basis, k, l) for k in range(0, 5) for l in range(0, 5)
        ]
        scale = max(1.0, np.abs(prod).max())
        err = max(np.abs(prod[:, c] - Mab[:, c]).max() for c in cols)
        assert err <= 1e-10 * scale


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        SaddleBasis(100, 100, 0.1)


def test_direct_spectrum_stability_gate():
    # quadratic saddle: everything is exact, nothing gets flagged
    from qbnf.lattice import Window

    h = 0.05
    basis = SaddleBasis(10, 10, h)
    p0 = (
        mono2(0.5, beta=(2, 0)) - mono2(0.5, alpha=(2, 0))
        + mono2(1.0, beta=(0, 2)) + mono2(1.0, alpha=(0, 2))
    )
    accepted, flagged, spec = direct_spectrum(
        complex_scale(p0), basis, Window(0.0, 0.4, 0.4)
    )
    assert accepted and not flagged
    for z, res in accepted:
        assert res <= 1e-8 * spec.matrix_norm


def _bundled_operator(name, **basis_fields):
    """Model symbol, basis (auto, or with fields replaced) and window of a bundled scenario."""
    import dataclasses

    from qbnf.compare import MATCH_WINDOW_PAD, model_operator_symbol
    from qbnf.scenario import load_config

    config = load_config(name)
    basis = dataclasses.replace(config.basis_for(config.h_values[0]), **basis_fields)
    window = config.window().inflated(MATCH_WINDOW_PAD)
    return model_operator_symbol(config.model()), basis, window


@pytest.mark.parametrize(
    "name, basis_fields, num_flagged",
    [
        pytest.param("quadratic_saddle", {}, 0, id="quadratic_saddle"),
        pytest.param("cylinder_cubic", {}, 0, id="cylinder_cubic"),
        pytest.param("nonorientable_halfmode", {}, 0, id="nonorientable_halfmode"),
        # smaller bases, so that the stability test has something to flag
        pytest.param("cylinder_cubic", dict(k_min=-8, k_max=8, levels=9), 13,
                     id="cylinder_cubic-dim170"),
        pytest.param("perturbed_saddle", dict(levels1=7, levels2=7), 9,
                     id="perturbed_saddle-dim64"),
    ],
)
def test_direct_spectrum_block_solve_matches_dense_oracle(name, basis_fields, num_flagged):
    # the widened operator is solved block by block; a stability test on
    # one dense solve of the same operator must accept and flag the same
    from qbnf.eigensolve import eigenvalues
    from qbnf.quantize import _STABILITY_TOL

    sym, basis, window = _bundled_operator(name, **basis_fields)
    accepted, flagged, spec = direct_spectrum(sym, basis, window)

    assemble = assemble_cylinder if isinstance(basis, CylinderBasis) else assemble_saddle
    wide = eigenvalues(assemble(sym, basis.widened())).eigenvalues
    oracle_accepted, oracle_flagged = [], []
    for z, res in zip(spec.eigenvalues, spec.residuals):
        if not window.contains(z):
            continue
        if np.min(np.abs(wide - z)) <= _STABILITY_TOL:
            oracle_accepted.append((z, res))
        else:
            oracle_flagged.append(z)
    assert accepted == oracle_accepted
    assert flagged == oracle_flagged
    assert accepted
    assert len(flagged) == num_flagged


def test_widened_operators_split_into_their_true_blocks():
    # rounding-level entries of the assembled widened operators (about
    # 1e-17 max|W|) must not merge the blocks their real couplings define
    from qbnf.eigensolve import _components

    counts = {}
    for name in ("quadratic_saddle", "cylinder_unperturbed", "cylinder_cubic",
                 "nonorientable_halfmode"):
        sym, basis, _ = _bundled_operator(name)
        assemble = assemble_cylinder if isinstance(basis, CylinderBasis) else assemble_saddle
        counts[name] = len(_components(assemble(sym, basis.widened())))
    assert counts == {"quadratic_saddle": 725, "cylinder_unperturbed": 962,
                      "cylinder_cubic": 140, "nonorientable_halfmode": 39}


@pytest.mark.parametrize("name", ["quadratic_saddle", "cylinder_unperturbed", "cylinder_cubic",
                                  "nonorientable_halfmode", "perturbed_saddle"])
def test_components_list_each_root_in_order(name):
    # the grouped listing equals one flatnonzero scan per component root,
    # ordered by root, on the base and widened operators
    from qbnf.eigensolve import _components

    sym, basis, _ = _bundled_operator(name)
    assemble = assemble_cylinder if isinstance(basis, CylinderBasis) else assemble_saddle
    for op in (assemble(sym, basis), assemble(sym, basis.widened())):
        blocks = _components(op)
        labels = np.empty(op.dim, dtype=np.intp)
        for idx in blocks:
            labels[idx] = idx.min()
        oracle = [np.flatnonzero(labels == root) for root in np.unique(labels)]
        assert len(blocks) == len(oracle)
        for got, want in zip(blocks, oracle):
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize(
    "name, basis_fields",
    [
        pytest.param("quadratic_saddle", {}, id="quadratic_saddle"),
        pytest.param("cylinder_unperturbed", {}, id="cylinder_unperturbed"),
        pytest.param("cylinder_cubic", {}, id="cylinder_cubic"),
        pytest.param("nonorientable_halfmode", {}, id="nonorientable_halfmode"),
        pytest.param("cylinder_cubic", dict(k_min=-8, k_max=8, levels=9),
                     id="cylinder_cubic-dim170"),
        pytest.param("perturbed_saddle", dict(levels1=7, levels2=7), id="perturbed_saddle-dim64"),
    ],
)
def test_block_solve_on_support_rows_is_bit_equal_to_full_slabs(name, basis_fields):
    # each larger block's slab holds only its support rows; the rows it
    # leaves out are zero, so eigenvalues and residuals keep their bits
    from qbnf.eigensolve import _components, _solve_blocks, _triplets

    from slab_solve import slab_solve_blocks

    sym, basis, _ = _bundled_operator(name, **basis_fields)
    assemble = assemble_cylinder if isinstance(basis, CylinderBasis) else assemble_saddle
    T = _triplets(assemble(sym, basis.widened()))
    blocks = _components(T)
    w, residuals = _solve_blocks(T, blocks)
    oracle_w, oracle_residuals = slab_solve_blocks(T, blocks)
    assert np.array_equal(w.view(np.uint64), oracle_w.view(np.uint64))
    assert np.array_equal(residuals.view(np.uint64), oracle_residuals.view(np.uint64))


def test_diagonal_base_operator_skips_lapack(monkeypatch):
    # cylinder_unperturbed's base operator stores only diagonal entries:
    # its spectrum is read off the diagonal with LAPACK's bits and zero
    # residuals, and no dense solve runs
    from qbnf.eigensolve import eigenvalues

    sym, basis, _ = _bundled_operator("cylinder_unperturbed")
    op = assemble_cylinder(sym, basis)
    assert np.array_equal(op.rows, op.cols)
    lapack, _ = scipy.linalg.eig(op.matrix)

    def no_lapack(A):
        raise AssertionError("diagonal operator sent to LAPACK")

    monkeypatch.setattr(scipy.linalg, "eig", no_lapack)
    s = eigenvalues(op)
    assert np.array_equal(s.eigenvalues.view(np.uint64), lapack.view(np.uint64))
    assert np.all(s.residuals == 0.0)


def test_base_operator_diagonal_only_under_the_pattern_is_solved_dense(monkeypatch):
    # quadratic_saddle's base operator splits into 1x1 blocks only once
    # rounding-level entries are cut; the dense solve sets its last digits
    from qbnf.eigensolve import _components, eigenvalues

    sym, basis, _ = _bundled_operator("quadratic_saddle")
    op = assemble_saddle(sym, basis)
    assert len(_components(op)) == basis.dim and not np.array_equal(op.rows, op.cols)
    solved = []
    eig = scipy.linalg.eig

    def recording_eig(A, **options):
        solved.append(A.shape[0])
        return eig(A, **options)

    monkeypatch.setattr(scipy.linalg, "eig", recording_eig)
    eigenvalues(op)
    assert solved == [basis.dim]


# --------------------------------------------------------------------------
# triplet assembly against per-entry dense loops
# --------------------------------------------------------------------------

def _oracle_cylinder(symbol, basis):
    """Dense cylinder assembly, one np.add.at per (term, l, l')."""
    L = basis.levels
    M = np.zeros((basis.dim, basis.dim), dtype=complex)
    ks = np.arange(basis.k_min, basis.k_max + 1)
    offset = basis.action / (2.0 * math.pi)
    for (m2, a, alpha, beta, j), c in symbol.terms.items():
        W = weyl_monomial_matrix(alpha[0], beta[0], L, basis.h)
        base = c * basis.h**j
        for l in range(L + 1):
            col_tau = basis.h * (ks + (0.5 * l if not basis.orientable else 0.0)) - offset
            mid = col_tau + 0.25 * m2 * basis.h
            weight = base * mid**a if a else base * np.ones_like(mid)
            for lp in range(L + 1):
                w = W[lp, l]
                if w == 0:
                    continue
                if basis.orientable:
                    kp = ks + m2 // 2
                else:
                    num = m2 + (l - lp)
                    if num % 2:
                        continue
                    kp = ks + num // 2
                sel = (kp >= basis.k_min) & (kp <= basis.k_max)
                rows = (kp[sel] - basis.k_min) * (L + 1) + lp
                cols = (ks[sel] - basis.k_min) * (L + 1) + l
                np.add.at(M, (rows, cols), weight[sel] * w)
    return M


def _oracle_saddle(symbol, basis):
    """Dense saddle assembly, one Kronecker product per term."""
    M = np.zeros((basis.dim, basis.dim), dtype=complex)
    for (m2, a, alpha, beta, j), c in symbol.terms.items():
        F1 = weyl_monomial_matrix(alpha[0], beta[0], basis.levels1, basis.h)
        F2 = weyl_monomial_matrix(alpha[1], beta[1], basis.levels2, basis.h)
        M += (c * basis.h**j) * np.kron(F1, F2)
    return M


def _assert_bit_equal_to_oracle(sym, basis):
    if isinstance(basis, CylinderBasis):
        op, oracle = assemble_cylinder(sym, basis), _oracle_cylinder(sym, basis)
    else:
        op, oracle = assemble_saddle(sym, basis), _oracle_saddle(sym, basis)
    # the bit patterns, so that -0.0 and last-bit drift fail too
    assert np.array_equal(op.matrix.view(np.uint64), oracle.view(np.uint64))
    rows, cols = np.nonzero(oracle)
    assert np.array_equal(op.rows, rows) and np.array_equal(op.cols, cols)
    assert op.dim == basis.dim


@pytest.mark.parametrize("name", ["quadratic_saddle", "cylinder_unperturbed", "cylinder_cubic",
                                  "nonorientable_halfmode", "perturbed_saddle"])
def test_assembly_bit_equal_to_dense_loops(name):
    sym, basis, _ = _bundled_operator(name)
    for b in (basis, basis.widened()):
        _assert_bit_equal_to_oracle(sym, b)


def test_assembly_bit_equal_to_dense_loops_on_random_symbols(rng):
    # many terms sharing entries, so the summation order shows
    for orientable in (True, False):
        spec = PhaseSpec.cylinder(8, 3, orientable=orientable)
        basis = CylinderBasis(-4, 5, 7, 0.07, action=0.3, orientable=orientable)
        _assert_bit_equal_to_oracle(random_symbol(spec, rng, n_terms=30, max_exp=3), basis)
    _assert_bit_equal_to_oracle(random_symbol(SPEC2, rng, n_terms=30, max_exp=3),
                                SaddleBasis(6, 4, 0.07))


def test_assembly_drops_entries_that_cancel():
    # y1^2 and -eta1^2 have equal diagonals, so only the off-diagonal survives
    sym, basis = mono2(1.0, alpha=(2, 0)) - mono2(1.0, beta=(2, 0)), SaddleBasis(4, 2, 0.1)
    op = assemble_saddle(sym, basis)
    assert np.all(op.values != 0) and not np.any(op.rows == op.cols)
    _assert_bit_equal_to_oracle(sym, basis)
    # a symbol without terms assembles to no entries
    empty = assemble_cylinder(mono(1.0, alpha=1) - mono(1.0, alpha=1), CylinderBasis(-2, 2, 4, 0.1))
    assert len(empty.rows) == len(empty.cols) == len(empty.values) == 0
    assert not np.any(empty.matrix)


def test_nonorientable_parity_violation_rejected_after_valid_terms():
    # the parity rule is the symbol's own: its constructor rejects a key
    # that breaks it also after valid keys, so assembly never meets one
    spec = PhaseSpec.cylinder(8, 8, orientable=False)
    basis = CylinderBasis(-3, 3, 6, 0.1, orientable=False)
    good = FormalSymbol.monomial(spec, 1.0, m=0.5, alpha=1)
    _assert_bit_equal_to_oracle(good, basis)
    with pytest.raises(ValueError, match="anti-periodicity"):
        FormalSymbol(spec, {**good.terms, (2, 0, (1,), (0,), 0): 1.0})


def test_widened_solve_never_builds_the_dense_widened_matrix(monkeypatch):
    from qbnf import quantize

    densified = []
    dense = quantize.OperatorMatrix.matrix.fget

    def recording(op):
        densified.append(op.dim)
        return dense(op)

    monkeypatch.setattr(quantize.OperatorMatrix, "matrix", property(recording))
    sym, basis, window = _bundled_operator("cylinder_cubic")
    accepted, _, _ = direct_spectrum(sym, basis, window)
    assert accepted
    # neither the base operator, solved as one block built from its
    # triplets, nor the widened one is ever made dense
    assert densified == []


def test_base_operator_is_solved_before_the_widened_one_is_assembled(monkeypatch):
    from qbnf import eigensolve, quantize

    calls = []
    assemble, solve = quantize.assemble_saddle, eigensolve.eigenvalues

    def recording_assemble(symbol, basis):
        calls.append(("assemble", basis.dim))
        return assemble(symbol, basis)

    def recording_solve(op, **options):
        calls.append(("solve", op.dim))
        return solve(op, **options)

    monkeypatch.setattr(quantize, "assemble_saddle", recording_assemble)
    monkeypatch.setattr(eigensolve, "eigenvalues", recording_solve)
    sym, basis, window = _bundled_operator("quadratic_saddle")
    direct_spectrum(sym, basis, window)
    base, wide = basis.dim, basis.widened().dim
    assert calls == [("assemble", base), ("solve", base), ("assemble", wide), ("solve", wide)]
    # a widened basis over the cap fails before anything is assembled or solved
    calls.clear()
    big = SaddleBasis(60, 60, basis.h)
    with pytest.raises(DimensionCapError):
        direct_spectrum(sym, big, window)
    assert calls == []
