"""Unit tests for the truncated Weyl-symbol algebra."""

import math
import re
from collections.abc import Mapping
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp
from hypothesis import given
from hypothesis import strategies as st

from qbnf.symbols import (
    FormalSymbol,
    IterationCapError,
    ModelDegeneracyError,
    PhaseSpec,
    SpecMismatchError,
    TauSeries,
    _ad_step,
    _bidifferential,
    _transport_inverse,
    homological_solve,
    lie_transform,
    moyal_commutator,
    moyal_star,
    poisson_bracket,
    resonant_project,
    star_conjugate,
    substitute_pair,
)

from conftest import random_symbol, symbols_close
from dict_symbol import (
    dict_clean,
    dict_evaluate,
    dict_prune,
    dict_sum,
    held,
    loop_homological_solve,
    loop_substitute_pair,
)
from loop_kernel import loop_bidifferential, loop_product, loop_symbol

SPEC = PhaseSpec.cylinder(8, 8)


def mono(coef, **kw):
    return FormalSymbol.monomial(SPEC, coef, **kw)


# --------------------------------------------------------------------------
# sympy oracle: build the symbol as an expression and differentiate directly
# --------------------------------------------------------------------------

_T, _TAU, _X, _XI = sp.symbols("t tau x xi")


def to_sympy(sym):
    expr = sp.Integer(0)
    h = sp.Symbol("h")
    for (m2, a, alpha, beta, j), c in sym.terms.items():
        expr += (
            sp.nsimplify(c, rational=False)
            * sp.exp(sp.I * sp.Rational(m2, 2) * _T)
            * _TAU**a * _X ** alpha[0] * _XI ** beta[0] * h**j
        )
    return expr


def sympy_bracket(ea, eb):
    return (
        sp.diff(ea, _XI) * sp.diff(eb, _X)
        - sp.diff(ea, _X) * sp.diff(eb, _XI)
        + sp.diff(ea, _TAU) * sp.diff(eb, _T)
        - sp.diff(ea, _T) * sp.diff(eb, _TAU)
    )


def sympy_equal(expr, sym, n_points=6):
    """Compare a sympy expression with a FormalSymbol at random points."""
    rng = np.random.default_rng(7)
    f = sp.lambdify((_T, _TAU, _X, _XI, sp.Symbol("h")), expr, "numpy")
    for _ in range(n_points):
        t, tau, x, xi, h = rng.uniform(0.2, 1.0, size=5)
        lhs = complex(f(t, tau, x, xi, h))
        rhs = dict_evaluate(sym.terms, t=t, tau=tau, pairs=((x, xi),), h=h)
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
            return False
    return True


# --------------------------------------------------------------------------
# Poisson bracket
# --------------------------------------------------------------------------

def test_bracket_canonical_pair():
    assert poisson_bracket(mono(1, beta=1), mono(1, alpha=1)).terms == {
        (0, 0, (0,), (0,), 0): 1 + 0j
    }


def test_bracket_scaling_field():
    # {x xi, x} = x: the hyperbolic scaling field x d_x - xi d_xi
    out = poisson_bracket(mono(1, alpha=1, beta=1), mono(1, alpha=1))
    assert out.terms == {(0, 0, (1,), (0,), 0): 1 + 0j}


def test_bracket_cylinder_example_vs_sympy():
    p = mono(1, a=1) + mono(1, alpha=1, beta=1)  # tau + x xi
    v = mono(1, m=1, alpha=2, beta=1)            # e^{it} x^2 xi
    out = poisson_bracket(p, v)
    expected = mono(1 + 1j, m=1, alpha=2, beta=1)
    assert symbols_close(out, expected)
    assert sympy_equal(sympy_bracket(to_sympy(p), to_sympy(v)), out)


def test_bracket_bilinear_antisymmetric(rng):
    a = random_symbol(SPEC, rng)
    b = random_symbol(SPEC, rng)
    assert symbols_close(poisson_bracket(a, b), -poisson_bracket(b, a))
    c = random_symbol(SPEC, rng)
    lhs = poisson_bracket(a + 2.5 * b, c)
    rhs = poisson_bracket(a, c) + 2.5 * poisson_bracket(b, c)
    assert symbols_close(lhs, rhs)


def test_bracket_random_vs_sympy(rng):
    for _ in range(10):
        a = random_symbol(SPEC, rng, n_terms=3, classical=True)
        b = random_symbol(SPEC, rng, n_terms=3, classical=True)
        out = poisson_bracket(a, b)
        assert sympy_equal(sympy_bracket(to_sympy(a), to_sympy(b)), out)


def test_bracket_jacobi(rng):
    spec = PhaseSpec.cylinder(14, 14)
    for _ in range(10):
        a = random_symbol(spec, rng, n_terms=3, classical=True)
        b = random_symbol(spec, rng, n_terms=3, classical=True)
        c = random_symbol(spec, rng, n_terms=3, classical=True)
        s = (
            poisson_bracket(a, poisson_bracket(b, c))
            + poisson_bracket(b, poisson_bracket(c, a))
            + poisson_bracket(c, poisson_bracket(a, b))
        )
        scale = max(a.max_abs() * b.max_abs() * c.max_abs(), 1.0)
        assert s.max_abs() <= 1e-12 * scale


def test_bracket_leibniz(rng):
    spec = PhaseSpec.cylinder(16, 16)
    for _ in range(10):
        a = random_symbol(spec, rng, n_terms=3, classical=True)
        b = random_symbol(spec, rng, n_terms=2, classical=True)
        c = random_symbol(spec, rng, n_terms=2, classical=True)
        lhs = poisson_bracket(a, b * c)
        rhs = poisson_bracket(a, b) * c + b * poisson_bracket(a, c)
        assert symbols_close(lhs, rhs, 1e-11)


def test_bracket_spec_mismatch():
    other = PhaseSpec.cylinder(6, 6)
    with pytest.raises(SpecMismatchError):
        poisson_bracket(mono(1, alpha=1), FormalSymbol.monomial(other, 1, alpha=1))


# --------------------------------------------------------------------------
# Moyal star product
# --------------------------------------------------------------------------

def test_star_canonical():
    out = moyal_star(mono(1, alpha=1), mono(1, beta=1))
    assert out.terms == {(0, 0, (1,), (1,), 0): 1 + 0j, (0, 0, (0,), (0,), 1): 0.5j}


def test_star_commutation():
    x, xi = mono(1, alpha=1), mono(1, beta=1)
    comm = moyal_star(x, xi) - moyal_star(xi, x)
    assert comm.terms == {(0, 0, (0,), (0,), 1): 1j}
    assert symbols_close(moyal_commutator(x, xi), comm)


def test_star_midpoint_shift():
    # tau * e^{imt} = (tau + m h / 2) e^{imt}
    for m in (1, -2, 3):
        out = moyal_star(mono(1, a=1), mono(1, m=m))
        expected = mono(1, m=m, a=1) + mono(0.5 * m, m=m, j=1)
        assert symbols_close(out, expected)


def test_star_associative(rng):
    spec = PhaseSpec.cylinder(18, 18)
    for _ in range(8):
        a = random_symbol(spec, rng, n_terms=3)
        b = random_symbol(spec, rng, n_terms=3)
        c = random_symbol(spec, rng, n_terms=3)
        lhs = moyal_star(moyal_star(a, b), c)
        rhs = moyal_star(a, moyal_star(b, c))
        assert symbols_close(lhs, rhs, 1e-11)


def test_star_leading_terms(rng):
    # a*b = ab + (h/2i){a,b} + higher h
    a = random_symbol(SPEC, rng, n_terms=3, classical=True)
    b = random_symbol(SPEC, rng, n_terms=3, classical=True)
    star = moyal_star(a, b)
    prod = a * b
    br = poisson_bracket(a, b)
    diff = star - prod
    lead = {k: c for k, c in diff.terms.items() if k[4] == 1}
    expect = {
        (m2, t, al, be, 1): -0.5j * c for (m2, t, al, be, j), c in br.terms.items()
        if sum(al) + sum(be) + 2 <= SPEC.grade_max
    }
    assert symbols_close(
        FormalSymbol(SPEC, lead), FormalSymbol(SPEC, expect), 1e-11
    )


def test_commutator_bracket_consistency(rng):
    # (a*b - b*a) - (h/i){a,b} consists of h^{>=3} corrections only, at
    # joint grade no lower than the h-shifted bracket (h carries grade 2,
    # so the h-order gain does not show up as a joint-grade gain when the
    # extra derivations all hit transverse variables)
    spec = PhaseSpec.cylinder(14, 14)
    for _ in range(8):
        a = random_symbol(spec, rng, n_terms=3, classical=True)
        b = random_symbol(spec, rng, n_terms=3, classical=True)
        comm = moyal_commutator(a, b)
        br = poisson_bracket(a, b)
        shifted = FormalSymbol(
            spec,
            {(m2, t, al, be, j + 1): -1j * c for (m2, t, al, be, j), c in br.terms.items()},
        )
        diff = comm - shifted
        if not diff:
            continue
        hmin = min(k[4] for k in diff.terms)
        assert hmin >= 3
        if br:
            br_grade = min(spec.grade(k) for k in br.terms) + 2
            assert min(spec.grade(k) for k in diff.terms) >= br_grade


# --------------------------------------------------------------------------
# resonant projection
# --------------------------------------------------------------------------

def test_resonant_project_examples():
    v1 = mono(1, m=1, alpha=1, beta=1)
    res, non = resonant_project(v1)
    assert not res and symbols_close(non, v1)

    v2 = mono(2, alpha=1, beta=1) + mono(0.5, m=1, alpha=1, beta=1) + mono(
        0.5, m=-1, alpha=1, beta=1
    )  # (2 + cos t) x xi
    res, non = resonant_project(v2)
    assert symbols_close(res, mono(2, alpha=1, beta=1))
    assert symbols_close(res + non, v2)

    v3 = mono(1, alpha=2, beta=1)
    res, non = resonant_project(v3)
    assert not res and symbols_close(non, v3)


def test_resonant_project_idempotent(rng):
    v = random_symbol(SPEC, rng, n_terms=8)
    res, non = resonant_project(v)
    assert symbols_close(res + non, v)
    res2, non2 = resonant_project(res)
    assert symbols_close(res2, res) and not non2


# --------------------------------------------------------------------------
# homological solve
# --------------------------------------------------------------------------

def apply_transport(u, f, mu):
    """Independent transport operator f' d_t u + mu (x d_x - xi d_xi) u."""
    spec = u.spec
    K = spec.tau_max
    fp = f.resized(K).derivative()
    mu = mu.resized(K)
    out = FormalSymbol.zero(spec)
    for (m2, a, alpha, beta, j), c in u.terms.items():
        base = FormalSymbol(spec, {(m2, a, alpha, beta, j): c})
        factor = (0.5j * m2) * fp + (alpha[0] - beta[0]) * mu
        out = out + FormalSymbol.from_tau_series(spec, factor) * base
    return out


F = TauSeries([0.0, 1.0], 8)
MU = TauSeries([1.0], 8)


def test_homological_example_cubic():
    v = mono(1, m=1, alpha=3)
    u, res = homological_solve(v, F, MU)
    assert not res
    assert symbols_close(u, mono(1.0 / (1j + 3), m=1, alpha=3))
    assert symbols_close(apply_transport(u, F, MU), v)


def test_homological_resonant_passthrough():
    v = mono(1, alpha=1, beta=1)
    u, res = homological_solve(v, F, MU)
    assert not u and symbols_close(res, v)


def test_homological_halfmode():
    spec = PhaseSpec.cylinder(8, 8, orientable=False)
    v = FormalSymbol.monomial(spec, 1.0, m=0.5, alpha=1)
    u, res = homological_solve(v, F, MU)
    assert not res
    expected = FormalSymbol.monomial(spec, 1.0 / (0.5j + 1), m=0.5, alpha=1)
    assert symbols_close(u, expected)
    assert symbols_close(apply_transport(u, F, MU), v)


def test_homological_exactness_random(rng):
    f = TauSeries([0.0, 1.0, -0.2, 0.05], 8)
    mu = TauSeries([1.3, 0.4], 8)
    for _ in range(10):
        v = random_symbol(SPEC, rng, n_terms=8, max_tau=4)
        u, res = homological_solve(v, f, mu)
        assert symbols_close(res, resonant_project(v)[0])
        assert symbols_close(apply_transport(u, f, mu) + res, v, 1e-11)


def test_homological_degenerate_rate():
    bad = TauSeries([0.0], 8)  # mu(0) = 0 is out of contract
    with pytest.raises(ModelDegeneracyError):
        homological_solve(mono(1, m=1, alpha=1), F, bad)


@pytest.mark.parametrize("make, error, match", [
    (lambda: replace(SPEC, grade_max=1), ValueError, "grade_max must be at least 2"),
    (lambda: PhaseSpec.cylinder(8, -1), ValueError, "tau_max must be nonnegative"),
    (lambda: replace(PhaseSpec.saddle(8), tau_max=2), ValueError, "only with an angle"),
    # the key codes' radices are read as integers: at grade_max 4.5 the
    # bracket {tau x^2, xi^2} came out as -4 tau x^5 xi, not -4 tau x xi
    (lambda: PhaseSpec.cylinder(4.5, 2), ValueError, "grade_max must be an integer"),
    (lambda: PhaseSpec.cylinder(4.0, 2), ValueError, "grade_max must be an integer"),
    (lambda: PhaseSpec.cylinder("4", 2), ValueError, "grade_max must be an integer"),
    (lambda: PhaseSpec.cylinder(4, 2.5), ValueError, "tau_max must be an integer"),
    (lambda: mono(1, alpha=1).reembedded(PhaseSpec.saddle(8)), SpecMismatchError,
     "different phase geometries"),
    (lambda: FormalSymbol.monomial(PhaseSpec.saddle(8), 1, alpha=(1, 0)).reembedded(SPEC),
     SpecMismatchError, "different phase geometries"),
    (lambda: homological_solve(FormalSymbol.monomial(PhaseSpec.saddle(8), 1, alpha=(1, 0)),
                               F, TauSeries([1.0], 8)),
     SpecMismatchError, "requires the cylinder model"),
], ids=["grade_max", "tau_max", "saddle_tau", "fractional_grade_max", "float_grade_max",
        "str_grade_max", "fractional_tau_max", "reembed_to_saddle", "reembed_to_cylinder",
        "transport_on_saddle"])
def test_geometry_checks_refuse_what_the_geometry_rules_out(make, error, match):
    with pytest.raises(error, match=match):
        make()


# --------------------------------------------------------------------------
# Lie transform
# --------------------------------------------------------------------------

def test_lie_constant_generator_noop():
    # grade-2 generator with no dynamic content: G = c x xi acts on x xi by zero
    G = mono(0.4, alpha=1, beta=1)
    p = mono(1, alpha=1, beta=1) + mono(2, a=1)
    assert symbols_close(lie_transform(p, G), p)


def test_lie_scaling_exponential():
    lam = 0.37
    G = mono(lam, alpha=1, beta=1)
    out = lie_transform(mono(1, alpha=1), G)
    assert symbols_close(out, mono(math.exp(lam), alpha=1))
    out2 = lie_transform(mono(1, beta=1), G)
    assert symbols_close(out2, mono(math.exp(-lam), beta=1))


def test_lie_grading():
    G = mono(0.3, m=1, alpha=3)
    p = mono(1, a=1) + mono(1, alpha=1, beta=1)
    diff = lie_transform(p, G) - p
    assert diff and min(SPEC.grade(k) for k in diff.terms) >= 3


def test_lie_rejects_low_grade():
    with pytest.raises(ValueError):
        lie_transform(mono(1, alpha=1), mono(1, m=1))  # grade-0 generator


def test_lie_cap_errors_on_wild_rotation():
    # strong rotation generator: the series converges only far beyond the cap
    G = mono(50.0, alpha=2) + mono(50.0, beta=2)
    with pytest.raises(IterationCapError):
        lie_transform(mono(1, alpha=1), G)


def test_lie_reality_preserved(rng):
    for _ in range(6):
        p = random_symbol(SPEC, rng, n_terms=5, classical=True, real=True)
        Gr = random_symbol(SPEC, rng, n_terms=3, classical=True, real=True)
        G = FormalSymbol(
            SPEC, {k: c for k, c in Gr.terms.items() if SPEC.grade(k) >= 3}
        )
        classical = lie_transform(p, G).h_split()[0]
        # pointwise reality: the coefficient at -m is the conjugate of the one at m
        defect = (classical - classical.conjugate()).max_abs()
        assert defect <= 1e-10 * max(classical.max_abs(), 1e-300)


# --------------------------------------------------------------------------
# star conjugation
# --------------------------------------------------------------------------

def test_conjugate_central_scalar():
    p = mono(1, a=1) + mono(1, alpha=1, beta=1)
    A = mono(3.7, j=1)
    assert symbols_close(star_conjugate(p, A), p)


def test_conjugate_leading_order():
    # A = h a(t, tau): the h^1 layer changes by {p, a}
    p = mono(1, a=1) + mono(1, alpha=1, beta=1)
    p1 = mono(0.3, m=1, j=1)
    A = mono(0.7, m=1, a=1, j=1)
    out = star_conjugate(p + p1, A)
    a_cl = mono(0.7, m=1, a=1)
    br = poisson_bracket(p, a_cl)
    expected_h1 = p1 + FormalSymbol(
        SPEC, {(m2, t, al, be, 1): c for (m2, t, al, be, j), c in br.terms.items()}
    )
    got_h1 = FormalSymbol(
        SPEC, {k: c for k, c in out.terms.items() if k[4] == 1}
    )
    assert symbols_close(got_h1, expected_h1)


def test_conjugate_preserves_h0(rng):
    p = random_symbol(SPEC, rng, n_terms=6)
    A = FormalSymbol(
        SPEC,
        {(m2, a, al, be, j): c
         for (m2, a, al, be, j), c in random_symbol(SPEC, rng, n_terms=4).terms.items()
         if j >= 1},
    )
    if not A:
        A = mono(0.2, m=1, j=1)
    out = star_conjugate(p, A)
    assert symbols_close(out.h_split()[0], p.h_split()[0], 1e-11)


def test_conjugate_rejects_classical_generator():
    with pytest.raises(ValueError):
        star_conjugate(mono(1, a=1), mono(1, m=1, alpha=3))


# --------------------------------------------------------------------------
# parity, pruning, substitution
# --------------------------------------------------------------------------

def test_nonorientable_parity_enforced():
    spec = PhaseSpec.cylinder(6, 6, orientable=False)
    with pytest.raises(ValueError):
        FormalSymbol.monomial(spec, 1.0, m=1, alpha=1)  # 2m=2 even, deg odd
    ok = FormalSymbol.monomial(spec, 1.0, m=0.5, alpha=1)
    assert ok
    same = FormalSymbol.monomial(spec, 1.0, m=np.float32(0.5), alpha=1)
    assert same.terms.keys() == ok.terms.keys()


@pytest.mark.parametrize("m", [
    1 + 4e-13, 0.5 - 1e-15, math.inf, -math.inf, math.nan, pytest.param("1", id="str"),
    pytest.param(b"1", id="bytes"), pytest.param(0.5 + 0j, id="complex"), None])
def test_monomial_refuses_a_mode_that_is_not_exactly_a_multiple_of_one_half(m):
    # a near miss is refused: rounding it would hold a mode that was not asked
    # for; so is a mode that is not a real number (2 * "1" is "11", mode 5.5)
    with pytest.raises(ValueError, match="Fourier mode must be integer or half-integer"):
        FormalSymbol.monomial(PhaseSpec.cylinder(4, 2), 1.0, m=m, alpha=1, beta=1)


def test_nonorientable_parity_preserved_by_ops(rng):
    spec = PhaseSpec.cylinder(10, 10, orientable=False)
    for _ in range(8):
        a = random_symbol(spec, rng, n_terms=4)
        b = random_symbol(spec, rng, n_terms=4)
        for sym in (a * b, poisson_bracket(a, b), moyal_star(a, b)):
            for (m2, _, alpha, beta, _) in sym.terms:
                assert (m2 - (sum(alpha) - sum(beta))) % 2 == 0


def test_pruning_threshold(rng):
    big = mono(1.0, alpha=1)
    tiny = mono(1e-17, beta=1)
    s = big + tiny
    assert (0, 0, (0,), (1,), 0) not in s.terms


def test_substitute_pair_identity(rng):
    a = random_symbol(SPEC, rng, n_terms=5)
    assert symbols_close(substitute_pair(a, 0, (1.0, 0.0), (0.0, 1.0)), a)


def test_evaluate_matches_sympy(rng):
    a = random_symbol(SPEC, rng, n_terms=5)
    assert sympy_equal(to_sympy(a), a)


# --------------------------------------------------------------------------
# truncation inside the bidifferential kernel
# --------------------------------------------------------------------------

@given(
    kind=st.sampled_from(["cylinder", "nonorientable", "saddle"]),
    grade=st.integers(2, 6),
    tau=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_truncation_commutes_with_operations(kind, grade, tau, seed):
    def spec(g):
        if kind == "saddle":
            return PhaseSpec.saddle(g)
        return PhaseSpec.cylinder(g, tau, kind == "cylinder")

    narrow, wide = spec(grade), spec(grade + 4)
    rng = np.random.default_rng(seed)
    a = random_symbol(narrow, rng, n_terms=6, max_exp=3)
    b = random_symbol(narrow, rng, n_terms=6, max_exp=3)
    for op in (poisson_bracket, moyal_star, moyal_commutator, _ad_step):
        want = op(a, b)
        got = op(a.reembedded(wide), b.reembedded(wide))
        diff = got.reembedded(narrow) - want
        assert diff.max_abs() <= 1e-15 * max(got.max_abs(), want.max_abs()), op


# --------------------------------------------------------------------------
# the array kernel against the nested-loop oracle, bit for bit
# --------------------------------------------------------------------------

KERNEL_SPECS = {
    "saddle": PhaseSpec.saddle(8),
    "cylinder": PhaseSpec.cylinder(8, 4),
    "nonorientable": PhaseSpec.cylinder(8, 4, orientable=False),
}
#: each mode with the scale one of its callers passes
KERNEL_MODES = [("first", 2j), ("odd", -2j), ("all", 1.0), ("zeroth", 1.0)]


def _assert_kernel_matches_loop(a, b, orders, h_shift, scale):
    got = _bidifferential(a, b, orders, h_shift, scale).terms
    want = loop_bidifferential(a, b, orders, h_shift, scale)
    assert list(got) == list(want)

    def bits(terms):
        return np.array(list(terms.values()), dtype=complex).view(np.uint64)

    assert np.array_equal(bits(got), bits(want))
    assert all(type(c) is np.complex128 for c in got.values())
    return got


def _mixed(sym, rng):
    """sym with some coefficients numpy scalars and some purely real or
    imaginary, with a signed zero as the other part: the kernel's bits must
    not depend on its operands' scalar types."""
    terms = {}
    for key, c in sym.terms.items():
        zero = float(rng.choice([0.0, -0.0]))
        c = [c, complex(c.real, zero), complex(zero, c.imag)][rng.integers(3)]
        terms[key] = np.complex128(c) if rng.random() < 0.5 else c
    return held(sym.spec, terms)


@pytest.mark.parametrize("h_shift", [0, -1])
@pytest.mark.parametrize("orders,scale", KERNEL_MODES)
@pytest.mark.parametrize("kind", sorted(KERNEL_SPECS))
def test_kernel_matches_loop_oracle(kind, orders, scale, h_shift):
    spec = KERNEL_SPECS[kind]
    rng = np.random.default_rng(7)
    terms_out = 0
    for n_terms in (1, 3, 8, 16, 32):
        a = _mixed(random_symbol(spec, rng, n_terms=n_terms, max_tau=3), rng)
        b = _mixed(random_symbol(spec, rng, n_terms=n_terms, max_tau=3), rng)
        terms_out += len(_assert_kernel_matches_loop(a, b, orders, h_shift, scale))
    assert terms_out > 100


def test_kernel_skips_contributions_that_underflow_to_zero():
    # x2 and xi2 are 1e-200 each, so every contribution of that pair is
    # exactly 0; the h^1 key it would list first comes after x1 xi1
    spec = PhaseSpec.saddle(6)
    a = held(spec, {(0, 0, (0, 1), (0, 0), 0): 1e-200 + 0j,
                    (0, 0, (0, 0), (1, 0), 0): 0.24400126107973663 + 0j})
    b = held(spec, {(0, 0, (0, 0), (0, 1), 0): 1e-200 + 0j,
                    (0, 0, (1, 0), (0, 0), 0): 1.5498095656014481 + 0j})
    assert 1e-200 * 1e-200 == 0.0
    got = _assert_kernel_matches_loop(a, b, "all", 0, 1.0)
    assert list(got) == [(0, 0, (1, 0), (1, 0), 0), (0, 0, (0, 0), (0, 0), 1)]


def _saddle_pair_one(terms):
    """A saddle(8) symbol in the first pair: {(alpha_1, beta_1): coefficient}."""
    spec = PhaseSpec.saddle(8)
    return held(spec, {(0, 0, (al, 0), (be, 0), 0): c for (al, be), c in terms.items()})


@pytest.mark.parametrize("orders,h_shift,scale", [("first", -1, 2j), ("odd", -1, -2j),
                                                   ("all", 0, 1.0)], ids=["first", "odd", "all"])
def test_kernel_drops_an_underflowed_first_contribution_as_the_loop_does(orders, h_shift, scale):
    # xi1 times x1^2 underflows to 0.0, so the k = 1 contribution it makes
    # to x1 h^(1 + h_shift) is dropped, and the key is listed where the
    # nonzero x1 xi1 times x1^2 first fills it: last
    a = _saddle_pair_one({(0, 1): 1e-170 + 0j, (1, 1): 1e-160 + 0j})
    b = _saddle_pair_one({(2, 0): 1e-155 + 0j, (1, 0): 1e-145 + 0j})
    assert 1e-170 * 1e-155 == 0.0 and 1e-160 * 1e-155 != 0.0
    got = _assert_kernel_matches_loop(a, b, orders, h_shift, scale)
    assert list(got)[-1] == (0, 0, (1, 0), (0, 0), 1 + h_shift)


@pytest.mark.parametrize("h_shift", [0, -1])
def test_count_rows_drop_an_underflowed_first_contribution_as_the_loop_does(h_shift):
    # xi1^3 times x1^3 underflows to 0.0, so its k = 3 contribution to the
    # constant h^(3 + h_shift) is dropped; the last pair, x1 xi1^2 times
    # x1^2 xi1, fills that key with counts (2, 1) in pair one, so it is
    # listed last
    a = _saddle_pair_one({(0, 3): 1e-170 + 0j, (1, 2): 1e-160 + 0j})
    b = _saddle_pair_one({(3, 0): 1e-155 + 0j, (2, 1): 1e-145 + 0j})
    assert 1e-170 * 1e-155 == 0.0
    got = _assert_kernel_matches_loop(a, b, "odd", h_shift, -2j)
    assert list(got)[-1] == (0, 0, (0, 0), (0, 0), 3 + h_shift)


def test_kernel_shifted_by_h_minus_one_keeps_exponents_past_the_grade():
    # all orders shifted by h^-1: the plain product of xi^2 and xi^3 is
    # xi^5 h^-1, of grade 3, with an exponent above grade_max 4
    for spec, m in ((PhaseSpec.saddle(4), 0), (PhaseSpec.cylinder(4, 2, orientable=False), 0.5)):
        beta = (lambda n: (n, 0)) if spec.num_pairs == 2 else (lambda n: n)
        a = FormalSymbol.monomial(spec, 0.5 - 1j, beta=beta(2)) + FormalSymbol.monomial(
            spec, 2.0, alpha=beta(1), beta=beta(1), m=2 * m)
        b = FormalSymbol.monomial(spec, 1.5, beta=beta(3), m=m) + FormalSymbol.monomial(
            spec, -0.25j, alpha=beta(3), m=m)
        got = _assert_kernel_matches_loop(a, b, "all", -1, 1.0)
        assert any(max(k[3]) == 5 and k[4] == -1 for k in got)


@pytest.mark.parametrize("orders,scale", KERNEL_MODES)
def test_kernel_on_empty_operands_and_an_empty_pair_set(orders, scale):
    spec = PhaseSpec.cylinder(6, 4)
    rng = np.random.default_rng(11)
    some = random_symbol(spec, rng, n_terms=5)
    empty = FormalSymbol.zero(spec)
    for a, b in ((empty, some), (some, empty), (empty, empty)):
        assert not _assert_kernel_matches_loop(a, b, orders, 0, scale)
    # grade 5 + grade 5 is above the truncation 6: no pair is formed
    top = FormalSymbol.monomial(spec, 1.0 + 2j, m=1, a=1, alpha=3, beta=2)
    assert not _assert_kernel_matches_loop(top, top, orders, 0, scale)


#: grade 10, so that pairs of degree-3 terms fit with room for three derivations
STAR_SPECS = {
    "saddle": PhaseSpec.saddle(10),
    "cylinder": PhaseSpec.cylinder(10, 4),
    "nonorientable": PhaseSpec.cylinder(10, 4, orientable=False),
}


def _of_degree(sym, low, high=99, tau_max=99):
    return FormalSymbol(sym.spec, {k: c for k, c in sym.terms.items()
                                   if low <= sum(k[2]) + sum(k[3]) <= high and k[1] <= tau_max})


@pytest.mark.parametrize("h_shift", [0, -1])
@pytest.mark.parametrize("kind", sorted(STAR_SPECS))
def test_star_rows_with_room_for_three_derivations_match_the_loop(kind, h_shift):
    # degree >= 3 on both sides: one pair yields k = 1 and k >= 3 rows, and
    # the two row sets meet the sums in the nested loop's order
    spec = STAR_SPECS[kind]
    rng = np.random.default_rng(37)
    ks = set()
    for n_terms in (3, 8, 20, 40):
        a, b = (_mixed(_of_degree(random_symbol(spec, rng, n_terms=n_terms, max_exp=3,
                                                max_tau=3, classical=True), 3), rng)
                for _ in range(2))
        got = _assert_kernel_matches_loop(a, b, "odd", h_shift, -2j)
        ks |= {key[4] - h_shift for key in got}  # classical operands: j = h_shift + k
    assert 1 in ks and max(ks) >= 3


@pytest.mark.parametrize("h_shift", [0, -1])
@pytest.mark.parametrize("kind", sorted(STAR_SPECS))
def test_star_rows_without_room_for_three_derivations_match_the_loop(kind, h_shift):
    # quadratic terms with no Fourier mode and no tau power act in at most
    # two derivations: every row is a k = 1 row, and the full derivative
    # tables are never built
    spec = STAR_SPECS[kind]
    rng = np.random.default_rng(43)
    P = spec.num_pairs
    quadratic = [(e[:P], e[P:]) for e in map(tuple, np.eye(2 * P, dtype=int))]
    quadratic = [(tuple(x + y for x, y in zip(p[0], q[0])), tuple(x + y for x, y in zip(p[1], q[1])))
                 for i, p in enumerate(quadratic) for q in quadratic[i:]]
    terms_out = 0
    for n_terms in (3, 8, 20):
        a = FormalSymbol(spec, {(0, 0, alpha, beta, 0): complex(*rng.normal(size=2))
                                for alpha, beta in quadratic})
        b = _of_degree(random_symbol(spec, rng, n_terms=2 * n_terms, max_exp=3, max_tau=3,
                                     classical=True), 3)
        got = _assert_kernel_matches_loop(a, b, "odd", h_shift, -2j)
        assert all(key[4] == h_shift + 1 for key in got)
        assert (0, True) not in a._tabs and (1, True) not in b._tabs
        terms_out += len(got)
    assert terms_out > 50


@pytest.mark.parametrize("h_shift", [0, -1])
@pytest.mark.parametrize("orders,scale", KERNEL_MODES)
def test_a_prefiltered_call_builds_no_tables(orders, scale, h_shift):
    # least grades 4 and 5 lie above the room 6 - 2 h_shift: no pair forms
    spec = PhaseSpec.cylinder(6, 4)
    rng = np.random.default_rng(47)
    a = _of_degree(random_symbol(spec, rng, n_terms=12, max_exp=3, max_tau=3), 4)
    b = _of_degree(random_symbol(spec, rng, n_terms=12, max_exp=3, max_tau=3), 5)
    assert a.min_grade() + b.min_grade() > 6 - 2 * h_shift
    assert not _assert_kernel_matches_loop(a, b, orders, h_shift, scale)
    assert set(a._tabs) <= {"code", "grade"} and set(b._tabs) <= {"code", "grade"}


@pytest.mark.parametrize("conjugate", [False, True])
def test_series_builds_the_generators_key_columns_once(monkeypatch, conjugate):
    from qbnf import symbols

    spec = PhaseSpec.cylinder(8, 4)
    G = FormalSymbol.monomial(spec, 0.3, m=1, alpha=3) + FormalSymbol.monomial(spec, 0.2, beta=3)
    p = FormalSymbol.monomial(spec, 1.0, a=1) + FormalSymbol.monomial(spec, 1.0, alpha=1, beta=1)
    if conjugate:
        G = G * FormalSymbol.monomial(spec, 1.0, j=1)
    columns, seen = symbols._columns, []

    def recording(sym):
        cols = columns(sym)
        if sym is G:
            seen.append(cols)
        return cols

    monkeypatch.setattr(symbols, "_columns", recording)
    (star_conjugate if conjugate else lie_transform)(p, G)
    # one build, handed out again at every later step of the series
    assert len(seen) >= 3 and all(cols is seen[0] for cols in seen)
    assert not any(x.flags.writeable for x in seen[0])
    with pytest.raises(ValueError):
        seen[0][0][0, 0] = 1


@pytest.mark.parametrize("conjugate", [False, True])
def test_series_takes_kernel_outputs_that_carry_no_columns(monkeypatch, conjugate):
    # every other step comes from the loop kernel, whose dict is held as
    # columns built from it, with no kernel tables or codes yet
    from qbnf import symbols

    spec = PhaseSpec.cylinder(8, 4)
    rng = np.random.default_rng(5)
    p = random_symbol(spec, rng, n_terms=12, max_tau=3, classical=not conjugate)
    G = random_symbol(spec, rng, n_terms=6, max_tau=2, classical=True)
    G = FormalSymbol(spec, {k: c for k, c in G.terms.items() if spec.grade(k) >= 3})
    if conjugate:
        G = G * FormalSymbol.monomial(spec, 1.0, j=1)
    series = star_conjugate if conjugate else lie_transform
    want = series(p, G).terms
    kernel, calls = symbols._bidifferential, []

    def alternating(*args):
        calls.append(len(calls) % 2)
        return (loop_symbol if calls[-1] else kernel)(*args)

    monkeypatch.setattr(symbols, "_bidifferential", alternating)
    got = series(p, G).terms
    assert len(calls) >= 3  # an array step after a loop step
    assert list(got) == list(want)
    assert np.array_equal(np.array(list(got.values()), dtype=complex).view(np.uint64),
                          np.array(list(want.values()), dtype=complex).view(np.uint64))


def test_kernel_tables_are_cached_and_read_only():
    from qbnf import symbols

    spec = PhaseSpec.cylinder(6, 4)
    a = FormalSymbol.monomial(spec, 0.5, m=1, a=2, alpha=2) + FormalSymbol.monomial(spec, 0.3, beta=2)
    b = FormalSymbol.monomial(spec, 0.7, m=-2, a=1, beta=1) + FormalSymbol.monomial(spec, 0.2, alpha=1)
    symbols._falling.cache_clear()
    symbols._dt_powers.cache_clear()
    moyal_star(a, b)
    built = symbols._falling.cache_info().currsize, symbols._dt_powers.cache_info().currsize
    assert built == (1, 2)  # one falling table; d_t powers for |2m| <= 2 and <= 4
    moyal_star(b, a)
    moyal_star(a, b)
    assert (symbols._falling.cache_info().currsize, symbols._dt_powers.cache_info().currsize) == built
    tables = [symbols._falling(6), *symbols._dt_powers(4, 4)]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    assert tables[0][5].tolist() == [1.0, 5.0, 20.0, 60.0, 120.0, 120.0, 0.0]
    # row 0 is 2m = -4: (i m)^kappa = (-2i)^kappa
    assert tables[2][0].tolist() == [0.0, -2.0, 0.0, 8.0, 0.0]


# --------------------------------------------------------------------------
# array-held symbols against the dict semantics
# --------------------------------------------------------------------------

def _bits(terms):
    return np.array(list(terms.values()), dtype=complex).view(np.uint64)


def _assert_same_terms(got, want):
    assert list(got) == list(want)
    assert np.array_equal(_bits(got), _bits(want))


def _assert_one_form(sym):
    """The symbol holds read-only key columns and coefficient parts, and
    ``terms`` is a fresh dict read off them."""
    from qbnf import symbols

    keys, re, im = symbols._columns(sym)
    assert not any(x.flags.writeable for x in (keys, re, im))
    assert keys.dtype == np.int64 and keys.shape == (3 + 2 * sym.spec.num_pairs, len(sym))
    P = sym.spec.num_pairs
    read = {(r[0], r[1], tuple(r[2:2 + P]), tuple(r[2 + P:2 + 2 * P]), r[-1]): complex(x, y)
            for r, x, y in zip(keys.T.tolist(), re, im)}
    terms = sym.terms
    assert terms is not sym.terms
    _assert_same_terms(terms, read)


def _wide_symbol(spec, rng, n_terms):
    """Random terms with magnitudes from 1e-20 to 1e20, held as arrays."""
    sym = random_symbol(spec, rng, n_terms=n_terms, max_exp=3, max_tau=3)
    terms = {k: c * 10.0 ** rng.uniform(-20, 20) for k, c in sym.terms.items()}
    return held(spec, terms) * 1.0, terms


@pytest.mark.parametrize("kind", sorted(KERNEL_SPECS))
def test_max_abs_and_pruning_follow_pythons_abs(kind):
    spec = KERNEL_SPECS[kind]
    rng = np.random.default_rng(3)
    pruned = 0
    for n_terms in (1, 5, 40, 200):
        sym, terms = _wide_symbol(spec, rng, n_terms)
        _assert_one_form(sym)
        want = max(abs(complex(c)) for c in terms.values())
        assert np.float64(sym.max_abs()).tobytes() == np.float64(want).tobytes()
        got = (sym + FormalSymbol.zero(spec)).terms
        _assert_same_terms(got, dict_prune(sym.terms))
        pruned += len(terms) - len(got)
    assert pruned > 10


def test_sums_keep_the_dict_order_signed_zeros_and_bits():
    spec = PhaseSpec.saddle(6)
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = random_symbol(spec, rng, n_terms=12, max_exp=2)
        b = random_symbol(spec, rng, n_terms=12, max_exp=2)
        ta, tb = {}, {}
        # signed zeros on shared and on new keys, and a cancellation
        for i, (k, c) in enumerate(a.terms.items()):
            ta[k] = [c, complex(-0.0, c.imag), complex(c.real, -0.0)][i % 3]
        for i, (k, c) in enumerate(b.terms.items()):
            tb[k] = [complex(-0.0, c.imag), c, complex(c.real, -0.0)][i % 3]
        shared = [k for k in tb if k in ta]
        if shared:
            tb[shared[0]] = -ta[shared[0]]
        # operands held as given, their scalar multiples by 1.0, or one of each
        da, db = held(spec, ta), held(spec, tb)
        sa, sb = da * 1.0, db * 1.0
        want = dict_sum({k: c * 1.0 for k, c in ta.items()}, {k: c * 1.0 for k, c in tb.items()})
        for x, y in ((sa, sb), (sa, held(spec, sb.terms))):
            _assert_same_terms((x + y).terms, want)
        _assert_same_terms((da + db).terms, dict_sum(ta, tb))
        assert any(np.signbit(c.real) for c in want.values())
    # a new key's -0.0 part becomes +0.0, a shared key's -0.0 + -0.0 stays -0.0
    x = held(spec, {(0, 0, (1, 0), (0, 0), 0): complex(-0.0, 1.0)}) * 1.0
    y = held(spec, {(0, 0, (1, 0), (0, 0), 0): complex(-0.0, 2.0),
                    (0, 0, (0, 1), (0, 0), 0): complex(-0.0, 3.0)}) * 1.0
    got = (x + y).terms
    assert [np.signbit(c.real) for c in got.values()] == [True, False]


def test_lazy_terms_follow_the_dict_path_through_a_series():
    # every step of a Lie series and of a conjugation series, held as arrays,
    # against the loop kernel with the dict-semantics scalar product and sum
    spec = PhaseSpec.cylinder(8, 4)
    rng = np.random.default_rng(21)
    p = random_symbol(spec, rng, n_terms=12, max_tau=3)
    G = random_symbol(spec, rng, n_terms=6, max_tau=2, classical=True)
    G = FormalSymbol(spec, {k: c for k, c in G.terms.items() if spec.grade(k) >= 3})
    A = G * FormalSymbol.monomial(spec, 1.0, j=1)
    for gen, orders, scale in ((G, "first", 2j), (A, "odd", -2j)):
        acc = w = p
        want_acc = want_w = p.terms
        for k in range(1, 8):
            w = _bidifferential(gen, w, orders, -1, scale) * (1.0 / k)
            step = loop_bidifferential(gen, held(spec, want_w), orders, -1, scale)
            want_w = {key: c * (1.0 / k) for key, c in step.items()}
            _assert_one_form(w)
            _assert_same_terms(w.terms, want_w)
            if not w:
                break
            acc = acc + w
            want_acc = dict_sum(want_acc, want_w)
            _assert_one_form(acc)
            _assert_same_terms(acc.terms, want_acc)
        res, non = resonant_project(acc)
        cl, qu = non.h_split()
        for part, keep in ((res, lambda k: k[0] == 0 and k[2] == k[3]),
                           (cl, lambda k: not (k[0] == 0 and k[2] == k[3]) and k[4] == 0),
                           (qu, lambda k: not (k[0] == 0 and k[2] == k[3]) and k[4] >= 1),
                           (acc.grade_part(5), lambda k: spec.grade(k) == 5)):
            _assert_same_terms(part.terms, {k: c for k, c in want_acc.items() if keep(k)})
        _assert_same_terms((-acc).terms, {k: -c for k, c in want_acc.items()})


@pytest.mark.parametrize("orders,scale", KERNEL_MODES)
def test_first_occurrence_order_with_many_repeated_keys(orders, scale):
    # every Fourier mode of a against every one of b lands on a few output
    # keys, many times each, so the order is set by first occurrences deep
    # inside the row list
    spec = PhaseSpec.cylinder(8, 4)
    rng = np.random.default_rng(4)
    a = held(spec, {(2 * m, a_, (1,), (1,), 0): complex(*rng.normal(size=2))
                    for m in range(-6, 7) for a_ in (0, 2)})
    b = held(spec, {(-2 * m, 1, (2,), (1,), 0): complex(*rng.normal(size=2))
                    for m in range(-6, 7)})
    b = b + held(spec, {(2 * m, 0, (1,), (2,), 0): complex(*rng.normal(size=2))
                        for m in range(6, -7, -1)})
    got = _assert_kernel_matches_loop(a, b, orders, -1 if orders != "all" else 0, scale)
    assert len(got) < len(a) * len(b)  # fewer keys than term pairs


def test_first_occurrence_over_a_wide_code_span():
    # Fourier modes 2m = +-900 spread the output codes over more than 2^20
    # slots, so the kernel labels the ranks of its codes instead
    from qbnf import symbols

    spec = PhaseSpec.cylinder(8, 4)
    rng = np.random.default_rng(6)
    a = held(spec, {(2 * m, 1, (1,), (1,), 0): complex(*rng.normal(size=2))
                    for m in (-450, -3, 0, 7, 450)})
    b = held(spec, {(2 * m, 2, (2,), (1,), 0): complex(*rng.normal(size=2))
                    for m in (450, 3, -7, 0, -450)})
    for orders, scale in KERNEL_MODES:
        _assert_kernel_matches_loop(a, b, orders, -1 if orders != "all" else 0, scale)
    code = np.array([5, -3, 5, 2**40, -3, 7, 2**40])
    heads, labels = symbols._first_occurrence(code)
    assert heads.tolist() == [0, 1, 3, 5] and labels.tolist() == [0, 1, 0, 2, 1, 3, 2]


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
@pytest.mark.parametrize("bad_first", [False, True])
def test_non_finite_coefficient_raises_naming_its_key(bad, bad_first):
    spec = PhaseSpec.saddle(4)
    fine, worse = (0, 0, (1, 0), (1, 0), 0), (0, 0, (2, 0), (1, 0), 0)
    items = [(fine, 1.0), (worse, bad)]
    terms = dict(items[::-1] if bad_first else items)
    message = f"non-finite coefficient .* at key {re.escape(str(worse))}"
    with pytest.raises(ArithmeticError, match=message):  # the constructor
        FormalSymbol(spec, terms)
    raw = held(spec, terms)
    with pytest.raises(ArithmeticError, match=message):  # a sum
        raw + FormalSymbol.zero(spec)
    with np.errstate(invalid="ignore"):  # inf * 0.0 in the product by 1.0 + 0j
        scaled = raw * 1.0
    with pytest.raises(ArithmeticError, match=message):  # a scalar multiple's sum
        scaled + FormalSymbol.zero(spec)
    with pytest.raises(ArithmeticError, match="non-finite"):  # a kernel output
        poisson_bracket(raw, FormalSymbol.monomial(spec, 1.0, alpha=(1, 0)))


@pytest.mark.parametrize("x", [np.int64(2), np.float32(2.5), np.int8(-3), np.complex64(1 - 2j),
                               True, 2, -0.5, 1.5j])
def test_numbers_of_any_type_are_scalars(x):
    sym = mono(0.5 - 1j, m=1, alpha=1) + mono(2.0, a=1)
    z = complex(x)
    for got, want in ((sym * x, sym * z), (x * sym, sym * z), (sym + x, sym + z),
                      (x + sym, sym + z), (sym - x, sym - z), (x - sym, z - sym)):
        assert type(got) is FormalSymbol
        _assert_same_terms(got.terms, want.terms)


@pytest.mark.parametrize("other", ["2", [2], None])
def test_arithmetic_with_a_non_number_raises_type_error(other):
    sym = mono(1.0, alpha=1)
    for op in (lambda: sym * other, lambda: sym + other, lambda: sym - other,
               lambda: other - sym):
        with pytest.raises(TypeError):
            op()


# --------------------------------------------------------------------------
# the constructor and reembedding against the dict cleaning path
# --------------------------------------------------------------------------

class _Items(Mapping):
    """Key-value pairs listed as given, even keys a dict would merge or
    could not hash."""

    def __init__(self, items):
        self._items = list(items)

    def __iter__(self):
        return (k for k, _ in self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, key):
        return next(c for k, c in self._items if k is key)

    def items(self):
        return iter(self._items)

    def values(self):
        return (c for _, c in self._items)


def _outcome(build):
    try:
        return build()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _assert_cleans_like_the_dict_path(spec, terms, build=None):
    got = _outcome(build or (lambda: FormalSymbol(spec, terms).terms))
    want = _outcome(lambda: dict_clean(spec, terms))
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same_terms(got, want)
    return got


NAN, INF = complex(math.nan, 0.0), complex(1.0, -math.inf)
CLEAN_CASES = {
    "repeated after normalisation": (PhaseSpec.cylinder(6, 3), [
        ((2.0, 0, [1], [0], 0), 1.5 - 1j), ((0, 1, (1,), (1,), 0), 0.25),
        ((2, 0, (1,), (0,), 0), 0.5 + 2j), ((np.int64(2), 0.0, (1,), (0,), 0), -2.0 - 1j)]),
    "zeros and signed zero parts": (PhaseSpec.saddle(4), [
        ((0, 0, (1, 0), (0, 0), 0), complex(-0.0, 1.5)), ((0, 0, (0, 1), (0, 0), 0), 0),
        ((0, 0, (0, 0), (1, 0), 0), complex(2.0, -0.0)), ((0, 0, (0, 0), (0, 1), 0), -0.0),
        ((0, 0, (1, 1), (0, 0), 0), complex(-0.0, -0.0)), ((0, 0, (2, 0), (0, 0), 0), -3.0),
        ((0, 0, (1, 0), (0, 0), 0), complex(0.0, -1.5)), ((0, 0, (0, 2), (0, 0), 0), 1e-16)]),
    "out of bound": (PhaseSpec.cylinder(4, 2, orientable=False), [
        ((1, 3, (1,), (0,), 0), 1.0), ((1, 1, (3,), (2,), 0), 2.0), ((0, 0, (1,), (1,), 2), 3.0),
        ((-1, 2, (0,), (1,), 1), 0.5j), ((0, 0, (1,), (1,), 1), 1e-20)]),
    "nan, then inf": (PhaseSpec.saddle(4), [
        ((0, 0, (1, 0), (0, 0), 0), 1.0), ((0, 0, (2, 0), (0, 0), 0), NAN),
        ((0, 0, (0, 1), (0, 0), 0), INF)]),
    "inf, then nan": (PhaseSpec.saddle(4), [
        ((0, 0, (1, 0), (0, 0), 0), 1.0), ((0, 0, (0, 1), (0, 0), 0), INF),
        ((0, 0, (2, 0), (0, 0), 0), NAN)]),
    "nan, then a negative exponent": (PhaseSpec.saddle(4), [
        ((0, 0, (2, 0), (0, 0), 0), NAN), ((0, 0, (1, -1), (0, 0), 0), 1.0)]),
    "a parity violation, then nan": (PhaseSpec.cylinder(4, 2, orientable=False), [
        ((1, 0, (1,), (0,), 0), 1.0), ((2, 0, (1,), (0,), 0), 1.0), ((1, 0, (0,), (1,), 0), NAN)]),
    "an odd mode on an orientable cylinder": (PhaseSpec.cylinder(4, 2), [
        ((0, 0, (1,), (0,), 0), 1.0), ((1, 0, (1,), (0,), 0), 1.0)]),
    "a tau power without an angle": (PhaseSpec.saddle(4), [
        ((0, 0, (1, 0), (0, 0), 0), 1.0), ((0, 1, (1, 0), (0, 0), 0), 1.0)]),
    "a short key, then a negative h power": (PhaseSpec.saddle(4), [
        ((0, 0, (1,), (0,), 0), 1.0), ((0, 0, (1, 0), (0, 0), -1), 1.0)]),
    "a negative tau power, then a short key": (PhaseSpec.cylinder(4, 2), [
        ((0, -1, (1,), (0,), 0), 1.0), ((0, 0, (1, 0), (0,), 0), 1.0)]),
    "integral floats and numpy scalars": (PhaseSpec.cylinder(4, 2, orientable=False), [
        ((1.0, np.float64(1.0), (np.int64(1),), (0.0,), 0), 2.0),
        ((np.int64(1), 1, (1,), (0,), np.float64(0.0)), 0.5j), ((-1.0, 0, [0], [1], 1.0), 1.0)]),
    "a half-integer 2m after valid keys": (PhaseSpec.cylinder(4, 2, orientable=False), [
        ((1, 0, (1,), (0,), 0), 1.0), ((1.5, 0, (1,), (0,), 0), 2.0)]),
    "a fractional exponent": (PhaseSpec.saddle(4), [
        ((0, 0, (1, 0), (0, 0), 0), 1.0), ((0, 0, (1.7, 0), (0, 0), 0), 1.0)]),
    "a nan h power, then a negative exponent": (PhaseSpec.saddle(4), [
        ((0, 0, (1, 0), (0, 0), math.nan), 1.0), ((0, 0, (-1, 0), (0, 0), 0), 1.0)]),
    "a negative exponent, then a fractional tau power": (PhaseSpec.cylinder(4, 2), [
        ((0, 0, (-1,), (0,), 0), 1.0), ((0, 0.5, (1,), (0,), 0), 1.0)]),
}


@pytest.mark.parametrize("case", sorted(CLEAN_CASES))
def test_constructor_cleans_like_the_dict_path(case):
    spec, items = CLEAN_CASES[case]
    _assert_cleans_like_the_dict_path(spec, _Items(items))


def test_constructor_errors_name_the_first_bad_key():
    spec, items = CLEAN_CASES["a parity violation, then nan"]
    with pytest.raises(ValueError, match=r"m=1\.0, alpha=\(1,\), beta=\(0,\)"):
        FormalSymbol(spec, _Items(items))
    spec, items = CLEAN_CASES["inf, then nan"]
    with pytest.raises(ArithmeticError, match=re.escape(f"{INF} at key (0, 0, (0, 1), (0, 0), 0)")):
        FormalSymbol(spec, _Items(items))


@pytest.mark.parametrize("key", [
    (1.5, 0, (1,), (0,), 0), (1, 0.5, (1,), (0,), 0), (1, 0, (1,), (0,), 0.5),
    (1, 0, (1.7,), (0,), 0), (1, 0, (1,), (math.inf,), 0), (1, 0, (math.nan,), (0,), 0)])
def test_non_integral_key_entries_raise_naming_the_key(key):
    # read with int(), the first three became other keys without an error
    spec = PhaseSpec.cylinder(4, 2, orientable=False)
    with pytest.raises(ValueError, match=re.escape(f"must be integers, got {key}")):
        FormalSymbol(spec, {(1, 0, (1,), (0,), 0): 1.0, key: 2.0})
    with pytest.raises(ValueError, match="must be integers"):
        FormalSymbol.monomial(spec, 1.0, m=0.5, a=0.5, alpha=1)
    saddle = PhaseSpec.saddle(4)
    with pytest.raises(ValueError, match="must be integers"):
        FormalSymbol(saddle, {(0, 0, (1.5, 0), (0.5, 0), 0): 1.0})
    # integral floats and numpy integers still name the integer key
    sym = FormalSymbol(spec, {(1.0, np.float64(1.0), (1.0,), (np.int64(0),), 0.0): 2.0})
    assert list(sym.terms) == [(1, 1, (1,), (0,), 0)]


KEY_ENTRIES = {  # entry, and whether a key admits it
    "int": (1, True), "numpy int": (np.int64(1), True), "bool": (True, True),
    "integral float": (1.0, True), "numpy float": (np.float32(1.0), True), "1.5": (1.5, False),
    "inf": (math.inf, False), "-inf": (-math.inf, False), "nan": (math.nan, False),
    "int past int64": (2**63, False), "complex": (1 + 2j, False), "str": ("1", False)}
KEY_SLOTS = ["2m", "a", "alpha", "beta", "j"]


@pytest.mark.parametrize("slot", KEY_SLOTS)
@pytest.mark.parametrize("kind", sorted(KEY_ENTRIES))
def test_key_entry_kinds_clean_like_the_dict_path(kind, slot):
    # the entry goes in one slot of a key that is valid with 1 there (the
    # parity 2m - alpha + beta stays even), after a valid key
    entry, admitted = KEY_ENTRIES[kind]
    want = [1, 1, int(slot != "beta"), int(slot == "beta"), 1]
    flat = list(want)
    flat[KEY_SLOTS.index(slot)] = entry
    key = (flat[0], flat[1], (flat[2],), (flat[3],), flat[4])
    got = _assert_cleans_like_the_dict_path(PhaseSpec.cylinder(6, 3, orientable=False),
                                            _Items([((1, 0, (1,), (0,), 0), 1.0), (key, 2.0)]))
    if admitted:
        assert list(got)[-1] == (want[0], want[1], (want[2],), (want[3],), want[4])
    else:
        assert got[0] is ValueError and "must be integers" in got[1]


@pytest.mark.parametrize("kind", sorted(KERNEL_SPECS))
def test_constructor_cleans_random_terms_like_the_dict_path(kind):
    # repeated keys, zeros, out-of-bound keys and magnitudes from 1e-20 to
    # 1e20, so that sums, drops and the prune all act
    spec = KERNEL_SPECS[kind]
    rng = np.random.default_rng(17)
    for n_terms in (1, 5, 40, 200):
        wider = replace(spec, grade_max=10, tau_max=6 if spec.has_angle else 0)
        pool = list(random_symbol(wider, rng,
                                  n_terms=n_terms, max_exp=4, max_tau=6).terms)
        items = [(pool[i], complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-20, 20)
                  * (rng.random() > 0.1)) for i in rng.integers(len(pool), size=2 * n_terms)]
        _assert_cleans_like_the_dict_path(spec, _Items(items))


def test_reembedding_cleans_like_the_dict_path():
    rng = np.random.default_rng(19)
    wide = PhaseSpec.cylinder(8, 4, orientable=False)
    sym = random_symbol(wide, rng, n_terms=40, max_exp=3, max_tau=4)
    sym = sym + FormalSymbol.monomial(wide, 1e-14, a=1, alpha=1, beta=1)
    sym = sym * FormalSymbol.monomial(wide, 1e3, alpha=1, beta=1)  # the pruning floor moves
    for spec in (PhaseSpec.cylinder(4, 2, orientable=False), PhaseSpec.cylinder(6, 4, False)):
        got = _assert_cleans_like_the_dict_path(spec, sym.terms, lambda: sym.reembedded(spec).terms)
        assert 0 < len(got) < len(sym)
    # an orientable cylinder rejects the half-integer modes, naming the first
    got = _assert_cleans_like_the_dict_path(
        PhaseSpec.cylinder(8, 4), sym.terms, lambda: sym.reembedded(PhaseSpec.cylinder(8, 4)))
    assert got[0] is ValueError and "integer Fourier modes" in got[1]
    # an orientable symbol on a non-orientable cylinder breaks the parity
    even = random_symbol(PhaseSpec.cylinder(6, 3), rng, n_terms=20, max_exp=2)
    target = PhaseSpec.cylinder(6, 3, orientable=False)
    got = _assert_cleans_like_the_dict_path(target, even.terms,
                                            lambda: even.reembedded(target))
    assert got[0] is ValueError and "anti-periodicity" in got[1]


def test_terms_is_a_fresh_dict_each_read():
    sym = mono(1.0, alpha=1) + mono(2j, m=1, a=2) + mono(-0.5, beta=2, j=1)
    before = sym.terms
    view = sym.terms
    assert view is not before and view == before
    view[(0, 0, (0,), (0,), 0)] = 5.0
    view.pop(next(iter(before)))
    for key in view:
        view[key] = 0.0
    _assert_same_terms(sym.terms, before)
    assert len(sym) == 3 and sym.max_abs() == 2.0


# --------------------------------------------------------------------------
# the product and the transport solve against their dict loops
# --------------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(KERNEL_SPECS))
def test_product_matches_the_dict_double_loop(kind):
    spec = KERNEL_SPECS[kind]
    rng = np.random.default_rng(23)
    terms_out = 0
    for n_terms in (1, 2, 4, 8, 16, 32):
        for _ in range(8):
            a, b = (random_symbol(spec, rng, n_terms=n_terms, max_tau=3)
                    * 10.0 ** rng.uniform(-10, 10) for _ in range(2))
            got = (a * b).terms
            _assert_same_terms(got, loop_product(a, b))
            terms_out += len(got)
    assert terms_out > 200


@pytest.mark.parametrize("orientable", [True, False])
def test_homological_solve_matches_the_dict_loop(orientable):
    spec = PhaseSpec.cylinder(8, 4, orientable=orientable)
    f, mu = TauSeries([0.0, 1.0, -0.2, 0.05]), TauSeries([1.0, 0.3, -0.1])
    rng = np.random.default_rng(29)
    for n_terms in (1, 5, 20, 60):
        v = random_symbol(spec, rng, n_terms=n_terms, max_exp=3, max_tau=4)
        v = v * 10.0 ** rng.uniform(-10, 10)
        u, _ = homological_solve(v, f, mu)
        want = loop_homological_solve(v.terms, 4, f.resized(4).derivative(), mu.resized(4))
        _assert_same_terms(u.terms, want)


@pytest.mark.parametrize("orientable", [True, False])
def test_transport_inverses_are_formed_once_and_keep_the_bits(monkeypatch, orientable):
    # a run of solves with the same f and mu, as a normal form makes, inverts
    # each denominator once and gives the bits of solves that invert afresh
    spec = PhaseSpec.cylinder(8, 4, orientable=orientable)
    f, mu = TauSeries([0.0, 1.0, -0.2, 0.05]), TauSeries([1.0, 0.3, -0.1])
    rng = np.random.default_rng(41)
    vs = [random_symbol(spec, rng, n_terms=n, max_exp=3, max_tau=4) * 10.0 ** rng.uniform(-5, 5)
          for n in (1, 5, 20, 60, 20)]
    fresh = []
    for v in vs:
        _transport_inverse.cache_clear()
        fresh.append(homological_solve(v, f, mu))
    inverses = []
    inverse = TauSeries.inverse
    monkeypatch.setattr(TauSeries, "inverse", lambda g: inverses.append(g) or inverse(g))
    _transport_inverse.cache_clear()
    shared = [homological_solve(v, f, mu) for v in vs]
    for (u, res), (u0, res0) in zip(shared, fresh):
        _assert_same_terms(u.terms, u0.terms)
        _assert_same_terms(res.terms, res0.terms)
    per_call = [{(k[0], sum(k[2]) - sum(k[3])) for k in resonant_project(v)[1].terms} for v in vs]
    assert len(inverses) == len(set().union(*per_call)) < sum(map(len, per_call))
    fp, mu = f.resized(4).derivative(), mu.resized(4)
    assert not _transport_inverse(fp.coeffs.tobytes(), mu.coeffs.tobytes(), 2, 1).flags.writeable


def test_substitution_agrees_with_the_running_prune_to_rounding():
    # summed in one pass and pruned once, a key that cancels exactly midway
    # keeps its first place, and one a running prune drops and re-adds keeps
    # its earlier terms, so on random symbols the two agree to rounding
    # (bit for bit on the workloads' inputs, see test_scenario_cli)
    rng = np.random.default_rng(31)
    s = 1.0 / math.sqrt(2.0)
    rows = [((s, 1j * s), (1j * s, s)), ((s, -1j * s), (-1j * s, s))]
    for spec in (PhaseSpec.saddle(8), PhaseSpec.cylinder(8, 4, orientable=False)):
        for n_terms in (1, 5, 20, 40):
            sym = random_symbol(spec, rng, n_terms=n_terms, max_exp=4, max_tau=3)
            for pair in range(spec.num_pairs):
                for x_row, xi_row in rows:
                    got = substitute_pair(sym, pair, x_row, xi_row)
                    want = loop_substitute_pair(sym.terms, pair, x_row, xi_row)
                    assert symbols_close(got, held(spec, want), tol=1e-14)


# --------------------------------------------------------------------------
# TauSeries basics
# --------------------------------------------------------------------------

def test_tau_series_inverse_roundtrip():
    g = TauSeries([2.0, -0.3, 0.7, 0.1], 6)
    one = g * g.inverse()
    assert abs(one.coeffs[0] - 1.0) < 1e-14
    assert np.max(np.abs(one.coeffs[1:])) < 1e-13


def test_tau_series_newton_solve():
    f = TauSeries([0.0, 1.0, 1.0], 6)  # tau + tau^2
    tau = f.solve(0.11)
    assert abs(tau - 0.1) < 1e-12


def test_tau_series_solve_stays_on_the_branch_through_zero():
    # tau - 0.5 tau^2 + 0.06 tau^3 peaks at tau = 1.307 (energy 0.587):
    # its one real tau of energy 0.7 is 5.81, past that peak where f' > 0
    # again; no tau of the branch has that energy
    f = TauSeries([0.0, 1.0, -0.5, 0.06])
    lo, hi = f.branch()
    assert lo == -math.inf and hi == pytest.approx((1 - math.sqrt(0.28)) / 0.36, rel=1e-14)
    with pytest.raises(ArithmeticError, match=r"energy 0.7; its energies span \(-inf, 0.58"):
        f.solve(0.7)
    tau = f.solve(0.5)
    assert 0 < tau < hi and abs(f(tau) - 0.5) <= 1e-13


def test_tau_series_solve_bisects_where_newton_leaves_the_branch():
    # tau + 3 tau^2 - 4 tau^3 rises on (-0.132, 0.632) up to energy 0.82:
    # energy 0.8 has two more real taus, 0.70 on the falling side past the
    # peak and -0.51 below the trough, and neither is the branch's
    f = TauSeries([0.0, 1.0, 3.0, -4.0])
    lo, hi = f.branch()
    tau = f.solve(0.8)
    assert lo < tau < hi and abs(f(tau) - 0.8) <= 1e-13
    assert f.solve(0.0) == 0.0


def test_tau_series_solve_refuses_a_series_that_does_not_rise():
    for coeffs in ([1.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.1]):
        with pytest.raises(ArithmeticError, match="does not rise"):
            TauSeries(coeffs).solve(0.1)


def _fsum_residual(f, tau, energy):
    return abs(math.fsum([c * tau**k for k, c in enumerate(f.coeffs.real)] + [-energy]))


def test_tau_series_solve_ignores_zero_padding():
    f = TauSeries([0.0, 1.0, -0.5, 0.06])
    for energy in (-3.0, -0.2, 0.0, 0.3, 0.58):
        assert TauSeries(f.coeffs, 12).solve(energy) == f.solve(energy)


def test_tau_series_solve_of_a_linear_series_is_exact():
    for c0, c1, energy in ((0.0, 1.0, 0.11), (0.3, 1.7, 0.9), (-0.25, 0.4, -7.5)):
        f = TauSeries([c0, c1])
        assert f.branch() == (-math.inf, math.inf)
        assert f.solve(energy) == -(c0 - energy) / c1


def test_tau_series_solve_holds_next_to_a_branch_end():
    # the peak of the first series and the trough of the second bound
    # their branches; an energy 1e-9 inside either still has its tau
    for coeffs, end in (([0.0, 1.0, -0.5, 0.06], 1), ([0.0, 1.0, 3.0, -4.0], 0)):
        f = TauSeries(coeffs)
        lo, hi = f.branch()
        edge = f((lo, hi)[end]).real
        energy = edge + (1 if end == 0 else -1) * 1e-9 * max(1.0, abs(edge))
        tau = f.solve(energy)
        assert lo < tau < hi
        assert _fsum_residual(f, tau, energy) <= 1e-13 * max(1.0, abs(energy))


def test_tau_series_solve_refuses_the_branch_end_energy():
    f = TauSeries([0.0, 1.0, -0.5, 0.06])
    e_hi = f(f.branch()[1]).real
    with pytest.raises(ArithmeticError, match=r"its energies span \(-inf, 0.58"):
        f.solve(e_hi)


def test_tau_series_solve_reads_the_real_parts():
    c = np.array([0.0, 1.0, 3.0, -4.0])
    for energy in (-0.05, 0.0, 0.4, 0.8):
        assert TauSeries(c + 1e-14j * np.array([1.0, -1.0, 1.0, 1.0])).solve(energy) \
            == TauSeries(c).solve(energy)
