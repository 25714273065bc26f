"""Normal-form pipeline tests for both geometries."""

import math

import numpy as np
import pytest

from qbnf import normal_form, symbols
from qbnf.eigensolve import eigenvalues
from qbnf.normal_form import (
    CylinderModel,
    ModelValidationError,
    NormalFormPoly,
    SaddleModel,
    birkhoff_coordinates,
    closed_orbit_bnf,
    equilibrium_bnf,
    orbit_diagnostics,
    replay_chain,
    saddle_symbol,
)
from qbnf.quantize import (
    SaddleBasis,
    assemble_saddle,
    complex_scale,
    weyl_monomial_matrix,
)
from qbnf.scenario import load_config
from qbnf.symbols import (
    FormalSymbol,
    PhaseSpec,
    TauSeries,
    homological_solve,
    poisson_bracket,
)

from conftest import random_symbol, symbols_close
from average_oracle import averaged_closed_orbit_bnf
from dict_symbol import (
    held,
    loop_equilibrium_solve,
    loop_functional_closed_orbit,
    loop_functional_equilibrium,
)
from loop_kernel import loop_symbol


# --------------------------------------------------------------------------
# angle averaging: the grade-2 case of the transport equation
# --------------------------------------------------------------------------

def _rate(spec, coef, m=0, a=0):
    """coef e^{imt} tau^a x xi, a term of the rate mu(t, tau) x xi."""
    return FormalSymbol.monomial(spec, coef, m=m, a=a, alpha=1, beta=1)


def test_average_rate_cosine():
    spec = PhaseSpec.cylinder(6, 6)
    eps = 0.25
    mu_t = _rate(spec, 1.0) + _rate(spec, 0.5 * eps, m=1) + _rate(
        spec, 0.5 * eps, m=-1
    )  # (1 + eps cos t) x xi
    f = TauSeries([0.0, 1.0], 6)
    u, avg = homological_solve(mu_t, f, TauSeries([1.0], 6))
    # u = eps sin t x xi = eps (e^{it} - e^{-it}) / 2i x xi
    expected = _rate(spec, eps / 2j, m=1) - _rate(spec, eps / 2j, m=-1)
    assert symbols_close(u, expected)
    assert symbols_close(avg, _rate(spec, 1.0))


def test_average_rate_constant_passthrough():
    spec = PhaseSpec.cylinder(6, 6)
    f = TauSeries([0.0, 1.0], 6)
    v = _rate(spec, 2.0) + _rate(spec, 0.3, a=1)
    u, avg = homological_solve(v, f, TauSeries([2.0, 0.3], 6))
    assert not u
    assert avg.terms == v.terms


def test_average_rate_single_mode():
    spec = PhaseSpec.cylinder(6, 6)
    f = TauSeries([0.0, 2.0], 6)
    u, avg = homological_solve(_rate(spec, 1.0, m=1), f, TauSeries([1.0], 6))
    assert symbols_close(u, _rate(spec, 1.0 / 2j, m=1))
    assert not avg


def test_average_rate_residual_identity(rng):
    # defining identity at |alpha| = |beta|: f' d_t u = v - [v]
    spec = PhaseSpec.cylinder(8, 8)
    f = TauSeries([0.0, 1.0, -0.3, 0.1], 8)
    mu_t = FormalSymbol.zero(spec)
    for m in (-2, -1, 1, 2):
        c = complex(rng.normal(), rng.normal())
        mu_t = mu_t + _rate(spec, c, m=m, a=int(rng.integers(0, 3)))
    mu_t = mu_t + _rate(spec, 1.5)
    u, avg = homological_solve(mu_t, f, TauSeries([1.5], 8))
    fp = FormalSymbol.from_tau_series(spec, f.resized(8).derivative())
    dt_u = FormalSymbol(
        spec, {k: 0.5j * k[0] * c for k, c in u.terms.items()}
    )
    assert symbols_close(fp * dt_u, mu_t - avg, 1e-11)
    assert avg.terms == _rate(spec, 1.5).terms


# --------------------------------------------------------------------------
# closed-orbit pipeline
# --------------------------------------------------------------------------

F_LIN = TauSeries([0.0, 1.0], 4)
MU_ONE = TauSeries([1.0], 4)


def test_closed_orbit_unperturbed():
    model = CylinderModel(TauSeries([0.0, 1.0, 0.3]), TauSeries([1.0, 0.2]))
    nf, chain = closed_orbit_bnf(model, 4)
    assert nf.coeffs == {
        (1, 0, 0): 1.0 + 0j,
        (2, 0, 0): 0.3 + 0j,
        (0, 1, 0): 1.0 + 0j,
        (1, 1, 0): 0.2 + 0j,
    }
    assert not chain.steps
    assert not chain.remainder


def test_closed_orbit_angle_dependent_rate():
    # grade-2 angle dependence is averaged away exactly, by the loop's
    # grade-2 Lie step
    spec = PhaseSpec.cylinder(4, 4)
    wobble = FormalSymbol.monomial(spec, 0.2, m=1, alpha=1, beta=1) + (
        FormalSymbol.monomial(spec, 0.2, m=-1, alpha=1, beta=1)
    )
    model = CylinderModel(TauSeries([0.0, 1.0]), TauSeries([1.0]), wobble)
    nf, chain = closed_orbit_bnf(model, 4)
    assert [step[:2] for step in chain.steps] == [("lie", 2)]
    assert abs(nf.coeffs[(0, 1, 0)] - 1.0) < 1e-12


def _wobble_models():
    """Cylinder models whose rate depends on the angle, as (model, order).

    Orientable and not, tau-dependent rate terms, grade-2 h-terms with
    m != 0, cubic perturbations (half-integer modes when non-orientable),
    at orders 4 and 6.  The last of each six has a rate wobble of 2.5:
    its grade-2 Lie series settles only past the cap at order 4, and at
    order 6 the symbol grows to 8.5e16 by grade 4, where the rate term has
    been pruned and the loop raises.
    """
    out = []
    for orientable in (True, False):
        for order in (4, 6):
            spec = PhaseSpec.cylinder(order, order, orientable)

            def mono(c, **k):
                return FormalSymbol.monomial(spec, c, **k)

            def wob(eps, m=1, a=0):
                return _rate(spec, eps, m=m, a=a) + _rate(spec, np.conj(eps), m=-m, a=a)

            hm = 1 if orientable else 0.5
            cubic = mono(0.1, m=hm, alpha=3) + mono(0.1, m=-hm, beta=3)
            f1, mu1 = TauSeries([0.0, 1.0]), TauSeries([1.0])
            f2, mu2 = TauSeries([0.0, 1.0, -0.2]), TauSeries([1.0, 0.3])
            h_wob = mono(0.05, m=1, j=1) + mono(0.05, m=-1, j=1) + mono(0.03, j=1)
            h_tau = mono(0.02j, m=2, a=1, j=1) + mono(-0.02j, m=-2, a=1, j=1)
            for f, mu, pert in (
                (f1, mu1, wob(0.2)),
                (f2, mu2, wob(0.15) + wob(0.1 - 0.05j, a=1)),
                (f2, mu2, wob(0.02 + 0.01j) + wob(0.01, m=2, a=1) + cubic),
                (f1, mu1, wob(0.2) + h_wob),
                (f2, mu2, wob(0.1, a=1) + cubic + h_tau),
                (f1, mu1, wob(2.5) + cubic),
            ):
                out.append((CylinderModel(f, mu, pert, orientable=orientable), order))
    return out


def _bits(terms):
    # coefficient bits, whether a coefficient is a complex or an np.complex128
    return {k: np.complex128(c).tobytes() for k, c in terms.items()}


def test_grade2_step_matches_the_averaging_oracle():
    # the loop's grade-2 step gives the bits of averaging first, then the loop
    failed = 0
    for model, order in _wobble_models():
        try:
            want_nf, want = averaged_closed_orbit_bnf(model, order)
        except ArithmeticError as err:
            with pytest.raises(type(err)) as got:
                closed_orbit_bnf(model, order)
            assert str(got.value) == str(err)
            failed += 1
            continue
        nf, chain = closed_orbit_bnf(model, order)
        assert _bits(nf.coeffs) == _bits(want_nf.coeffs)
        assert _bits(chain.normalized_symbol.terms) == _bits(want.normalized_symbol.terms)
        assert want.steps[0][:2] == ("average", 2)
        assert [s[:2] for s in chain.steps] == [("lie", 2)] + [s[:2] for s in want.steps[1:]]
        for (_, _, G), (_, _, W) in zip(chain.steps, want.steps):
            assert _bits(G.terms) == _bits(W.terms)
    assert failed == 2


def test_blown_up_symbol_is_a_numeric_failure_not_a_model_error():
    # the rate wobble of 2.5 at order 6 blows the symbol up until pruning
    # drops the rate term 1 x xi; the model's mu(0) is 1, so this is not a
    # model error, and the loop must not go on dividing by a rate the
    # symbol no longer holds
    blown = [(m, o) for m, o in _wobble_models() if o == 6][5::6]
    assert len(blown) == 2 and {m.orientable for m, _ in blown} == {True, False}
    for model, order in blown:
        with pytest.raises(ArithmeticError, match="pruning dropped") as info:
            closed_orbit_bnf(model, order)
        assert not isinstance(info.value, symbols.ModelDegeneracyError)
        assert "e+16" in str(info.value)


def test_grade2_lie_series_runs_past_its_cap():
    # a grade-2 generator keeps the grade of the cubic term it brackets, so
    # its Lie series decays only like (3 lam)^k / k!: this one takes 15
    # terms, past the cap of 10 at order 4, and settles to the coefficients
    # of order 5
    spec = PhaseSpec.cylinder(4, 4)
    pert = (_rate(spec, 0.1 + 0.02j, m=1) + _rate(spec, 0.1 - 0.02j, m=-1)
            + _rate(spec, 0.07, m=2, a=1) + _rate(spec, 0.07, m=-2, a=1)
            + FormalSymbol.monomial(spec, 0.1, m=1, alpha=3)
            + FormalSymbol.monomial(spec, 0.1, m=-1, beta=3))
    model = CylinderModel(TauSeries([0.0, 1.0, -0.2]), TauSeries([1.0, 0.3]), pert)
    nf, chain = closed_orbit_bnf(model, 4)
    assert chain.steps[0][:2] == ("lie", 2)
    nf5, _ = closed_orbit_bnf(model, 5, tau_order=4)
    for key, c in nf.coeffs.items():
        assert abs(nf5.coeffs[key] - c) <= 1e-14 * nf.scale(), key


def test_padded_series_have_the_tau_order_of_their_last_nonzero_coefficient():
    padded = CylinderModel(TauSeries([0.0, 1.0], 4), TauSeries([1.0, 0.3, 0.0]))
    plain = CylinderModel(TauSeries([0.0, 1.0]), TauSeries([1.0, 0.3]))
    assert normal_form.content_tau_order(padded) == 1
    want, _ = closed_orbit_bnf(plain, 4, tau_order=2)
    got, _ = closed_orbit_bnf(padded, 4, tau_order=2)
    assert _bits(got.coeffs) == _bits(want.coeffs)


def test_closed_orbit_rejects_tau_order_below_model_content():
    # a tau_order below the model's own tau powers would drop the energy
    # and rate terms and answer for a different model
    model = CylinderModel(TauSeries([0.0, 1.0, -0.2]), TauSeries([1.0, 0.3]))
    for tau_order in (0, 1):
        with pytest.raises(ValueError, match="tau_order"):
            closed_orbit_bnf(model, 4, tau_order=tau_order)
    nf, _ = closed_orbit_bnf(model, 4, tau_order=2)
    assert nf.coeffs[(2, 0, 0)] == -0.2 and nf.coeffs[(1, 1, 0)] == 0.3


def test_closed_orbit_cubic_even_in_epsilon():
    # odd grade-3 perturbation: corrections are even in its amplitude and
    # show up at the action square
    def build(eps):
        spec = PhaseSpec.cylinder(4, 4)
        pert = FormalSymbol.monomial(spec, eps, m=1, alpha=3) + (
            FormalSymbol.monomial(spec, eps, m=-1, beta=3)
        )
        return CylinderModel(F_LIN, MU_ONE, pert)

    nf_plus, _ = closed_orbit_bnf(build(0.1), 4)
    nf_minus, _ = closed_orbit_bnf(build(-0.1), 4)
    assert nf_plus.coeffs.keys() == nf_minus.coeffs.keys()
    for k in nf_plus.coeffs:
        assert abs(nf_plus.coeffs[k] - nf_minus.coeffs[k]) < 1e-13
    # and the iota^2 correction is present at second order
    assert abs(nf_plus.coeffs.get((0, 2, 0), 0.0)) > 1e-4
    nf0, _ = closed_orbit_bnf(CylinderModel(F_LIN, MU_ONE), 4)
    assert (0, 2, 0) not in nf0.coeffs


def test_closed_orbit_single_mode_produces_no_resonance():
    # a lone e^{it} x^3 keeps every induced term at positive Fourier mode,
    # so the normal form stays exactly the unperturbed one
    spec = PhaseSpec.cylinder(6, 6)
    pert = FormalSymbol.monomial(spec, 0.1, m=1, alpha=3)
    nf, _ = closed_orbit_bnf(
        CylinderModel(F_LIN.resized(6), MU_ONE.resized(6), pert), 6
    )
    assert set(nf.coeffs) == {(1, 0, 0), (0, 1, 0)}


def test_closed_orbit_order_stability():
    spec = PhaseSpec.cylinder(7, 7)
    pert = (
        FormalSymbol.monomial(spec, 0.1, m=1, alpha=3)
        + FormalSymbol.monomial(spec, 0.1, m=-1, beta=3)
        + FormalSymbol.monomial(spec, 0.05, m=2, a=1, alpha=2, beta=1)
        + FormalSymbol.monomial(spec, 0.02, m=0, a=0, j=1)
    )
    model = CylinderModel(F_LIN, MU_ONE, pert)
    results = {N: closed_orbit_bnf(model, N, tau_order=7)[0] for N in (4, 5, 6)}
    for N in (4, 5):
        low, high = results[N], results[6]
        scale = max(abs(c) for c in low.coeffs.values())
        for key, c in low.coeffs.items():
            a, b, j = key
            if 2 * b + 2 * j <= N:
                assert abs(high.coeffs.get(key, 0.0) - c) <= 1e-10 * scale


def test_closed_orbit_real_model_real_coefficients():
    spec = PhaseSpec.cylinder(5, 5)
    pert = FormalSymbol.monomial(spec, 0.1, m=1, alpha=3) + FormalSymbol.monomial(
        spec, 0.1, m=-1, alpha=3
    )  # 0.2 cos t x^3, pointwise real
    model = CylinderModel(F_LIN.resized(5), MU_ONE.resized(5), pert)
    nf, _ = closed_orbit_bnf(model, 5)
    for (a, b, j), c in nf.coeffs.items():
        assert abs(c.imag) < 1e-12


def test_closed_orbit_replay_consistency():
    spec = PhaseSpec.cylinder(4, 4)
    pert = (
        FormalSymbol.monomial(spec, 0.1, m=1, alpha=3)
        + FormalSymbol.monomial(spec, 0.08, m=-1, a=1, beta=3)
        + FormalSymbol.monomial(spec, 0.05, m=1, a=1, j=1)  # quantum scalar
    )
    model = CylinderModel(F_LIN, MU_ONE, pert)
    nf, chain = closed_orbit_bnf(model, 4)
    assert any(method == "star" for method, _, _ in chain.steps)
    wide = replay_chain(chain, grade_max=6)
    low = FormalSymbol(
        wide.spec,
        {k: c for k, c in wide.terms.items() if wide.spec.grade(k) <= 4},
    )
    target = chain.normalized_symbol.reembedded(wide.spec)
    scale = max(target.max_abs(), 1.0)
    assert (low - target).max_abs() <= 1e-10 * scale
    assert chain.remainder.min_grade() > 4


def test_closed_orbit_halfmode_model():
    # anti-periodic perturbation with only the +1/2 mode: every induced
    # term keeps a positive mode, so nothing resonant is ever produced
    spec = PhaseSpec.cylinder(6, 6, orientable=False)
    pert = FormalSymbol.monomial(spec, 0.1, m=0.5, alpha=2, beta=1)
    model = CylinderModel(F_LIN.resized(6), MU_ONE.resized(6), pert, orientable=False)
    nf, chain = closed_orbit_bnf(model, 6)
    assert set(nf.coeffs) == {(1, 0, 0), (0, 1, 0)}
    assert not nf.orientable


def test_model_validation():
    with pytest.raises(ModelValidationError):
        CylinderModel(TauSeries([0.0, -1.0]), MU_ONE)  # f'(0) < 0
    with pytest.raises(ModelValidationError):
        CylinderModel(F_LIN, TauSeries([0.0]))  # mu(0) = 0
    spec = PhaseSpec.cylinder(4, 4)
    with pytest.raises(ModelValidationError):
        CylinderModel(F_LIN, MU_ONE, FormalSymbol.monomial(spec, 1.0, m=1, alpha=1))


@pytest.mark.parametrize("make, match", [
    (lambda: CylinderModel(F_LIN, MU_ONE, FormalSymbol.monomial(
        PhaseSpec.saddle(4), 1.0, alpha=(3, 0))), "must be a cylinder symbol"),
    (lambda: CylinderModel(F_LIN, MU_ONE, FormalSymbol.monomial(
        PhaseSpec.cylinder(4, 4, orientable=False), 1.0, m=0.5, alpha=2, beta=1)),
     "orientability flag does not match"),
    (lambda: CylinderModel(TauSeries([0.0, 1.0 + 0.5j]), MU_ONE), "must be real"),
    (lambda: SaddleModel(0.0, 1.0, 1.0, FormalSymbol.monomial(
        PhaseSpec.cylinder(4, 4), 1.0, alpha=3)), "must live on two plain pairs"),
], ids=["saddle_perturbation", "orientability", "complex_series", "cylinder_higher_terms"])
def test_model_checks_refuse_what_the_model_rules_out(make, match):
    with pytest.raises(ModelValidationError, match=match):
        make()


# --------------------------------------------------------------------------
# orbit diagnostics
# --------------------------------------------------------------------------

def test_orbit_diagnostics_linear():
    d = orbit_diagnostics(TauSeries([0.0, 1.0]), TauSeries([1.0]), 0.0)
    assert abs(d.period - 2 * math.pi) < 1e-13
    assert abs(d.multiplier - math.exp(2 * math.pi)) < 1e-9


def test_orbit_diagnostics_slope_two():
    d = orbit_diagnostics(TauSeries([0.0, 2.0]), TauSeries([1.0]), 0.0)
    assert abs(d.period - math.pi) < 1e-13


def test_orbit_diagnostics_newton():
    d = orbit_diagnostics(TauSeries([0.0, 1.0, 1.0]), TauSeries([1.0]), 0.11)
    assert abs(d.period - 2 * math.pi / 1.2) < 1e-12


def test_orbit_diagnostics_out_of_range():
    # below the minimum of the truncated parabola: no orbit of the branch
    # through tau = 0 has that energy
    with pytest.raises(ArithmeticError, match=r"energy -5; its energies span \(-0.25, inf\)"):
        orbit_diagnostics(TauSeries([0.0, 1.0, 1.0]), TauSeries([1.0]), -5.0)


# --------------------------------------------------------------------------
# saddle pipeline
# --------------------------------------------------------------------------

def test_birkhoff_coordinates_examples():
    spec = PhaseSpec.saddle(4)
    osc = FormalSymbol.monomial(spec, 0.5, alpha=(2, 0)) + FormalSymbol.monomial(
        spec, 0.5, beta=(2, 0)
    )
    out = birkhoff_coordinates(osc)
    assert symbols_close(out, FormalSymbol.monomial(spec, 1j, alpha=(1, 0), beta=(1, 0)))


def test_birkhoff_coordinates_scaled_quadratic():
    l1, l2 = 1.3, 0.8
    m = SaddleModel(0.0, l1, l2)
    spec = PhaseSpec.saddle(4)
    out = birkhoff_coordinates(complex_scale(saddle_symbol(m, spec)))
    expected = FormalSymbol.monomial(spec, l1, alpha=(1, 0), beta=(1, 0)) + (
        FormalSymbol.monomial(spec, 1j * l2, alpha=(0, 1), beta=(0, 1))
    )
    assert symbols_close(out, expected)


def test_birkhoff_coordinates_canonical(rng):
    spec = PhaseSpec.saddle(10)
    for _ in range(6):
        a = random_symbol(spec, rng, n_terms=4, max_exp=2)
        b = random_symbol(spec, rng, n_terms=4, max_exp=2)
        lhs = birkhoff_coordinates(poisson_bracket(a, b))
        rhs = poisson_bracket(birkhoff_coordinates(a), birkhoff_coordinates(b))
        assert symbols_close(lhs, rhs, 1e-11)


def test_equilibrium_quadratic_exact():
    m = SaddleModel(0.25, 1.0, math.sqrt(2.0))
    nf, chain = equilibrium_bnf(m, 6)
    assert not chain.steps
    assert symbols_close_dict(nf.coeffs, {
        (0, 0, 0): 0.25,
        (1, 0, 0): -1j,
        (0, 1, 0): math.sqrt(2.0),
    })


def symbols_close_dict(a, b, tol=1e-12):
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)


def test_equilibrium_quartic_vs_rayleigh_schrodinger():
    # decoupled quartic on the stable axis; independent Hermite-basis
    # perturbation oracle at second order
    c, lam2, h = 0.01, 1.0, 0.05
    spec = PhaseSpec.saddle(6)
    model = SaddleModel(0.0, 1.0, lam2, FormalSymbol.monomial(spec, c, alpha=(0, 4)))
    nf, _ = equilibrium_bnf(model, 6)
    n = 40
    X4 = weyl_monomial_matrix(4, 0, n, h).real
    E0 = (np.arange(n + 1) + 0.5) * h * lam2
    for l in range(4):
        first = X4[l, l]
        second = sum(
            X4[m, l] ** 2 / (E0[l] - E0[m]) for m in range(n + 1) if m != l
        )
        rs = E0[l] + c * first + c * c * second
        axis2 = nf.evaluate(0.0, (l + 0.5) * h, h)  # unstable axis enters linearly
        assert abs(axis2.real - rs) < 50 * c**3
        assert abs(axis2.imag) < 1e-12


def test_equilibrium_exact_action_quartic():
    # perturbation already a function of the stable action: the pipeline
    # must reproduce the operator's exact spectrum including the h^2 shift
    c, h = 0.3, 0.07
    spec = PhaseSpec.saddle(6)
    pert = (
        FormalSymbol.monomial(spec, 0.25 * c, alpha=(0, 4))
        + FormalSymbol.monomial(spec, 0.25 * c, beta=(0, 4))
        + FormalSymbol.monomial(spec, 0.5 * c, alpha=(0, 2), beta=(0, 2))
    )  # c * ((x2^2 + xi2^2)/2)^2
    model = SaddleModel(0.0, 1.0, 1.0, pert)
    nf, _ = equilibrium_bnf(model, 6)
    basis = SaddleBasis(0, 12, h)
    op = assemble_saddle(complex_scale(saddle_symbol(model, spec)), basis)
    s = eigenvalues(op.matrix)
    for l in range(6):
        z = nf.evaluate(0.5 * h, (l + 0.5) * h, h)
        assert np.min(np.abs(s.eigenvalues - z)) < 1e-12


def test_equilibrium_solve_matches_the_dict_loop():
    # random saddle symbols whose alpha - beta take negative entries, at
    # magnitudes from 1e-10 to 1e10: the grouped division keeps the bits
    spec = PhaseSpec.saddle(8)
    rng = np.random.default_rng(53)
    for nu in ((complex(1.0), 1j * math.sqrt(2.0)), (complex(0.7), 1.9j)):
        negative = 0
        for n_terms in (1, 4, 16, 60):
            v = random_symbol(spec, rng, n_terms=n_terms, max_exp=4)
            v = symbols.resonant_project(v)[1] * 10.0 ** rng.uniform(-10, 10)
            got = normal_form._equilibrium_solve(v, nu).terms
            want = loop_equilibrium_solve(v.terms, nu)
            assert list(got) == list(want)
            assert np.array_equal(np.array(list(got.values())).view(np.uint64),
                                  np.array(list(want.values()), dtype=complex).view(np.uint64))
            negative += sum(min(x - y for x, y in zip(k[2], k[3])) < 0 for k in got)
        assert negative > 20
    # a resonant term among them names itself
    v = v + FormalSymbol.monomial(spec, 0.5, alpha=(2, 1), beta=(2, 1))
    with pytest.raises(symbols.ModelDegeneracyError, match=r"alpha=\(2, 1\), beta=\(2, 1\)"):
        normal_form._equilibrium_solve(v, nu)
    with pytest.raises(symbols.ModelDegeneracyError, match=r"alpha=\(2, 1\), beta=\(2, 1\)"):
        loop_equilibrium_solve(v.terms, nu)


def test_equilibrium_order_stability():
    spec = PhaseSpec.saddle(8)
    model = SaddleModel(
        0.0, 1.0, math.sqrt(2.0), FormalSymbol.monomial(spec, 0.2, alpha=(2, 2))
    )
    nfs = {N: equilibrium_bnf(model, N)[0] for N in (4, 6)}
    scale = max(abs(v) for v in nfs[4].coeffs.values())
    for key, cval in nfs[4].coeffs.items():
        b1, b2, j = key
        if 2 * (b1 + b2 + j) <= 4:
            assert abs(nfs[6].coeffs.get(key, 0.0) - cval) <= 1e-10 * scale


def test_equilibrium_replay_consistency():
    spec = PhaseSpec.saddle(4)
    model = SaddleModel(
        0.0, 1.0, math.sqrt(2.0),
        FormalSymbol.monomial(spec, 0.2, alpha=(2, 2))
        + FormalSymbol.monomial(spec, 0.1, alpha=(1, 0), beta=(0, 2)),
    )
    nf, chain = equilibrium_bnf(model, 4)
    wide = replay_chain(chain, grade_max=6)
    low = FormalSymbol(
        wide.spec, {k: c for k, c in wide.terms.items() if wide.spec.grade(k) <= 4}
    )
    target = chain.normalized_symbol.reembedded(wide.spec)
    assert (low - target).max_abs() <= 1e-10 * max(target.max_abs(), 1.0)
    assert chain.remainder.min_grade() > 4


def test_remainder_is_computed_on_demand(monkeypatch):
    import qbnf.normal_form as normal_form

    cspec = PhaseSpec.cylinder(4, 4)
    cylinder = CylinderModel(
        F_LIN, MU_ONE,
        FormalSymbol.monomial(cspec, 0.1, m=1, alpha=3)
        + FormalSymbol.monomial(cspec, 0.05, m=1, a=1, j=1),
    )
    sspec = PhaseSpec.saddle(4)
    saddle = SaddleModel(
        0.0, 1.0, math.sqrt(2.0),
        FormalSymbol.monomial(sspec, 0.2, alpha=(2, 2))
        + FormalSymbol.monomial(sspec, 0.1, alpha=(1, 0), beta=(0, 2)),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the normal form replayed its chain")

    monkeypatch.setattr(normal_form, "replay_chain", refuse)
    chains = [closed_orbit_bnf(cylinder, 4)[1], equilibrium_bnf(saddle, 4)[1]]

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return replay_chain(*args, **kwargs)

    monkeypatch.setattr(normal_form, "replay_chain", counting)
    for chain in chains:
        calls.clear()
        remainder = chain.remainder
        assert chain.remainder is remainder
        assert len(calls) == 1
        # the eager computation the normal forms used to run
        wide = replay_chain(chain, grade_max=chain.order + 2)
        eager = {k: c for k, c in wide.terms.items() if wide.spec.grade(k) > chain.order}
        assert remainder.spec == wide.spec
        assert remainder.terms == eager
        assert eager



def test_stepless_chain_remainder_keeps_high_tau_terms():
    # a resonant grade-6 term at tau^8: no step below order 4, and the
    # replay must still run at the chain's tau truncation, not at grade_max
    spec = PhaseSpec.cylinder(6, 8)
    model = CylinderModel(
        TauSeries([0.0, 1.0]), TauSeries([1.0]),
        FormalSymbol.monomial(spec, 0.1, a=8, alpha=3, beta=3),
    )
    _, chain = closed_orbit_bnf(model, 4)
    assert chain.steps == []
    assert chain.remainder.spec.tau_max == 8
    assert chain.remainder.terms == {(0, 8, (3,), (3,), 0): 0.1}


def test_saddle_model_validation():
    with pytest.raises(ModelValidationError):
        SaddleModel(0.0, -1.0, 1.0)
    spec = PhaseSpec.saddle(4)
    with pytest.raises(ModelValidationError):
        SaddleModel(0.0, 1.0, 1.0, FormalSymbol.monomial(spec, 1.0, alpha=(1, 1)))


def test_malformed_prepared_quadratic_part_is_a_model_error(monkeypatch):
    # every grade-2 key is there but its coefficient is wrong: that is the
    # prepared-form check's model error, not the loop's pruning failure
    prepared = normal_form._prepared_symbol
    monkeypatch.setattr(normal_form, "_prepared_symbol",
                        lambda model, spec: prepared(model, spec) * 2.0)
    with pytest.raises(ModelValidationError, match="prepared saddle form"):
        equilibrium_bnf(SaddleModel(0.0, 1.0, math.sqrt(2.0)), 4)


# --------------------------------------------------------------------------
# functional-calculus corrections against star powers
# --------------------------------------------------------------------------

def _star_power_corrections(bmax):
    """``_action_power_corrections`` from star powers of iota = (x^2 + xi^2)/2
    in the symbol algebra: read w off the pure-x coefficients of the star
    powers, then invert the triangular relation in floats."""
    spec = PhaseSpec.cylinder(max(2 * bmax, 2), 0)
    iota = FormalSymbol.monomial(spec, 0.5, alpha=2) + FormalSymbol.monomial(spec, 0.5, beta=2)
    powers = [FormalSymbol.constant(spec, 1.0)]
    for _ in range(bmax):
        powers.append(symbols.moyal_star(powers[-1], iota))
    w = []
    for b in range(bmax + 1):
        wb = np.zeros(b // 2 + 1)
        for (m2, a, alpha, beta, j), c in powers[b].terms.items():
            if beta == (0,) and j % 2 == 0 and alpha[0] // 2 == b - j:
                wb[j // 2] = (c * 2 ** (alpha[0] // 2)).real
        w.append(wb)
    v = []
    for b in range(bmax + 1):
        vb = np.zeros(b // 2 + 1)
        vb[0] = 1.0
        for u in range(1, b // 2 + 1):
            acc = 0.0
            for r in range(u):
                acc += vb[r] * w[b - 2 * r][u - r]
            vb[u] = -acc
        v.append(tuple(vb))
    return tuple(v)


def test_action_power_corrections_match_the_star_powers_bit_for_bit():
    for bmax in range(13):
        got = normal_form._action_power_corrections(bmax)
        want = _star_power_corrections(bmax)
        assert [len(v) for v in got] == [len(v) for v in want]
        assert [np.array(v).tobytes() for v in got] == [np.array(v).tobytes() for v in want]
    assert normal_form._action_power_corrections(4)[2:] == ((1.0, 0.25), (1.0, 1.25), (1.0, 3.5, 0.5625))


def _resonant_terms(rng, angle, n):
    """n random resonant terms of the geometry: one coefficient in three
    has a -0.0 part (one in nine is -0.0 outright), one in nine a 0.0
    imaginary part."""
    terms = {}
    while len(terms) < n:
        j = int(rng.integers(0, 3))
        if angle:
            b = (int(rng.integers(0, 9)),)
            key = (0, int(rng.integers(0, 5)), b, b, j)
        else:
            b = tuple(int(x) for x in rng.integers(0, 7, size=2))
            key = (0, 0, b, b, j)
        re, im = rng.normal(size=2)
        signed = int(rng.integers(0, 9))
        terms[key] = complex(-0.0 if signed in (1, 3) else re,
                             -0.0 if signed in (2, 3) else 0.0 if signed == 4 else im)
    return terms


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["cylinder", "saddle"])
def test_one_conversion_gives_the_pipeline_loops_keys_order_and_bits(kind, seed):
    rng = np.random.default_rng(seed)
    angle = kind == "cylinder"
    spec = PhaseSpec.cylinder(20, 4) if angle else PhaseSpec.saddle(28)
    sym = held(spec, _resonant_terms(rng, angle, 60))
    terms = sym.terms
    assert any(np.signbit(c.real) and c.real == 0 or np.signbit(c.imag) and c.imag == 0
               for c in terms.values())
    phase = normal_form._zeta_phase if angle else normal_form._iota_phase
    got = normal_form._functional(sym, phase)
    want = (loop_functional_closed_orbit if angle else loop_functional_equilibrium)(terms)
    assert len(want) > 30
    assert list(got) == list(want)
    assert np.array_equal(np.array(list(got.values()), dtype=complex).view(np.uint64),
                          np.array(list(want.values()), dtype=complex).view(np.uint64))
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


@pytest.mark.parametrize("j", [0, 1])
def test_slot_phases_give_the_same_action_power_on_both_geometries(j):
    # c (x xi)^b h^j is one operator whichever pair it sits on: the closed
    # orbit's form at zeta = (l + 1/2) h / i, its label's slot, must equal
    # the saddle's at iota1 = (l + 1/2) h.  A slip in either slot phase
    # breaks this and no test of its own pipeline
    h, c = 0.1, 0.7 - 0.3j
    for b in range(13):
        cyl = held(PhaseSpec.cylinder(2 * b + 2, 0), {(0, 0, (b,), (b,), j): c})
        sad = held(PhaseSpec.saddle(2 * b + 2), {(0, 0, (b, 0), (b, 0), j): c})
        zeta = NormalFormPoly("closed_orbit", normal_form._functional(cyl, normal_form._zeta_phase), b)
        iota = NormalFormPoly("equilibrium", normal_form._functional(sad, normal_form._iota_phase), b)
        for l in (0, 1, 3):
            want = iota.evaluate(*iota.arguments(l, 0, h), h)
            got = zeta.evaluate(*zeta.arguments(0, l, h), h)
            assert abs(got - want) <= 1e-14 * abs(want), (b, l)


# --------------------------------------------------------------------------
# both pipelines through the nested-loop kernel oracle
# --------------------------------------------------------------------------

def _bnf_model(kind, quantum, paired=False):
    """The saddle or cylinder model of the bnf benchmark workloads, with
    their h-term when ``quantum``; ``paired`` adds the cylinder h-term's
    m = -1 partner, without which the star steps leave the cylinder's
    normal form bit-identical to the classical one."""
    if kind == "saddle":
        terms = [
            {"alpha": [2, 2], "beta": [0, 0], "j": 0, "re": 0.2},
            {"alpha": [3, 0], "beta": [0, 0], "j": 0, "re": 0.05},
            {"alpha": [1, 1], "beta": [1, 1], "j": 0, "re": 0.1},
        ] + ([{"alpha": [1, 0], "beta": [0, 1], "j": 1, "re": 0.05}] if quantum else [])
        model = {"kind": "saddle", "energy0": 0.0, "lambda_unstable": 1.0,
                 "lambda_stable": math.sqrt(2.0), "higher_terms": terms}
    else:
        terms = [
            {"m": 1, "alpha": [3], "beta": [0], "re": 0.1},
            {"m": -1, "alpha": [0], "beta": [3], "re": 0.1},
            {"m": 2, "a": 1, "alpha": [2], "beta": [2], "re": 0.05},
        ] + ([{"m": 1, "alpha": [1], "beta": [0], "j": 1, "re": 0.05}] if quantum else [])
        terms += [{"m": -1, "alpha": [0], "beta": [1], "j": 1, "re": 0.05}] if paired else []
        model = {"kind": "cylinder", "orientable": True, "action": 0.0,
                 "energy_coeffs": [0.0, 1.0, -0.2], "rate_coeffs": [1.0, 0.3],
                 "perturbation": terms}
    return load_config({
        "schema_version": 1, "model": model,
        "compute": {"order": 8, "h_values": [0.05],
                    "window": {"half_width": 0.3, "depth": 0.25}},
    }).model()


@pytest.mark.parametrize("kind, quantum, paired", [
    ("saddle", False, False), ("saddle", True, False),
    ("cylinder", False, False), ("cylinder", True, False), ("cylinder", True, True),
], ids=["saddle-classical", "saddle-quantum",
        "cylinder-classical", "cylinder-quantum", "cylinder-quantum-paired"])
def test_normal_form_is_bit_identical_with_the_loop_kernel(monkeypatch, kind, quantum, paired):
    model = _bnf_model(kind, quantum, paired)
    bnf = closed_orbit_bnf if kind == "cylinder" else equilibrium_bnf

    def coeffs():
        normal_form._action_power_corrections.cache_clear()
        return bnf(model, 8)[0].coeffs

    got = coeffs()
    monkeypatch.setattr(symbols, "_bidifferential", loop_symbol)
    want = coeffs()
    normal_form._action_power_corrections.cache_clear()
    assert len(want) > 10
    assert list(got) == list(want)
    assert np.array_equal(np.array(list(got.values()), dtype=complex).view(np.uint64),
                          np.array(list(want.values()), dtype=complex).view(np.uint64))
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


def test_paired_cylinder_h_terms_move_the_normal_form():
    # the case above in which the cylinder's star steps matter
    classical = closed_orbit_bnf(_bnf_model("cylinder", False), 8)[0].coeffs
    paired = closed_orbit_bnf(_bnf_model("cylinder", True, paired=True), 8)[0].coeffs
    assert (len(paired), len(classical)) == (75, 67)
    diff = max(abs(paired.get(k, 0) - classical.get(k, 0)) for k in set(paired) | set(classical))
    assert 1e-3 < diff < 3e-3


def _assert_carries_its_columns(sym):
    carried = symbols._columns(sym)
    rebuilt = symbols._columns(held(sym.spec, sym.terms))
    keys, re, im = carried
    assert keys.dtype == rebuilt[0].dtype and np.array_equal(keys, rebuilt[0])
    for got, want in ((re, rebuilt[1]), (im, rebuilt[2])):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not any(x.flags.writeable for x in carried)


@pytest.mark.parametrize("quantum", [False, True], ids=["classical", "quantum"])
@pytest.mark.parametrize("kind", ["saddle", "cylinder"])
def test_kernel_outputs_and_their_multiples_carry_the_columns_they_would_build(
        monkeypatch, kind, quantum):
    model = _bnf_model(kind, quantum)
    bnf = closed_orbit_bnf if kind == "cylinder" else equilibrium_bnf
    kernel, scalar_mul, seen = symbols._bidifferential, FormalSymbol.__mul__, []

    def checked_kernel(*args):
        out = kernel(*args)
        if out:
            _assert_carries_its_columns(out)
            seen.append("kernel")
        return out

    def checked_mul(self, other):
        out = scalar_mul(self, other)
        if isinstance(other, (int, float, complex)):
            _assert_carries_its_columns(out)
            seen.append("scalar")
        return out

    monkeypatch.setattr(symbols, "_bidifferential", checked_kernel)
    monkeypatch.setattr(FormalSymbol, "__mul__", checked_mul)
    bnf(model, 8)
    assert seen.count("kernel") >= 10 and seen.count("scalar") >= 10
