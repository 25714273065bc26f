"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy artifacts (direct spectra, sweeps) are computed once in
session-scoped fixtures and shared; every dense solve feeds the
certification registry checked by the final criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from qbnf.compare import convergence_sweep, match_lattices
from qbnf.eigensolve import eigenvalues
from qbnf.lattice import (
    Window,
    closed_orbit_lattice,
    homogeneity_check,
    saddle_lattice,
)
from qbnf.normal_form import (
    CylinderModel,
    SaddleModel,
    closed_orbit_bnf,
    content_grade,
    cylinder_symbol,
    equilibrium_bnf,
    saddle_symbol,
)
from qbnf.quantize import (
    CylinderBasis,
    SaddleBasis,
    assemble_cylinder,
    assemble_saddle,
    complex_scale,
    metaplectic_substitute,
)
from qbnf.symbols import (
    FormalSymbol,
    PhaseSpec,
    TauSeries,
    homological_solve,
    moyal_star,
    poisson_bracket,
    resonant_project,
)

from basis_labels import cylinder_index
from conftest import lattice_rescaling_check, random_symbol, symbols_close


def _passline(n, text):
    print(f"\n[criterion {n}] PASS - {text}")


# --------------------------------------------------------------------------
# certification registry: every dense solve in this module lands here
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def cert_registry():
    return []


def certified(registry, op, label):
    A = np.asarray(getattr(op, "matrix", op))
    s = eigenvalues(op)
    registry.append(
        {
            "label": label,
            "n": len(s),
            "max_residual": float(np.max(s.residuals)) if len(s) else 0.0,
            "norm": s.matrix_norm,
            "trace_defect": abs(np.sum(s.eigenvalues) - np.trace(A)),
        }
    )
    return s


# --------------------------------------------------------------------------
# shared models
# --------------------------------------------------------------------------

QS_MODEL = SaddleModel(0.0, 1.0, math.sqrt(2.0))


def perturbed_saddle():
    spec = PhaseSpec.saddle(8)
    return SaddleModel(
        0.0, 1.0, math.sqrt(2.0),
        FormalSymbol.monomial(spec, 0.2, alpha=(2, 2)),
    )


def cubic_cylinder():
    spec = PhaseSpec.cylinder(8, 8)
    pert = FormalSymbol.monomial(spec, 0.1, m=1, alpha=3) + (
        FormalSymbol.monomial(spec, 0.1, m=-1, beta=3)
    )
    return CylinderModel(TauSeries([0.0, 1.0]), TauSeries([1.0]), pert)


def halfmode_cylinder():
    spec = PhaseSpec.cylinder(8, 8, orientable=False)
    pert = FormalSymbol.monomial(spec, 0.1, m=0.5, alpha=2, beta=1)
    return CylinderModel(
        TauSeries([0.0, 1.0]), TauSeries([1.0]), pert, orientable=False
    )


# --------------------------------------------------------------------------
# session-scoped heavy artifacts
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def saddle_sweep4():
    model = perturbed_saddle()
    t0 = time.monotonic()
    res = convergence_sweep(
        model, 4, [0.1, 0.05, 0.025], window=Window(0.0, 0.7, 0.5), label_cap=3
    )
    return res, time.monotonic() - t0


@pytest.fixture(scope="session")
def cylinder_run(cert_registry):
    """Criterion-3 pipeline at the prescribed basis."""
    model = cubic_cylinder()
    h = 0.05
    window = Window(0.0, 0.4, 0.3)
    t0 = time.monotonic()
    nf, chain = closed_orbit_bnf(model, 4)
    lat = closed_orbit_lattice(nf, h, window)
    g = content_grade(model)
    spec = PhaseSpec.cylinder(g, g)
    sym = metaplectic_substitute(cylinder_symbol(model, spec))
    basis = CylinderBasis(-25, 25, 40, h)
    op = assemble_cylinder(sym, basis)
    s = certified(cert_registry, op, "cylinder cubic base")
    wide = assemble_cylinder(sym, basis.widened())
    s_wide = certified(cert_registry, wide, "cylinder cubic widened")
    search = window.inflated(0.02)
    accepted = []
    for z, r in zip(s.eigenvalues, s.residuals):
        if search.contains(z) and np.min(np.abs(s_wide.eigenvalues - z)) <= 1e-6:
            accepted.append((complex(z), float(r)))
    rep = match_lattices(lat, accepted, order=4)
    return {
        "nf": nf,
        "lattice": lat,
        "report": rep,
        "h": h,
        "elapsed": time.monotonic() - t0,
    }


# --------------------------------------------------------------------------
# criterion 1: exact quadratic saddle
# --------------------------------------------------------------------------

def test_1_exact_quadratic_saddle(cert_registry):
    # CPU time of this thread: load from other processes does not count, and
    # neither do the BLAS worker threads, whose spinning adds with their number
    t0 = time.thread_time()
    h = 0.05
    window = Window(0.0, 0.5, 0.5)
    nf, chain = equilibrium_bnf(QS_MODEL, 4)
    assert not chain.steps  # terminates exactly
    lat = saddle_lattice(nf, h, window)
    assert lat.entries
    assert all(e.k <= 10 and e.l <= 10 for e in lat.entries)

    spec = PhaseSpec.saddle(4)
    sym = complex_scale(saddle_symbol(QS_MODEL, spec))
    basis = SaddleBasis(22, 18, h)
    s = certified(cert_registry, assemble_saddle(sym, basis), "quadratic saddle")
    wide = certified(
        cert_registry, assemble_saddle(sym, basis.widened()), "quadratic saddle wide"
    )
    for e in lat.entries:
        assert np.min(np.abs(s.eigenvalues - e.z)) <= 1e-10
        assert np.min(np.abs(wide.eigenvalues - e.z)) <= 1e-10
    cpu = time.thread_time() - t0
    assert cpu < 10.0
    _passline(1, f"{len(lat.entries)} lattice points match the direct spectrum "
                 f"to 1e-10 in {cpu:.2f}s CPU")


# --------------------------------------------------------------------------
# criterion 2: perturbed-saddle convergence order
# --------------------------------------------------------------------------

def test_2_perturbed_saddle_convergence(saddle_sweep4):
    res4, t4 = saddle_sweep4
    t0 = time.monotonic()
    assert not res4.exact and res4.slope is not None
    assert res4.slope >= 2.0

    # N = 6 at h = 0.05, matched against the same computed spectrum
    model = perturbed_saddle()
    nf6, _ = equilibrium_bnf(model, 6)
    rep4 = res4.reports[0.05]
    computed = [p.computed for p in rep4.pairs] + rep4.unmatched_computed
    lat6 = saddle_lattice(nf6, 0.05, Window(0.0, 0.7, 0.5))
    rep6 = match_lattices(lat6, computed, order=6)
    err4 = rep4.max_err_over(3)
    err6 = rep6.max_err_over(3)
    assert err6 <= err4 * 1.1
    elapsed = t4 + time.monotonic() - t0
    assert elapsed < 300.0
    _passline(
        2,
        f"slope {res4.slope:.2f} >= 2.0 over h in {{0.1, 0.05, 0.025}}; "
        f"N=6 error {err6:.2e} <= N=4 error {err4:.2e} at h=0.05 "
        f"({elapsed:.0f}s)",
    )


# --------------------------------------------------------------------------
# criterion 3: cylinder oracle equivalence (orientable)
# --------------------------------------------------------------------------

def test_3_cylinder_oracle_equivalence(cylinder_run):
    rep = cylinder_run["report"]
    h = cylinder_run["h"]
    bound = 5.0 * h**2.5
    assert not rep.unmatched_predicted, (
        f"{len(rep.unmatched_predicted)} predicted points found no partner"
    )
    assert rep.pairs
    assert rep.max_err <= bound
    assert cylinder_run["elapsed"] < 300.0
    _passline(
        3,
        f"all {len(rep.pairs)} predicted resonances matched, max error "
        f"{rep.max_err:.2e} <= {bound:.2e} ({cylinder_run['elapsed']:.0f}s)",
    )


# --------------------------------------------------------------------------
# criterion 4: non-orientable half-shift rule
# --------------------------------------------------------------------------

def test_4_nonorientable_halfshift(cert_registry):
    from dataclasses import replace

    model = halfmode_cylinder()
    h = 0.05
    window = Window(0.0, 0.3, 0.25)
    nf, _ = closed_orbit_bnf(model, 4)
    assert not nf.orientable

    g = content_grade(model)
    spec = PhaseSpec.cylinder(g, g, orientable=False)
    sym = metaplectic_substitute(cylinder_symbol(model, spec))
    basis = CylinderBasis(-15, 15, 30, h, orientable=False)
    s = certified(cert_registry, assemble_cylinder(sym, basis), "halfmode base")
    wide = certified(
        cert_registry,
        assemble_cylinder(sym, basis.widened()),
        "halfmode widened",
    )
    accepted = [
        complex(z)
        for z in s.eigenvalues
        if window.inflated(0.02).contains(z)
        and np.min(np.abs(wide.eigenvalues - z)) <= 1e-6
    ]

    lat_half = closed_orbit_lattice(nf, h, window)
    rep = match_lattices(lat_half, accepted, order=4)
    assert not rep.unmatched_predicted and rep.pairs
    err_right = max(
        max((p.error for p in rep.pairs)), 1e-300
    )

    lat_wrong = closed_orbit_lattice(replace(nf, orientable=True), h, window)
    wrong_vals = lat_wrong.values()
    matched_computed = [p.computed for p in rep.pairs]
    err_wrong = max(
        float(np.min(np.abs(wrong_vals - z))) for z in matched_computed
    )
    ratio = err_wrong / err_right
    assert ratio >= 10.0
    _passline(
        4,
        f"half-shift rule max error {err_right:.2e}; integer rule misses by "
        f"{err_wrong:.2e} (ratio {ratio:.1e} >= 10)",
    )


# --------------------------------------------------------------------------
# criterion 5: homogeneity identities
# --------------------------------------------------------------------------

def test_5_homogeneity_identities(cylinder_run):
    nf_cyl = cylinder_run["nf"]
    nf_sad, _ = equilibrium_bnf(perturbed_saddle(), 4)
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(50):
        mu = float(rng.uniform(0.5, 2.0))
        eps = float(rng.uniform(0.01, 0.3))
        worst = max(worst, homogeneity_check(nf_sad, mu, eps, 2, seed=i))
        worst = max(worst, homogeneity_check(nf_cyl, mu, eps, 2, seed=1000 + i))
    labels = [(k, l) for k in range(3) for l in range(3)]
    worst = max(worst, lattice_rescaling_check(nf_sad, 0.05, 0.3, labels))
    worst = max(worst, lattice_rescaling_check(nf_cyl, 0.05, 0.3, labels))
    assert worst <= 1e-12
    _passline(5, f"100 rescaling draws + lattice form: max defect {worst:.2e} <= 1e-12")


def quantum_workload_saddle():
    """The saddle of the ``bnf_quantum`` benchmark workload, with its h-term."""
    spec = PhaseSpec.saddle(4)
    return SaddleModel(0.0, 1.0, math.sqrt(2.0), FormalSymbol(spec, {
        (0, 0, (2, 2), (0, 0), 0): 0.2,
        (0, 0, (3, 0), (0, 0), 0): 0.05,
        (0, 0, (1, 1), (1, 1), 0): 0.1,
        (0, 0, (1, 0), (0, 1), 1): 0.05,
    }))


@pytest.mark.parametrize("model, order", [
    (perturbed_saddle(), 4), (perturbed_saddle(), 6), (perturbed_saddle(), 8),
    (quantum_workload_saddle(), 7),
], ids=["perturbed_saddle-N4", "perturbed_saddle-N6", "perturbed_saddle-N8",
        "bnf_quantum_saddle-N7"])
def test_5_normal_form_scales_with_the_model(model, order):
    # scaling every term of grade d (h counting 2) by s^(d - 2) gives
    # s^-2 p(s x, s xi, s^2 h), so the normal form's coefficient of
    # iota1^b1 iota2^b2 h^j must scale by s^(2 (b1 + b2) + 2 j - 2).  Unlike
    # criterion 5's identities, which hold for any polynomial, this runs
    # the whole elimination.
    spec = model.higher.spec
    nf, _ = equilibrium_bnf(model, order)
    for s in (1.3, 0.7):
        scaled = replace(model, higher=FormalSymbol(spec, {
            key: c * s ** (spec.grade(key) - 2) for key, c in model.higher.terms.items()
        }))
        nf_s, _ = equilibrium_bnf(scaled, order)
        assert list(nf_s.coeffs) == list(nf.coeffs)
        for (b1, b2, j), c in nf.coeffs.items():
            want = c * s ** (2 * (b1 + b2) + 2 * j - 2)
            assert abs(nf_s.coeffs[b1, b2, j] - want) <= 1e-12 * abs(want), (b1, b2, j, s)


# --------------------------------------------------------------------------
# criterion 6: randomized algebra suite
# --------------------------------------------------------------------------

def test_6_algebra_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(6)

    spec_j = PhaseSpec.cylinder(14, 14)
    for _ in range(200):
        a = random_symbol(spec_j, rng, n_terms=2, classical=True)
        b = random_symbol(spec_j, rng, n_terms=2, classical=True)
        c = random_symbol(spec_j, rng, n_terms=2, classical=True)
        s = (
            poisson_bracket(a, poisson_bracket(b, c))
            + poisson_bracket(b, poisson_bracket(c, a))
            + poisson_bracket(c, poisson_bracket(a, b))
        )
        scale = max(a.max_abs() * b.max_abs() * c.max_abs(), 1.0)
        assert s.max_abs() <= 1e-11 * scale

        lhs = poisson_bracket(a, b * c)
        rhs = poisson_bracket(a, b) * c + b * poisson_bracket(a, c)
        assert symbols_close(lhs, rhs, 1e-11)

    spec_s = PhaseSpec.cylinder(18, 18)
    x = FormalSymbol.monomial(spec_s, 1.0, alpha=1)
    xi = FormalSymbol.monomial(spec_s, 1.0, beta=1)
    ih = FormalSymbol.monomial(spec_s, 1j, j=1)
    for _ in range(200):
        a = random_symbol(spec_s, rng, n_terms=2)
        b = random_symbol(spec_s, rng, n_terms=2)
        c = random_symbol(spec_s, rng, n_terms=2)
        assert symbols_close(
            moyal_star(moyal_star(a, b), c), moyal_star(a, moyal_star(b, c)), 1e-10
        )
        z = random_symbol(spec_s, rng, n_terms=1)
        comm = moyal_star(x + z, xi) - moyal_star(xi, x + z)
        assert symbols_close(
            comm, moyal_star(z, xi) - moyal_star(xi, z) + ih, 1e-11
        )

    f = TauSeries([0.0, 1.0, -0.2], 8)
    mu = TauSeries([1.1, 0.3], 8)
    spec_h = PhaseSpec.cylinder(8, 8)
    from test_symbols import apply_transport

    for _ in range(200):
        v = random_symbol(spec_h, rng, n_terms=5, max_tau=3)
        u, res = homological_solve(v, f, mu)
        assert symbols_close(res, resonant_project(v)[0])
        assert symbols_close(apply_transport(u, f, mu) + res, v, 1e-10)

    # composition consistency on interior blocks, small exact bases
    spec_c = PhaseSpec.cylinder(16, 16)
    basis = CylinderBasis(-3, 3, 6, 0.1)
    for _ in range(200):
        a = random_symbol(spec_c, rng, n_terms=2, max_exp=1, max_mode=1, max_tau=1)
        b = random_symbol(spec_c, rng, n_terms=2, max_exp=1, max_mode=1, max_tau=1)
        Ma = assemble_cylinder(a, basis).matrix
        Mb = assemble_cylinder(b, basis).matrix
        Mab = assemble_cylinder(moyal_star(a, b), basis).matrix
        prod = Ma @ Mb
        cols = [
            cylinder_index(basis, k, l) for k in range(-1, 2) for l in range(0, 5)
        ]
        scale = max(1.0, float(np.abs(prod).max()))
        err = max(float(np.abs(prod[:, cc] - Mab[:, cc]).max()) for cc in cols)
        assert err <= 1e-10 * scale

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _passline(6, f"4 x 200 randomized algebra identities green in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 7: normal-form order stability
# --------------------------------------------------------------------------

def test_7_order_stability():
    sad = perturbed_saddle()
    nf_s = {N: equilibrium_bnf(sad, N)[0] for N in (4, 6)}
    scale = max(abs(v) for v in nf_s[4].coeffs.values())
    for (b1, b2, j), c in nf_s[4].coeffs.items():
        if 2 * (b1 + b2 + j) <= 4:
            assert abs(nf_s[6].coeffs.get((b1, b2, j), 0.0) - c) <= 1e-10 * scale

    cyl = cubic_cylinder()
    nf_c = {N: closed_orbit_bnf(cyl, N, tau_order=8)[0] for N in (4, 6)}
    scale = max(abs(v) for v in nf_c[4].coeffs.values())
    for (a, b, j), c in nf_c[4].coeffs.items():
        if 2 * (b + j) <= 4:
            assert abs(nf_c[6].coeffs.get((a, b, j), 0.0) - c) <= 1e-10 * scale
    _passline(7, "grade <= N coefficients stable between N and N+2, both pipelines")


# --------------------------------------------------------------------------
# criterion 8: eigensolver certification
# --------------------------------------------------------------------------

def test_8_eigensolver_certification(cert_registry, cylinder_run):
    assert cylinder_run["report"].pairs  # populates the registry
    assert len(cert_registry) >= 4
    for entry in cert_registry:
        assert entry["max_residual"] <= 1e-8 * entry["norm"], entry["label"]
        assert entry["trace_defect"] <= 1e-8 * entry["n"] * entry["norm"], entry["label"]
    _passline(
        8,
        f"{len(cert_registry)} matrices certified: residuals <= 1e-8 ||M||, "
        "trace identity holds",
    )
