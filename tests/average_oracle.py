"""The angle averaging of the cylinder rate as a step of its own, kept as a test oracle.

``qbnf.normal_form.closed_orbit_bnf`` removes an angle-dependent rate
mu(t, tau) x xi in the grade-2 step of its elimination loop, dividing
by the transport denominator i m f'(tau).  It must give exactly what
this older pipeline gives, which first averages the rate with
``average_rate`` and one Lie transform and only then runs the loop: the
same normal-form coefficient bits, normalized symbol and generators, at
the same grades.
"""

import numpy as np

from qbnf.normal_form import (
    GeneratorChain,
    _eliminate,
    _functional_closed_orbit,
    _prepared_symbol,
    content_tau_order,
)
from qbnf.symbols import (
    FormalSymbol,
    ModelDegeneracyError,
    PhaseSpec,
    TauSeries,
    homological_solve,
    lie_transform,
    resonant_project,
)


def average_rate(energy: TauSeries, rate_sym: FormalSymbol) -> tuple[FormalSymbol, TauSeries]:
    """Remove the angle dependence of the transverse rate coefficient.

    Given mu(t, tau) as a scalar symbol (no x, xi, h content), returns the
    generator coefficient lam(t, tau) with f'(tau) d_t lam = mu - <mu> and
    the angle average <mu> as a TauSeries.  Applying ``lie_transform``
    with G = lam * x xi replaces mu(t, tau) by <mu>(tau) in the grade-2
    part of the model symbol.
    """
    spec = rate_sym.spec
    if not spec.has_angle:
        raise ValueError("angle averaging requires the cylinder model")
    K = spec.tau_max
    fp = energy.resized(K).derivative()
    avg = np.zeros(K + 1, dtype=complex)
    groups: dict[int, np.ndarray] = {}
    for (m2, a, alpha, beta, j), c in rate_sym.terms.items():
        if alpha != (0,) * spec.num_pairs or beta != alpha or j != 0:
            raise ValueError("rate coefficient must be a scalar classical symbol")
        if m2 == 0:
            avg[a] += c
        else:
            groups.setdefault(m2, np.zeros(K + 1, dtype=complex))[a] += c
    lam_terms = {}
    for m2, poly in groups.items():
        inv = ((0.5j * m2) * fp).inverse()
        lam_poly = np.convolve(poly, inv.coeffs)[: K + 1]
        for a, c in enumerate(lam_poly):
            if c != 0:
                lam_terms[(m2, a, (0,) * spec.num_pairs, (0,) * spec.num_pairs, 0)] = c
    return FormalSymbol(spec, lam_terms), TauSeries(avg)


def averaged_closed_orbit_bnf(model, order, tau_order=None):
    """``closed_orbit_bnf`` with the rate averaged before the elimination loop.

    The averaging is recorded as an ('average', 2, G2) step.  As the older
    loop did, it refuses any non-resonant classical grade-2 content that
    the averaging leaves behind.
    """
    if tau_order is None:
        tau_order = max(order, content_tau_order(model))
    spec = PhaseSpec.cylinder(order, tau_order, model.orientable)
    p = _prepared_symbol(model, spec)
    chain = GeneratorChain(order, model)
    f, mu = model.energy.resized(tau_order), model.rate.resized(tau_order)

    g2_cl = p.grade_part(2).h_split()[0]
    _, g2_nonres = resonant_project(g2_cl)
    if g2_nonres:
        rate_coeff = FormalSymbol(
            spec,
            {(m2, a, (0,), (0,), 0): c for (m2, a, al, be, j), c in g2_nonres.terms.items()},
        )
        lam, _ = average_rate(f, rate_coeff)
        G2 = lam * FormalSymbol.monomial(spec, 1.0, alpha=1, beta=1)
        p = lie_transform(p, G2)
        chain.steps.append(("average", 2, G2))
    if resonant_project(p.grade_part(2).h_split()[0])[1]:
        raise ModelDegeneracyError(
            "unexpected non-resonant classical grade-2 content after averaging"
        )

    rate = FormalSymbol.from_tau_series(spec, mu, alpha=1, beta=1)
    res = _eliminate(p, chain, lambda v: homological_solve(v, f, mu)[0], rate)
    nf = _functional_closed_orbit(
        res, order, model.action, model.reference_energy, model.orientable
    )
    return nf, chain
