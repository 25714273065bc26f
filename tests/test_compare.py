"""Matching and convergence-order tests."""

import math

import pytest

from qbnf.compare import (
    MATCH_WINDOW_PAD,
    MatchedPair,
    MatchReport,
    auto_basis,
    convergence_sweep,
    fit_convergence,
    match_lattices,
    model_operator_symbol,
)
from qbnf.lattice import LatticeEntry, ResonanceLattice, Window, predicted_lattice
from qbnf.normal_form import CylinderModel, SaddleModel, closed_orbit_bnf, equilibrium_bnf
from qbnf.quantize import CylinderBasis, SaddleBasis, direct_spectrum
from qbnf.symbols import FormalSymbol, PhaseSpec, TauSeries

from loop_match import loop_match_lattices


def lattice_of(points, h=0.1):
    entries = [LatticeEntry(k, l, z) for (k, l), z in points.items()]
    return ResonanceLattice(entries, Window(0.0, 10.0, 10.0), h)


POINTS = {(0, 0): 0.1 - 0.05j, (1, 0): 0.2 - 0.05j, (0, 1): 0.1 - 0.15j}


def test_match_identical():
    lat = lattice_of(POINTS)
    rep = match_lattices(lat, list(POINTS.values()))
    assert not rep.unmatched_predicted and not rep.unmatched_computed
    assert rep.max_err == 0.0


def test_match_uniform_shift():
    lat = lattice_of(POINTS)
    shifted = [z + 1e-6 for z in POINTS.values()]
    rep = match_lattices(lat, shifted, radius=1e-3)
    assert not rep.unmatched_predicted
    assert abs(rep.max_err - 1e-6) < 1e-9
    assert abs(rep.mean_err - 1e-6) < 1e-9


def test_match_spurious_computed():
    lat = lattice_of(POINTS)
    comp = list(POINTS.values()) + [5.0 - 5.0j]
    rep = match_lattices(lat, comp, radius=1e-3)
    assert not rep.unmatched_predicted
    assert rep.unmatched_computed == [5.0 - 5.0j]


def test_match_missing_computed():
    lat = lattice_of(POINTS)
    comp = [POINTS[(0, 0)], POINTS[(1, 0)]]
    rep = match_lattices(lat, comp, radius=1e-3)
    assert len(rep.pairs) == 2
    assert [(e.k, e.l) for e in rep.unmatched_predicted] == [(0, 1)]


def test_match_default_radius():
    lat = lattice_of(POINTS)
    rep = match_lattices(lat, list(POINTS.values()))
    assert abs(rep.radius - 0.45 * lat.min_separation()) < 1e-12


def test_match_swap_symmetry():
    # swapping roles relabels but pairs the same values
    lat = lattice_of(POINTS)
    comp = [z + 2e-7 for z in POINTS.values()]
    rep = match_lattices(lat, comp, radius=1e-3)
    lat2 = lattice_of({kl: z + 2e-7 for kl, z in POINTS.items()})
    rep2 = match_lattices(lat2, list(POINTS.values()), radius=1e-3)
    key = lambda t: (t[0].real, t[0].imag)
    pairs1 = sorted(((p.predicted, p.computed) for p in rep.pairs), key=key)
    pairs2 = sorted(((p.computed, p.predicted) for p in rep2.pairs), key=key)
    assert all(abs(a - c) < 1e-12 and abs(b - d) < 1e-12
               for (a, b), (c, d) in zip(pairs1, pairs2))


def test_match_deterministic():
    lat = lattice_of(POINTS)
    comp = [z + 1e-8 for z in POINTS.values()]
    r1 = match_lattices(lat, comp, radius=1e-3)
    r2 = match_lattices(lat, comp, radius=1e-3)
    assert [(p.k, p.l, p.computed) for p in r1.pairs] == [
        (p.k, p.l, p.computed) for p in r2.pairs
    ]


def test_match_gives_what_the_per_entry_scan_gives(rng):
    # points on a half-integer grid, so that distances tie exactly, with
    # empty lattices and eigenvalue lists, every input form and radius;
    # every report field is compared through its repr, which keeps the
    # bits and the types of the numbers
    def grid(n, noise):
        z = 0.5 * (rng.integers(-4, 5, n) + 1j * rng.integers(-4, 1, n))
        return z + noise * (rng.normal(size=n) + 1j * rng.normal(size=n))

    for case in range(2000):
        entries = grid(int(rng.integers(0, 10)), 0.0 if case % 2 else 0.1)
        lat = ResonanceLattice(
            [LatticeEntry(int(rng.integers(-3, 4)), i, complex(z)) for i, z in enumerate(entries)],
            Window(0.0, 10.0, 10.0), 0.1,
        )
        zs = grid(int(rng.integers(0, 10)), (0.0, 1e-3, 0.2)[case % 3])
        computed = (list(zs), zs, [(z, 1e-12) for z in zs])[case % 4 % 3]
        radius = (None, None, 0.3, 0.75, math.inf)[case % 5]
        got = match_lattices(lat, computed, radius=radius, order=case % 7)
        want = loop_match_lattices(lat, computed, radius=radius, order=case % 7)
        for name in vars(want):
            assert repr(getattr(got, name)) == repr(getattr(want, name)), (case, name)


def test_sweep_exact_for_quadratic_saddle():
    model = SaddleModel(0.0, 1.0, math.sqrt(2.0))
    res = convergence_sweep(
        model, 2, [0.2, 0.1, 0.05], window=Window(0.0, 0.5, 0.4),
        stability_check=False,
    )
    assert res.exact and res.slope is None


def test_sweep_order_improves_with_n():
    spec = PhaseSpec.saddle(6)
    model = SaddleModel(
        0.0, 1.0, math.sqrt(2.0),
        FormalSymbol.monomial(spec, 0.2, alpha=(2, 2)),
    )
    win = Window(0.0, 0.6, 0.45)
    r2 = convergence_sweep(model, 2, [0.2, 0.1, 0.05], window=win,
                           label_cap=2, stability_check=False)
    r4 = convergence_sweep(model, 4, [0.2, 0.1, 0.05], window=win,
                           label_cap=2, stability_check=False)
    assert r2.slope is not None and r4.slope is not None
    assert r4.slope > r2.slope
    for h in (0.1, 0.05):
        assert r4.errors[h] <= r2.errors[h] * 1.1


def test_sweep_needs_three_h():
    model = SaddleModel(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        convergence_sweep(model, 2, [0.1, 0.05], window=Window(0.0, 0.5, 0.5))


def test_sweep_cylinder_cubic_slope():
    # cubic angle-dependent perturbation at order 4: the error decays
    # quadratically in h.  The classical elimination steps act on symbols
    # (not by star conjugation), which leaves a resonant h^2 layer of
    # size about 5e-3 h^2 for this model; the measured fit is therefore
    # pinned at two, approached from just below.
    from qbnf.normal_form import CylinderModel
    from qbnf.symbols import TauSeries

    spec = PhaseSpec.cylinder(8, 8)
    pert = FormalSymbol.monomial(spec, 0.1, m=1, alpha=3) + (
        FormalSymbol.monomial(spec, 0.1, m=-1, beta=3)
    )
    model = CylinderModel(TauSeries([0.0, 1.0]), TauSeries([1.0]), pert)
    res = convergence_sweep(
        model, 4, [0.1, 0.05, 0.025], window=Window(0.0, 0.25, 0.2),
        label_cap=3, stability_check=False,
    )
    assert not res.exact
    assert 1.95 <= res.slope <= 2.15
    # frozen from the direct-solver oracle: errors track 4.7e-3 h^2
    for h, err in res.errors.items():
        assert abs(err / (4.7e-3 * h * h) - 1.0) < 0.15, (h, err)
    hs = sorted(res.errors)
    assert res.errors[hs[0]] < res.errors[hs[-1]]


@pytest.mark.parametrize("center", [1.0, 1.5])
def test_auto_basis_reaches_an_off_centre_saddle_window(center):
    # the stable levels run up from energy0: a window centred above it
    # needs levels up to its far edge, or its points go unmatched
    model, h, window = SaddleModel(0.0, 1.0, math.sqrt(2.0)), 0.05, Window(center, 0.3, 0.5)
    nf, _ = equilibrium_bnf(model, 2)
    accepted, flagged, _ = direct_spectrum(
        model_operator_symbol(model), auto_basis(model, window, h),
        window.inflated(MATCH_WINDOW_PAD))
    report = match_lattices(predicted_lattice(nf, h, window), accepted)
    assert len(report.pairs) == 80
    assert not report.unmatched_predicted and not flagged


def test_auto_basis_of_a_saddle_window_centred_at_energy0_is_unchanged():
    # levels2 = ceil(1.4 half_width / (lam2 h)) + 8, as sized before the
    # window's offset from energy0 entered
    for energy0, h, half_width, depth, levels in ((0.0, 0.05, 0.5, 0.5, (22, 18)),
                                                  (0.0, 0.025, 0.7, 0.5, (36, 36)),
                                                  (0.7, 0.1, 0.7, 0.5, (15, 15))):
        model = SaddleModel(energy0, 1.0, math.sqrt(2.0))
        assert auto_basis(model, Window(energy0, half_width, depth), h) == \
            SaddleBasis(*levels, h)


def test_auto_basis_centres_a_cylinder_window_at_zero_on_the_energys_preimage():
    # f = 0.5 + tau reaches energy 0 at tau = -0.5, so a window centred
    # exactly at 0 needs Fourier labels around k = -0.5 / h = -10; centred
    # at tau = 0 instead (k -14..14), 12 of its 60 points went unmatched
    # and 2 eigenvalues were flagged
    spec = PhaseSpec.cylinder(8, 8)
    pert = (FormalSymbol.monomial(spec, 0.1, m=1, alpha=3)
            + FormalSymbol.monomial(spec, 0.1, m=-1, beta=3))
    model = CylinderModel(TauSeries([0.5, 1.0]), TauSeries([1.0]), pert)
    h, window = 0.05, Window(0.0, 0.3, 0.25)
    basis = auto_basis(model, window, h)
    assert basis == CylinderBasis(-24, 4, 15, h)
    nf, _ = closed_orbit_bnf(model, 4)
    accepted, flagged, _ = direct_spectrum(
        model_operator_symbol(model), basis, window.inflated(MATCH_WINDOW_PAD))
    report = match_lattices(predicted_lattice(nf, h, window), accepted)
    assert len(report.pairs) == 60
    assert not report.unmatched_predicted and not flagged


def _report(h, errors):
    pairs = [MatchedPair(k, 0, 0j, complex(e), e) for k, e in enumerate(errors)]
    return MatchReport(pairs, [], [], max(errors), 0.0, h)


def test_fit_convergence_fits_the_reports_in_the_label_cap():
    # the pair at k = 3 lies outside label_cap = 2 and must not count
    reports = [_report(h, [1e-3 * h**4, 0.0, 0.0, 1.0]) for h in (0.05, 0.2, 0.1)]
    res = fit_convergence(reports, label_cap=2)
    assert list(res.errors) == [0.2, 0.1, 0.05]
    assert res.errors[0.1] == 1e-3 * 0.1**4
    assert abs(res.slope - 4.0) < 1e-9 and not res.exact
    assert res.reports[0.05] is reports[0]


def test_fit_convergence_rejects_what_it_cannot_fit():
    with pytest.raises(ValueError):
        fit_convergence([_report(h, [h]) for h in (0.2, 0.1)])
    reports = [_report(h, [h]) for h in (0.2, 0.1)] + [MatchReport([], [], [], 0.0, 0.0, 0.05)]
    with pytest.raises(ArithmeticError, match="h=0.05"):
        fit_convergence(reports)


def test_fit_convergence_needs_three_nonzero_errors():
    # two of three h values matched exactly: one point is left, which a
    # line fits with any slope (numpy only warns); it is refused instead
    reports = [_report(0.1, [1e-9]), _report(0.05, [0.0]), _report(0.025, [0.0])]
    with pytest.raises(ArithmeticError, match=r"h = \[0.1, 0.05, 0.025\] only \[0.1\]"):
        fit_convergence(reports)


def test_fit_convergence_discards_a_largest_h_off_the_line():
    hs = (0.2, 0.1, 0.05, 0.025, 0.0125)
    off = fit_convergence([_report(h, [(10.0 if h == 0.2 else 1.0) * h**4]) for h in hs])
    assert off.discarded == [0.2] and abs(off.slope - 4.0) < 1e-9
    clean = fit_convergence([_report(h, [3.0 * h**4]) for h in hs])
    assert clean.discarded == [] and abs(clean.slope - 4.0) < 1e-9
