"""Lattice enumeration, windowing and scaling-identity tests."""

import math

import pytest
from dataclasses import replace

from qbnf.lattice import (
    Window,
    closed_orbit_lattice,
    homogeneity_check,
    lattice_rescaling_check,
    predicted_lattice,
    saddle_lattice,
)
from qbnf.normal_form import (
    CylinderModel,
    NormalFormPoly,
    SaddleModel,
    closed_orbit_bnf,
    equilibrium_bnf,
)
from qbnf.symbols import FormalSymbol, PhaseSpec, TauSeries


NF_LIN = NormalFormPoly("closed_orbit", {(1, 0, 0): 1.0, (0, 1, 0): 1.0}, 2)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0.0, -1.0, 0.5)
    w = Window(0.0, 0.5, 0.3)
    assert w.contains(0.2 - 0.1j)
    assert not w.contains(0.2 + 0.1j)
    assert not w.contains(0.7 - 0.1j)


def test_closed_orbit_lattice_direct_substitution():
    lat = closed_orbit_lattice(NF_LIN, 0.1, Window(0.0, 0.35, 0.35))
    got = {(e.k, e.l): e.z for e in lat.entries}
    for (k, l), z in got.items():
        assert abs(z - (0.1 * k - 1j * (l + 0.5) * 0.1)) < 1e-14
    assert (0, 0) in got and (-3, 2) in got


def test_closed_orbit_lattice_rate_two():
    nf = NormalFormPoly("closed_orbit", {(1, 0, 0): 1.0, (0, 1, 0): 2.0}, 2)
    lat = closed_orbit_lattice(nf, 0.1, Window(0.0, 0.3, 0.5))
    for e in lat.entries:
        assert abs(e.z.imag + 2 * (e.l + 0.5) * 0.1) < 1e-14


def test_closed_orbit_lattice_nonorientable_halfshift():
    nf = replace(NF_LIN, orientable=False)
    lat = closed_orbit_lattice(nf, 0.1, Window(0.0, 0.3, 0.3))
    got = {(e.k, e.l): e.z for e in lat.entries}
    assert abs(got[(0, 1)] - (0.05 - 0.15j)) < 1e-14


def test_orientable_vs_nonorientable_even_rows():
    # even-l rows of the half-shift rule coincide with integer-shifted
    # orientable rows; l = 0 rows are identical
    w = Window(0.0, 0.3, 0.3)
    lat_o = closed_orbit_lattice(NF_LIN, 0.1, w)
    lat_n = closed_orbit_lattice(replace(NF_LIN, orientable=False), 0.1, w)
    zo = {(e.k, e.l): e.z for e in lat_o.entries}
    for e in lat_n.entries:
        if e.l % 2 == 0:
            partner = (e.k + e.l // 2, e.l)
            assert partner in zo and abs(zo[partner] - e.z) < 1e-14


def test_saddle_lattice_values_and_window():
    nf = NormalFormPoly("equilibrium", {(1, 0, 0): -1j, (0, 1, 0): 2.0}, 2)
    lat = saddle_lattice(nf, 0.1, Window(0.0, 0.5, 0.5))
    got = {(e.k, e.l): e.z for e in lat.entries}
    assert abs(got[(0, 0)] - (0.1 - 0.05j)) < 1e-14
    assert abs(got[(1, 0)] - (0.1 - 0.15j)) < 1e-14
    narrow = saddle_lattice(nf, 0.1, Window(0.0, 0.01, 0.5))
    assert not narrow.entries


def test_saddle_lattice_reads_an_off_centre_window():
    # the window's real range (0.1, 0.9) lies above energy0 = 0, so the
    # stable label runs from 1 to 12, not from 0 to half_width / (lam2 h)
    nf, _ = equilibrium_bnf(SaddleModel(0.0, 1.0, math.sqrt(2.0)), 4)
    h, window = 0.05, Window(0.5, 0.4, 0.5)
    brute = []
    for k in range(60):
        for l in range(60):
            z = nf.evaluate(*nf.arguments(k, l, h), h)
            if window.contains(z):
                brute.append((k, l, z))
    lat = saddle_lattice(nf, h, window)
    assert len(brute) == 120
    assert [tuple(e) for e in lat.entries] == brute


def test_lattice_window_monotone():
    big = closed_orbit_lattice(NF_LIN, 0.05, Window(0.0, 0.3, 0.3))
    small = closed_orbit_lattice(NF_LIN, 0.05, Window(0.0, 0.15, 0.15))
    big_set = {(e.k, e.l) for e in big.entries}
    for e in small.entries:
        assert (e.k, e.l) in big_set


def test_lattice_labels_unique_and_simple():
    lat = closed_orbit_lattice(NF_LIN, 0.05, Window(0.0, 0.3, 0.3))
    labels = [(e.k, e.l) for e in lat.entries]
    assert len(labels) == len(set(labels))
    assert lat.min_separation() >= 0.05 / 2.0


def test_lattice_im_nonpositive_for_selfadjoint_model():
    spec = PhaseSpec.cylinder(4, 4)
    pert = FormalSymbol.monomial(spec, 0.1, m=1, alpha=3) + FormalSymbol.monomial(
        spec, 0.1, m=-1, alpha=3
    )
    model = CylinderModel(TauSeries([0.0, 1.0]), TauSeries([1.0]), pert)
    nf, _ = closed_orbit_bnf(model, 4)
    lat = closed_orbit_lattice(nf, 0.05, Window(0.0, 0.3, 0.3))
    assert lat.entries
    for e in lat.entries:
        assert e.z.imag <= 1e-10


def test_homogeneity_trivial_monomial():
    nf = NormalFormPoly("equilibrium", {(1, 1, 0): 2.3}, 4)
    assert homogeneity_check(nf, 1.7, 0.1, 10) <= 1e-14


def test_homogeneity_computed_forms():
    spec = PhaseSpec.saddle(6)
    model = SaddleModel(
        0.0, 1.0, math.sqrt(2.0), FormalSymbol.monomial(spec, 0.2, alpha=(2, 2))
    )
    nf, _ = equilibrium_bnf(model, 6)
    assert homogeneity_check(nf, 1.3, 0.05, 50) <= 1e-12

    cyl_spec = PhaseSpec.cylinder(4, 4)
    pert = FormalSymbol.monomial(cyl_spec, 0.1, m=1, alpha=3) + (
        FormalSymbol.monomial(cyl_spec, 0.1, m=-1, beta=3)
    )
    cyl = CylinderModel(TauSeries([0.0, 1.0]), TauSeries([1.0]), pert)
    nf2, _ = closed_orbit_bnf(cyl, 4)
    assert homogeneity_check(nf2, 0.7, 0.1, 50) <= 1e-12


def test_lattice_rescaling_identity():
    spec = PhaseSpec.saddle(6)
    model = SaddleModel(
        0.0, 1.0, math.sqrt(2.0), FormalSymbol.monomial(spec, 0.2, alpha=(2, 2))
    )
    nf, _ = equilibrium_bnf(model, 6)
    labels = [(k, l) for k in range(4) for l in range(4)]
    assert lattice_rescaling_check(nf, 0.05, 0.3, labels) <= 1e-12


def test_lattice_kind_mismatch():
    with pytest.raises(ValueError):
        saddle_lattice(NF_LIN, 0.1, Window(0.0, 0.3, 0.3))
    nfs = NormalFormPoly("equilibrium", {(1, 0, 0): -1j, (0, 1, 0): 1.0}, 2)
    with pytest.raises(ValueError):
        closed_orbit_lattice(nfs, 0.1, Window(0.0, 0.3, 0.3))


def test_predicted_lattice_applies_the_rule_of_the_kind():
    w = Window(0.0, 0.5, 0.5)
    nfs = NormalFormPoly("equilibrium", {(1, 0, 0): -1j, (0, 1, 0): 2.0}, 2)
    for nf, lattice in ((NF_LIN, closed_orbit_lattice), (nfs, saddle_lattice)):
        assert predicted_lattice(nf, 0.1, w, l_cap=1).entries == \
            lattice(nf, 0.1, w, l_cap=1).entries
    assert predicted_lattice(nfs, 0.1, w, k_cap=0).entries == \
        saddle_lattice(nfs, 0.1, w, k_cap=0).entries
    with pytest.raises(ValueError, match="no k cap"):
        predicted_lattice(NF_LIN, 0.1, w, k_cap=1)
