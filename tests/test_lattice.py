"""Lattice enumeration, windowing and scaling-identity tests."""

import math

import numpy as np
import pytest
from dataclasses import replace

from qbnf.lattice import (
    LatticeEntry,
    Window,
    _windowed,
    closed_orbit_lattice,
    homogeneity_check,
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

from conftest import lattice_rescaling_check


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


def _per_label(nf, h, window, labels):
    """The lattice as ``nf.evaluate`` and ``Window.contains`` give it, one label at a time."""
    entries = []
    for k, l in labels:
        z = nf.evaluate(*nf.arguments(k, l, h), h)
        if window.contains(z):
            entries.append(LatticeEntry(k, l, z))
    return sorted(entries, key=lambda e: (e.k, e.l))


def _assert_same_lattice(nf, h, window, labels):
    got = _windowed(nf, h, window, labels).entries
    want = _per_label(nf, h, window, labels)
    assert [(e.k, e.l) for e in got] == [(e.k, e.l) for e in want]
    assert all(type(e.z) is complex for e in got)
    bits = [np.array([e.z for e in x], dtype=complex).view(np.uint64) for x in (got, want)]
    assert np.array_equal(*bits)
    return got


def _computed_forms():
    cyl_spec = PhaseSpec.cylinder(6, 6)
    pert = (FormalSymbol.monomial(cyl_spec, 0.1, m=1, alpha=3)
            + FormalSymbol.monomial(cyl_spec, 0.1, m=-1, beta=3)
            + FormalSymbol.monomial(cyl_spec, 0.05, m=2, a=1, alpha=2, beta=2))
    cyl = CylinderModel(TauSeries([0.0, 1.0, -0.2]), TauSeries([1.0, 0.3]), pert, action=0.7)
    half_spec = PhaseSpec.cylinder(6, 6, orientable=False)
    half = CylinderModel(
        TauSeries([0.0, 1.0]), TauSeries([1.0]),
        FormalSymbol.monomial(half_spec, 0.1, m=0.5, alpha=2, beta=1)
        + FormalSymbol.monomial(half_spec, 0.1, m=-0.5, alpha=1, beta=2)
        + FormalSymbol.monomial(half_spec, 0.05, m=1, alpha=2, beta=2),
        orientable=False,
    )
    sad = SaddleModel(0.3, 1.0, math.sqrt(2.0), FormalSymbol.monomial(
        PhaseSpec.saddle(6), 0.2, alpha=(2, 2)) + FormalSymbol.monomial(
        PhaseSpec.saddle(6), 0.05, alpha=(1, 1), beta=(1, 1), j=1))
    return [closed_orbit_bnf(cyl, 6)[0], closed_orbit_bnf(half, 6)[0], equilibrium_bnf(sad, 6)[0]]


def test_array_lattice_gives_the_per_label_bits():
    nfs = _computed_forms()
    assert [nf.orientable for nf in nfs[:2]] == [True, False]
    # a numpy-scalar coefficient, a float one and a signed zero part
    mixed = NormalFormPoly("closed_orbit", {
        (1, 0, 0): np.complex128(1.0 - 1e-3j), (0, 1, 0): 1.0, (2, 1, 0): complex(0.3, -0.0),
        (0, 2, 1): np.complex128(-2.5 + 5j), (3, 1, 2): 7.3j, (1, 3, 1): 0.9 - 1.1j}, 4,
        action=0.4)
    nfs += [mixed, replace(mixed, orientable=False),
            replace(mixed, kind="equilibrium", energy0=0.1)]
    labels, inside = [(k, l) for k in range(-20, 21) for l in range(12)], 0
    for nf in nfs:
        for h in (0.1, 0.05, 0.37):
            window = Window(nf.energy0 + 0.05, 0.4, 0.3)
            inside += len(_assert_same_lattice(nf, h, window, labels))
            # a window that holds every label compares every label's bits
            everything = Window(0.0, 1e300, 1e300, 1e300)
            assert len(_assert_same_lattice(nf, h, everything, labels)) == len(labels)
            lattice = predicted_lattice(nf, h, window)
            assert lattice.entries == _per_label(
                nf, h, window, [(e.k, e.l) for e in lattice.entries])
    assert inside > 300


def test_array_lattice_of_no_label_or_no_point():
    nf = _computed_forms()[0]
    assert _windowed(nf, 0.1, Window(0.0, 0.3, 0.3), []).entries == []
    # every label lies far below the window's depth
    labels = [(k, l) for k in range(5) for l in range(40, 44)]
    assert _assert_same_lattice(nf, 0.1, Window(0.0, 0.3, 0.3), labels) == []
    empty = NormalFormPoly("equilibrium", {}, 2)
    assert [e.z for e in _assert_same_lattice(empty, 0.1, Window(0.0, 0.3, 0.3), [(0, 0)])] == [0j]


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


@pytest.mark.parametrize("name, end, centers, half_width", [
    # the bundled cylinders at their own h and window, and the workload
    # cylinder at h = 0.1; ``end`` bounds the orbit branch through tau = 0
    ("cylinder_cubic", (-math.inf, math.inf), (0.0, 0.5, -0.7), None),
    ("nonorientable_halfmode", (-math.inf, math.inf), (0.0, 0.4), None),
    ("cylinder_unperturbed", (-1.0 / 0.6, math.inf), (0.0, 1.0, -0.5), None),
    ("workload", (-math.inf, 2.5), (0.8, -1.5, 0.0, 0.95), None),
    # a window so narrow at the top of the branch that its margin stays on
    # it while the labels just past the fold (tau = 2.6, energy 1.248)
    # fall inside the window
    ("workload", (-math.inf, 2.5), (1.2435,), 0.005),
])
def test_closed_orbit_lattice_lists_every_branch_point_in_the_window(name, end, centers,
                                                                     half_width):
    from conftest import workload_cylinder
    from qbnf.scenario import compute_normal_form, load_config

    for center in centers:
        if name == "workload":
            config = load_config(workload_cylinder(center, half_width or 0.2))
        else:
            raw = load_config(name).canonical()
            raw["model"]["energy0"] = center
            config = load_config(raw)
        nf, _ = compute_normal_form(config)
        h, window = config.h_values[0], config.window()
        box = [(k, l) for k in range(-200, 201) for l in range(40)
               if end[0] < nf.arguments(k, l, h)[0] < end[1]]
        want = _windowed(nf, h, window, box).entries
        assert want and max(l for _, l, _ in want) < 39
        got = closed_orbit_lattice(nf, h, window).entries
        assert [(e.k, e.l) for e in got] == [(e.k, e.l) for e in want], (name, center)
        assert all(a.z.real.hex() == b.z.real.hex() and a.z.imag.hex() == b.z.imag.hex()
                   for a, b in zip(got, want)), (name, center)
