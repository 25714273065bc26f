"""Resonance lattices: quantization rules evaluated on a normal form.

A closed-orbit normal form F(tau, zeta; h) yields the lattice

    z_{k,l} = F(h k - S/2pi, (l + 1/2) h / i; h)          (orientable)
    z_{k,l} = F(h (k + l/2) - S/2pi, (l + 1/2) h / i; h)  (non-orientable)

and an equilibrium normal form F(iota1, iota2; h) yields

    z_{k,l} = F((k + 1/2) h, (l + 1/2) h; h).

The rule itself, label to slot values, is ``NormalFormPoly.arguments``;
the lattices and ``lattice_rescaling_check`` evaluate it and keep no copy.
Lattices are enumerated inside a complex window (an energy interval times
a decay-depth strip); candidate ranges come from the normal form's leading
terms with a safety margin and are then filtered exactly, all labels in
one array pass that gives ``NormalFormPoly.evaluate``'s bits.  A
closed-orbit lattice lists the orbit branch through tau = 0
(``TauSeries.branch``); a window whose margin leaves that branch's
energies raises ArithmeticError.
``predicted_lattice`` picks the lattice of the normal form's kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .normal_form import NormalFormPoly
from .symbols import _cmul

__all__ = [
    "Window",
    "LatticeEntry",
    "ResonanceLattice",
    "predicted_lattice",
    "closed_orbit_lattice",
    "saddle_lattice",
    "homogeneity_check",
    "lattice_rescaling_check",
]


@dataclass(frozen=True)
class Window:
    """Complex acceptance rectangle (E0 - w, E0 + w) - i [0, depth)."""

    center: float
    half_width: float
    depth: float
    im_slack: float = 1e-10

    def __post_init__(self):
        if self.half_width <= 0 or self.depth <= 0:
            raise ValueError("window half_width and depth must be positive")

    def contains(self, z: complex) -> bool:
        return bool(self._holds(z.real, z.imag))

    def _holds(self, re, im):
        """The window test on real and imaginary parts, elementwise on arrays."""
        return ((self.center - self.half_width < re) & (re < self.center + self.half_width)
                & (-self.depth < im) & (im <= self.im_slack))

    def inflated(self, delta: float) -> "Window":
        return replace(
            self,
            half_width=self.half_width + delta,
            depth=self.depth + delta,
            im_slack=self.im_slack + delta,
        )


class LatticeEntry(NamedTuple):
    k: int
    l: int
    z: complex


@dataclass
class ResonanceLattice:
    entries: list
    window: Window
    h: float

    def __len__(self):
        return len(self.entries)

    def values(self) -> np.ndarray:
        return np.array([e.z for e in self.entries], dtype=complex)

    def min_separation(self) -> float:
        zs = self.values()
        if len(zs) < 2:
            return math.inf
        d = np.abs(zs[:, None] - zs[None, :])
        np.fill_diagonal(d, np.inf)
        return float(d.min())


_MARGIN = 1.2  # enumeration safety margin before exact filtering


def predicted_lattice(
    nf: NormalFormPoly, h: float, window: Window, *, k_cap=None, l_cap=None
) -> ResonanceLattice:
    """The windowed lattice of ``nf`` by its kind; a closed-orbit lattice has no k cap."""
    if nf.kind != "closed_orbit":
        return saddle_lattice(nf, h, window, k_cap=k_cap, l_cap=l_cap)
    if k_cap is not None:
        raise ValueError("a closed-orbit lattice has no k cap")
    return closed_orbit_lattice(nf, h, window, l_cap=l_cap)


def closed_orbit_lattice(
    nf: NormalFormPoly, h: float, window: Window, *, l_cap: int | None = None
) -> ResonanceLattice:
    """Windowed closed-orbit lattice with quantum numbers (k, l)."""
    if nf.kind != "closed_orbit":
        raise ValueError("normal form is not of closed-orbit kind")
    if h <= 0:
        raise ValueError("h must be positive")
    # tau range of the window's energies, with margin, on the branch of the
    # energy profile through tau = 0
    f = nf.leading_series(0)
    reach = _MARGIN * window.half_width
    try:
        tau_lo, tau_hi = f.solve(window.center - reach), f.solve(window.center + reach)
    except ArithmeticError as exc:
        raise ArithmeticError(f"lattice window {window.center:g} +- {reach:g} (half width "
                              f"with margin): {exc}") from exc
    end_lo, end_hi = f.branch()

    # depth cap on (l + 1/2) h from the decay-rate coefficient
    rate = nf.leading_series(1)
    taus = np.linspace(tau_lo, tau_hi, 16)
    rmin = float(np.min(np.abs(rate(taus)))) if rate.coeffs.any() else 0.0
    if rmin <= 0:
        sigma_cap = window.depth * _MARGIN / h  # degenerate; enumerate generously
    else:
        sigma_cap = window.depth * _MARGIN / rmin
    lmax = max(0, int(math.ceil(sigma_cap / h - 0.5)) + 1)
    if l_cap is not None:
        lmax = min(lmax, l_cap)

    # k of tau = h (k + shift l) - offset over the range, padded by a label
    # but kept strictly inside the branch
    offset = nf.action / (2.0 * math.pi)
    shift = 0.0 if nf.orientable else 0.5
    labels = [
        (k, l)
        for l in range(lmax + 1)
        for k in range(int(max(math.floor((tau_lo + offset) / h - shift * l) - 1,
                               np.floor((end_lo + offset) / h - shift * l) + 1)),
                       int(min(math.ceil((tau_hi + offset) / h - shift * l) + 1,
                               np.ceil((end_hi + offset) / h - shift * l) - 1)) + 1)
    ]
    return _windowed(nf, h, window, labels)


def saddle_lattice(
    nf: NormalFormPoly, h: float, window: Window, *, k_cap=None, l_cap=None
) -> ResonanceLattice:
    """Windowed saddle lattice; k counts the scaled axis, l the stable one."""
    if nf.kind != "equilibrium":
        raise ValueError("normal form is not of equilibrium kind")
    if h <= 0:
        raise ValueError("h must be positive")
    c10 = nf.coeffs.get((1, 0, 0), 0.0)
    c01 = nf.coeffs.get((0, 1, 0), 0.0)
    if c10 == 0 or c01 == 0:
        raise ValueError("normal form lacks its linear action coefficients")
    kmax = int(math.ceil(_MARGIN * window.depth / (abs(c10) * h))) + 1
    # the real part runs from energy0 with the stable action (l + 1/2) h, so
    # both edges of the window's real range bound l
    offset, reach, step = window.center - nf.energy0, _MARGIN * window.half_width, abs(c01) * h
    lmin = max(int(math.floor((offset - reach) / step)) - 1, 0)
    lmax = int(math.ceil((offset + reach) / step)) + 1
    if k_cap is not None:
        kmax = min(kmax, k_cap)
    if l_cap is not None:
        lmax = min(lmax, l_cap)
    labels = [(k, l) for k in range(kmax + 1) for l in range(lmin, lmax + 1)]
    return _windowed(nf, h, window, labels)


def _windowed(nf: NormalFormPoly, h: float, window: Window, labels) -> ResonanceLattice:
    """The points of ``labels`` under the rule of ``nf`` that lie in ``window``, by (k, l).

    One array pass over the labels gives what ``nf.evaluate`` gives per
    label, bit for bit.  The powers of each distinct slot value are Python
    powers; each coefficient forms ((c u^i1) v^i2) h^j as CPython forms
    complex products, and the terms are added from +0.0 in coefficient
    order.
    """
    labels = sorted(labels)
    if not labels:
        return ResonanceLattice([], window, h)
    args = [nf.arguments(k, l, h) for k, l in labels]
    # one row per coefficient, one column per label
    powers = np.array(list(nf.coeffs), dtype=np.int64).reshape(-1, 3).T[:, :, None]
    slots = []
    for s in (0, 1):
        distinct: dict = {}
        at = np.array([distinct.setdefault(a[s], len(distinct)) for a in args])
        tab = np.array([[complex(v ** i) for i in range(powers[s].max(initial=0) + 1)]
                        for v in distinct])
        slots.append((tab.real[at, powers[s]], tab.imag[at, powers[s]]))
    (u_re, u_im), (v_re, v_im) = slots
    c = np.array(list(nf.coeffs.values()), dtype=complex)[:, None]
    hj = np.array([h ** j for j in range(powers[2].max(initial=0) + 1)])[powers[2]]
    re, im = np.zeros(len(labels)), np.zeros(len(labels))
    with np.errstate(over="ignore", invalid="ignore"):  # as silent as Python floats
        t_re, t_im = _cmul(c.real, c.imag, u_re, u_im)
        t_re, t_im = _cmul(t_re, t_im, v_re, v_im)
        t_re, t_im = _cmul(t_re, t_im, hj, 0.0)
        for row_re, row_im in zip(t_re, t_im):
            re += row_re
            im += row_im
    entries = [LatticeEntry(*labels[i], complex(re[i], im[i]))
               for i in np.nonzero(window._holds(re, im))[0].tolist()]
    return ResonanceLattice(entries, window, h)


# --------------------------------------------------------------------------
# scaling identities
# --------------------------------------------------------------------------

def homogeneity_check(
    nf: NormalFormPoly, mu: float, eps: float, samples: int, *, seed: int = 0
) -> float:
    """Max relative defect of the rescaling identity of the h-layers.

    With g_j(u, v, eps) := p_j(eps u, eps v) eps^j built from the stored
    layer polynomials p_j, the identity g_j(u/mu, v/mu, mu eps) =
    mu^j g_j(u, v, eps) holds exactly for polynomials; the return value
    is the largest relative deviation over random sample points, i.e.
    floating-point rounding only.
    """
    if not (0.25 <= mu <= 4.0):
        raise ValueError("rescaling factor should be of order one")
    rng = np.random.default_rng(seed)
    scale = max(nf.scale(), 1e-300)
    worst = 0.0
    for _ in range(samples):
        u = rng.uniform(-1.0, 1.0)
        v = rng.uniform(0.1, 1.0)
        for j in nf.h_orders():
            lhs = nf.evaluate_layer(j, eps * mu * (u / mu), eps * mu * (v / mu)) * (
                mu * eps
            ) ** j / mu**j
            rhs = nf.evaluate_layer(j, eps * u, eps * v) * eps**j
            denom = max(abs(lhs), abs(rhs), 1e-12 * scale)
            worst = max(worst, abs(lhs - rhs) / denom)
    return worst


def lattice_rescaling_check(
    nf: NormalFormPoly, h: float, eps: float, labels
) -> float:
    """Max relative defect of the rescaled lattice evaluation.

    Evaluating the h-layers at arguments divided by eps with weights
    (h/eps)^j must reproduce the plain evaluation with weights h^j; this
    is the lattice form of the homogeneity identity.
    """
    worst = 0.0
    scale = max(nf.scale(), 1e-300)
    for k, l in labels:
        u, v = nf.arguments(k, l, h)
        plain = 0j
        rescaled = 0j
        for j in nf.h_orders():
            plain += nf.evaluate_layer(j, u, v) * h**j
            rescaled += (
                nf.evaluate_layer(j, eps * (u / eps), eps * (v / eps))
                * eps**j
                * (h / eps) ** j
            )
        denom = max(abs(plain), abs(rescaled), 1e-12 * scale)
        worst = max(worst, abs(plain - rescaled) / denom)
    return worst
