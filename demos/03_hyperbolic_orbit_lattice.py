#!/usr/bin/env python3
"""Resonances generated by a hyperbolic closed orbit (cylinder model).

The model is f(tau) + mu(tau) x xi + 0.1 (e^{it} x^3 + e^{-it} xi^3) on
the cylinder: f = tau fixes the energy along the orbit family, mu = 1 the
expansion rate.  The normal form removes the cubic angle-dependent terms
and leaves a polynomial in (tau, x xi, h) whose lattice

    z(k, l) = F(h k - S/2pi, (l + 1/2) h / i; h)

predicts the spectrum of the quantized model to a power of h set by the
truncation order.
"""

from qbnf import (
    CylinderBasis,
    CylinderModel,
    TauSeries,
    Window,
    closed_orbit_bnf,
    closed_orbit_lattice,
    direct_spectrum,
    match_lattices,
    orbit_diagnostics,
)
from qbnf.compare import model_operator_symbol
from qbnf.symbols import FormalSymbol, PhaseSpec

spec = PhaseSpec.cylinder(8, 8)
pert = FormalSymbol.monomial(spec, 0.1, m=1, alpha=3) + (
    FormalSymbol.monomial(spec, 0.1, m=-1, beta=3)
)
model = CylinderModel(TauSeries([0.0, 1.0]), TauSeries([1.0]), pert)

diag = orbit_diagnostics(model.energy, model.rate, 0.0)
print(f"orbit at E = 0: period {diag.period:.4f}, "
      f"Poincare multiplier {diag.multiplier:.1f}\n")

order, h = 4, 0.05
nf, chain = closed_orbit_bnf(model, order)
print(f"normal form at order {order} ({len(chain.steps)} elimination steps):")
for key, val in sorted(nf.coeffs.items()):
    print(f"  tau^{key[0]} zeta^{key[1]} h^{key[2]}: {val:+.6f}")
print()

window = Window(0.0, 0.4, 0.3)
lattice = closed_orbit_lattice(nf, h, window)

accepted, flagged, _ = direct_spectrum(
    model_operator_symbol(model), CylinderBasis(-12, 12, 24, h), window.inflated(0.02)
)
report = match_lattices(lattice, accepted, order=order)

print(f"{len(lattice)} predicted, {len(accepted)} computed in window, "
      f"{len(flagged)} flagged unstable")
print(f"matched: {len(report.pairs)}, max error {report.max_err:.2e} "
      f"(5 h^2.5 = {5 * h ** 2.5:.2e})\n")

print("  k  l     Re pred     Im pred      |error|")
for p in sorted(report.pairs, key=lambda p: (p.k, p.l))[:10]:
    print(f"{p.k:>3} {p.l:>2}  {p.predicted.real:>10.6f} "
          f"{p.predicted.imag:>11.6f}   {p.error:.2e}")
print("  ...")
