#!/usr/bin/env python3
"""Non-orientable orbit: half-integer modes shift the quantization rule.

When the Poincare eigenvalues are negative the transverse coordinates are
anti-periodic around the orbit, perturbations carry half-integer Fourier
modes, and the Floquet quantum number enters as k + l/2 instead of k.
The script quantizes an anti-periodic perturbation and shows that the
spectrum follows the half-shift rule while the integer rule misses the
odd-l rows by about f' h / 2.
"""

from dataclasses import replace

import numpy as np

from qbnf import (
    CylinderBasis,
    CylinderModel,
    TauSeries,
    Window,
    closed_orbit_bnf,
    closed_orbit_lattice,
    direct_spectrum,
    match_lattices,
)
from qbnf.compare import model_operator_symbol
from qbnf.symbols import FormalSymbol, PhaseSpec

spec = PhaseSpec.cylinder(8, 8, orientable=False)
pert = FormalSymbol.monomial(spec, 0.1, m=0.5, alpha=2, beta=1)
model = CylinderModel(
    TauSeries([0.0, 1.0]), TauSeries([1.0]), pert, orientable=False
)

h = 0.05
window = Window(0.0, 0.3, 0.25)
nf, _ = closed_orbit_bnf(model, 4)

accepted, _, _ = direct_spectrum(
    model_operator_symbol(model), CylinderBasis(-15, 15, 30, h, orientable=False),
    window.inflated(0.02),
)

lat_half = closed_orbit_lattice(nf, h, window)
rep = match_lattices(lat_half, accepted)
print(f"half-shift rule: {len(rep.pairs)} matched, max error {rep.max_err:.2e}")

lat_int = closed_orbit_lattice(replace(nf, orientable=True), h, window)
wrong = lat_int.values()
worst = max(float(np.min(np.abs(wrong - p.computed))) for p in rep.pairs)
print(f"integer rule:    nearest-point error up to {worst:.2e} "
      f"(f' h / 2 = {0.5 * h:.3f})")
print(f"rule separation ratio: {worst / max(rep.max_err, 1e-300):.1e}")

print("\nodd-l rows sit between the integer-rule columns:")
print("  k  l     Re z (computed)")
for p in sorted(rep.pairs, key=lambda p: (p.l, p.k))[:8]:
    print(f"{p.k:>3} {p.l:>2}  {p.computed.real:>12.6f}")
