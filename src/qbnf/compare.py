"""Matching of predicted lattices against computed spectra.

``match_lattices`` pairs lattice points with eigenvalues by mutual
nearest neighbors inside a radius; ``fit_convergence`` fits the decay
order in h of the matched error, over the match reports that
``convergence_sweep`` computes or a scenario run wrote.  ``auto_basis``
sizes the direct-solve basis of a model to a window at h, for both the
sweep and a scenario without a basis override.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lattice import ResonanceLattice, Window, predicted_lattice
from .normal_form import (
    CylinderModel,
    closed_orbit_bnf,
    content_grade,
    content_tau_order,
    cylinder_symbol,
    equilibrium_bnf,
    saddle_symbol,
)
from .quantize import (
    CylinderBasis,
    SaddleBasis,
    complex_scale,
    direct_spectrum,
    metaplectic_substitute,
)
from .symbols import PhaseSpec

__all__ = [
    "MatchedPair",
    "MatchReport",
    "match_lattices",
    "SweepResult",
    "fit_convergence",
    "convergence_sweep",
    "model_operator_symbol",
    "auto_basis",
]


class MatchedPair(NamedTuple):
    k: int
    l: int
    predicted: complex
    computed: complex
    error: float


@dataclass
class MatchReport:
    pairs: list
    unmatched_predicted: list
    unmatched_computed: list
    max_err: float
    mean_err: float
    h: float
    order: int | None = None
    radius: float = 0.0

    @property
    def all_matched(self) -> bool:
        return not self.unmatched_predicted

    def max_err_over(self, label_cap: int) -> float:
        errs = [
            p.error for p in self.pairs if abs(p.k) <= label_cap and p.l <= label_cap
        ]
        return max(errs, default=0.0)


def _computed_values(computed) -> np.ndarray:
    vals = getattr(computed, "eigenvalues", computed)
    if len(vals) and isinstance(vals[0], tuple):
        vals = [v[0] for v in vals]
    return np.asarray(vals, dtype=complex)


def match_lattices(
    pred: ResonanceLattice, computed, radius: float | None = None, order=None
) -> MatchReport:
    """Mutual-nearest-neighbor pairing of a lattice with eigenvalues.

    ``computed`` may be a Spectrum, an array of eigenvalues, or the
    accepted list of ``direct_spectrum``.  The default radius is 0.45
    times the minimum separation of the predicted lattice, which keeps
    the pairing injective for simple lattices.  An entry pairs with its
    nearest eigenvalue (the first, on a tie) when that lies within the
    radius and has the entry as its own nearest lattice point; each
    eigenvalue has one nearest lattice point, so it pairs at most once.
    """
    zs = _computed_values(computed)
    if radius is None:
        sep = pred.min_separation()
        radius = 0.45 * sep if math.isfinite(sep) else math.inf
    if len(zs) == 0 or not pred.entries:
        un_comp = [complex(z) for z in zs]
        return MatchReport([], list(pred.entries), un_comp, 0.0, 0.0, pred.h, order, radius)
    # d[i, j] = |z_i - zs_j|, the distance of entry i to eigenvalue j
    d = np.abs(zs - pred.values()[:, None])
    nearest, back = d.argmin(axis=1), d.argmin(axis=0)
    pairs, un_pred = [], []
    free = np.ones(len(zs), dtype=bool)
    for i, (entry, j) in enumerate(zip(pred.entries, nearest)):
        if d[i, j] > radius or back[j] != i:
            un_pred.append(entry)
            continue
        free[j] = False
        pairs.append(MatchedPair(entry.k, entry.l, entry.z, complex(zs[j]), float(d[i, j])))
    errs = [p.error for p in pairs]
    return MatchReport(
        pairs,
        un_pred,
        [complex(z) for z in zs[free]],
        max(errs, default=0.0),
        float(np.mean(errs)) if errs else 0.0,
        pred.h,
        order,
        radius,
    )


# --------------------------------------------------------------------------
# basis auto-sizing
# --------------------------------------------------------------------------

#: headroom of the auto bases: Fourier modes per side, Hermite levels per axis
_PAD_K, _PAD_LEVELS = 6, 8

#: how far the direct spectrum's window reaches beyond the lattice window,
#: so that partners of boundary points are not lost
MATCH_WINDOW_PAD = 0.02


def auto_basis(model, window: Window, h) -> CylinderBasis | SaddleBasis:
    """Basis covering ``window`` at h with headroom: a cylinder's Fourier range
    and levels, or a saddle's per-axis levels.  A cylinder window's centre
    off the orbit branch through tau = 0 raises ArithmeticError."""
    if isinstance(model, CylinderModel):
        fp0 = model.energy.derivative().coeffs[0].real
        mu0 = model.rate.coeffs[0].real
        offset = model.action / (2.0 * math.pi)
        tau_hw = 1.3 * window.half_width / fp0
        tau0 = model.energy.solve(window.center)
        k_lo = int(math.floor((tau0 - tau_hw + offset) / h)) - _PAD_K
        k_hi = int(math.ceil((tau0 + tau_hw + offset) / h)) + _PAD_K
        levels = int(math.ceil(1.4 * window.depth / (mu0 * h))) + _PAD_LEVELS
        return CylinderBasis(k_lo, k_hi, levels, h, model.action, model.orientable)
    l1 = int(math.ceil(1.4 * window.depth / (model.unstable_rate * h))) + _PAD_LEVELS
    # the stable levels run up from energy0, so they must reach the window's far edge
    reach = abs(window.center - model.energy0) + window.half_width
    l2 = int(math.ceil(1.4 * reach / (model.stable_freq * h))) + _PAD_LEVELS
    return SaddleBasis(l1, l2, h)


# --------------------------------------------------------------------------
# convergence sweeps
# --------------------------------------------------------------------------

@dataclass
class SweepResult:
    slope: float | None
    errors: dict
    exact: bool
    discarded: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)

    #: below this matched error the fit is meaningless and flagged exact
    EXACT_FLOOR = 1e-11


def model_operator_symbol(model):
    """The symbol the direct route quantizes: every model term, whatever the BNF order."""
    g = content_grade(model)
    if isinstance(model, CylinderModel):
        spec = PhaseSpec.cylinder(g, max(g, content_tau_order(model)), model.orientable)
        return metaplectic_substitute(cylinder_symbol(model, spec))
    return complex_scale(saddle_symbol(model, PhaseSpec.saddle(g)))


def convergence_sweep(
    model,
    order: int,
    h_values,
    *,
    window: Window,
    label_cap: int = 3,
    stability_check: bool = True,
) -> SweepResult:
    """Fit the decay order of the lattice-versus-direct error in h.

    For each h the ``predicted_lattice`` inside ``window`` is matched
    against the ``direct_spectrum`` on the ``auto_basis`` (in the window
    inflated by ``MATCH_WINDOW_PAD``), and ``fit_convergence`` fits the
    reports.
    """
    bnf = closed_orbit_bnf if isinstance(model, CylinderModel) else equilibrium_bnf
    nf, _ = bnf(model, order)
    sym = model_operator_symbol(model)

    reports = []
    for h in h_values:
        accepted, _, _ = direct_spectrum(
            sym, auto_basis(model, window, h), window.inflated(MATCH_WINDOW_PAD),
            stability_check=stability_check,
        )
        reports.append(match_lattices(predicted_lattice(nf, h, window), accepted, order=order))
    return fit_convergence(reports, label_cap)


def fit_convergence(reports, label_cap: int = 3) -> SweepResult:
    """Fit the decay order in h of the matched error of ``reports``.

    The fitted quantity is log(max matched error over quantum numbers up
    to ``label_cap``) against log h, one point per non-zero error; the
    largest h is discarded as ``_fit_slope`` says.  Runs whose errors sit
    at rounding level are flagged exact instead of fitted.  Raises
    ArithmeticError when a report has no matched pair within the label
    cap, or when fewer than three h values have a non-zero error.
    """
    reports = {r.h: r for r in sorted(reports, key=lambda r: r.h, reverse=True)}
    if len(reports) < 3:
        raise ValueError("need at least three h values for a slope fit")
    errors: dict[float, float] = {}
    for h, rep in reports.items():
        if not any(abs(p.k) <= label_cap and p.l <= label_cap for p in rep.pairs):
            raise ArithmeticError(
                f"no lattice point with quantum numbers <= {label_cap} matched at h={h}"
            )
        errors[h] = rep.max_err_over(label_cap)

    if max(errors.values()) < SweepResult.EXACT_FLOOR:
        return SweepResult(None, errors, True, [], reports)

    hs = [h for h in reports if errors[h] > 0]
    if len(hs) < 3:
        raise ArithmeticError(
            f"a slope fit needs three h values with a non-zero matched error; "
            f"of h = {list(reports)} only {hs} have one"
        )
    slope, discarded = _fit_slope(hs, [errors[h] for h in hs])
    return SweepResult(slope, errors, False, discarded, reports)


def _fit_slope(hs, errs):
    """Slope of log err against log h (``hs`` descending), and the h values discarded.

    With four or more points, the largest h is discarded when it lies off
    the line through the others by more than three times their RMS
    residual from it, or than 1e-9 (rounding) if that is larger.
    """
    x = np.log(np.asarray(hs, dtype=float))
    y = np.log(np.asarray(errs, dtype=float))
    if len(hs) > 3:
        rest = np.polyfit(x[1:], y[1:], 1)
        rms = float(np.sqrt(np.mean((y[1:] - np.polyval(rest, x[1:])) ** 2)))
        if abs(y[0] - np.polyval(rest, x[0])) > 3.0 * max(rms, 1e-9):
            return float(rest[0]), [hs[0]]
    return float(np.polyfit(x, y, 1)[0]), []
