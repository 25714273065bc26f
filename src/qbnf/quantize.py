"""Exact matrix assembly of model operators in spectral bases.

The cylinder operator acts on the Floquet space of functions with
u(t - 2 pi, x) = e^{iS/h} u(t, +-x); its basis is indexed by a Fourier
mode k and a Hermite level l.  The action of hD_t on the basis vector
(k, l) is tau_{k,l} = h k - S/2pi in the orientable case and
h (k + l/2) - S/2pi in the non-orientable one.  The saddle operator acts
on a two-axis Hermite basis.

Matrix elements are exact:

* a factor e^{imt} g(tau) contributes g evaluated at the midpoint of the
  two tau eigenvalues it connects (the Weyl midpoint rule, exact for any
  polynomial g);
* a transverse monomial is quantized through the symmetrization rule
  W(y s) = (Y W(s) + W(s) Y)/2 with the ladder matrices
  Y = sqrt(h/2)(A* + A), H = i sqrt(h/2)(A* - A), which is exact for
  Weyl quantization with linear factors.  Products are computed on an
  enlarged level range and cropped, so every retained entry equals the
  infinite-basis matrix element.

An assembled operator is an ``eigensolve.OperatorMatrix`` (re-exported
here) of canonical triplets: the non-zero entries in row-major order,
each summed from +0.0 over its contributions in the order the terms list
them, exact zeros dropped.
Each term adds its contributions in one vectorised step over the non-zeros
of its Weyl monomial(s); the dense array is built only when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .eigensolve import OperatorMatrix
from .symbols import FormalSymbol, _cmul, _columns, substitute_pair

__all__ = [
    "DimensionCapError",
    "DIM_CAP",
    "CylinderBasis",
    "SaddleBasis",
    "OperatorMatrix",
    "complex_scale",
    "metaplectic_substitute",
    "ladder_position",
    "ladder_momentum",
    "weyl_monomial_matrix",
    "assemble_cylinder",
    "assemble_saddle",
    "direct_spectrum",
]

#: cap on assembled matrix dimension
DIM_CAP = 5000

#: Fourier modes and Hermite levels the stability check adds on each side
_WIDEN_K, _WIDEN_LEVELS = 5, 10

#: how far a windowed eigenvalue may move under the widening and be kept
_STABILITY_TOL = 1e-6


class DimensionCapError(ValueError):
    """Requested basis exceeds the dimension cap DIM_CAP."""


# --------------------------------------------------------------------------
# bases
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderBasis:
    """Floquet-Fourier x Hermite basis for the cylinder operator."""

    k_min: int
    k_max: int
    levels: int  # highest Hermite level L; levels + 1 states per k
    h: float
    action: float = 0.0
    orientable: bool = True

    def __post_init__(self):
        if self.k_max < self.k_min:
            raise ValueError("empty Fourier range")
        if self.levels < 0:
            raise ValueError("levels must be nonnegative")
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.dim > DIM_CAP:
            raise DimensionCapError(f"basis dimension {self.dim} exceeds cap {DIM_CAP}")

    @property
    def num_k(self) -> int:
        return self.k_max - self.k_min + 1

    @property
    def dim(self) -> int:
        return self.num_k * (self.levels + 1)

    def widened(self) -> "CylinderBasis":
        return CylinderBasis(
            self.k_min - _WIDEN_K,
            self.k_max + _WIDEN_K,
            self.levels + _WIDEN_LEVELS,
            self.h,
            self.action,
            self.orientable,
        )


@dataclass(frozen=True)
class SaddleBasis:
    """Two-axis Hermite basis for the scaled saddle operator."""

    levels1: int
    levels2: int
    h: float

    def __post_init__(self):
        if self.levels1 < 0 or self.levels2 < 0:
            raise ValueError("levels must be nonnegative")
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.dim > DIM_CAP:
            raise DimensionCapError(f"basis dimension {self.dim} exceeds cap {DIM_CAP}")

    @property
    def dim(self) -> int:
        return (self.levels1 + 1) * (self.levels2 + 1)

    def widened(self) -> "SaddleBasis":
        return SaddleBasis(self.levels1 + _WIDEN_LEVELS, self.levels2 + _WIDEN_LEVELS, self.h)


_NO_ENTRIES = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0, dtype=complex))


def _summed(parts, n: int) -> OperatorMatrix:
    """n x n OperatorMatrix of the (rows, cols, values) ``parts``, summed in assembly order."""
    rows, cols, values = (np.concatenate(arrays) for arrays in zip(*parts, _NO_ENTRIES))
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    summed = np.empty(len(keys), dtype=complex)
    # np.bincount adds each slot's weights in input order, starting from +0.0
    summed.real = np.bincount(slot, values.real, len(keys))
    summed.imag = np.bincount(slot, values.imag, len(keys))
    keep = summed != 0
    keys = keys[keep]
    return OperatorMatrix(n, keys // n, keys % n, summed[keep])


# --------------------------------------------------------------------------
# symbol-side canonical identifications
# --------------------------------------------------------------------------

def complex_scale(symbol: FormalSymbol) -> FormalSymbol:
    """Rotate the first axis: x1 -> e^{i pi/4} x1, xi1 -> e^{-i pi/4} xi1.

    Each term picks up the phase e^{i pi (alpha1 - beta1)/4}; bracket
    relations are preserved.  Turns the hyperbolic axis of a saddle into
    a damped oscillator axis with coefficient lam1/(2i).
    """
    keys, re, im = _columns(symbol)
    g, P = symbol.spec.grade_max, symbol.spec.num_pairs
    # the phase of each alpha1 - beta1 in [-g, g], as numpy forms it for a Python complex
    phase = np.array([np.exp(0.25j * math.pi * d) for d in range(-g, g + 1)])[
        keys[2] - keys[2 + P] + g]
    return symbol._with_coefficients(*_cmul(re, im, phase.real, phase.imag))


def metaplectic_substitute(symbol: FormalSymbol) -> FormalSymbol:
    """Identify the hyperbolic pair with an oscillator pair.

    The canonical substitution x -> (y - i eta)/sqrt(2),
    xi -> (-i y + eta)/sqrt(2) sends x xi to (y^2 + eta^2)/(2i); the
    output symbol is written in (y, eta), stored in the same pair slot.
    """
    spec = symbol.spec
    if not spec.has_angle:
        raise ValueError("metaplectic identification applies to cylinder symbols")
    s = 1.0 / math.sqrt(2.0)
    return substitute_pair(symbol, 0, (s, -1j * s), (-1j * s, s))


# --------------------------------------------------------------------------
# ladder matrices and Weyl monomials
# --------------------------------------------------------------------------

def ladder_position(n: int, h: float) -> np.ndarray:
    """Matrix of y on Hermite levels 0..n-1: sqrt(h/2)(A* + A)."""
    r = np.sqrt(0.5 * h * np.arange(1, n))
    M = np.zeros((n, n), dtype=complex)
    M[np.arange(1, n), np.arange(n - 1)] = r
    M[np.arange(n - 1), np.arange(1, n)] = r
    return M


def ladder_momentum(n: int, h: float) -> np.ndarray:
    """Matrix of eta = hD_y on Hermite levels 0..n-1: i sqrt(h/2)(A* - A)."""
    r = np.sqrt(0.5 * h * np.arange(1, n))
    M = np.zeros((n, n), dtype=complex)
    M[np.arange(1, n), np.arange(n - 1)] = 1j * r
    M[np.arange(n - 1), np.arange(1, n)] = -1j * r
    return M


def weyl_monomial_matrix(p: int, q: int, levels: int, h: float) -> np.ndarray:
    """Exact Weyl quantization of y^p eta^q on levels 0..levels.

    Built by the symmetrization recursion on an enlarged level range so
    that every returned entry equals the infinite-basis matrix element.
    """
    n = levels + 1 + p + q
    Y = ladder_position(n, h)
    E = ladder_momentum(n, h)
    M = np.eye(n, dtype=complex)
    for _ in range(q):
        M = 0.5 * (E @ M + M @ E)
    for _ in range(p):
        M = 0.5 * (Y @ M + M @ Y)
    return M[: levels + 1, : levels + 1]


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------

def _nonzeros(F: np.ndarray):
    """Row indices, column indices and values of F's non-zeros, row-major."""
    r, c = np.nonzero(F)
    return r, c, F[r, c]


def assemble_cylinder(symbol: FormalSymbol, basis: CylinderBasis) -> OperatorMatrix:
    """Matrix of the Weyl quantization of a cylinder symbol.

    The symbol must already be in oscillator coordinates (after
    ``metaplectic_substitute``), with the basis's orientability (its key
    rules are the symbol's own).  Entries are exact; couplings leaving
    the Fourier window or the level range are dropped, which affects the
    spectrum only through the usual basis-truncation error.  Each term
    contributes, for every non-zero W[l', l] of its Weyl monomial (l-major,
    then l') and every k, the entry ((k', l'), (k, l)).
    """
    spec = symbol.spec
    if not spec.has_angle:
        raise ValueError("assemble_cylinder expects a cylinder symbol")
    if spec.orientable != basis.orientable:
        raise ValueError("symbol and basis orientability flags disagree")
    L = basis.levels
    ks = np.arange(basis.k_min, basis.k_max + 1)
    # tau of the column (k, l), one row per level l
    shift = np.zeros(L + 1) if basis.orientable else 0.5 * np.arange(L + 1)
    col_tau = basis.h * (ks + shift[:, np.newaxis]) - basis.action / (2.0 * math.pi)
    # (l, l', W[l', l]) of a Weyl monomial's non-zeros, l-major, once per (p, q)
    weyl = cache(lambda p, q: _nonzeros(weyl_monomial_matrix(p, q, L, basis.h).T))
    parts = []

    for (m2, a, alpha, beta, j), c in symbol.terms.items():
        l, lp, w = weyl(alpha[0], beta[0])
        if basis.orientable:
            dk = np.full(len(l), m2 // 2)
        else:
            num = m2 + (l - lp)
            even = num % 2 == 0  # the other level transitions are parity-forbidden
            l, lp, w, dk = l[even], lp[even], w[even], num[even] // 2
        base = c * basis.h**j
        mid = col_tau + 0.25 * m2 * basis.h
        weight = base * mid**a if a else base * np.ones_like(mid)
        kp = ks + dk[:, np.newaxis]
        sel = (kp >= basis.k_min) & (kp <= basis.k_max)
        rows = (kp - basis.k_min) * (L + 1) + lp[:, np.newaxis]
        cols = (ks - basis.k_min) * (L + 1) + l[:, np.newaxis]
        parts.append((rows[sel], cols[sel], (weight[l] * w[:, np.newaxis])[sel]))
    return _summed(parts, basis.dim)


def assemble_saddle(symbol: FormalSymbol, basis: SaddleBasis) -> OperatorMatrix:
    """Matrix of the Weyl quantization of a two-pair polynomial symbol.

    Each term contributes the non-zeros of the Kronecker product of its two
    factors' Weyl monomials, scaled by c h^j.
    """
    spec = symbol.spec
    if spec.has_angle:
        raise ValueError("assemble_saddle expects a two-pair symbol")
    n2 = basis.levels2 + 1
    # each axis's Weyl monomial non-zeros, once per (p, q)
    weyl1, weyl2 = (cache(lambda p, q, n=n: _nonzeros(weyl_monomial_matrix(p, q, n, basis.h)))
                    for n in (basis.levels1, basis.levels2))
    parts = []
    for (m2, a, alpha, beta, j), c in symbol.terms.items():
        r1, c1, v1 = weyl1(alpha[0], beta[0])
        r2, c2, v2 = weyl2(alpha[1], beta[1])
        parts.append((
            (r1[:, np.newaxis] * n2 + r2).ravel(),
            (c1[:, np.newaxis] * n2 + c2).ravel(),
            ((c * basis.h**j) * (v1[:, np.newaxis] * v2)).ravel(),
        ))
    return _summed(parts, basis.dim)


# --------------------------------------------------------------------------
# direct spectra with truncation-stability control
# --------------------------------------------------------------------------

def direct_spectrum(
    symbol: FormalSymbol,
    basis: CylinderBasis | SaddleBasis,
    window,
    *,
    stability_check=True,
):
    """Windowed eigenvalues of the assembled operator, spurious ones flagged.

    Solves the operator on ``basis`` and, when ``stability_check`` is
    set, again on ``basis.widened()``; eigenvalues that move more than
    1e-6 under the widening are flagged as truncation artifacts rather
    than silently dropped.  Without the widened spectrum every windowed
    eigenvalue is accepted.  Both solves are ``eigenvalues``' one block
    solve from the assembled triplets, neither operator made dense: the
    base operator, whose eigenvalues and residuals are returned, in its
    default partition, and the widened one, whose eigenvalues feed only
    the 1e-6 test, ``blockwise`` (assembly rounding, about 1e-17 of its
    largest entry, does not join its blocks).

    The widened basis is built first, so one over DIM_CAP fails before
    any solve.  The base operator is then assembled and solved, and only
    after that the widened one: the heap its larger assembly grows is not
    resident through the base solve, the largest dense eigensolve.

    Returns
    -------
    accepted : list of (eigenvalue, residual)
    flagged : list of eigenvalue
    spectrum : Spectrum
        Full certified spectrum of the base matrix, which it keeps as
        ``spectrum.operator``.
    """
    from .eigensolve import eigenvalues

    assemble = assemble_cylinder if isinstance(basis, CylinderBasis) else assemble_saddle
    wide_basis = basis.widened() if stability_check else None
    spec = eigenvalues(assemble(symbol, basis))
    wide = None
    if stability_check:
        wide = eigenvalues(assemble(symbol, wide_basis), blockwise=True).eigenvalues
    accepted, flagged = [], []
    for z, residual in zip(spec.eigenvalues, spec.residuals):
        if not window.contains(z):
            continue
        if wide is None or np.min(np.abs(wide - z)) <= _STABILITY_TOL:
            accepted.append((z, residual))
        else:
            flagged.append(z)
    return accepted, flagged, spec
