"""Degree-by-degree Birkhoff normal forms, classical and quantum.

Both pipelines run one elimination loop over the joint grade
d = |alpha| + |beta| + 2j, from grade 2 up to the order.  At each grade
it divides the non-resonant part by the homological denominators and
removes it by a Lie transform (classical part) or a star conjugation
(h-part); each pipeline supplies only its starting symbol and division,
the model's own denominators, fixed before the loop starts:

* ``closed_orbit_bnf`` reduces a cylinder model f(tau) + mu(tau) x xi +
  perturbation around a hyperbolic closed orbit; the loop divides by the
  transport denominators i m f'(tau) + mu(tau) (|alpha| - |beta|) of the
  model's f and mu.  Averaging the rate over the angle is its grade-2
  step, where |alpha| - |beta| = 0 leaves the denominator i m f'(tau).
  What survives depends only on (tau, x xi, h).

* ``equilibrium_bnf`` reduces a saddle model after the pi/4 complex
  scaling of the unstable axis.  A per-axis linear canonical change puts
  the quadratic part into nu_1 x1 xi1 + nu_2 x2 xi2 with nu = (lam1,
  i lam2), which is resonant, so the loop's work starts at grade 3; it
  divides by nu . (alpha - beta).  The non-real ratio nu_1/nu_2 keeps
  these at least min |nu_i| in size.

A symbol that outgrows its resonant grade-2 part, the source of these
denominators, until pruning drops it is refused with ArithmeticError.

The resulting resonant Weyl symbol is finally rewritten as a function of
the harmonic actions (the form the quantization rules evaluate): powers
of an action acquire even-h corrections when passed from Weyl-symbol
multiplication to the functional calculus, computed here from the star
powers of the action itself in exact integer arithmetic, independently of
any symbol or matrix code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .symbols import (
    FormalSymbol,
    ModelDegeneracyError,
    PhaseSpec,
    TauSeries,
    _columns,
    _first_occurrence,
    _grades,
    homological_solve,
    lie_transform,
    resonant_project,
    star_conjugate,
    substitute_pair,
)

__all__ = [
    "ModelValidationError",
    "CylinderModel",
    "SaddleModel",
    "NormalFormPoly",
    "GeneratorChain",
    "closed_orbit_bnf",
    "birkhoff_coordinates",
    "equilibrium_bnf",
    "orbit_diagnostics",
    "OrbitDiagnostics",
    "content_grade",
    "content_tau_order",
    "cylinder_symbol",
    "saddle_symbol",
    "replay_chain",
]


class ModelValidationError(ValueError):
    """A model violates its structural invariants."""


# --------------------------------------------------------------------------
# models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderModel:
    """Hyperbolic closed-orbit model f(tau) + mu(tau) x xi + perturbation.

    Parameters
    ----------
    energy : TauSeries
        f(tau), the energy along the orbit family; f'(0) > 0 and f(0) is
        the reference energy.
    rate : TauSeries
        mu(tau) > 0, the hyperbolic expansion rate per unit time.
    perturbation : FormalSymbol or None
        Higher terms: classical terms of grade >= 3 plus h-order >= 1
        lower-order symbols.  A classical grade-2 term proportional to
        x xi with nonzero Fourier mode (an angle-dependent rate) is also
        accepted; the elimination loop averages it away at grade 2.
    orientable : bool
        Sign of the Poincare eigenvalues; False switches on half-integer
        Fourier modes with the anti-periodicity parity constraint.
    action : float
        Loop action S of the orbit, entering quantization as -S/(2 pi).
    energy0 : float or None
        Window reference energy; defaults to f(0).
    """

    energy: TauSeries
    rate: TauSeries
    perturbation: FormalSymbol | None = None
    orientable: bool = True
    action: float = 0.0
    energy0: float | None = None

    def __post_init__(self):
        if not self.energy.is_real() or not self.rate.is_real():
            raise ModelValidationError("energy and rate series must be real")
        fp0 = self.energy.derivative().coeffs[0].real
        if fp0 <= 0:
            raise ModelValidationError(f"energy'(0) must be positive, got {fp0}")
        if self.rate.coeffs[0].real <= 0:
            raise ModelValidationError(
                f"rate(0) must be positive, got {self.rate.coeffs[0].real}"
            )
        if self.perturbation is not None:
            sp = self.perturbation.spec
            if not (sp.has_angle and sp.num_pairs == 1):
                raise ModelValidationError("perturbation must be a cylinder symbol")
            if sp.orientable != self.orientable:
                raise ModelValidationError(
                    "perturbation orientability flag does not match the model"
                )
            for (m2, a, alpha, beta, j), _ in self.perturbation.terms.items():
                deg = alpha[0] + beta[0]
                if j == 0 and deg + 2 * j < 3:
                    if deg == 2 and alpha == beta and m2 != 0:
                        continue  # angle-dependent rate term, removed at grade 2
                    raise ModelValidationError(
                        "classical perturbation terms must have grade >= 3 "
                        f"(offending key m={m2/2}, a={a}, alpha={alpha}, beta={beta})"
                    )

    @property
    def reference_energy(self) -> float:
        if self.energy0 is not None:
            return self.energy0
        return float(self.energy.coeffs[0].real)


@dataclass(frozen=True)
class SaddleModel:
    """Saddle-point model around a critical energy.

    The quadratic part is lam1/2 (xi1^2 - x1^2) + lam2/2 (xi2^2 + x2^2)
    in the prepared coordinates; ``higher`` holds classical terms of
    degree >= 3 and h-order >= 1 symbols on two pairs, before scaling.
    """

    energy0: float
    unstable_rate: float  # lam1 > 0, unstable-axis expansion rate
    stable_freq: float    # lam2 > 0, stable-axis frequency
    higher: FormalSymbol | None = None

    def __post_init__(self):
        if self.unstable_rate <= 0 or self.stable_freq <= 0:
            raise ModelValidationError("both quadratic coefficients must be positive")
        if self.higher is not None:
            sp = self.higher.spec
            if sp.has_angle or sp.num_pairs != 2:
                raise ModelValidationError("higher terms must live on two plain pairs")
            for (m2, a, alpha, beta, j), _ in self.higher.terms.items():
                if j == 0 and sum(alpha) + sum(beta) < 3:
                    raise ModelValidationError(
                        "classical higher terms must have degree >= 3 "
                        f"(offending alpha={alpha}, beta={beta})"
                    )


# --------------------------------------------------------------------------
# normal form container
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalFormPoly:
    """Normal form as the function the quantization rules evaluate.

    For ``kind == 'closed_orbit'`` coefficients map (a, b, j) to the
    coefficient of tau^a zeta^b h^j; the label (k, l) fills tau with
    h (k + l/2) - S/2pi (no l/2 on an orientable orbit) and zeta with
    (l + 1/2) h / i.  For ``kind == 'equilibrium'`` they map (b1, b2, j)
    to the coefficient of iota1^b1 iota2^b2 h^j with iota_i filled by
    (k + 1/2) h and (l + 1/2) h.  ``arguments`` is this rule.
    """

    kind: str  # 'closed_orbit' | 'equilibrium'
    coeffs: dict
    order: int
    action: float = 0.0
    energy0: float = 0.0
    orientable: bool = True

    def __post_init__(self):
        if self.kind not in ("closed_orbit", "equilibrium"):
            raise ValueError(f"unknown normal form kind {self.kind!r}")

    def evaluate(self, arg1, arg2, h) -> complex:
        """Value at (tau, zeta, h) or (iota1, iota2, h)."""
        total = 0j
        for (i1, i2, j), c in self.coeffs.items():
            total += c * arg1**i1 * arg2**i2 * h**j
        return complex(total)

    def arguments(self, k: int, l: int, h: float) -> tuple:
        """The slot values of the label (k, l): the quantization rule of the kind."""
        if self.kind == "equilibrium":
            return (k + 0.5) * h, (l + 0.5) * h
        shift = 0.0 if self.orientable else 0.5 * l
        return h * (k + shift) - self.action / (2.0 * math.pi), (l + 0.5) * h / 1j

    def h_layer(self, j) -> dict:
        """Coefficients of h^j as a polynomial in the two slot variables."""
        return {(i1, i2): c for (i1, i2, jj), c in self.coeffs.items() if jj == j}

    def h_orders(self):
        return sorted({j for (_, _, j) in self.coeffs})

    def evaluate_layer(self, j, arg1, arg2) -> complex:
        total = 0j
        for (i1, i2), c in self.h_layer(j).items():
            total += c * arg1**i1 * arg2**i2
        return complex(total)

    def scale(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def leading_series(self, slot=0) -> TauSeries:
        """Closed-orbit helper: the tau series multiplying zeta^slot at h^0."""
        if self.kind != "closed_orbit":
            raise ValueError("leading_series applies to closed-orbit forms")
        amax = max((a for (a, b, j) in self.coeffs if b == slot and j == 0), default=0)
        c = np.zeros(amax + 1, dtype=complex)
        for (a, b, j), v in self.coeffs.items():
            if b == slot and j == 0:
                c[a] = v
        return TauSeries(c)


@dataclass
class GeneratorChain:
    """Record of the transformations that produced a normal form.

    ``steps`` is the ordered list of (method, grade, generator) with
    method 'lie' (a classical generator) or 'star' (an h-order >= 1
    generator); the elimination loop adds at most one of each per grade
    from grade 2, whatever the division.
    ``normalized_symbol`` is the resonant Weyl symbol the loop converged
    to; a replay starts on its spec.  ``remainder`` holds the terms of
    grade > order seen when the chain is replayed two grades higher; the
    replay costs more than the normal form itself, so it runs on the first
    access and is cached.
    """

    order: int
    model: CylinderModel | SaddleModel = field(repr=False)
    steps: list = field(default_factory=list)
    normalized_symbol: FormalSymbol | None = None

    @cached_property
    def remainder(self) -> FormalSymbol:
        wide = replay_chain(self, grade_max=self.order + 2)
        return wide._select(_grades(wide) > self.order)


# --------------------------------------------------------------------------
# model symbols
# --------------------------------------------------------------------------

def content_grade(model) -> int:
    """Largest joint grade carried by the model's own symbol data.

    The direct quantization route must keep every model term regardless
    of the normal-form truncation order, so assembly specs are sized by
    this value.
    """
    if isinstance(model, CylinderModel):
        extra = model.perturbation
    else:
        extra = model.higher
    if extra is None:
        return 2
    sp = extra.spec
    return max(2, max((sp.grade(k) for k in extra.terms), default=2))


def content_tau_order(model: CylinderModel) -> int:
    """Largest tau power with a non-zero coefficient in the model's series and perturbation."""
    deg = max(int(np.flatnonzero(s.coeffs).max(initial=0)) for s in (model.energy, model.rate))
    if model.perturbation is not None:
        deg = max(deg, max((k[1] for k in model.perturbation.terms), default=0))
    return deg


def cylinder_symbol(model: CylinderModel, spec: PhaseSpec) -> FormalSymbol:
    """Full Weyl symbol of a cylinder model on the given working spec."""
    p = FormalSymbol.from_tau_series(spec, model.energy.resized(spec.tau_max))
    p = p + FormalSymbol.from_tau_series(
        spec, model.rate.resized(spec.tau_max), alpha=1, beta=1
    )
    if model.perturbation is not None:
        p = p + model.perturbation.reembedded(spec)
    return p


def saddle_symbol(model: SaddleModel, spec: PhaseSpec) -> FormalSymbol:
    """Full Weyl symbol of a saddle model (unscaled coordinates)."""
    l1, l2 = model.unstable_rate, model.stable_freq
    o, x1, x2 = (0, 0), (2, 0), (0, 2)
    # distinct keys: the sum of their monomials, built in one pass
    p = FormalSymbol(spec, {
        (0, 0, o, o, 0): model.energy0,
        (0, 0, o, x1, 0): 0.5 * l1,
        (0, 0, x1, o, 0): -0.5 * l1,
        (0, 0, o, x2, 0): 0.5 * l2,
        (0, 0, x2, o, 0): 0.5 * l2,
    })
    if model.higher is not None:
        p = p + model.higher.reembedded(spec)
    return p


# --------------------------------------------------------------------------
# functional-calculus conversion for action powers
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _action_power_corrections(bmax: int) -> tuple[tuple[float, ...], ...]:
    """Coefficients v[b][r] with iota^b = sum_r v[b][r] h^{2r} iota^{*(b-2r)}.

    Here iota = (x^2 + xi^2)/2 on a single pair and * denotes the star
    product, so the Weyl quantization of the symbol iota^b acts as
    sum_r v[b][r] h^{2r} I^(b-2r) in the functional calculus of the
    harmonic action operator I.  The star powers are radial, S_b =
    sum_r w[b][r] h^{2r} iota^(b-2r): on a radial symbol g(iota) the star
    product with iota is iota g - (h^2/4)(iota g'' + g') (the bracket
    vanishes and the second-order term is -(h^2/8) times the Laplacian),
    so w[b+1][r] = w[b][r] - (b - 2r + 2)^2/4 w[b][r-1].  Inverting the
    triangular relation gives v.  Both run on the integers W = 4^r w and
    V = 4^r v, exactly, and each v is rounded to a float once; no symbol
    or matrix code is involved.  Up to bmax 17 (orders up to 35) these are
    bit for bit the floats of the star-product derivation in float
    arithmetic; from bmax 18 on that derivation loses digits to rounding
    and these correctly rounded values differ from it.
    """
    W = [[1]]
    for b in range(bmax):
        prev = W[-1] + [0]
        W.append([prev[r] - ((b - 2 * r + 2) ** 2 * prev[r - 1] if r else 0)
                  for r in range((b + 1) // 2 + 1)])
    v = []
    for b in range(bmax + 1):
        V = [1]
        for u in range(1, b // 2 + 1):
            V.append(-sum(V[r] * W[b - 2 * r][u - r] for r in range(u)))
        v.append(tuple(x / 4**u for u, x in enumerate(V)))
    return tuple(v)


def _functional_closed_orbit(sym: FormalSymbol, order, action, energy0, orientable):
    """Resonant cylinder Weyl symbol -> functional normal form."""
    bmax = max((k[2][0] for k in sym.terms), default=0)
    v = _action_power_corrections(bmax)
    coeffs: dict = {}
    for (m2, a, alpha, beta, j), c in sym.terms.items():
        b = alpha[0]
        for r in range(b // 2 + 1):
            val = c * ((-1.0) ** r) * v[b][r]
            if val != 0:
                key = (a, b - 2 * r, j + 2 * r)
                coeffs[key] = coeffs.get(key, 0.0) + val
    coeffs = {k: c for k, c in coeffs.items() if c != 0}
    return NormalFormPoly("closed_orbit", coeffs, order, action, energy0, orientable)


def _functional_equilibrium(sym: FormalSymbol, order, energy0):
    """Resonant saddle Weyl symbol (Birkhoff coordinates) -> functional form.

    A resonant monomial (x1 xi1)^b1 (x2 xi2)^b2 equals (iota1/i)^b1
    (iota2/i)^b2 as a symbol; each action power is then converted to the
    functional calculus independently per axis.  Unlike the closed-orbit
    case the lattice fills these slots with real action values, so the
    conversion coefficients enter without alternating signs.
    """
    bmax = max((max(k[2]) for k in sym.terms), default=0)
    v = _action_power_corrections(bmax)
    coeffs: dict = {}
    for (m2, a, alpha, beta, j), c in sym.terms.items():
        b1, b2 = alpha
        base = c * (-1j) ** (b1 + b2)
        for r1 in range(b1 // 2 + 1):
            for r2 in range(b2 // 2 + 1):
                val = base * v[b1][r1] * v[b2][r2]
                if val != 0:
                    key = (b1 - 2 * r1, b2 - 2 * r2, j + 2 * (r1 + r2))
                    coeffs[key] = coeffs.get(key, 0.0) + val
    coeffs = {k: c for k, c in coeffs.items() if c != 0}
    return NormalFormPoly("equilibrium", coeffs, order, 0.0, energy0)


# --------------------------------------------------------------------------
# the elimination loop
# --------------------------------------------------------------------------

def _prepared_symbol(model, spec: PhaseSpec) -> FormalSymbol:
    """Starting symbol of the elimination: cylinder, or scaled saddle in Birkhoff coordinates."""
    if isinstance(model, CylinderModel):
        return cylinder_symbol(model, spec)
    from .quantize import complex_scale  # local import; no cycle at module load

    return birkhoff_coordinates(complex_scale(saddle_symbol(model, spec)))


def _check_divisor(p: FormalSymbol, divisor: FormalSymbol) -> None:
    """Raise ArithmeticError when pruning has dropped a term of ``divisor`` from ``p``."""
    if not p.holds_keys_of(divisor):
        raise ArithmeticError(
            f"the symbol grew to {p.max_abs():.3e} and pruning dropped the "
            "grade-2 part the normalization divides by"
        )


def _eliminate(p: FormalSymbol, chain: GeneratorChain, solve, divisor) -> FormalSymbol:
    """Remove the non-resonant part of ``p`` grade by grade up to the chain order.

    ``solve(v)`` divides a non-resonant part v by the model's homological
    denominators, the same at every grade: the transport solve forms each
    denominator's inverse once (see ``homological_solve``), the saddle
    division each nu . (alpha - beta) once per call.  The classical
    quotient generates a Lie transform, the h-part quotient (negated) a
    star conjugation.  ``divisor`` is the
    resonant classical grade-2 part of ``p`` those denominators come from.
    Returns the resonant symbol.  Raises ArithmeticError when pruning has
    dropped a term of ``divisor`` from the symbol or a non-resonant
    residue is left.
    """
    for d in range(2, chain.order + 1):
        _, nonres = resonant_project(p.grade_part(d))
        if not nonres:
            continue
        cl, qu = nonres.h_split()
        if cl:
            G = solve(cl)
            p = lie_transform(p, G)
            chain.steps.append(("lie", d, G))
        if qu:
            A = -solve(qu)
            p = star_conjugate(p, A)
            chain.steps.append(("star", d, A))

    _check_divisor(p, divisor)
    res, dust = resonant_project(p)
    if dust.max_abs() > 1e-10 * max(p.max_abs(), 1.0):
        raise ArithmeticError(
            f"normalization left non-resonant residue {dust.max_abs():.3e}"
        )
    chain.normalized_symbol = res
    return res


# --------------------------------------------------------------------------
# closed-orbit pipeline
# --------------------------------------------------------------------------

def closed_orbit_bnf(
    model: CylinderModel, order: int, tau_order: int | None = None
) -> tuple[NormalFormPoly, GeneratorChain]:
    """Quantum Birkhoff normal form around a hyperbolic closed orbit.

    Runs the elimination loop from grade 2, dividing by the transport
    denominators of the model's f and mu; its grade-2 step averages an
    angle-dependent rate over the angle.  Returns the normal form in
    (tau, zeta, h) together with the generator chain.  Coefficients of
    grade <= N are stable when N increases.  ``tau_order`` defaults to max(order, content_tau_order);
    one below content_tau_order raises ValueError.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    content = content_tau_order(model)
    if tau_order is None:
        tau_order = max(order, content)
    elif tau_order < content:
        raise ValueError(f"tau_order {tau_order} is below the model's tau order {content}")
    spec = PhaseSpec.cylinder(order, tau_order, model.orientable)
    p = _prepared_symbol(model, spec)
    chain = GeneratorChain(order, model)

    f, mu = model.energy.resized(tau_order), model.rate.resized(tau_order)
    rate = FormalSymbol.from_tau_series(spec, mu, alpha=1, beta=1)
    res = _eliminate(p, chain, lambda v: homological_solve(v, f, mu)[0], rate)
    nf = _functional_closed_orbit(
        res, order, model.action, model.reference_energy, model.orientable
    )
    return nf, chain


# --------------------------------------------------------------------------
# saddle pipeline
# --------------------------------------------------------------------------

def birkhoff_coordinates(symbol: FormalSymbol) -> FormalSymbol:
    """Per-axis linear canonical change diagonalizing a scaled saddle.

    Substitutes, on every pair, x -> (x + i xi)/sqrt(2) and
    xi -> (i x + xi)/sqrt(2), a canonical map under which
    (x^2 + xi^2)/2 -> i x xi.  Applied to the pi/4-scaled saddle
    quadratic part it produces lam1 x1 xi1 + i lam2 x2 xi2.
    """
    s = 1.0 / math.sqrt(2.0)
    out = symbol
    for i in range(symbol.spec.num_pairs):
        out = substitute_pair(out, i, (s, 1j * s), (1j * s, s))
    return out


def _equilibrium_solve(v: FormalSymbol, nu) -> FormalSymbol:
    """Per-term division by nu . (alpha - beta), asserted >= min |nu_i| off resonance."""
    if not v:
        return v
    floor = min(abs(nu[0]), abs(nu[1])) * (1 - 1e-12)
    keys, re, im = _columns(v)
    # D as the Python sum forms it, once per distinct alpha - beta of the two
    # pairs, found by an integer code: each difference lies in [-g, g]
    diff = keys[2:4] - keys[4:6]
    heads, at = _first_occurrence(diff[0] * (2 * v.spec.grade_max + 1) + diff[1])
    D = [sum(n * d for n, d in zip(nu, pair)) for pair in diff[:, heads].T.tolist()]
    low = np.flatnonzero(np.array([abs(x) < floor for x in D], dtype=bool)[at])
    if len(low):
        _, _, alpha, beta, _ = list(v.terms)[low[0]]
        raise ModelDegeneracyError(f"resonance bound violated at alpha={alpha}, beta={beta}")
    c = np.empty(len(re), dtype=complex)
    c.real, c.imag = re, im
    q = c / np.array(D, dtype=complex)[at]
    return v._with_coefficients(q.real, q.imag)


def equilibrium_bnf(model: SaddleModel, order: int) -> tuple[NormalFormPoly, GeneratorChain]:
    """Quantum Birkhoff normal form of the complex-scaled saddle.

    Runs the elimination loop from grade 2 with the saddle denominators
    as the division; the prepared grade-2 part, checked here, is
    resonant.  A prepared symbol whose pruning dropped that part raises
    ArithmeticError, as the loop does.  Returns the normal form in the
    harmonic actions (iota1, iota2, h), with leading part E0 + (lam1/i)
    iota1 + lam2 iota2, and the chain of generators.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    spec = PhaseSpec.saddle(order)
    p = _prepared_symbol(model, spec)
    nu = (complex(model.unstable_rate), 1j * model.stable_freq)

    # trust but verify the prepared quadratic part; higher terms so large
    # that pruning dropped it are a numeric failure, not a malformed model
    q2 = p.grade_part(2).h_split()[0]
    expect = FormalSymbol.monomial(spec, nu[0], alpha=(1, 0), beta=(1, 0)) + (
        FormalSymbol.monomial(spec, nu[1], alpha=(0, 1), beta=(0, 1))
    )
    _check_divisor(p, expect)
    if (q2 - expect).max_abs() > 1e-10 * max(abs(nu[0]), abs(nu[1])):
        raise ModelValidationError("quadratic part is not in the prepared saddle form")

    chain = GeneratorChain(order, model)
    res = _eliminate(p, chain, lambda v: _equilibrium_solve(v, nu), expect)
    nf = _functional_equilibrium(res, order, model.energy0)
    return nf, chain


# --------------------------------------------------------------------------
# replay and diagnostics
# --------------------------------------------------------------------------

def replay_chain(chain: GeneratorChain, grade_max: int | None = None) -> FormalSymbol:
    """Re-apply a generator chain to its own model at a chosen truncation.

    The replay runs on the chain's spec.  With ``grade_max`` above the
    chain order, the result reproduces the normalized symbol up to terms
    of grade > order (the remainder).
    """
    if grade_max is None:
        grade_max = chain.order
    spec = replace(chain.normalized_symbol.spec, grade_max=grade_max)
    p = _prepared_symbol(chain.model, spec)
    for method, _, gen in chain.steps:
        gen = gen.reembedded(spec)
        if method == "lie":
            p = lie_transform(p, gen)
        elif method == "star":
            p = star_conjugate(p, gen)
        else:
            raise ValueError(f"unknown chain step {method!r}")
    return p


class OrbitDiagnostics(NamedTuple):
    period: float
    multiplier: float  # |Poincare eigenvalue| = exp(period * rate)


def orbit_diagnostics(energy: TauSeries, rate: TauSeries, E: float) -> OrbitDiagnostics:
    """Period and Poincare multiplier of the orbit at energy E.

    tau_E is the orbit of energy E on the branch through tau = 0
    (``TauSeries.solve``, which raises ArithmeticError off that branch);
    T(E) = 2 pi / energy'(tau_E) and the multiplier modulus is
    exp(T(E) rate(tau_E)).
    """
    tau_E = energy.solve(E)
    period = 2.0 * math.pi / float(np.real(energy.derivative()(tau_E)))
    try:
        mult = math.exp(period * float(np.real(rate(tau_E))))
    except OverflowError:
        mult = math.inf
    return OrbitDiagnostics(period, mult)
