"""Truncated Weyl-symbol algebra on the model phase spaces.

Symbols live either on the cylinder T*(S^1 x R), with coordinates
(t, tau, x, xi) where t is the angle along the orbit and tau its conjugate
action, or on T*R^2 with two symplectic pairs (x1, xi1), (x2, xi2).
A symbol is a finite complex combination of monomials

    exp(i*m*t) * tau**a * x**alpha * xi**beta * h**j

stored sparsely and truncated by the joint grade

    grade = |alpha| + |beta| + 2*j  <=  grade_max

together with the tau power a <= tau_max.  The semiclassical parameter h
is kept formal (it carries grade 2, matching the scale h ~ (x, xi)^2 of
the quantization rules).  Half-integer Fourier modes m encode transverse
coordinates that are anti-periodic around a non-orientable orbit; keys
store 2*m as an integer so no floating modes ever appear.

Sign conventions, fixed once here and pinned by the matrix tests in the
suite:

* Poisson bracket
      {a, b} = sum_i (d_xi_i a * d_x_i b - d_x_i a * d_xi_i b)
               + d_tau a * d_t b - d_t a * d_tau b,
  so {xi, x} = 1, {tau, t} = 1, and {x*xi, .} = x d_x - xi d_xi.

* Moyal product
      a * b = sum_k (1/k!) (h/2i)^k B_k(a, b),  B_1 = {a, b},
  giving x * xi = x xi + i h / 2 and the commutator x*xi - xi*x = i h.

* Operator conjugation exp(-iA/h) P exp(iA/h) is realised on symbols by
  ``star_conjugate``; its leading effect is P -> P + {P, A}/h-shifted,
  i.e. an A with h-order one changes the h^1 coefficient by {p, a}.

The bracket, the star product, the star commutator and the conjugation
step are one bidifferential kernel: one numpy pass per call, each of whose
coefficients is the floating-point sum that a nested loop over term pairs
and derivation counts forms, added in that loop's order, as an
``np.complex128``.  The kernel reads each operand as key columns and
coefficient arrays.  Its output carries the ones it already holds, and a
scalar multiple passes the key columns on and re-reads its coefficients,
so a series step starts from arrays, not from the dict.  Its
falling-factorial and d_t power tables are built on first use, once per
size, and cached read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

__all__ = [
    "PRUNE_REL",
    "PhaseSpec",
    "TauSeries",
    "FormalSymbol",
    "SpecMismatchError",
    "ModelDegeneracyError",
    "IterationCapError",
    "poisson_bracket",
    "moyal_star",
    "moyal_commutator",
    "substitute_pair",
    "resonant_project",
    "homological_solve",
    "lie_transform",
    "star_conjugate",
]

#: relative coefficient pruning threshold applied after every operation
PRUNE_REL = 1e-15


class SpecMismatchError(ValueError):
    """Operands do not share the same PhaseSpec."""


class ModelDegeneracyError(ArithmeticError):
    """A homological denominator vanished on a non-resonant term."""


class IterationCapError(ArithmeticError):
    """A Lie/conjugation series did not settle within the iteration cap."""


# --------------------------------------------------------------------------
# phase space description
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSpec:
    """Shape and truncation of the symbol algebra.

    Parameters
    ----------
    has_angle : bool
        True for the cylinder model (angle t with conjugate tau).
    num_pairs : int
        Number of symplectic pairs (1 for the cylinder, 2 for the saddle).
    grade_max : int
        Truncation of the joint grade |alpha| + |beta| + 2j.
    tau_max : int
        Truncation of the tau Taylor expansion (cylinder only).
    orientable : bool
        Cylinder only; False allows half-integer Fourier modes under the
        anti-periodicity parity constraint 2m = |alpha| - |beta| (mod 2).
    """

    has_angle: bool
    num_pairs: int
    grade_max: int
    tau_max: int = 0
    orientable: bool = True

    def __post_init__(self):
        if self.num_pairs not in (1, 2):
            raise ValueError("num_pairs must be 1 or 2")
        if self.has_angle and self.num_pairs != 1:
            raise ValueError("the cylinder model has exactly one transverse pair")
        if self.grade_max < 2:
            raise ValueError("grade_max must be at least 2")
        if self.tau_max < 0:
            raise ValueError("tau_max must be nonnegative")
        if not self.has_angle and self.tau_max != 0:
            raise ValueError("tau_max is meaningful only with an angle variable")

    @classmethod
    def cylinder(cls, grade_max, tau_max=None, orientable=True):
        if tau_max is None:
            tau_max = grade_max
        return cls(True, 1, grade_max, tau_max, orientable)

    @classmethod
    def saddle(cls, grade_max):
        return cls(False, 2, grade_max, 0, True)

    def grade(self, key) -> int:
        _, _, alpha, beta, j = key
        return sum(alpha) + sum(beta) + 2 * j

    def key_ok(self, key) -> bool:
        """True when the key fits inside the truncation bounds."""
        m2, a, alpha, beta, j = key
        if a > self.tau_max or self.grade(key) > self.grade_max:
            return False
        return True

    def validate_key(self, key):
        m2, a, alpha, beta, j = key
        if len(alpha) != self.num_pairs or len(beta) != self.num_pairs:
            raise ValueError(f"exponent vectors must have length {self.num_pairs}")
        if a < 0 or j < 0 or min(alpha, default=0) < 0 or min(beta, default=0) < 0:
            raise ValueError("negative exponent in symbol key")
        if not self.has_angle and (m2 != 0 or a != 0):
            raise ValueError("no angle variable: Fourier mode and tau power must vanish")
        if self.has_angle:
            if self.orientable:
                if m2 % 2:
                    raise ValueError("orientable model requires integer Fourier modes")
            elif (m2 - (sum(alpha) - sum(beta))) % 2:
                raise ValueError(
                    "anti-periodicity violated: need 2m = |alpha|-|beta| (mod 2), "
                    f"got m={m2/2}, alpha={alpha}, beta={beta}"
                )


# --------------------------------------------------------------------------
# truncated power series in tau
# --------------------------------------------------------------------------

class TauSeries:
    """Truncated power series g(tau) = sum_a c_a tau^a of fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        c = np.asarray(coeffs, dtype=complex).ravel()
        if order is not None:
            if len(c) > order + 1:
                c = c[: order + 1]
            elif len(c) < order + 1:
                c = np.concatenate([c, np.zeros(order + 1 - len(c), dtype=complex)])
        if len(c) == 0:
            c = np.zeros(1, dtype=complex)
        self.coeffs = c

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def resized(self, order) -> "TauSeries":
        return TauSeries(self.coeffs, order)

    def __add__(self, other):
        other = other if isinstance(other, TauSeries) else TauSeries([other])
        n = max(self.order, other.order)
        return TauSeries(self.resized(n).coeffs + other.resized(n).coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = other if isinstance(other, TauSeries) else TauSeries([other])
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, TauSeries):
            n = max(self.order, other.order)
            out = np.convolve(self.coeffs, other.coeffs)[: n + 1]
            return TauSeries(out, n)
        return TauSeries(self.coeffs * other)

    __rmul__ = __mul__

    def derivative(self) -> "TauSeries":
        c = self.coeffs
        if len(c) == 1:
            return TauSeries([0.0], self.order)
        d = c[1:] * np.arange(1, len(c))
        return TauSeries(d, self.order)

    def inverse(self) -> "TauSeries":
        """Truncated multiplicative inverse; requires nonzero constant term."""
        c = self.coeffs
        if c[0] == 0:
            raise ZeroDivisionError("series has vanishing constant term")
        inv = np.zeros_like(c)
        inv[0] = 1.0 / c[0]
        for k in range(1, len(c)):
            inv[k] = -np.dot(c[1 : k + 1], inv[k - 1 :: -1]) / c[0]
        return TauSeries(inv)

    def __call__(self, tau):
        # Horner evaluation, vector friendly
        acc = np.zeros_like(np.asarray(tau, dtype=complex))
        for c in self.coeffs[::-1]:
            acc = acc * tau + c
        return acc if np.ndim(tau) else complex(acc)

    def is_real(self) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        return bool(np.max(np.abs(self.coeffs.imag)) <= 1e-12 * scale)

    def solve(self, target):
        """Solve g(tau) = target by Newton iteration from tau = 0 on the truncated series."""
        d = self.derivative()
        tau = 0j
        scale = max(1.0, abs(target))
        for _ in range(50):
            val = self(tau) - target
            if abs(val) <= 1e-13 * scale:
                return tau.real if abs(tau.imag) < 1e-12 else tau
            dv = d(tau)
            if dv == 0:
                break
            tau = tau - val / dv
        raise ValueError(f"Newton iteration failed to invert series at target {target}")

    def __repr__(self):
        return f"TauSeries({np.array2string(self.coeffs, precision=6)})"


# --------------------------------------------------------------------------
# the symbol container
# --------------------------------------------------------------------------

def _prune(terms: dict) -> dict:
    if not terms:
        return {}
    top = max(abs(c) for c in terms.values())
    if top == 0.0:
        return {}
    floor = PRUNE_REL * top
    return {k: c for k, c in terms.items() if abs(c) > floor}


class FormalSymbol:
    """Sparse truncated Weyl symbol.

    Terms map keys ``(2m, a, alpha, beta, j)`` to complex coefficients,
    where m is the Fourier mode, a the tau power, alpha/beta the per-pair
    monomial exponents and j the h power.  Instances are immutable; all
    operations return fresh symbols, pruned at ``PRUNE_REL`` relative to
    the largest coefficient.
    """

    __slots__ = ("spec", "_terms", "_cols")

    def __init__(self, spec: PhaseSpec, terms: Mapping | None = None, *, _raw=False):
        self.spec = spec
        self._cols = None  # the kernel's key columns, built on first use
        if terms is None:
            self._terms = {}
        elif _raw:
            self._terms = dict(terms)
        else:
            cleaned = {}
            for key, coef in terms.items():
                key = (int(key[0]), int(key[1]), tuple(key[2]), tuple(key[3]), int(key[4]))
                spec.validate_key(key)
                if not spec.key_ok(key) or coef == 0:
                    continue
                cleaned[key] = cleaned.get(key, 0.0) + complex(coef)
            self._terms = _prune(cleaned)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, spec):
        return cls(spec)

    @classmethod
    def constant(cls, spec, value):
        zeros = (0,) * spec.num_pairs
        return cls(spec, {(0, 0, zeros, zeros, 0): value})

    @classmethod
    def monomial(cls, spec, coef, *, m=0, a=0, alpha=None, beta=None, j=0):
        """Single term coef * e^{imt} tau^a x^alpha xi^beta h^j.

        ``m`` may be integer or half-integer; scalar alpha/beta are
        promoted to the single-pair exponent tuple.
        """
        m2 = 2 * m
        if abs(m2 - round(m2)) > 1e-12:
            raise ValueError("Fourier mode must be integer or half-integer")
        if alpha is None:
            alpha = (0,) * spec.num_pairs
        elif isinstance(alpha, int):
            alpha = (alpha,) + (0,) * (spec.num_pairs - 1)
        if beta is None:
            beta = (0,) * spec.num_pairs
        elif isinstance(beta, int):
            beta = (beta,) + (0,) * (spec.num_pairs - 1)
        return cls(spec, {(int(round(m2)), a, tuple(alpha), tuple(beta), j): coef})

    @classmethod
    def from_tau_series(cls, spec, series: TauSeries, *, m=0, alpha=None, beta=None, j=0):
        """Symbol e^{imt} g(tau) x^alpha xi^beta h^j from a TauSeries g."""
        out = cls.zero(spec)
        for a, c in enumerate(series.coeffs):
            if c != 0:
                out = out + cls.monomial(spec, c, m=m, a=a, alpha=alpha, beta=beta, j=j)
        return out

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def max_abs(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def min_grade(self) -> int:
        return min((self.spec.grade(k) for k in self._terms), default=self.spec.grade_max + 1)

    def max_fourier(self) -> float:
        return max((abs(k[0]) for k in self._terms), default=0) / 2.0

    def grade_part(self, d) -> "FormalSymbol":
        keep = {k: c for k, c in self._terms.items() if self.spec.grade(k) == d}
        return FormalSymbol(self.spec, keep, _raw=True)

    def h_split(self) -> tuple["FormalSymbol", "FormalSymbol"]:
        """Split into the classical (j = 0) and quantum (j >= 1) parts."""
        cl = {k: c for k, c in self._terms.items() if k[4] == 0}
        qu = {k: c for k, c in self._terms.items() if k[4] >= 1}
        return FormalSymbol(self.spec, cl, _raw=True), FormalSymbol(self.spec, qu, _raw=True)

    def min_h_order(self) -> int:
        return min((k[4] for k in self._terms), default=0)

    def conjugate(self) -> "FormalSymbol":
        out = {}
        for (m2, a, alpha, beta, j), c in self._terms.items():
            out[(-m2, a, alpha, beta, j)] = out.get((-m2, a, alpha, beta, j), 0.0) + c.conjugate()
        return FormalSymbol(self.spec, out, _raw=True)

    def is_real(self, tol=1e-12) -> bool:
        """Pointwise reality: the coefficient at -m is the conjugate of the one at m."""
        diff = self - self.conjugate()
        scale = max(self.max_abs(), 1e-300)
        return diff.max_abs() <= tol * scale

    def reembedded(self, spec: PhaseSpec) -> "FormalSymbol":
        """Same terms on another compatible spec; out-of-bound terms drop."""
        if spec.num_pairs != self.spec.num_pairs or spec.has_angle != self.spec.has_angle:
            raise SpecMismatchError("cannot reembed between different phase geometries")
        return FormalSymbol(spec, self._terms)

    def evaluate(self, *, t=0.0, tau=0.0, pairs=None, h=0.0) -> complex:
        """Numeric evaluation at a phase-space point (pairs = ((x, xi), ...))."""
        if pairs is None:
            pairs = ((0.0, 0.0),) * self.spec.num_pairs
        total = 0j
        for (m2, a, alpha, beta, j), c in self._terms.items():
            val = c * np.exp(0.5j * m2 * t)
            if a:
                val *= tau**a
            for i in range(self.spec.num_pairs):
                if alpha[i]:
                    val *= pairs[i][0] ** alpha[i]
                if beta[i]:
                    val *= pairs[i][1] ** beta[i]
            if j:
                val *= h**j
            total += val
        return complex(total)

    def __repr__(self):
        n = len(self._terms)
        return f"FormalSymbol({n} terms, grade<={self.spec.grade_max})"

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.spec != other.spec:
            raise SpecMismatchError("operands live on different PhaseSpecs")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = FormalSymbol.constant(self.spec, other)
        self._check(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0.0) + c
        return FormalSymbol(self.spec, _prune(out), _raw=True)

    __radd__ = __add__

    def __neg__(self):
        return FormalSymbol(self.spec, {k: -c for k, c in self._terms.items()}, _raw=True)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = FormalSymbol.constant(self.spec, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            out = FormalSymbol(
                self.spec, {k: c * other for k, c in self._terms.items()}, _raw=True
            )
            if self._cols is not None:  # same keys in the same order
                out._cols = (self._cols[0], *_coef_columns(out._terms.values()))
            return out
        self._check(other)
        spec = self.spec
        out = {}
        for (m2a, aa, ala, bea, ja), ca in self._terms.items():
            for (m2b, ab, alb, beb, jb), cb in other._terms.items():
                a = aa + ab
                if a > spec.tau_max:
                    continue
                alpha = tuple(x + y for x, y in zip(ala, alb))
                beta = tuple(x + y for x, y in zip(bea, beb))
                j = ja + jb
                if sum(alpha) + sum(beta) + 2 * j > spec.grade_max:
                    continue
                key = (m2a + m2b, a, alpha, beta, j)
                out[key] = out.get(key, 0.0) + ca * cb
        return FormalSymbol(spec, _prune(out), _raw=True)

    __rmul__ = __mul__


# --------------------------------------------------------------------------
# the bidifferential kernel behind the bracket and the star product
# --------------------------------------------------------------------------

# A channel is one elementary derivation (left derivative, right derivative,
# sign).  A derivative is named by the key column it lowers: 1 for d_tau,
# 2 + i for d_x_i and 2 + P + i for d_xi_i; 0 stands for d_t, which lowers
# no power and pulls down i m / 2.  Every geometry has four channels: two
# per conjugate pair, (t, tau) counting as a pair on the cylinder.  A plain
# single pair keeps the angle channels too; with no Fourier mode and no
# tau power they never act.

def _channels(spec: PhaseSpec):
    P = spec.num_pairs
    ch = [(1, 0, 1.0), (0, 1, -1.0)] if P == 1 else []
    for i in range(P):
        ch += [(2 + P + i, 2 + i, 1.0), (2 + i, 2 + P + i, -1.0)]
    return ch


def _cmul(ar, ai, br, bi):
    """Complex products on real and imaginary parts, as CPython forms them.

    A float factor enters as ``x + 0j``.  Each product and sum is its own
    array operation, so no two of them are fused into one rounding.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _frozen(*arrays):
    for x in arrays:
        x.flags.writeable = False
    return arrays


def _coef_columns(coefs):
    """Real and imaginary parts of coefficient values, read-only."""
    c = np.array(list(coefs), dtype=complex)
    return _frozen(c.real, c.imag)


def _columns(sym: FormalSymbol):
    """Key columns (2m, a, alpha..., beta..., j) and coefficient parts.

    Kept, read-only, on the immutable symbol: a series passes the same
    generator to every one of its kernel calls.  A kernel output carries
    them from its birth, and a scalar multiple carries its operand's key
    columns; any other symbol builds them on the first call.
    """
    if sym._cols is None:
        cols = np.array([(k[0], k[1], *k[2], *k[3], k[4]) for k in sym._terms],
                        dtype=np.int64).reshape(len(sym._terms), 3 + 2 * sym.spec.num_pairs)
        sym._cols = (*_frozen(cols), *_coef_columns(sym._terms.values()))
    return sym._cols


@lru_cache(maxsize=None)
def _falling(top: int) -> np.ndarray:
    """[cap, kappa] -> cap (cap - 1) ... (cap - kappa + 1) for cap, kappa <= top,
    multiplied up in sequence; read-only."""
    c = np.arange(top + 1.0)[:, None]
    return _frozen(np.cumprod(np.hstack([np.ones_like(c), c - np.arange(top)]), axis=1))[0]


@lru_cache(maxsize=None)
def _dt_powers(reach: int, tmax: int):
    """Real and imaginary parts of (i m / 2)^kappa, the Python power, for
    2m in [-reach, reach] (row 2m + reach) and kappa <= tmax; read-only."""
    tab = np.array([[(0.5j * m) ** n for n in range(tmax + 1)] for m in range(-reach, reach + 1)])
    return _frozen(tab.real, tab.imag)


def _bidifferential(a: FormalSymbol, b: FormalSymbol, orders: str, h_shift: int,
                    scale: complex) -> FormalSymbol:
    """sum_k scale (h/2i)^k h^h_shift B_k(a, b) over the selected orders k.

    ``orders`` is "all", "odd" or "first" (k = 1 only).  B_k sums, over
    every multiset of k elementary derivations, the signed derivatives with
    1/kappa! weights per channel.  Pairs with g_a + g_b + 2 h_shift above
    the truncation are never formed, nor are derivation counts whose
    output grade or tau power lies above it or, for "odd" and "first",
    whose k is even; "first" reads its rows, one per channel that can act,
    off one mask.  The output carries its key columns (see ``_columns``).

    One array pass gives what a nested loop would, bit for bit: over term
    pairs (left term outer), then derivation counts (k0, k1, k2, k3) in
    lexicographic order, each contribution the CPython complex products
    ((f kf) fa) fb per active channel times the weight, dropped when its
    chain is exactly zero, and added to its key from +0.0, keys listed by
    first occurrence.  Every output coefficient is an ``np.complex128``,
    whatever the operands' scalar types: the type is a subclass of
    ``complex`` and the bits are those of the loop's Python sums.
    """
    a._check(b)
    spec = a.spec
    P, gmax, tmax = spec.num_pairs, spec.grade_max, spec.tau_max
    chs = _channels(spec)
    (lc, lre, lim), (rc, rre, rim) = _columns(a), _columns(b)

    def grade(cols):
        return cols[:, 2:2 + 2 * P].sum(axis=1) + 2 * cols[:, -1]

    def cap(cols, col):
        return np.where(cols[:, 0] != 0, tmax, 0) if col == 0 else cols[:, col]

    g = grade(lc).astype(np.int16)[:, None] + grade(rc).astype(np.int16)
    li, ri = np.nonzero(g <= gmax - 2 * h_shift)
    if not len(li):
        return FormalSymbol(spec)
    # expand every pair into the derivation counts it keeps, channel by
    # channel.  A derivation in pair i lowers alpha_i and beta_i and adds an
    # h, so it keeps the grade; one in (t, tau) lowers no grade column and
    # raises the grade by 2, so the (t, tau) counts share the pair's budget.
    # It also lowers tau, so the last (t, tau) channel starts its count at
    # the excess of the pair's tau power over the truncation, less the
    # (t, tau) counts already taken
    budget = (gmax - 2 * h_shift - g[li, ri]) // 2
    excess = lc[li, 1] + rc[ri, 1] - tmax
    if orders == "first":
        # k = 1: one derivation in one channel.  A (t, tau) one needs a
        # budget of 1 and lowers tau by 1.  A pair's rows are its channels
        # that can act, in the order of the bracket's formula, since
        # floating-point sums depend on that order
        can = [(np.minimum(cap(lc, cl)[li], cap(rc, cr)[ri]) > 0)
               & (budget >= (cl < 2)) & (excess <= (cl < 2)) for cl, cr, _ in chs]
        pair, chan = np.nonzero(np.column_stack(can))
        ks = [(chan == c).astype(np.int64) for c in range(len(chs))]
        k = np.ones(len(pair), dtype=np.int64)
    else:
        kmax = 4 * (gmax + tmax)
        last_tau = max((c for c, ch in enumerate(chs) if ch[0] < 2), default=None)
        pair, ks, k = np.arange(len(li)), [], np.zeros(len(li), dtype=np.int64)
        for c, (cl, cr, _) in enumerate(chs):
            top = np.minimum(np.minimum(cap(lc, cl)[li], cap(rc, cr)[ri])[pair], kmax - k)
            low = np.zeros_like(top)
            if cl < 2:
                spent = sum(x for x, ch in zip(ks, chs) if ch[0] < 2)
                top = np.minimum(top, budget[pair] - spent)
                if c == last_tau:
                    low = np.maximum(excess[pair] - spent, 0)
            # with odd orders the last channel takes only the counts that make k odd
            step = 2 if orders == "odd" and c == len(chs) - 1 else 1
            if step == 2:
                low += (low + k + 1) % 2
            cnt = np.maximum((top - low) // step + 1, 0)
            parent = np.repeat(np.arange(len(cnt)), cnt)
            kc = low[parent] + step * (np.arange(len(parent)) - (np.cumsum(cnt) - cnt)[parent])
            pair, ks, k = pair[parent], [x[parent] for x in ks] + [kc], k[parent] + kc
    # channels 0, 1 and 2, 3 each act on one conjugate pair: a derivation in
    # pair i lowers alpha_i and beta_i together, one in (t, tau) lowers tau
    pl, pr = li[pair], ri[pair]
    key = lc[pl] + rc[pr]
    key[:, -1] += h_shift + k
    for c in (0, 2):
        i = (chs[c][0] - 2) % P
        key[:, [1] if chs[c][0] < 2 else [2 + i, 2 + P + i]] -= (ks[c] + ks[c + 1])[:, None]

    # a derivative pulls down a falling factorial, d_t pulls down (i m / 2)^kappa
    falling = _falling(max(gmax, tmax))

    def factor(cols, terms, col, x):
        if col:
            return falling[cols[terms, col], x], 0.0
        m2 = cols[terms, 0]
        reach = int(np.abs(m2).max(initial=0))
        tab_re, tab_im = _dt_powers(reach, tmax)
        return tab_re[m2 + reach, x], tab_im[m2 + reach, x]

    with np.errstate(over="ignore", invalid="ignore"):  # as silent as Python floats
        fre, fim = _cmul(lre[pl], lim[pl], rre[pr], rim[pr])
        for (cl, cr, sign), kc in zip(chs, ks):
            on = np.nonzero(kc)[0]
            if not len(on):
                continue
            x = kc[on]
            kf = [1.0]
            for kappa in range(1, int(x.max()) + 1):
                kf.append(kf[-1] * (sign / kappa))
            re, im = _cmul(fre[on], fim[on], np.array(kf)[x], 0.0)
            re, im = _cmul(re, im, *factor(lc, pl[on], cl, x))
            fre[on], fim[on] = _cmul(re, im, *factor(rc, pr[on], cr, x))
        nz = np.nonzero((k == 0) | (fre != 0) | (fim != 0))[0]
        w = np.array([scale * (-0.5j) ** n for n in range(int(k.max(initial=0)) + 1)])
        fre, fim = _cmul(fre[nz], fim[nz], w.real[k[nz]], w.imag[k[nz]])
    key = key[nz]
    lo = key.min(axis=0, initial=0)
    code = np.ravel_multi_index(tuple((key - lo).T), tuple(key.max(axis=0, initial=0) - lo + 1))
    _, first, inv = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)  # unique keys by first occurrence
    lab, n = np.argsort(order)[inv.ravel()], len(order)
    vals = np.empty(n, dtype=complex)
    vals.real = np.bincount(lab, weights=fre, minlength=n)
    vals.imag = np.bincount(lab, weights=fim, minlength=n)
    key = key[first[order]]
    out = {(r[0], r[1], tuple(r[2:2 + P]), tuple(r[2 + P:2 + 2 * P]), r[-1]): v
           for r, v in zip(key.tolist(), vals)}
    sym = FormalSymbol(spec, _prune(out), _raw=True)
    if len(sym) < len(out):
        kept = np.fromiter((t in sym._terms for t in out), dtype=bool, count=len(out))
        key, vals = key[kept], vals[kept]
    sym._cols = _frozen(key, vals.real, vals.imag)
    return sym


def poisson_bracket(a: FormalSymbol, b: FormalSymbol) -> FormalSymbol:
    """Exact Poisson bracket {a, b} = B_1(a, b), truncated to the common spec.

    This is the first-order term of the Moyal series with h divided out:
    scale 2i cancels the 1/(2i) of (h/2i)^1.
    """
    return _bidifferential(a, b, "first", -1, 2j)


def moyal_star(a: FormalSymbol, b: FormalSymbol) -> FormalSymbol:
    """Weyl composition a # b = sum_k (1/k!) (h/2i)^k B_k(a, b)."""
    return _bidifferential(a, b, "all", 0, 1.0)


def moyal_commutator(a: FormalSymbol, b: FormalSymbol) -> FormalSymbol:
    """Star commutator a # b - b # a, via the odd bidifferential orders only."""
    return _bidifferential(a, b, "odd", 0, 2.0)


def _ad_step(A: FormalSymbol, w: FormalSymbol) -> FormalSymbol:
    """One application of -(i/h) ad_A in the star algebra.

    Every term of the star commutator carries at least one power of h
    (B_k comes with h^k, k >= 1), so dividing by h is exact: the h power
    of each contribution is shifted down by one before truncation.
    """
    return _bidifferential(A, w, "odd", -1, -2j)


# --------------------------------------------------------------------------
# normal-form primitives
# --------------------------------------------------------------------------

def substitute_pair(symbol: FormalSymbol, pair: int, x_row, xi_row) -> FormalSymbol:
    """Linear change of one symplectic pair.

    Replaces x_pair -> x_row[0]*x + x_row[1]*xi and xi_pair -> xi_row[0]*x
    + xi_row[1]*xi by binomial expansion.  The caller is responsible for
    the substitution being canonical if bracket relations are to survive.
    """
    spec = symbol.spec
    out = FormalSymbol.zero(spec)
    cxx, cxxi = x_row
    cix, cixi = xi_row
    for (m2, a, alpha, beta, j), c in symbol._terms.items():
        p, q = alpha[pair], beta[pair]
        expansion: dict[tuple[int, int], complex] = {}
        for r in range(p + 1):
            fx = math.comb(p, r) * cxx**r * cxxi ** (p - r)
            for s in range(q + 1):
                fxi = math.comb(q, s) * cix**s * cixi ** (q - s)
                key = (r + s, (p - r) + (q - s))
                expansion[key] = expansion.get(key, 0.0) + fx * fxi
        terms = {}
        for (na, nb), fac in expansion.items():
            alpha2 = alpha[:pair] + (na,) + alpha[pair + 1 :]
            beta2 = beta[:pair] + (nb,) + beta[pair + 1 :]
            key = (m2, a, alpha2, beta2, j)
            terms[key] = terms.get(key, 0.0) + c * fac
        out = out + FormalSymbol(spec, terms, _raw=True)
    return FormalSymbol(spec, _prune(out._terms), _raw=True)


def resonant_project(v: FormalSymbol) -> tuple[FormalSymbol, FormalSymbol]:
    """Split v into (resonant, nonresonant).

    Resonant terms depend only on the actions: Fourier mode zero and
    alpha == beta, i.e. functions of (tau, x xi, h) on the cylinder and of
    the pair products on the saddle.
    """
    res, non = {}, {}
    for key, c in v._terms.items():
        m2, _, alpha, beta, _ = key
        (res if (m2 == 0 and alpha == beta) else non)[key] = c
    return (
        FormalSymbol(v.spec, res, _raw=True),
        FormalSymbol(v.spec, non, _raw=True),
    )


def homological_solve(
    v: FormalSymbol, f: TauSeries, mu: TauSeries
) -> tuple[FormalSymbol, FormalSymbol]:
    """Solve the transport equation of the cylinder normal form.

    Finds u with (f'(tau) d_t + mu(tau)(x d_x - xi d_xi)) u = v - [v],
    term by term: u_{m, alpha, beta} = v_{m, alpha, beta} / D with
    D(tau) = i m f'(tau) + mu(tau) (|alpha| - |beta|), dividing tau series
    by the truncated inverse of D.  The resonant part [v] is returned as
    the residual, untouched.
    """
    spec = v.spec
    if not spec.has_angle:
        raise SpecMismatchError("transport solve requires the cylinder model")
    K = spec.tau_max
    fp = f.resized(K).derivative()
    mu = mu.resized(K)
    if abs(fp.coeffs[0].imag) > 1e-12 * max(1.0, abs(fp.coeffs[0])) or fp.coeffs[0] == 0:
        raise ModelDegeneracyError("f'(0) must be real and nonzero")
    if mu.coeffs[0].real <= 0 or abs(mu.coeffs[0].imag) > 1e-12 * abs(mu.coeffs[0]):
        raise ModelDegeneracyError("mu(0) must be real and positive")

    residual, nonres = resonant_project(v)
    groups: dict[tuple, np.ndarray] = {}
    for (m2, a, alpha, beta, j), c in nonres._terms.items():
        g = groups.setdefault((m2, alpha, beta, j), np.zeros(K + 1, dtype=complex))
        g[a] += c

    inv_cache: dict[tuple, TauSeries] = {}
    scale = abs(fp.coeffs[0]) + abs(mu.coeffs[0])
    u_terms: dict = {}
    for (m2, alpha, beta, j), poly in groups.items():
        diff = sum(alpha) - sum(beta)
        ck = (m2, diff)
        if ck not in inv_cache:
            D = (0.5j * m2) * fp + diff * mu
            if abs(D.coeffs[0]) <= 1e-14 * scale:
                raise ModelDegeneracyError(
                    f"transport denominator vanishes on non-resonant term m={m2/2}, "
                    f"alpha-beta={diff}"
                )
            inv_cache[ck] = D.inverse()
        u_poly = np.convolve(poly, inv_cache[ck].coeffs)[: K + 1]
        for a, c in enumerate(u_poly):
            if c != 0:
                key = (m2, a, alpha, beta, j)
                u_terms[key] = u_terms.get(key, 0.0) + c
    return FormalSymbol(spec, _prune(u_terms), _raw=True), residual


#: the most terms any Lie or conjugation series may take before it raises
_SERIES_CEILING = 64


def _exp_series(P: FormalSymbol, step, what: str) -> FormalSymbol:
    """sum_k step^k P / k! until a term truncates to zero, or is negligible from the cap on.

    A grade-2 generator keeps the grade of what it acts on, so its series
    may run past the cap, up to ``_SERIES_CEILING`` terms.
    """
    cap = 2 * P.spec.grade_max + 2
    ceiling = max(cap, _SERIES_CEILING)
    acc = P
    w = P
    for k in range(1, ceiling + 1):
        w = step(w) * (1.0 / k)
        if not w:
            return acc
        acc = acc + w
        if k >= cap and w.max_abs() <= PRUNE_REL * max(acc.max_abs(), 1.0) * 10.0:
            return acc
    raise IterationCapError(
        f"{what} series did not settle after {ceiling} iterations (tail {w.max_abs():.3e})"
    )


def lie_transform(p: FormalSymbol, G: FormalSymbol) -> FormalSymbol:
    """Classical canonical push-forward p o exp(H_G) = sum_k H_G^k p / k!.

    The Hamilton field acts as H_G q = {G, q}.  Generators of grade >= 3
    terminate within the grade truncation; grade-2 generators are allowed
    and run past the series cap until the tail is negligible, up to a
    fixed ceiling, since they act tangentially to the grade filtration.
    """
    p._check(G)
    if not G:
        return p
    if G.min_grade() < 2:
        raise ValueError("every generator term must have grade >= 2")
    return _exp_series(p, lambda w: poisson_bracket(G, w), "Lie")


def star_conjugate(P: FormalSymbol, A: FormalSymbol) -> FormalSymbol:
    """Unitary conjugation exp(-iA/h) P exp(iA/h) at the symbol level.

    Computed as sum_k C^k P / k! with C = -(i/h) ad_A realised through the
    star commutator; the leading effect of A = h a is P + h {p, a} + ... .
    A must have h-order at least one so that every application of C raises
    the grade and the series terminates within the truncation.
    """
    P._check(A)
    if not A:
        return P
    if A.min_h_order() < 1:
        raise ValueError("conjugation generator must have h-order >= 1")
    return _exp_series(P, lambda w: _ad_step(A, w), "conjugation")
