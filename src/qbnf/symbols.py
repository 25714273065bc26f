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

The plain product, the bracket, the star product, the star commutator and
the conjugation step are one bidifferential kernel: one numpy pass per
call, each of whose coefficients is the floating-point sum that a nested
loop over term pairs and derivation counts forms, added in that loop's
order, as an ``np.complex128``.

A symbol holds one form: key columns, one integer code per key and
coefficient parts.  Every operation, the constructor included, forms
these arrays with the semantics of a dict (Python's abs for pruning,
c + c_other on a shared key and 0.0 + c_other on a new one, keys in
insertion order); ``terms`` is a read view, a fresh dict built each time
it is read.  A symbol also keeps the kernel's tables for it as
an operand: grades, the channels each term can act in and the factors a
derivation pulls down, so a series builds its generator's once.  The
falling-factorial and d_t power tables behind those factors, and the
star paths' count-tuple tables, are built on first use, once per size,
and cached read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from numbers import Number
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

    def validate_key(self, key):
        m2, a, alpha, beta, j = key
        if len(alpha) != self.num_pairs or len(beta) != self.num_pairs:
            raise ValueError(f"exponent vectors must have length {self.num_pairs}")
        integral = _key_entries([(m2, a, *alpha, *beta, j)])[1]
        if integral is not None and not integral.all():
            raise ValueError(f"symbol key entries must be integers, got {key}")
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

    def branch(self) -> tuple[float, float]:
        """The ends of the branch of g through tau = 0: the real critical
        points of g nearest 0 on either side, -inf or +inf where there is
        none.  g is read by the real parts of its coefficients and must rise
        through 0 (ArithmeticError otherwise), so it rises on the branch."""
        c = self.coeffs.real
        if len(c) < 2 or c[1] <= 0:
            raise ArithmeticError("the series does not rise through tau = 0")
        crit = np.roots((c[1:] * np.arange(1, len(c)))[::-1])
        crit = crit.real[crit.imag == 0]
        return float(crit[crit < 0].max(initial=-np.inf)), float(crit[crit > 0].min(initial=np.inf))

    def solve(self, target) -> float:
        """The tau of ``branch()`` with g(tau) = target, unique there: Newton
        iteration from 0 that bisects its bracket (the branch, cut to the
        roots' Cauchy bound) wherever a step would leave it.  No tau on the
        branch has that value: ArithmeticError, naming ``target`` and the
        branch's energy range; a root is never extrapolated."""
        lo, hi = self.branch()
        c = self.coeffs.real
        dc = c[1:] * np.arange(1, len(c))

        def poly(coeffs, t):  # Horner in Python floats
            return reduce(lambda acc, ci: acc * t + ci, coeffs[::-1].tolist(), 0.0)

        e_lo, e_hi = (poly(c, t) if math.isfinite(t) else t for t in (lo, hi))
        if not e_lo < target < e_hi:
            raise ArithmeticError(f"no tau on the branch through tau = 0 has energy {target:g}; "
                                  f"its energies span ({e_lo:g}, {e_hi:g})")
        n = np.flatnonzero(c)[-1]
        reach = 1.0 + max(abs(target - c[0]), np.abs(c[1:n]).max(initial=0.0)) / abs(c[n])
        lo, hi = max(lo, -reach), min(hi, reach)
        tau, scale = 0.0, max(1.0, abs(target))
        for _ in range(100):
            val = poly(c, tau) - target
            if abs(val) <= 1e-13 * scale:
                return tau
            lo, hi = (tau, hi) if val < 0 else (lo, tau)
            slope = poly(dc, tau)
            step = tau - val / slope if slope > 0 else math.nan
            tau = step if lo < step < hi else 0.5 * (lo + hi)
        raise ArithmeticError(f"Newton iteration did not settle at energy {target:g}")

    def __repr__(self):
        return f"TauSeries({np.array2string(self.coeffs, precision=6)})"


# --------------------------------------------------------------------------
# the symbol container
# --------------------------------------------------------------------------

def _frozen(*arrays):
    for x in arrays:
        x.setflags(write=False)
    return arrays


def _key_tuples(keys: np.ndarray, P: int) -> list:
    return [(r[0], r[1], tuple(r[2:2 + P]), tuple(r[2 + P:2 + 2 * P]), r[-1])
            for r in keys.T.tolist()]


@lru_cache(maxsize=None)
def _radices(spec: PhaseSpec) -> tuple:
    """Radix and stride of each key column's digit in a key's code.

    The code reads (2m, j + 1, a, alpha..., beta...) as a mixed-radix
    number, beta last the least significant: every key lies inside the
    truncation, so every digit but 2m lies in [0, radix) and equal codes
    are equal keys, and 2m, the leading digit, may take any sign (its
    radix is given as 0).  All orders shifted by h^-1 give h^-1 to the
    plain product, so j may be -1 and then an exponent may reach
    grade_max + 2; the j digit is offset by one and the exponent digits
    have room for that.  The code is the key's dot product with the
    strides plus the stride of j, so a sum or derivative of keys is the
    matching sum of codes.  Returns (radixes, strides), per key column,
    read-only.
    """
    P, g = spec.num_pairs, spec.grade_max
    digits = [(2 + P + i, g + 3) for i in reversed(range(P))]
    digits += [(2 + i, g + 3) for i in reversed(range(P))]
    digits += [(1, spec.tau_max + 1), (2 + 2 * P, g // 2 + 2)]
    radixes, strides = np.zeros((2, 3 + 2 * P), dtype=np.int64)
    step = 1
    for col, radix in digits:
        radixes[col], strides[col] = radix, step
        step *= radix
    strides[0] = step
    return _frozen(radixes, strides)


def _decode(code: np.ndarray, spec: PhaseSpec) -> np.ndarray:
    """Key columns of codes (see ``_radices``): each column's digit, the
    code floor-divided by its stride and reduced by its radix, which holds
    for a negative leading digit too."""
    radixes, strides = _radices(spec)
    keys = code // strides[:, None]
    keys[1:] %= radixes[1:, None]
    keys[-1] -= 1
    return keys


def _encode(keys: np.ndarray, spec: PhaseSpec) -> np.ndarray:
    """Codes of key columns (see ``_radices``)."""
    strides = _radices(spec)[1]
    return strides @ keys + strides[-1]


def _monomial_key(spec: PhaseSpec, m, a, alpha, beta, j) -> tuple:
    """Key of e^{imt} tau^a x^alpha xi^beta h^j; see ``FormalSymbol.monomial``."""
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
    return (int(round(m2)), a, tuple(alpha), tuple(beta), j)


def _key_entries(rows: list):
    """(rows of key entries as int64, None or where they are integral).

    Rows of integers give their int64 array and None.  Any other entry,
    such as a float, reads the rows as floats: an entry is integral when
    it is an integer in the int64 range, and only those cast exactly.
    """
    raw = np.array(rows)
    if raw.dtype == np.int64:
        return raw, None
    with np.errstate(invalid="ignore"):  # nan, inf and entries past the range cast to junk
        real = raw.astype(float)
        ints = real.astype(np.int64)
    return ints, ints == real


def _cleaned(spec: PhaseSpec, keys, re, im):
    """(spec, key columns, re, im, codes) of terms as a caller gives them,
    for ``FormalSymbol._of_columns(..., prune=True)``.

    ``keys`` are (2m, a, alpha, beta, j) tuples as given, or int64 key
    columns.  Array operations check every key by the rules of
    ``spec.validate_key``, which raises the error of the first rejected
    key.  Out-of-bound keys drop; zero coefficients are left to the prune,
    unless a key repeats (given twice, or once as floats): then they drop
    first, and the repeated key's coefficients add from 0.0 in order.
    """
    P = spec.num_pairs
    integral = None
    if isinstance(keys, np.ndarray):
        cols = keys
    else:
        if any(len(k[2]) != P or len(k[3]) != P for k in keys):
            for key in keys:
                spec.validate_key(key)  # raises at the first bad key
        rows, integral = _key_entries([(k[0], k[1], *k[2], *k[3], k[4]) for k in keys])
        cols = rows.T
    # the cylinder has one pair, so its parity is 2m - alpha + beta
    odd = (None if not spec.has_angle else cols[0] if spec.orientable
           else cols[0] - cols[2] + cols[3])
    if ((integral is not None and not integral.all()) or cols[1:].min(initial=0) < 0
            or (odd is None and cols[:2].any()) or (odd is not None and (odd & 1).any())):
        bad = (cols[1:] < 0).any(axis=0)
        bad |= cols[:2].any(axis=0) if odd is None else (odd & 1).astype(bool)
        if integral is not None:
            bad |= ~integral.all(axis=1)
        at = int(np.argmax(bad))
        spec.validate_key(keys[at] if isinstance(keys, list) else _key_tuples(cols[:, at:at + 1], P)[0])
    grade = cols[2:2 + 2 * P].sum(axis=0) + 2 * cols[-1]
    inside = (cols[1] <= spec.tau_max) & (grade <= spec.grade_max)
    if inside.all():
        cols = np.ascontiguousarray(cols)
    else:
        at = np.flatnonzero(inside)
        cols, re, im = cols.take(at, axis=1), re[at], im[at]
    code = _encode(cols, spec)
    if len(code) > 1:
        ordered = np.sort(code)
        if (ordered[1:] == ordered[:-1]).any():
            at = np.flatnonzero((re != 0) | (im != 0))
            heads, re, im = _sum_by_code(code[at], re[at], im[at])
            cols, code = cols.take(at[heads], axis=1), code[at[heads]]
    return spec, cols, 0.0 + re, 0.0 + im, code


class FormalSymbol:
    """Sparse truncated Weyl symbol.

    Terms map keys ``(2m, a, alpha, beta, j)`` to complex coefficients,
    where m is the Fourier mode, a the tau power, alpha/beta the per-pair
    monomial exponents and j the h power.  Instances are immutable; all
    operations return fresh symbols, pruned at ``PRUNE_REL`` relative to
    the largest coefficient, and a non-finite coefficient raises
    ArithmeticError naming its key.

    A symbol holds its terms one way: key columns, one code per key and
    coefficient parts (see ``_columns``), in the order a dict of the same
    operations would list them.  Every operation reads and forms these
    arrays; ``terms`` is a read view, a fresh dict with ``np.complex128``
    values.  The kernel's per-operand tables (grades, channel caps and
    derivative factors) are kept on the symbol too, so a series builds its
    generator's once.
    """

    __slots__ = ("spec", "_cols", "_tabs")

    def __init__(self, spec: PhaseSpec, terms: Mapping | None = None):
        """Symbol of ``terms``: keys checked, their entries integers or
        integral floats, and cleaned (see ``_cleaned``), then pruned."""
        if terms:
            keys = [(k[0], k[1], tuple(k[2]), tuple(k[3]), k[4]) for k in terms]
            c = np.array([complex(v) for v in terms.values()], dtype=complex)
            sym = FormalSymbol._of_columns(*_cleaned(spec, keys, c.real, c.imag), prune=True)
        else:
            sym = FormalSymbol.zero(spec)
        self.spec, self._cols, self._tabs = sym.spec, sym._cols, sym._tabs

    @classmethod
    def _of_columns(cls, spec, keys, re, im, code=None, *, prune=False, tabs=None) -> "FormalSymbol":
        """Symbol of distinct keys (columns ``keys``, codes ``code``, encoded
        here when None) and coefficient parts, pruned when ``prune``.
        ``tabs`` are the cached tables of a symbol with the same keys."""
        if prune and len(re):
            mag = np.hypot(re, im)  # Python's abs of a complex, bit for bit
            top = mag.max()
            if not math.isfinite(top):
                bad = int(np.flatnonzero(~np.isfinite(mag))[0])
                key = _key_tuples(keys[:, bad:bad + 1], spec.num_pairs)[0]
                raise ArithmeticError(f"non-finite coefficient {complex(re[bad], im[bad])} "
                                      f"at key {key}")
            keep = mag > PRUNE_REL * top
            if np.count_nonzero(keep) < len(keep):
                at = np.flatnonzero(keep)
                keys, re, im = keys.take(at, axis=1), re[at], im[at]
                code = None if code is None else code[at]
                tabs = None
        sym = cls.__new__(cls)
        sym.spec, sym._cols = spec, _frozen(keys, re, im)
        sym._tabs = tabs or {"code": _frozen(_encode(keys, spec) if code is None else code)[0]}
        return sym

    def _with_coefficients(self, re, im) -> "FormalSymbol":
        """These keys with coefficient parts ``re``, ``im``, unpruned."""
        return FormalSymbol._of_columns(self.spec, self._cols[0], re, im, tabs=self._tabs)

    def _select(self, keep: np.ndarray) -> "FormalSymbol":
        """The terms where ``keep`` holds, in order, unpruned."""
        keys, re, im = _columns(self)
        if np.count_nonzero(keep) == len(re):
            return FormalSymbol._of_columns(self.spec, keys, re, im, tabs=self._tabs)
        at = np.flatnonzero(keep)
        return FormalSymbol._of_columns(self.spec, keys.take(at, axis=1), re[at], im[at],
                                        _code(self)[at])

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, spec):
        keys = np.zeros((3 + 2 * spec.num_pairs, 0), dtype=np.int64)
        return cls._of_columns(spec, keys, np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64))

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
        return cls(spec, {_monomial_key(spec, m, a, alpha, beta, j): coef})

    @classmethod
    def from_tau_series(cls, spec, series: TauSeries, *, m=0, alpha=None, beta=None, j=0):
        """Symbol e^{imt} g(tau) x^alpha xi^beta h^j from a TauSeries g.

        The terms have distinct keys, so this is the sum of their
        monomials, built in one pass."""
        return cls(spec, {_monomial_key(spec, m, a, alpha, beta, j): c
                          for a, c in enumerate(series.coeffs) if c != 0})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The terms as a fresh dict in column order, with ``np.complex128`` values."""
        keys, re, im = self._cols
        vals = np.empty(len(re), dtype=complex)
        vals.real, vals.imag = re, im
        return dict(zip(_key_tuples(keys, self.spec.num_pairs), vals))

    def __len__(self):
        return len(self._cols[1])

    def __bool__(self):
        return len(self) > 0

    def max_abs(self) -> float:
        _, re, im = _columns(self)
        return float(np.hypot(re, im).max(initial=0.0))

    def min_grade(self) -> int:
        g = _grades(self)
        return int(g.min()) if len(g) else self.spec.grade_max + 1

    def holds_keys_of(self, other: "FormalSymbol") -> bool:
        """True when every key of ``other`` is a key of this symbol."""
        self._check(other)
        return set(_code(other).tolist()).issubset(_code(self).tolist())

    def grade_part(self, d) -> "FormalSymbol":
        return self._select(_grades(self) == d)

    def h_split(self) -> tuple["FormalSymbol", "FormalSymbol"]:
        """Split into the classical (j = 0) and quantum (j >= 1) parts."""
        quantum = _columns(self)[0][-1] >= 1
        return self._select(~quantum), self._select(quantum)

    def min_h_order(self) -> int:
        j = _columns(self)[0][-1]
        return int(j.min()) if len(j) else 0

    def conjugate(self) -> "FormalSymbol":
        """Mode m to -m and c to 0.0 + conj(c) per term, in order, unpruned."""
        keys, re, im = _columns(self)
        keys = np.concatenate([-keys[:1], keys[1:]])
        return FormalSymbol._of_columns(self.spec, keys, 0.0 + re, 0.0 - im)

    def reembedded(self, spec: PhaseSpec) -> "FormalSymbol":
        """Same terms on another compatible spec; out-of-bound terms drop."""
        if spec.num_pairs != self.spec.num_pairs or spec.has_angle != self.spec.has_angle:
            raise SpecMismatchError("cannot reembed between different phase geometries")
        return FormalSymbol._of_columns(*_cleaned(spec, *_columns(self)), prune=True)

    def __repr__(self):
        return f"FormalSymbol({len(self)} terms, grade<={self.spec.grade_max})"

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatchError("operands live on different PhaseSpecs")

    def __add__(self, other):
        """c_self + c_other on a shared key, 0.0 + c_other on a new one,
        listed after this symbol's keys in ``other``'s order; pruned.  A
        number enters as a constant symbol."""
        if isinstance(other, Number):
            other = FormalSymbol.constant(self.spec, other)
        elif not isinstance(other, FormalSymbol):
            return NotImplemented
        self._check(other)
        (ka, ra, ia), (kb, rb, ib) = _columns(self), _columns(other)
        mine, theirs = _code(self), _code(other)
        n = len(ra)
        if not n or not len(rb):
            cols = (ka, ra, ia, mine) if n else (kb, 0.0 + rb, 0.0 + ib, theirs)
            return FormalSymbol._of_columns(self.spec, *cols, prune=True)
        order = np.argsort(mine)
        lab = order[np.minimum(np.searchsorted(mine, theirs, sorter=order), n - 1)]
        new = np.flatnonzero(mine[lab] != theirs)
        code = np.concatenate([mine, theirs[new]])
        lab[new] = np.arange(n, len(code))
        re, im = np.zeros(len(code)), np.zeros(len(code))
        re[:n], im[:n] = ra, ia
        re[lab], im[lab] = re[lab] + rb, im[lab] + ib
        keys = np.concatenate([ka, kb.take(new, axis=1)], axis=1)
        return FormalSymbol._of_columns(self.spec, keys, re, im, code, prune=True)

    __radd__ = __add__

    def __neg__(self):
        _, re, im = _columns(self)
        return self._with_coefficients(-re, -im)

    def __sub__(self, other):
        if isinstance(other, Number):
            other = FormalSymbol.constant(self.spec, other)
        return self + (-other) if isinstance(other, FormalSymbol) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other if isinstance(other, Number) else NotImplemented

    def __mul__(self, other):
        """A number scales every coefficient, entering as ``complex(x)``; a
        symbol gives the plain product, the star kernel's k = 0 order."""
        if isinstance(other, FormalSymbol):
            return _bidifferential(self, other, "zeroth", 0, 1.0)
        if not isinstance(other, Number):
            return NotImplemented
        _, re, im = _columns(self)
        x = complex(other)  # a real factor enters as x + 0j, as in Python
        return self._with_coefficients(*_cmul(re, im, x.real, x.imag))

    __rmul__ = __mul__


def _columns(sym: FormalSymbol):
    """Key columns and coefficient parts: ``keys[c]`` is column c, (2m, a,
    alpha..., beta..., j), of every key, and ``re``/``im`` the coefficients.
    Read-only."""
    return sym._cols


def _code(sym: FormalSymbol) -> np.ndarray:
    """The code of every key (see ``_radices``), kept on the symbol."""
    return sym._tabs["code"]


def _grades(sym: FormalSymbol) -> np.ndarray:
    """Joint grade of every key, kept on the symbol."""
    g = sym._tabs.get("grade")
    if g is None:
        keys, P = _columns(sym)[0], sym.spec.num_pairs
        g = sym._tabs["grade"] = keys[2:2 + 2 * P].sum(axis=0) + 2 * keys[-1]
    return g


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


@lru_cache(maxsize=None)
def _channel_table(spec: PhaseSpec):
    """Per channel: its sign, the key code one derivation in it takes off
    and, per side, the key column its derivative lowers.

    A derivation in pair i lowers alpha_i and beta_i, one in (t, tau)
    lowers tau; either adds one h.  Read-only.
    """
    P, chs = spec.num_pairs, _channels(spec)
    dec = np.zeros((len(chs), 3 + 2 * P), dtype=np.int64)
    for c, (cl, _, _) in enumerate(chs):
        dec[c, [1] if cl < 2 else [2 + (cl - 2) % P, 2 + P + (cl - 2) % P]] = 1
    dec[:, -1] = -1
    sides = np.array([[ch[0] for ch in chs], [ch[1] for ch in chs]])
    return _frozen(np.array([ch[2] for ch in chs]), dec @ _radices(spec)[1], sides)


def _cmul(ar, ai, br, bi):
    """Complex products on real and imaginary parts, as CPython forms them.

    A float factor enters as ``x + 0j``.  Each product and sum is its own
    array operation, so no two of them are fused into one rounding.
    """
    return ar * br - ai * bi, ar * bi + ai * br


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


def _caps(sym: FormalSymbol, side: int) -> np.ndarray:
    """[c, n]: how often the term's derivative in channel c can act, with
    ``sym`` the left (side 0) or right (side 1) kernel operand.  d_t acts
    with a Fourier mode, up to the tau truncation.  Kept on the symbol,
    read-only."""
    got = sym._tabs.get(("caps", side))
    if got is None:
        spec, keys = sym.spec, _columns(sym)[0]
        got = keys.take(_channel_table(spec)[2][side], axis=0)
        if spec.num_pairs == 1:
            got[1 - side] = (keys[0] != 0) * spec.tau_max
        got = sym._tabs["caps", side] = _frozen(got)[0]
    return got


def _side(sym: FormalSymbol, side: int, full: bool):
    """Channel tables of ``sym`` as the left (side 0) or right (side 1)
    kernel operand, built once per symbol and side.

    Without ``full``: the channels in which the term's derivative can act,
    one bit each (bit c for channel c), and the real and imaginary parts of
    the factor one derivation pulls down, flat [c, n].  With ``full``: how
    often it can act, [c, n] (``_caps``), and the factors of kappa
    derivations, [c, n, kappa].  A factor is a falling factorial, or
    (i m / 2)^kappa for d_t, read from ``_falling`` and ``_dt_powers``.
    """
    tabs = sym._tabs
    got = tabs.get((side, full))
    if got is not None:
        return got
    spec, m2 = sym.spec, _columns(sym)[0][0]
    gmax, tmax = spec.grade_max, spec.tau_max
    t = 1 - side if spec.num_pairs == 1 else None  # the d_t channel
    caps = _caps(sym, side)
    fim = np.zeros(caps.shape + ((max(gmax, tmax) + 1,) if full else ()))
    fre = _falling(max(gmax, tmax))[caps, slice(None) if full else 1]
    if t is not None:
        fre[t] = 0.0
        reach = int(np.abs(m2).max(initial=0))
        if reach and tmax:
            row = m2 + reach
            for tab, out in zip(_dt_powers(reach, tmax), (fre, fim)):
                if full:
                    out[t, :, :tmax + 1] = tab[row]
                else:
                    out[t] = tab[row, 1]
    if not full:
        caps = np.packbits(caps > 0, axis=0, bitorder="little")[0]
        fre, fim = fre.ravel(), fim.ravel()
    got = tabs[(side, full)] = _frozen(caps, fre, fim)
    return got


def _room(sym: FormalSymbol) -> np.ndarray:
    """grade (2 tau_max + 2) + a of every key: the sum of two of these
    holds a term pair's grade and tau power as separate digits.  Kept on
    the symbol."""
    u = sym._tabs.get("room")
    if u is None:
        tmax = sym.spec.tau_max
        u = sym._tabs["room"] = _grades(sym) * (2 * tmax + 2) + _columns(sym)[0][1]
    return u


@lru_cache(maxsize=None)
def _bracket_channels(spec: PhaseSpec, h_shift: int) -> np.ndarray:
    """[u] -> the channels, as bits, in which a term pair with room code
    u (see ``_room``) keeps one derivation inside the truncation; u past
    the last entry keeps none.  Read-only.

    A derivation in pair i keeps the grade and the tau power; one in
    (t, tau) raises the grade by 2 and lowers tau by 1.
    """
    tmax, room = spec.tau_max, spec.grade_max - 2 * h_shift
    g, tau = np.divmod(np.arange((room + 1) * (2 * tmax + 2) + 1), 2 * tmax + 2)
    keep = (g <= room) & (tau <= tmax)
    bits = np.zeros(len(g), dtype=np.uint8)
    for c, (cl, _, _) in enumerate(_channels(spec)):
        bits[(g <= room - 2) & (tau <= tmax + 1) if cl < 2 else keep] |= 1 << c
    return _frozen(bits)[0]


def _room_for_three(a: FormalSymbol, b: FormalSymbol, u: np.ndarray, h_shift: int):
    """The term pairs (left terms, right terms) inside the truncation (room
    codes u, see ``_room``) with room for three derivations: sum_c min(left
    cap, right cap) >= 3, the (t, tau) channels capped by the grade room."""
    spec = a.spec
    caps = _caps(a, 0), _caps(b, 1)
    if min(int(c.sum(axis=0).max()) for c in caps) < 3:  # no term of one side has room
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    lc, rc = (np.minimum(c, 3) for c in caps)
    room = spec.grade_max - 2 * h_shift
    # a pair's grade is its room code's high digit; a (t, tau) derivation costs 2
    budget = (room - u // (2 * spec.tau_max + 2)) // 2 if spec.has_angle else None
    total = 0
    for c in range(len(lc)):
        n = np.minimum(lc[c][:, None], rc[c])
        total = total + (n if budget is None or c > 1 else np.minimum(n, budget))
    return np.nonzero((total >= 3) & (u < (room + 1) * (2 * spec.tau_max + 2)))


@lru_cache(maxsize=None)
def _channel_bools(last_first: bool) -> np.ndarray:
    """[bits] -> four bytes, byte i 1 when bit i is set (bit 3 - i when
    ``last_first``), read as one uint32."""
    order = np.arange(4)[::-1] if last_first else np.arange(4)
    return _frozen(((np.arange(16)[:, None] >> order) & 1).astype(np.uint8)
                   .view(np.uint32).ravel())[0]


def _first_occurrence(code: np.ndarray):
    """(rows listing each distinct code once, by first occurrence; each row's label).

    A scatter of row numbers into the span of the codes finds every
    code's first row (only the slots the codes touch are set); a second
    scatter numbers those rows in order.  A span past 2^20 slots is first
    narrowed to the codes' ranks, so the scatter table stays small.
    """
    n = len(code)
    code = code - code.min()
    span = int(code.max()) + 1
    if span > 1 << 20:
        code = np.unique(code, return_inverse=True)[1]
        span = int(code.max()) + 1
    first = np.empty(span, dtype=np.int32)  # half the pages of intp
    first[code] = n
    rows = np.arange(n, dtype=np.int32)
    np.minimum.at(first, code, rows)
    heads = np.flatnonzero(first[code] == rows)
    first[code[heads]] = rows[:len(heads)]
    return heads, first[code]


def _sum_by_code(code: np.ndarray, re: np.ndarray, im: np.ndarray):
    """(first row of each distinct code, in order; re and im summed per
    code from +0.0 in row order)."""
    heads, lab = _first_occurrence(code)
    return (heads, np.bincount(lab, weights=re, minlength=len(heads)),
            np.bincount(lab, weights=im, minlength=len(heads)))


def _single_rows(a: FormalSymbol, b: FormalSymbol, u: np.ndarray, h_shift: int,
                 w: complex, last_first: bool):
    """The k = 1 rows of a kernel call: (pair, channel, code, re, im), zero
    contributions dropped, times the weight ``w``.

    One row per channel both terms can act in and the pair's grade and tau
    room (room codes ``u``) allow (``_bracket_channels``), read off one
    (pair, channel) mask, in (pair, channel) order, a pair's channels last
    first when ``last_first``.  A (t, tau) derivation needs a grade budget
    of 2 and lowers tau by 1.
    """
    spec = a.spec
    (_, lre, lim), (_, rre, rim) = _columns(a), _columns(b)
    sign, drop, _ = _channel_table(spec)
    (lbits, lfre, lfim), (rbits, rfre, rfim) = _side(a, 0, False), _side(b, 1, False)
    bits = lbits[:, None] & rbits
    bits &= _bracket_channels(spec, h_shift).take(u, mode="clip")
    # one byte per (pair, channel), so the rows come in (pair, channel) order
    row = np.flatnonzero(_channel_bools(last_first).take(bits).view(np.bool_))
    chan, pair = row & 3, row >> 2
    if last_first:
        chan = 3 - chan
    pl, pr = np.divmod(pair, len(rre))
    fre, fim = _cmul(lre[pl], lim[pl], rre[pr], rim[pr])
    fre, fim = _cmul(fre, fim, sign[chan], 0.0)
    at = chan * len(lre) + pl
    fre, fim = _cmul(fre, fim, lfre[at], lfim[at])
    at = chan * len(rre) + pr
    fre, fim = _cmul(fre, fim, rfre[at], rfim[at])
    nz = (fre != 0) | (fim != 0)
    if np.count_nonzero(nz) < len(nz):
        nz = np.flatnonzero(nz)
        pair, chan, pl, pr, fre, fim = pair[nz], chan[nz], pl[nz], pr[nz], fre[nz], fim[nz]
    code = _code(a)[pl] + _code(b)[pr] - (drop - _h_offset(spec, h_shift))[chan]
    return (pair, chan, code, *_cmul(fre, fim, w.real, w.imag))


@lru_cache(maxsize=1 << 12)
def _count_tuples(radix: tuple, orders: str) -> np.ndarray:
    """[c, n]: the derivation count tuples below ``radix`` that ``orders``
    keeps ("odd": an odd sum of at least 3, else all), in lexicographic
    order, then a row of their sums; read-only."""
    ks = np.indices(radix).reshape(len(radix), -1)
    k = ks.sum(axis=0)
    keep = (k % 2 == 1) & (k >= 3) if orders == "odd" else slice(None)
    return _frozen(np.vstack([ks, k])[:, keep])[0]


def _count_rows(a: FormalSymbol, b: FormalSymbol, li: np.ndarray, ri: np.ndarray,
                orders: str, h_shift: int, scale: complex):
    """The rows of the term pairs (li, ri) with derivation counts of the
    order ``orders`` selects ("all", "zeroth", or k >= 3 of "odd"): (pair,
    counts, code, re, im), pair the flat index of (left term, right term)
    and counts [c, row], zero contributions dropped, weighted.

    A pair's radices are one more than the counts each channel allows; its
    count tuples, in lexicographic order, are read from the table of those
    radices (``_count_tuples``), and those within the pair's grade and tau
    room are kept.  A derivation in pair i lowers alpha_i and beta_i and
    adds an h, so it keeps the grade; one in (t, tau) lowers no grade
    column and raises the grade by 2, and it lowers tau, so the pair's tau
    power may exceed the truncation by the (t, tau) count.
    """
    spec = a.spec
    (lk, lre, lim), (rk, rre, rim) = _columns(a), _columns(b)
    sign, drop, _ = _channel_table(spec)
    angle, room = spec.has_angle, spec.grade_max - 2 * h_shift
    if orders == "zeroth":  # one count tuple per pair: no derivation
        radix = np.ones((len(sign), len(li)), dtype=np.int64)
    else:
        (lcap, lfre, lfim), (rcap, rfre, rfim) = _side(a, 0, True), _side(b, 1, True)
        radix = np.minimum(lcap[:, li], rcap[:, ri]) + 1
    if angle:
        budget = (room - _grades(a)[li] - _grades(b)[ri]) // 2
        radix[:2] = np.minimum(radix[:2], budget + 1)
    # one table per distinct radix vector; a row is an entry of its pair's table
    top = int(radix.max()) + 1
    heads, lab = _first_occurrence(((radix[0] * top + radix[1]) * top + radix[2]) * top + radix[3])
    tables = [_count_tuples(tuple(r), orders) for r in radix[:, heads].T.tolist()]
    size = np.array([t.shape[1] for t in tables])
    table = np.concatenate(tables, axis=1)
    cnt = size[lab]
    pair = np.repeat(np.arange(len(li)), cnt)
    at = np.arange(len(pair)) + np.repeat((np.cumsum(size) - size)[lab] - (np.cumsum(cnt) - cnt), cnt)
    if angle:
        spent = table[0] + table[1]
        excess = lk[1, li] + rk[1, ri] - spec.tau_max
        keep = np.flatnonzero((spent[at] <= budget[pair]) & (spent[at] >= excess[pair]))
        pair, at = pair[keep], at[keep]
    ks = table.take(at, axis=1)
    pl, pr = li[pair], ri[pair]
    fre, fim = _cmul(lre[pl], lim[pl], rre[pr], rim[pr])
    top = int(ks[:-1].max(initial=0))
    for c, s in enumerate(sign.tolist()):
        on = np.flatnonzero(ks[c])
        if not len(on):
            continue
        x = ks[c, on]
        kf = [1.0]
        for kappa in range(1, top + 1):
            kf.append(kf[-1] * (s / kappa))
        re, im = _cmul(fre[on], fim[on], np.array(kf)[x], 0.0)
        at = (c * len(lre) + pl[on]) * lfre.shape[2] + x
        re, im = _cmul(re, im, lfre.ravel()[at], lfim.ravel()[at])
        at = (c * len(rre) + pr[on]) * rfre.shape[2] + x
        fre[on], fim[on] = _cmul(re, im, rfre.ravel()[at], rfim.ravel()[at])
    k = ks[-1]
    nz = np.flatnonzero((k == 0) | (fre != 0) | (fim != 0))
    ks, k, pl, pr = ks[:, nz], k[nz], pl[nz], pr[nz]
    w = np.array([scale * (-0.5j) ** n for n in range(int(k.max(initial=0)) + 1)])
    code = _code(a)[pl] + _code(b)[pr] + _h_offset(spec, h_shift) - drop @ ks[:-1]
    return pl * len(rre) + pr, ks[:-1], code, *_cmul(fre[nz], fim[nz], w.real[k], w.imag[k])


def _h_offset(spec: PhaseSpec, h_shift: int) -> int:
    """What an output key's code adds to its pair's codes besides the
    derivations: the h shift, less one j offset (see ``_radices``)."""
    return (h_shift - 1) * int(_radices(spec)[1][-1])


def _bidifferential(a: FormalSymbol, b: FormalSymbol, orders: str, h_shift: int,
                    scale: complex) -> FormalSymbol:
    """sum_k scale (h/2i)^k h^h_shift B_k(a, b) over the selected orders k.

    ``orders`` is "all", "odd", "first" (k = 1 only) or "zeroth" (k = 0
    only: B_0(a, b) is the plain product a b).  B_k sums, over every
    multiset of k elementary derivations, the signed derivatives with
    1/kappa! weights per channel.  Pairs with g_a + g_b + 2 h_shift above
    the truncation are never formed, nor are derivation counts whose
    output grade or tau power lies above it; a call whose operands' least
    grades already lie above it returns the zero symbol before it builds
    any table.  Each operand's grades, channel tables and key codes are
    kept on it (see ``_side`` and ``_code``), so a series builds its
    generator's once.

    The k = 1 rows of "first" and "odd" come off the bracket's (pair,
    channel) mask (``_single_rows``): "first" lists a pair's channels in
    the order of the bracket's formula, "odd" last first, which is the
    lexicographic order of the count tuples.  "odd" enumerates its k >= 3
    rows (``_count_rows``) only for the pairs with room for three
    derivations (``_room_for_three``) and merges the two row sets in
    (pair, count tuple) order; "all" and "zeroth" enumerate the count
    tuples of every pair inside the truncation.  An output key's code is
    its pair's codes less what the derivations take off.

    One array pass gives what a nested loop would, bit for bit: over term
    pairs (left term outer), then derivation counts (k0, k1, k2, k3) in
    lexicographic order, each contribution the CPython complex products
    ((f kf) fa) fb per active channel times the weight, dropped when its
    chain is exactly zero, and added to its key from +0.0, keys listed by
    first occurrence (one scatter, then ``np.bincount``).  Every output
    coefficient is an ``np.complex128``, whatever the operands' scalar
    types: the type is a subclass of ``complex`` and the bits are those
    of the loop's Python sums.
    """
    a._check(b)
    spec = a.spec
    room = spec.grade_max - 2 * h_shift
    if not a or not b or a.min_grade() + b.min_grade() > room:
        return FormalSymbol.zero(spec)
    with np.errstate(over="ignore", invalid="ignore"):  # as silent as Python floats
        if orders in ("first", "odd"):
            u = _room(a)[:, None] + _room(b)
            pair, chan, code, fre, fim = _single_rows(a, b, u, h_shift, scale * (-0.5j) ** 1,
                                                      orders == "odd")
        if orders == "odd":
            li, ri = _room_for_three(a, b, u, h_shift)
            if len(li):
                # (pair, count tuple) as one number: pair, then counts as digits
                # below a radix past every cap, at most the larger truncation
                radix = max(spec.grade_max, spec.tau_max) + 1
                pair3, ks, *more = _count_rows(a, b, li, ri, orders, h_shift, scale)
                for c in range(len(ks)):
                    pair, pair3 = pair * radix + (chan == c), pair3 * radix + ks[c]
                code, fre, fim = _merged((pair, code, fre, fim), (pair3, *more))
        elif orders != "first":
            li, ri = np.nonzero(_grades(a)[:, None] + _grades(b) <= room)
            code, fre, fim = _count_rows(a, b, li, ri, orders, h_shift, scale)[2:]
    if not len(code):
        return FormalSymbol.zero(spec)
    heads, vre, vim = _sum_by_code(code, fre, fim)
    code = code[heads]
    return FormalSymbol._of_columns(spec, _decode(code, spec), vre, vim, code, prune=True)


def _merged(first, second):
    """(code, re, im) of two row sets (order, code, re, im), each listed by
    ascending order, the orders all distinct: one set in order."""
    at = np.argsort(np.concatenate([first[0], second[0]]), kind="stable")  # one merge of two runs
    return [np.concatenate([x, y])[at] for x, y in zip(first[1:], second[1:])]


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
    Every term c spreads over its expansion as c * fac, the Python
    product; these are summed per key in one pass, keys listed by first
    occurrence (source terms outer), and pruned once.
    """
    spec, P = symbol.spec, symbol.spec.num_pairs
    keys, re, im = _columns(symbol)
    (cxx, cxxi), (cix, cixi) = x_row, xi_row
    expansions, src, exps, facs = {}, [], [], []
    for i, (p, q) in enumerate(zip(keys[2 + pair].tolist(), keys[2 + P + pair].tolist())):
        expansion = expansions.get((p, q))
        if expansion is None:
            expansion = expansions[p, q] = {}
            for r in range(p + 1):
                fx = math.comb(p, r) * cxx**r * cxxi ** (p - r)
                for s in range(q + 1):
                    fxi = math.comb(q, s) * cix**s * cixi ** (q - s)
                    key = (r + s, (p - r) + (q - s))
                    expansion[key] = expansion.get(key, 0.0) + fx * fxi
        src += [i] * len(expansion)
        exps += expansion
        facs += expansion.values()
    if not src:
        return symbol
    out = keys.take(src, axis=1)
    out[[2 + pair, 2 + P + pair]] = np.array(exps).T
    fac = np.array(facs, dtype=complex)
    fre, fim = _cmul(re[src], im[src], fac.real, fac.imag)
    code = _encode(out, spec)
    heads, vre, vim = _sum_by_code(code, fre, fim)
    return FormalSymbol._of_columns(spec, out.take(heads, axis=1), vre, vim, code[heads],
                                    prune=True)


def resonant_project(v: FormalSymbol) -> tuple[FormalSymbol, FormalSymbol]:
    """Split v into (resonant, nonresonant).

    Resonant terms depend only on the actions: Fourier mode zero and
    alpha == beta, i.e. functions of (tau, x xi, h) on the cylinder and of
    the pair products on the saddle.
    """
    keys = _columns(v)[0]
    P = v.spec.num_pairs
    resonant = (keys[0] == 0) & (keys[2:2 + P] == keys[2 + P:2 + 2 * P]).all(axis=0)
    return v._select(resonant), v._select(~resonant)


def homological_solve(
    v: FormalSymbol, f: TauSeries, mu: TauSeries
) -> tuple[FormalSymbol, FormalSymbol]:
    """Solve the transport equation of the cylinder normal form.

    Finds u with (f'(tau) d_t + mu(tau)(x d_x - xi d_xi)) u = v - [v],
    term by term: u_{m, alpha, beta} = v_{m, alpha, beta} / D with
    D(tau) = i m f'(tau) + mu(tau) (|alpha| - |beta|), dividing tau series
    by the truncated inverse of D.  The inverse of each D is formed once
    per f', mu and (m, alpha - beta) and kept for later calls
    (``_transport_inverse``), so a normal form, which divides by the same
    model's denominators at every grade, inverts each once.  The resonant
    part [v] is returned as the residual, untouched.
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
    keys, re, im = _columns(nonres)
    if not len(re):
        return nonres, residual
    # one tau polynomial per key less its tau power, by first occurrence
    heads, group = _first_occurrence(_code(nonres) - keys[1] * _radices(spec)[1][1])
    polys = np.zeros((len(heads), K + 1), dtype=complex)
    polys.real[group, keys[1]], polys.imag[group, keys[1]] = 0.0 + re, 0.0 + im

    series = fp.coeffs.tobytes(), mu.coeffs.tobytes()
    u = np.empty_like(polys)
    # the cylinder has one pair: alpha - beta is one column less another
    for g, ck in enumerate(zip(keys[0, heads].tolist(), (keys[2] - keys[3])[heads].tolist())):
        u[g] = np.convolve(polys[g], _transport_inverse(*series, *ck))[: K + 1]
    # the non-zero coefficients, by polynomial and then tau power
    group, a = np.nonzero(u)
    out = keys.take(heads[group], axis=1)
    out[1] = a
    c = u[group, a]
    return FormalSymbol._of_columns(spec, out, 0.0 + c.real, 0.0 + c.imag, prune=True), residual


@lru_cache(maxsize=1 << 12)
def _transport_inverse(fp: bytes, mu: bytes, m2: int, diff: int) -> np.ndarray:
    """Truncated inverse of D = i m f' + mu (|alpha| - |beta|), f' and mu
    given by their coefficient bytes; read-only.  Raises
    ModelDegeneracyError when D(0) vanishes against |f'(0)| + |mu(0)|."""
    fp, mu = (TauSeries(np.frombuffer(x, dtype=complex)) for x in (fp, mu))
    D = (0.5j * m2) * fp + diff * mu
    if abs(D.coeffs[0]) <= 1e-14 * (abs(fp.coeffs[0]) + abs(mu.coeffs[0])):
        raise ModelDegeneracyError(
            f"transport denominator vanishes on non-resonant term m={m2/2}, "
            f"alpha-beta={diff}"
        )
    return _frozen(D.inverse().coeffs)[0]


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
        w = step(w)
        if not w:
            return acc
        w = w * (1.0 / k)
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
