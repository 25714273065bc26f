"""Symbol operations on ``{key: coefficient}`` dicts, kept as test oracles.

``qbnf.symbols`` holds a symbol as key columns and coefficient arrays.
These functions do the same operations one term at a time in Python, on
dicts, with the semantics the arrays must keep: Python's abs for pruning,
c + c_other on a shared key and 0.0 + c_other on a new one, keys in
insertion order; and the two pipelines' functional-calculus conversions,
each its own loop.  Each returns a dict; ``held`` makes a symbol of one as
it is, and ``dict_evaluate`` gives the numeric value of one at a point.
"""

import math

import numpy as np

from qbnf.normal_form import _action_power_corrections
from qbnf.symbols import PRUNE_REL, FormalSymbol, ModelDegeneracyError


def _key_columns(keys, P):
    """Key columns of (2m, a, alpha, beta, j) tuples, as int64."""
    rows = [(k[0], k[1], *k[2], *k[3], k[4]) for k in keys]
    return np.ascontiguousarray(np.array(rows, dtype=np.int64).reshape(len(rows), 3 + 2 * P).T)


def held(spec, terms):
    """A symbol holding ``terms`` as given: not checked, summed or pruned,
    so it may break the truncation or the parity, or keep a -0.0 part."""
    c = np.array([complex(v) for v in terms.values()], dtype=complex)
    return FormalSymbol._of_columns(spec, _key_columns(list(terms), spec.num_pairs),
                                    c.real, c.imag)


def dict_prune(terms):
    """The terms above PRUNE_REL times the largest magnitude, Python's abs;
    a non-finite coefficient raises ArithmeticError naming its key."""
    if not terms:
        return {}
    mags = [abs(complex(c)) for c in terms.values()]
    for key, m in zip(terms, mags):
        if not math.isfinite(m):
            raise ArithmeticError(f"non-finite coefficient {terms[key]} at key {key}")
    top = max(mags)
    if top == 0.0:
        return {}
    floor = PRUNE_REL * top
    return {k: c for (k, c), m in zip(terms.items(), mags) if m > floor}


def dict_clean(spec, terms):
    """What ``FormalSymbol(spec, terms)`` keeps: each key checked by
    ``spec.validate_key`` (every entry an integer or an integral float)
    and read with int(), out-of-bound keys and zero coefficients dropped,
    repeated keys summed from 0.0, then pruned."""
    cleaned = {}
    for key, coef in terms.items():
        key = (key[0], key[1], tuple(key[2]), tuple(key[3]), key[4])
        spec.validate_key(key)
        key = (int(key[0]), int(key[1]), tuple(map(int, key[2])), tuple(map(int, key[3])),
               int(key[4]))
        if key[1] > spec.tau_max or spec.grade(key) > spec.grade_max or coef == 0:
            continue
        cleaned[key] = cleaned.get(key, 0.0) + complex(coef)
    return dict_prune(cleaned)


def dict_sum(a, b):
    """Symbol addition: c_a + c_b on a shared key, 0.0 + c_b on a new one,
    listed after a's keys; then pruned."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0.0) + c
    return dict_prune(out)


def dict_evaluate(terms, *, pairs, t=0.0, tau=0.0, h=0.0) -> complex:
    """The terms summed at the phase-space point (t, tau, pairs, h), one
    term at a time; ``pairs`` is ((x, xi), ...), one entry per pair."""
    total = 0j
    for (m2, a, alpha, beta, j), c in terms.items():
        val = c * np.exp(0.5j * m2 * t)
        if a:
            val *= tau**a
        for (x, xi), ea, eb in zip(pairs, alpha, beta):
            if ea:
                val *= x**ea
            if eb:
                val *= xi**eb
        if j:
            val *= h**j
        total += val
    return complex(total)


def loop_substitute_pair(terms, pair, x_row, xi_row):
    """``substitute_pair`` with a running prune: each source term's
    expansion is added to the running sum, which is pruned after every
    addition, and the result once more."""
    cxx, cxxi = x_row
    cix, cixi = xi_row
    out = {}
    for (m2, a, alpha, beta, j), c in terms.items():
        p, q = alpha[pair], beta[pair]
        expansion = {}
        for r in range(p + 1):
            fx = math.comb(p, r) * cxx**r * cxxi ** (p - r)
            for s in range(q + 1):
                fxi = math.comb(q, s) * cix**s * cixi ** (q - s)
                key = (r + s, (p - r) + (q - s))
                expansion[key] = expansion.get(key, 0.0) + fx * fxi
        part = {}
        for (na, nb), fac in expansion.items():
            alpha2 = alpha[:pair] + (na,) + alpha[pair + 1:]
            beta2 = beta[:pair] + (nb,) + beta[pair + 1:]
            key = (m2, a, alpha2, beta2, j)
            part[key] = part.get(key, 0.0) + c * fac
        out = dict_sum(out, part)
    return dict_prune(out)


def loop_homological_solve(terms, K, fp, mu):
    """The non-resonant part of ``homological_solve``: one tau polynomial
    per (m, alpha, beta, j) in order of first occurrence, divided by its
    denominator's truncated inverse; ``fp`` and ``mu`` are the resized
    f' and mu."""
    groups = {}
    for (m2, a, alpha, beta, j), c in terms.items():
        if m2 == 0 and alpha == beta:
            continue
        g = groups.setdefault((m2, alpha, beta, j), np.zeros(K + 1, dtype=complex))
        g[a] += c
    inv_cache = {}
    scale = abs(fp.coeffs[0]) + abs(mu.coeffs[0])
    u_terms = {}
    for (m2, alpha, beta, j), poly in groups.items():
        diff = sum(alpha) - sum(beta)
        ck = (m2, diff)
        if ck not in inv_cache:
            D = (0.5j * m2) * fp + diff * mu
            if abs(D.coeffs[0]) <= 1e-14 * scale:
                raise ModelDegeneracyError("transport denominator vanishes")
            inv_cache[ck] = D.inverse()
        u_poly = np.convolve(poly, inv_cache[ck].coeffs)[: K + 1]
        for a, c in enumerate(u_poly):
            if c != 0:
                key = (m2, a, alpha, beta, j)
                u_terms[key] = u_terms.get(key, 0.0) + c
    return dict_prune(u_terms)


def loop_equilibrium_solve(terms, nu):
    """``normal_form._equilibrium_solve`` one term at a time: D = nu .
    (alpha - beta) as the Python sum forms it, once per distinct alpha -
    beta (a dict), and each coefficient divided by its D in one numpy
    complex division, in key order."""
    floor = min(abs(nu[0]), abs(nu[1])) * (1 - 1e-12)
    D = {}
    for _, _, alpha, beta, _ in terms:
        diff = tuple(x - y for x, y in zip(alpha, beta))
        if diff not in D:
            D[diff] = sum(n * d for n, d in zip(nu, diff))
        if abs(D[diff]) < floor:
            raise ModelDegeneracyError(f"resonance bound violated at alpha={alpha}, beta={beta}")
    den = [D[tuple(x - y for x, y in zip(k[2], k[3]))] for k in terms]
    q = np.array(list(terms.values()), dtype=complex) / np.array(den, dtype=complex)
    return dict(zip(terms, q))


def loop_functional_closed_orbit(terms):
    """The functional coefficients {(a, b, j): c} of a resonant cylinder
    symbol, a hand-written loop over its one pair: each (x xi)^b = zeta^b
    becomes sum_r (-1)^r v[b][r] h^{2r} zeta^(b-2r)."""
    bmax = max((k[2][0] for k in terms), default=0)
    v = _action_power_corrections(bmax)
    coeffs = {}
    for (m2, a, alpha, beta, j), c in terms.items():
        b = alpha[0]
        for r in range(b // 2 + 1):
            val = c * ((-1.0) ** r) * v[b][r]
            if val != 0:
                key = (a, b - 2 * r, j + 2 * r)
                coeffs[key] = coeffs.get(key, 0.0) + val
    return {k: c for k, c in coeffs.items() if c != 0}


def loop_functional_equilibrium(terms):
    """The functional coefficients {(b1, b2, j): c} of a resonant saddle
    symbol, a hand-written loop over its two pairs: (x1 xi1)^b1 (x2 xi2)^b2
    = (iota1/i)^b1 (iota2/i)^b2, each action power converted on its own
    axis, with no alternating sign since the slots are real."""
    bmax = max((max(k[2]) for k in terms), default=0)
    v = _action_power_corrections(bmax)
    coeffs = {}
    for (m2, a, alpha, beta, j), c in terms.items():
        b1, b2 = alpha
        base = c * (-1j) ** (b1 + b2)
        for r1 in range(b1 // 2 + 1):
            for r2 in range(b2 // 2 + 1):
                val = base * v[b1][r1] * v[b2][r2]
                if val != 0:
                    key = (b1 - 2 * r1, b2 - 2 * r2, j + 2 * (r1 + r2))
                    coeffs[key] = coeffs.get(key, 0.0) + val
    return {k: c for k, c in coeffs.items() if c != 0}
