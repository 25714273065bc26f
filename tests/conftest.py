import numpy as np
import pytest
from hypothesis import settings

from qbnf.symbols import FormalSymbol

# property tests draw the same examples on every run and stay cheap
settings.register_profile(
    "qbnf", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("qbnf")


def random_symbol(spec, rng, n_terms=4, max_exp=2, max_mode=2, max_tau=2,
                  max_h=1, real=False, classical=False):
    """Random sparse symbol with bounded exponents (seeded, reproducible)."""
    terms = {}
    for _ in range(n_terms):
        alpha = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(spec.num_pairs))
        beta = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(spec.num_pairs))
        j = 0 if classical else int(rng.integers(0, max_h + 1))
        if sum(alpha) + sum(beta) + 2 * j > spec.grade_max:
            continue
        if spec.has_angle:
            a = int(rng.integers(0, min(max_tau, spec.tau_max) + 1))
            if spec.orientable:
                m2 = 2 * int(rng.integers(-max_mode, max_mode + 1))
            else:
                par = (sum(alpha) - sum(beta)) % 2
                m2 = 2 * int(rng.integers(-max_mode, max_mode)) + par
        else:
            a, m2 = 0, 0
        c = complex(rng.normal(), rng.normal())
        key = (m2, a, alpha, beta, j)
        terms[key] = terms.get(key, 0.0) + c
    sym = FormalSymbol(spec, terms)
    if real:
        sym = 0.5 * (sym + sym.conjugate())
    return sym


def symbols_close(a, b, tol=1e-12):
    d = a - b
    scale = max(a.max_abs(), b.max_abs(), 1.0)
    return d.max_abs() <= tol * scale


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
