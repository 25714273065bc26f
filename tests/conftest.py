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


def workload_cylinder(center, half_width=0.2, depth=0.2, h=0.1, order=4):
    """The normal-form workloads' cylinder (f = tau - 0.2 tau^2, mu = 1 + 0.3 tau,
    perfbench/workloads.py) as a scenario config, with its window centred at ``center``.

    f peaks at tau = 2.5, so the orbit branch through tau = 0 reaches
    energies up to 1.25 and no further.
    """
    return {
        "schema_version": 1,
        "model": {
            "kind": "cylinder",
            "energy0": center,
            "energy_coeffs": [0.0, 1.0, -0.2],
            "rate_coeffs": [1.0, 0.3],
            "perturbation": [
                {"m": 1, "alpha": [3], "beta": [0], "re": 0.1},
                {"m": -1, "alpha": [0], "beta": [3], "re": 0.1},
                {"m": 2, "a": 1, "alpha": [2], "beta": [2], "re": 0.05},
            ],
        },
        "compute": {
            "order": order,
            "h_values": [h],
            "window": {"half_width": half_width, "depth": depth},
        },
    }


def config_operator(config, h):
    """A scenario's model operator on its basis at h, assembled apart from any run."""
    from qbnf.compare import model_operator_symbol
    from qbnf.quantize import assemble_cylinder, assemble_saddle

    assemble = assemble_cylinder if config.kind == "cylinder" else assemble_saddle
    return assemble(model_operator_symbol(config.model()), config.basis_for(h))


def symbols_close(a, b, tol=1e-12):
    d = a - b
    scale = max(a.max_abs(), b.max_abs(), 1.0)
    return d.max_abs() <= tol * scale


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
