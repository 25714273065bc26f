"""Workload definitions: the scenario configs each workload runs.

Every workload is a list of (name, raw config) pairs that go through
``qbnf.scenario.run_scenario`` unchanged.  The seed picks one of
``NUM_VARIANTS`` input variants: variant 0 (seed 0 only) is exactly the
configs below, and the bundled scenarios equal the shipped JSON files.
Every other variant scales each perturbation / higher-term coefficient
by its own factor in [0.9, 1.1].  Structure, orders, h values, windows
and bases never change, so the work per pass is the same for every seed.
The variant set is finite so that every variant has recorded artifact
digests in ``reference.json``.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path

NUM_VARIANTS = 10

#: term lists whose coefficients the seed scales
SCALED_BLOCKS = ("perturbation", "higher_terms")

_SADDLE_TERMS = [
    {"alpha": [2, 2], "beta": [0, 0], "j": 0, "re": 0.2},
    {"alpha": [3, 0], "beta": [0, 0], "j": 0, "re": 0.05},
    {"alpha": [1, 1], "beta": [1, 1], "j": 0, "re": 0.1},
]
_CYLINDER_TERMS = [
    {"m": 1, "alpha": [3], "beta": [0], "re": 0.1},
    {"m": -1, "alpha": [0], "beta": [3], "re": 0.1},
    {"m": 2, "a": 1, "alpha": [2], "beta": [2], "re": 0.05},
]


def _saddle(order: int, extra=()) -> dict:
    return {
        "schema_version": 1,
        "model": {
            "kind": "saddle",
            "energy0": 0.0,
            "lambda_unstable": 1.0,
            "lambda_stable": math.sqrt(2.0),
            "higher_terms": _SADDLE_TERMS + list(extra),
        },
        "compute": {
            "order": order,
            "h_values": [0.05],
            "window": {"half_width": 0.7, "depth": 0.5},
            "direct": False,
        },
    }


def _cylinder(order: int, extra=()) -> dict:
    return {
        "schema_version": 1,
        "model": {
            "kind": "cylinder",
            "orientable": True,
            "action": 0.0,
            "energy_coeffs": [0.0, 1.0, -0.2],
            "rate_coeffs": [1.0, 0.3],
            "perturbation": _CYLINDER_TERMS + list(extra),
        },
        "compute": {
            "order": order,
            "h_values": [0.05],
            "window": {"half_width": 0.3, "depth": 0.25},
            "direct": False,
        },
    }


def _bundled(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "qbnf" / "scenarios" / f"{name}.json").read_text())


def _base(root: Path, workload: str) -> list[tuple[str, dict]]:
    # Orders are chosen so that one pass takes about 3 s on a 2-core machine:
    # a run then takes the median of several passes, and per-pass timing
    # noise of up to 40% on a shared host does not reach the result.  At
    # these orders the symbol kernels still take over 98% of the pass and
    # the chain replay 65-85% of the normal form, as at order 10.
    if workload == "bnf_classical":
        return [("saddle_n8", _saddle(8)), ("cylinder_n8", _cylinder(8))]
    if workload == "bnf_quantum":
        return [
            ("saddle_h_n7", _saddle(7, [{"alpha": [1, 0], "beta": [0, 1], "j": 1, "re": 0.05}])),
            ("cylinder_h_n5", _cylinder(5, [{"m": 1, "alpha": [1], "beta": [0], "j": 1, "re": 0.05}])),
        ]
    if workload == "bundled_run":
        names = ["quadratic_saddle", "cylinder_unperturbed", "cylinder_cubic",
                 "nonorientable_halfmode"]
        return [(n, _bundled(root, n)) for n in names]
    if workload == "saddle_sweep":
        return [("perturbed_saddle", _bundled(root, "perturbed_saddle"))]
    raise KeyError(workload)


WORKLOADS = ("bnf_classical", "bnf_quantum", "bundled_run", "saddle_sweep")


def variant_of(seed: int) -> int:
    """Seed 0 is the unscaled variant; every other seed maps to 1..NUM_VARIANTS-1."""
    return 0 if seed == 0 else 1 + (seed - 1) % (NUM_VARIANTS - 1)


def scenarios(root: Path, workload: str, variant: int) -> list[tuple[str, dict]]:
    """The (name, raw config) pairs of ``workload`` for an input variant."""
    out = []
    rng = random.Random(variant)
    for name, raw in _base(root, workload):
        raw = copy.deepcopy(raw)
        if variant:
            for block in SCALED_BLOCKS:
                for term in raw["model"].get(block, []):
                    factor = rng.uniform(0.9, 1.1)
                    for part in ("re", "im"):
                        if part in term:
                            term[part] *= factor
        out.append((name, raw))
    return out
