"""Tests of the benchmark's tracer, workload generator and correctness gate."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import qbnf  # noqa: E402,F401  (loads every layer module)
import qbnf.scenario as sc  # noqa: E402

ROOT = BENCH.parent


def _sites():
    return tracing.binding_sites(tracing.layer_functions())


def test_wrapper_covers_every_binding_site():
    functions = tracing.layer_functions()
    sites = _sites()
    names = {(mod.__name__, attr) for mod, attr, _ in sites}
    # import-time bindings in other modules and the package re-exports
    for site in [("qbnf.scenario", "closed_orbit_bnf"), ("qbnf.scenario", "direct_spectrum"),
                 ("qbnf.compare", "direct_spectrum"), ("qbnf.normal_form", "lie_transform"),
                 ("qbnf.normal_form", "star_conjugate"), ("qbnf", "poisson_bracket"),
                 ("qbnf.eigensolve", "spectral_norm")]:
        assert site in names
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        for layer in tracing.LAYERS:
            mod = sys.modules[f"qbnf.{layer}"]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if id(getattr(obj, "__wrapped__", None)) in functions:
                    continue
                assert id(obj) not in functions, f"qbnf.{layer}.{name} not wrapped"
        # no qbnf module still binds an original layer function
        for modname, mod in sys.modules.items():
            if modname == "qbnf" or modname.startswith("qbnf."):
                leaked = [a for a, v in vars(mod).items()
                          if id(v) in functions and functions[id(v)][0] is v]
                assert not leaked, (modname, leaked)
        # eigenvalues is imported inside direct_spectrum at call time
        config = sc.load_config("quadratic_saddle")
        sc.computed_spectrum(config, config.h_values[0])
    spans = tracer.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    assert len(by_name["eigenvalues"]) == 2
    for s in by_name["eigenvalues"]:
        assert spans[s.parent].name == "direct_spectrum"
    for s in by_name["spectral_norm"]:
        assert spans[s.parent].name == "eigenvalues"
    assert spans[by_name["direct_spectrum"][0].parent].name == "computed_spectrum"
    assert [(m, a, f) for m, a, f in _sites()] == sites  # originals restored


def test_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def inner():
        return None

    def outer():
        tracer.call("symbols", "poisson_bracket", inner, (), {})
        tracer.call("symbols", "poisson_bracket", inner, (), {})

    tracer.call("normal_form", "replay_chain", outer, (), {})
    root, first, second = tracer.spans
    assert (first.parent, second.parent, root.parent) == (0, 0, -1)
    assert root.total_s == 10.0 and root.self_s == 6.0
    assert (first.self_s, second.self_s) == (3.0, 1.0)
    m = tracing.layer_metrics(tracer, wall_s=10.0)
    assert m["normal_form.self_s"] == 6.0
    assert m["symbols.self_s"] == 4.0
    assert m["symbols.poisson_bracket.calls"] == 2
    assert m["normal_form.replay_s"] == 10.0
    assert set(m) | {"scenario.bytes_written", "scenario.artifacts_changed"} == {
        name for name, _, _ in tracing.PER_LAYER}


def test_span_closes_when_the_call_raises():
    ticks = iter([0.0, 2.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def boom():
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        tracer.call("eigensolve", "eigenvalues", boom, (), {})
    assert tracer.spans[0].error == "ZeroDivisionError"
    assert tracer.spans[0].total_s == 2.0 and not tracer._stack


def test_untraced_pass_runs_the_original_functions():
    before = _sites()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        pass
    assert _sites() == before
    for mod, attr, fn in before:
        assert getattr(mod, attr) is fn and not hasattr(fn, "__wrapped__")
    sc.compute_normal_form(sc.load_config("quadratic_saddle"))
    assert tracer.spans == []


def test_seed_zero_is_the_shipped_bundle_and_other_seeds_only_scale():
    base = dict(workloads.scenarios(ROOT, "bundled_run", 0))
    for name, raw in base.items():
        assert raw == sc.load_config(name).raw
    for workload in workloads.WORKLOADS:
        plain = workloads.scenarios(ROOT, workload, 0)
        for seed in (1, 7, 123):
            variant = workloads.variant_of(seed)
            assert 1 <= variant < workloads.NUM_VARIANTS
            scaled = workloads.scenarios(ROOT, workload, variant)
            assert scaled == workloads.scenarios(ROOT, workload, variant)
            for (n0, r0), (n1, r1) in zip(plain, scaled):
                assert n0 == n1 and r0["compute"] == r1["compute"]
                for block in workloads.SCALED_BLOCKS:
                    for t0, t1 in zip(r0["model"].get(block, []), r1["model"].get(block, [])):
                        assert {k: v for k, v in t0.items() if k not in ("re", "im")} == \
                               {k: v for k, v in t1.items() if k not in ("re", "im")}
                        assert 0.9 <= t1["re"] / t0["re"] <= 1.1


def test_gate_counts_every_problem():
    nf = [[0, 1, 0, 2.0, 0.0]]
    raw = {"compute": {"h_values": [0.1, 0.05], "sweep": True}}
    good = {"status": "ok", "matches": 2, "unmatched": 0, "max_err": 1e-7, "slope": 3.9,
            "nf": nf}
    assert checks.problems(raw, good, None, 1e-6, nf) == []
    bad = dict(good, status="incomplete", unmatched=1, max_err=1e-3, slope=1.5,
               nf=[[0, 1, 0, 2.0 + 1e-8, 0.0]])
    assert len(checks.problems(raw, bad, None, 1e-6, nf)) == 5
    assert checks.problems(raw, dict(good, nf=None), None, 1e-6, None) == []
    assert checks.problems(raw, dict(good, nf=None), None, 1e-6, nf) == \
        ["normal_form.json missing"]
    assert checks.problems(raw, None, "ValueError: x", 1e-6, nf) == ["raised ValueError: x"]


def test_every_bnf_variant_has_recorded_coefficients():
    reference = checks.load_reference()
    for workload in ("bnf_classical", "bnf_quantum"):
        names = [n for n, _ in workloads.scenarios(ROOT, workload, 0)]
        for variant in range(workloads.NUM_VARIANTS):
            recorded = checks.recorded(reference, "normal_form", workload, variant)
            assert sorted(recorded) == sorted(names)
            assert all(recorded[n] for n in names)
    obs = {"digests": {"a.csv": "1", "b.csv": "2"}}
    assert checks.artifacts_changed(obs, {"a.csv": "1", "b.csv": "2"}) == 0
    assert checks.artifacts_changed(obs, {"a.csv": "1", "b.csv": "3", "c.csv": "4"}) == 2
