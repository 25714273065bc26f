"""Outside-in span tracing of the qbnf layers.

``traced(tracer)`` wraps every function listed in the ``__all__`` of each
layer module at every module of the ``qbnf`` package that binds it (the
layer module itself, the package ``__init__`` and every ``from .x import``
site), and puts the originals back on exit.  Functions imported at call
time, such as ``eigenvalues`` inside ``quantize.direct_spectrum``, are
looked up on the patched layer module and so are traced too.

Each call records a span (layer, function, parent span, start, end) in
memory.  Self time is the span's duration minus the time its child spans
cover; the calls are single-threaded and nested, so the children of one
span never overlap and their durations add up.  Counters are read off the
return values at the same boundaries, so work counts and ratios are
measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("symbols", "normal_form", "lattice", "quantize", "eigensolve", "compare",
          "scenario")

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("traced.wall_s", "s", "lower"),
    ("symbols.self_s", "s", "lower"),
    ("symbols.poisson_bracket.calls", "count", "lower"),
    ("symbols.poisson_bracket.self_s", "s", "lower"),
    ("symbols.star_conjugate.calls", "count", "lower"),
    ("symbols.star_conjugate.self_s", "s", "lower"),
    ("symbols.lie_transform.calls", "count", "lower"),
    ("symbols.terms_out", "count", "lower"),
    ("normal_form.self_s", "s", "lower"),
    ("normal_form.bnf_s", "s", "lower"),
    ("normal_form.replay_s", "s", "lower"),
    ("normal_form.replay_share", "ratio", "lower"),
    ("normal_form.chain_steps", "count", "lower"),
    ("normal_form.normalized_terms", "count", "lower"),
    ("normal_form.remainder_terms", "count", "lower"),
    ("lattice.self_s", "s", "lower"),
    ("lattice.points", "count", "higher"),
    ("quantize.self_s", "s", "lower"),
    ("quantize.assemble_s", "s", "lower"),
    ("quantize.assemble_calls", "count", "lower"),
    ("quantize.dim_max", "count", "lower"),
    ("quantize.nnz_frac", "ratio", "lower"),
    ("quantize.dense_mb", "MB", "lower"),
    ("quantize.direct_spectrum_s", "s", "lower"),
    ("eigensolve.self_s", "s", "lower"),
    ("eigensolve.spectral_norm_s", "s", "lower"),
    ("eigensolve.calls", "count", "lower"),
    ("eigensolve.repeat_frac", "ratio", "lower"),
    ("eigensolve.window_yield", "ratio", "higher"),
    ("eigensolve.n3_sum", "count", "lower"),
    ("eigensolve.flagged", "count", "lower"),
    ("eigensolve.worst_residual_ratio", "ratio", "lower"),
    ("eigensolve.cert_failures", "count", "lower"),
    ("compare.self_s", "s", "lower"),
    ("compare.match_s", "s", "lower"),
    ("compare.sweep_s", "s", "lower"),
    ("compare.matched", "count", "higher"),
    ("compare.unmatched_predicted", "count", "lower"),
    ("scenario.self_s", "s", "lower"),
    ("scenario.artifacts", "count", "lower"),
    ("scenario.bytes_written", "B", "lower"),
    ("scenario.artifacts_changed", "count", "lower"),
]

#: default tol_rel of eigensolve.eigenvalues, for the residual ratio
EIG_TOL_REL = 1e-8


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "child_s", "error")

    def __init__(self, layer, name, parent, start):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.error = None

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """In-memory span recorder plus the counters read at span boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.dims: list[int] = []
        self.nnz = 0
        self.fingerprints: set[str] = set()
        self.repeats = 0
        self.eig_values = 0
        self.worst_residual_ratio = 0.0

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def call(self, layer: str, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = Span(layer, name, parent, self.clock())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            if name == "eigenvalues" and span.error == "EigensolveError":
                self.add("eigensolve.cert_failures")
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.total_s
        observer = _OBSERVERS.get(name)
        if observer is not None:
            observer(self, result, kwargs)
        if layer == "symbols":
            self.add("symbols.terms_out", _term_count(result))
        return result

    def dump(self, path) -> None:
        """Write the spans as [layer, name, parent, start, end, self_s, error] rows."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            [s.layer, s.name, s.parent, s.start - t0, s.end - t0, s.self_s, s.error]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["layer", "name", "parent", "start_s", "end_s",
                                   "self_s", "error"], "spans": rows}, fh)


def _term_count(result) -> int:
    if isinstance(result, tuple):
        return sum(_term_count(r) for r in result)
    if type(result).__name__ == "FormalSymbol":
        return len(result)
    return 0


def _observe_bnf(tr: Tracer, result, kwargs) -> None:
    _, chain = result
    tr.add("normal_form.chain_steps", len(chain.steps))
    tr.add("normal_form.normalized_terms", len(chain.normalized_symbol or ()))
    tr.add("normal_form.remainder_terms", len(chain.remainder or ()))


def _observe_lattice(tr: Tracer, result, kwargs) -> None:
    tr.add("lattice.points", len(result.entries))


def _observe_assemble(tr: Tracer, result, kwargs) -> None:
    import numpy as np

    tr.dims.append(result.dim)
    tr.nnz += int(np.count_nonzero(result.matrix))


def _observe_eigenvalues(tr: Tracer, result, kwargs) -> None:
    n = len(result)
    tr.add("eigensolve.n3_sum", n**3)
    tr.eig_values += n
    if result.matrix_fingerprint in tr.fingerprints:
        tr.repeats += 1
    tr.fingerprints.add(result.matrix_fingerprint)
    tol = kwargs.get("tol_rel", EIG_TOL_REL) * max(result.matrix_norm, sys.float_info.min)
    worst = float(max(result.residuals, default=0.0)) / tol
    tr.worst_residual_ratio = max(tr.worst_residual_ratio, worst)


def _observe_direct(tr: Tracer, result, kwargs) -> None:
    accepted, flagged, _ = result
    tr.add("eigensolve.accepted", len(accepted))
    tr.add("eigensolve.flagged", len(flagged))


def _observe_match(tr: Tracer, result, kwargs) -> None:
    tr.add("compare.matched", len(result.pairs))
    tr.add("compare.unmatched_predicted", len(result.unmatched_predicted))


def _observe_run(tr: Tracer, result, kwargs) -> None:
    tr.add("scenario.artifacts", len(result["artifacts"]))


_OBSERVERS = {
    "closed_orbit_bnf": _observe_bnf,
    "equilibrium_bnf": _observe_bnf,
    "closed_orbit_lattice": _observe_lattice,
    "saddle_lattice": _observe_lattice,
    "assemble_cylinder": _observe_assemble,
    "assemble_saddle": _observe_assemble,
    "eigenvalues": _observe_eigenvalues,
    "direct_spectrum": _observe_direct,
    "match_lattices": _observe_match,
    "run_scenario": _observe_run,
}


def layer_functions() -> dict[int, tuple[object, str, str]]:
    """id -> (function, layer, name) for every function in a layer's ``__all__``."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"qbnf.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                out[id(obj)] = (obj, layer, name)
    return out


def binding_sites(functions) -> list[tuple[object, str, object]]:
    """(module, attribute, function) for every qbnf module binding a traced function."""
    sites = []
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == "qbnf" or modname.startswith("qbnf.")):
            continue
        for attr, value in vars(mod).items():
            hit = functions.get(id(value))
            if hit is not None and hit[0] is value:
                sites.append((mod, attr, value))
    return sites


def _wrap(tracer: Tracer, fn, layer: str, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs)

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Route every layer function through ``tracer`` while the block runs."""
    functions = layer_functions()
    wrappers = {key: _wrap(tracer, fn, layer, name)
                for key, (fn, layer, name) in functions.items()}
    sites = binding_sites(functions)
    for mod, attr, fn in sites:
        setattr(mod, attr, wrappers[id(fn)])
    try:
        yield tracer
    finally:
        for mod, attr, fn in sites:
            setattr(mod, attr, fn)


def _sum(spans, pred, attr: str) -> float:
    return sum(getattr(s, attr) for s in spans if pred(s))


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (scenario artifact counts excluded)."""
    spans = tracer.spans
    c = tracer.counts
    m: dict[str, float] = {"traced.wall_s": wall_s}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _sum(spans, lambda s: s.layer == layer, "self_s")

    def named(*names):
        return lambda s: s.name in names

    for fn in ("poisson_bracket", "star_conjugate"):
        m[f"symbols.{fn}.calls"] = sum(1 for s in spans if s.name == fn)
        m[f"symbols.{fn}.self_s"] = _sum(spans, named(fn), "self_s")
    m["symbols.lie_transform.calls"] = sum(1 for s in spans if s.name == "lie_transform")
    m["symbols.terms_out"] = c.get("symbols.terms_out", 0)

    bnf_s = _sum(spans, named("closed_orbit_bnf", "equilibrium_bnf"), "total_s")
    replay_s = _sum(spans, named("replay_chain"), "total_s")
    m["normal_form.bnf_s"] = bnf_s
    m["normal_form.replay_s"] = replay_s
    m["normal_form.replay_share"] = replay_s / bnf_s if bnf_s else 0.0
    for key in ("chain_steps", "normalized_terms", "remainder_terms"):
        m[f"normal_form.{key}"] = c.get(f"normal_form.{key}", 0)

    m["lattice.points"] = c.get("lattice.points", 0)

    dims = tracer.dims
    cells = sum(n * n for n in dims)
    m["quantize.assemble_s"] = _sum(spans, named("assemble_cylinder", "assemble_saddle"),
                                    "total_s")
    m["quantize.assemble_calls"] = len(dims)
    m["quantize.dim_max"] = max(dims, default=0)
    m["quantize.nnz_frac"] = tracer.nnz / cells if cells else 0.0
    m["quantize.dense_mb"] = 16 * cells / 1e6  # complex128, computed from the sizes
    m["quantize.direct_spectrum_s"] = _sum(spans, named("direct_spectrum"), "total_s")

    calls = sum(1 for s in spans if s.name == "eigenvalues")
    m["eigensolve.spectral_norm_s"] = _sum(spans, named("spectral_norm"), "total_s")
    m["eigensolve.calls"] = calls
    m["eigensolve.repeat_frac"] = tracer.repeats / calls if calls else 0.0
    m["eigensolve.window_yield"] = (c.get("eigensolve.accepted", 0) / tracer.eig_values
                                    if tracer.eig_values else 0.0)
    m["eigensolve.n3_sum"] = c.get("eigensolve.n3_sum", 0)
    m["eigensolve.flagged"] = c.get("eigensolve.flagged", 0)
    m["eigensolve.worst_residual_ratio"] = tracer.worst_residual_ratio
    m["eigensolve.cert_failures"] = c.get("eigensolve.cert_failures", 0)

    m["compare.match_s"] = _sum(spans, named("match_lattices"), "total_s")
    m["compare.sweep_s"] = _sum(spans, named("convergence_sweep"), "total_s")
    m["compare.matched"] = c.get("compare.matched", 0)
    m["compare.unmatched_predicted"] = c.get("compare.unmatched_predicted", 0)
    m["scenario.artifacts"] = c.get("scenario.artifacts", 0)
    return m
