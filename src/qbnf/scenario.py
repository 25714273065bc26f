"""Scenario configuration, batch orchestration and artifact emission.

A scenario is a JSON document (schema_version 1) with three blocks:

``model``
    kind: "cylinder" | "saddle".  Cylinder models carry orientable,
    action, energy_coeffs (f), rate_coeffs (mu) and a perturbation term
    list with entries {m, a, alpha, beta, j, re, im}.  Saddle models
    carry energy0, lambda_unstable, lambda_stable and a higher_terms list
    with entries {alpha, beta, j, re, im}.

``compute``
    order (normal-form truncation N, an integer >= 2), optional
    tau_order (cylinder models only: the tau truncation, an integer no
    lower than the highest tau power of the energy, rate and
    perturbation, by default the larger of that and N), h_values
    (positive numbers, descending), window {half_width, depth} (positive
    numbers), optional basis overrides {k_min, k_max, levels} or {levels1,
    levels2} (checked when the config loads), flags
    stability_check / direct (default true; false stops the pipeline at
    the lattices) / sweep (fit the convergence order over the run's own
    match reports: needs direct and at least three h values, or it is a
    ConfigError) / dump_matrices (debug dump of the assembled operator,
    column-major complex pairs), optional match_radius (a positive
    number) and label_cap (a non-negative integer), and optional k_cap
    (saddle models only) and l_cap: non-negative integers that bound the
    written lattice labels.  These values are checked when the config
    loads: a number is never truncated, and one of the wrong type is a
    ConfigError, not a crash in a later stage.

``output``
    directory, plot_data flag.

Artifacts are deterministic: CSV numbers are printed with 17 significant
digits, JSON keys are sorted, reruns are bit-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .compare import (
    MATCH_WINDOW_PAD,
    MatchReport,
    auto_basis,
    fit_convergence,
    match_lattices,
    model_operator_symbol,
)
from .eigensolve import EigensolveError
from .lattice import ResonanceLattice, Window, predicted_lattice
from .normal_form import (
    CylinderModel,
    ModelValidationError,
    SaddleModel,
    closed_orbit_bnf,
    content_tau_order,
    equilibrium_bnf,
)
from .quantize import (
    CylinderBasis,
    DimensionCapError,
    SaddleBasis,
    assemble_cylinder,
    assemble_saddle,
    direct_spectrum,
)
from .symbols import PRUNE_REL, FormalSymbol, PhaseSpec, TauSeries

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "ScenarioNumericError",
    "STAGES",
    "load_config",
    "bundled_scenarios",
    "run_scenario",
    "emit_plot_data",
    "dump_matrix",
    "assembled_operator",
    "compute_normal_form",
    "computed_spectrum",
    "FLOAT_FMT",
]

SCHEMA_VERSION = 1

#: fixed CSV float formatting, 17 significant digits
FLOAT_FMT = ".17e"


class ConfigError(ValueError):
    """Configuration file is malformed or violates a model invariant."""


def _fmt(x: float) -> str:
    return format(float(x), FLOAT_FMT)


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    """A validated scenario; ``raw`` is not to be changed once loaded."""

    raw: dict

    @property
    def kind(self) -> str:
        return self.raw["model"]["kind"]

    @property
    def compute(self) -> dict:
        return self.raw["compute"]

    @property
    def output(self) -> dict:
        return self.raw.get("output", {})

    @property
    def h_values(self):
        return list(self.compute["h_values"])

    @property
    def order(self) -> int:
        return self.compute["order"]

    def window(self) -> Window:
        w = self.compute["window"]
        center = self.raw["model"].get("energy0", None)
        if center is None and self.kind == "cylinder":
            center = float(np.real(self.model().energy.coeffs[0]))
        return Window(float(center or 0.0), float(w["half_width"]), float(w["depth"]))

    def model(self):
        """The model of ``raw``, built on the first call and then reused."""
        return self._model

    @cached_property
    def _model(self):
        return _build_model(self.raw["model"])

    def canonical(self) -> dict:
        """Canonical plain-dict form; load(canonical) is the identity."""
        return json.loads(json.dumps(self.raw, sort_keys=True))

    def basis_for(self, h: float):
        """The ``compute.basis`` override at h (ConfigError if malformed), else the auto basis."""
        b = self.compute.get("basis")
        model = self.model()
        if b is None:
            return auto_basis(model, self.window(), h)
        try:
            if self.kind == "cylinder":
                return CylinderBasis(
                    int(b["k_min"]), int(b["k_max"]), int(b["levels"]), h,
                    model.action, model.orientable,
                )
            return SaddleBasis(int(b["levels1"]), int(b["levels2"]), h)
        except KeyError as exc:
            raise ConfigError(f"basis block is missing field {exc}") from exc
        except DimensionCapError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid basis block {b!r}: {exc}") from exc


def _build_tau_series(coeffs, what) -> TauSeries:
    if not isinstance(coeffs, list) or not coeffs:
        raise ConfigError(f"{what} must be a nonempty list of numbers")
    return TauSeries([float(c) for c in coeffs])


def _build_terms(shape: PhaseSpec, items, what) -> FormalSymbol | None:
    """Symbol of a term list on a spec of ``shape`` sized to hold every term.

    Raises ConfigError for a term the symbol would still drop: one whose
    coefficient is below the relative pruning floor.
    """
    if not items:
        return None
    terms = {}
    for it in items:
        try:
            m = it.get("m", 0)
            a = int(it.get("a", 0))
            alpha = tuple(int(v) for v in it["alpha"])
            beta = tuple(int(v) for v in it["beta"])
            j = int(it.get("j", 0))
            coef = complex(float(it.get("re", 0.0)), float(it.get("im", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed {what} entry {it!r}: {exc}") from exc
        m2 = 2 * m
        if abs(m2 - round(m2)) > 1e-12:
            raise ConfigError(f"{what} Fourier mode must be integer or half-integer")
        key = (int(round(m2)), a, alpha, beta, j)
        try:
            shape.validate_key(key)
        except ValueError as exc:
            raise ConfigError(f"invalid {what} entry {it!r}: {exc}") from exc
        terms[key] = terms.get(key, 0.0) + coef
    spec = replace(
        shape,
        grade_max=max(2, max(shape.grade(k) for k in terms)),
        tau_max=max(k[1] for k in terms),
    )
    sym = FormalSymbol(spec, terms)
    kept = sym.terms
    for key, coef in terms.items():
        if coef != 0 and key not in kept:
            m2, a, alpha, beta, j = key
            raise ConfigError(
                f"{what} term m={m2 / 2:g}, a={a}, alpha={list(alpha)}, "
                f"beta={list(beta)}, j={j} has coefficient {coef}, below "
                f"{PRUNE_REL:g} times the largest one, and would be dropped"
            )
    return sym


def _build_model(m: dict):
    kind = m.get("kind")
    if kind == "cylinder":
        orientable = bool(m.get("orientable", True))
        energy = _build_tau_series(m["energy_coeffs"], "energy_coeffs")
        rate = _build_tau_series(m["rate_coeffs"], "rate_coeffs")
        shape = PhaseSpec.cylinder(2, 0, orientable)
        pert = _build_terms(shape, m.get("perturbation", []), "perturbation")
        try:
            return CylinderModel(
                energy, rate, pert, orientable,
                float(m.get("action", 0.0)), m.get("energy0"),
            )
        except ModelValidationError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "saddle":
        higher = _build_terms(PhaseSpec.saddle(2), m.get("higher_terms", []), "higher_terms")
        try:
            return SaddleModel(
                float(m.get("energy0", 0.0)),
                float(m["lambda_unstable"]),
                float(m["lambda_stable"]),
                higher,
            )
        except ModelValidationError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"model.kind must be 'cylinder' or 'saddle', got {kind!r}")


def _validate(raw: dict) -> None:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    for block in ("model", "compute"):
        if block not in raw:
            raise ConfigError(f"missing required block {block!r}")
    comp = raw["compute"]
    if comp.get("order") is None:
        raise ConfigError("compute.order must be an integer >= 2")
    _check_count(comp, "order", 2)
    hs = comp.get("h_values")
    if not isinstance(hs, (list, tuple)) or not hs or not all(_positive(h) for h in hs):
        raise ConfigError(f"compute.h_values must be a nonempty list of positive numbers, "
                          f"got {hs!r}")
    if list(hs) != sorted(hs, reverse=True):
        raise ConfigError("compute.h_values must be in descending order")
    w = comp.get("window")
    if not isinstance(w, dict) or not (_positive(w.get("half_width"))
                                       and _positive(w.get("depth"))):
        raise ConfigError("compute.window needs positive half_width and depth")
    for name in ("k_cap", "l_cap", "label_cap"):
        _check_count(comp, name, 0)
    if comp.get("match_radius") is not None and not _positive(comp["match_radius"]):
        raise ConfigError(
            f"compute.match_radius must be a positive number, got {comp['match_radius']!r}")
    if raw["model"].get("kind") == "cylinder" and comp.get("k_cap") is not None:
        raise ConfigError("compute.k_cap is for saddle models: a closed orbit has no k cap")
    if raw["model"].get("kind") == "saddle" and comp.get("tau_order") is not None:
        raise ConfigError("compute.tau_order is for cylinder models: a saddle has no tau")


def _positive(v) -> bool:
    """Whether v is a positive real number (not a bool, a string or NaN)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0


def _check_count(comp: dict, name: str, least: int, why: str = "") -> None:
    """ConfigError unless compute.<name> is absent, null or an integer >= least."""
    v = comp.get(name)
    if v is not None and (isinstance(v, bool) or not isinstance(v, int) or v < least):
        raise ConfigError(f"compute.{name} must be an integer >= {least}{why}, got {v!r}")


def load_config(source) -> ScenarioConfig:
    """Load a scenario from a path, a bundled name, or a dict."""
    if isinstance(source, dict):
        raw = source
    else:
        path = Path(source)
        if not path.exists():
            bundled = bundled_scenarios()
            if str(source) in bundled:
                path = bundled[str(source)]
            else:
                raise ConfigError(f"no such config file or bundled scenario: {source}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _validate(raw)
    config = ScenarioConfig(raw)
    model = config.model()  # raises ConfigError with the violated invariant
    if config.kind == "cylinder":
        _check_count(config.compute, "tau_order", content_tau_order(model),
                     " (the highest tau power of the model)")
    if config.compute.get("basis") is not None:
        for h in config.h_values:
            try:
                config.basis_for(h)  # raises ConfigError for a malformed override
            except DimensionCapError:
                pass  # a numeric limit, reported when the direct stage runs
    return config


def bundled_scenarios() -> dict:
    """Names and paths of the scenario files shipped with the package."""
    root = Path(__file__).parent / "scenarios"
    return {p.stem: p for p in sorted(root.glob("*.json"))}


# --------------------------------------------------------------------------
# artifact writers
# --------------------------------------------------------------------------

def _write_lattice_csv(path: Path, lat: ResonanceLattice) -> None:
    lines = ["k,l,re_z,im_z"]
    for e in lat.entries:
        lines.append(f"{e.k},{e.l},{_fmt(e.z.real)},{_fmt(e.z.imag)}")
    path.write_text("\n".join(lines) + "\n")


def _write_spectrum_csv(path: Path, accepted) -> None:
    lines = ["re_z,im_z,residual"]
    for z, res in accepted:
        lines.append(f"{_fmt(z.real)},{_fmt(z.imag)},{_fmt(res)}")
    path.write_text("\n".join(lines) + "\n")


def _write_match_csv(path: Path, rep: MatchReport) -> None:
    lines = ["k,l,re_pred,im_pred,re_comp,im_comp,abs_err"]
    for p in rep.pairs:
        lines.append(
            ",".join(
                [str(p.k), str(p.l), _fmt(p.predicted.real), _fmt(p.predicted.imag),
                 _fmt(p.computed.real), _fmt(p.computed.imag), _fmt(p.error)]
            )
        )
    path.write_text("\n".join(lines) + "\n")


def _match_report_dict(rep: MatchReport) -> dict:
    return {
        "h": rep.h,
        "order": rep.order,
        "radius": rep.radius,
        "max_err": rep.max_err,
        "mean_err": rep.mean_err,
        "num_matched": len(rep.pairs),
        "pairs": [
            {"k": p.k, "l": p.l,
             "re_pred": p.predicted.real, "im_pred": p.predicted.imag,
             "re_comp": p.computed.real, "im_comp": p.computed.imag,
             "abs_err": p.error}
            for p in rep.pairs
        ],
        "unmatched_predicted": [
            {"k": e.k, "l": e.l, "re": e.z.real, "im": e.z.imag}
            for e in rep.unmatched_predicted
        ],
        "unmatched_computed": [
            {"re": z.real, "im": z.imag} for z in rep.unmatched_computed
        ],
    }


def _normal_form_dict(nf) -> dict:
    return {
        "kind": nf.kind,
        "order": nf.order,
        "action": nf.action,
        "energy0": nf.energy0,
        "orientable": nf.orientable,
        "coefficients": [
            {"indices": list(k), "re": c.real, "im": c.imag}
            for k, c in sorted(nf.coeffs.items())
        ],
    }


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def dump_matrix(path: Path, op) -> None:
    """Debug dump of an assembled operator: column-major complex pairs.

    The file holds the dimension as a first line, then one line per
    entry in column-major order with the real and imaginary parts in the
    fixed CSV float format.
    """
    M = np.asarray(getattr(op, "matrix", op))
    lines = [str(M.shape[0])]
    for c in M.flatten(order="F"):
        lines.append(f"{_fmt(c.real)},{_fmt(c.imag)}")
    Path(path).write_text("\n".join(lines) + "\n")


def emit_plot_data(path: Path, lattice: ResonanceLattice | None, rep: MatchReport | None) -> None:
    """Two-series scatter file: re,im,k,l,source,pair columns.

    Predicted and computed points carry the source tag; matched pairs
    share a pair id so any plotting tool can draw connecting segments.
    """
    lines = ["re,im,k,l,source,pair"]
    pair_of_pred = {}
    if rep is not None:
        for i, p in enumerate(rep.pairs):
            pair_of_pred[(p.k, p.l)] = i
    if lattice is not None:
        for e in lattice.entries:
            pid = pair_of_pred.get((e.k, e.l), "")
            lines.append(f"{_fmt(e.z.real)},{_fmt(e.z.imag)},{e.k},{e.l},predicted,{pid}")
    if rep is not None:
        for i, p in enumerate(rep.pairs):
            lines.append(
                f"{_fmt(p.computed.real)},{_fmt(p.computed.imag)},{p.k},{p.l},computed,{i}"
            )
        for z in rep.unmatched_computed:
            lines.append(f"{_fmt(z.real)},{_fmt(z.imag)},,,computed,")
    Path(path).write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# pipeline stages
# --------------------------------------------------------------------------

def _h_tag(h: float) -> str:
    return format(h, ".6g").replace(".", "p").replace("-", "m")


def compute_normal_form(config: ScenarioConfig):
    model = config.model()
    tau_order = config.compute.get("tau_order")
    if config.kind == "cylinder":
        return closed_orbit_bnf(model, config.order, tau_order)
    return equilibrium_bnf(model, config.order)


def assembled_operator(config: ScenarioConfig, h: float):
    """The model operator on the configured basis (debugging aid)."""
    sym = model_operator_symbol(config.model())
    basis = config.basis_for(h)
    if config.kind == "cylinder":
        return assemble_cylinder(sym, basis)
    return assemble_saddle(sym, basis)


def computed_spectrum(config: ScenarioConfig, h: float):
    sym = model_operator_symbol(config.model())
    basis = config.basis_for(h)
    return direct_spectrum(
        sym, basis, config.window().inflated(MATCH_WINDOW_PAD),
        stability_check=bool(config.compute.get("stability_check", True)),
    )


#: the pipeline stages, in the order they run
STAGES = ("bnf", "lattice", "direct", "match", "sweep")

#: the stages whose results each stage reads
_NEEDS = {"lattice": {"bnf"}, "match": {"lattice", "direct"}, "sweep": {"match"}}


def run_scenario(config: ScenarioConfig, out_dir, stages=None) -> dict:
    """Run a subset of ``STAGES`` in order, each writing its artifacts under ``out_dir``.

    ``stages=None`` runs the stages the config selects: all but the sweep,
    without direct and match if ``compute.direct`` is false, with the
    sweep if ``compute.sweep`` is set.  Returns the run report dictionary.
    Any numeric failure aborts the scenario; the report is still written,
    with the finished artifacts listed and the status marked incomplete.
    """
    if stages is None:
        stages = ["bnf", "lattice"]
        if config.compute.get("direct", True):
            stages += ["direct", "match"]
        if config.compute.get("sweep", False):
            stages.append("sweep")
    if "sweep" in stages and ("match" not in stages or len(config.h_values) < 3):
        raise ConfigError("the sweep fits the direct matches: it needs compute.direct "
                          "and at least three compute.h_values")
    chosen = set(stages)
    if not chosen <= set(STAGES) or any(_NEEDS.get(s, set()) - chosen for s in chosen):
        raise ValueError(f"stages {stages} are not a runnable subset of {STAGES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report: dict = {"status": "ok", "artifacts": [], "errors": []}
    t_start = time.time()

    def write(name, writer, *args):
        writer(out / name, *args)
        report["artifacts"].append(name)

    write("scenario_echo.json", _dump_json, config.canonical())
    try:
        if "bnf" in stages:
            nf, _ = compute_normal_form(config)
            write("normal_form.json", _dump_json, _normal_form_dict(nf))

        reports = []
        for h in config.h_values:
            tag = _h_tag(h)
            if "lattice" in stages:
                lat = predicted_lattice(nf, h, config.window(),
                                        k_cap=config.compute.get("k_cap"),
                                        l_cap=config.compute.get("l_cap"))
                write(f"lattice_h{tag}.csv", _write_lattice_csv, lat)
            if "direct" in stages:
                accepted, flagged, _ = computed_spectrum(config, h)
                write(f"spectrum_h{tag}.csv", _write_spectrum_csv, accepted)
                if config.compute.get("dump_matrices", False):
                    write(f"matrix_h{tag}.csv", dump_matrix, assembled_operator(config, h))
            if "match" in stages:
                rep = match_lattices(lat, accepted, order=config.order,
                                     radius=config.compute.get("match_radius"))
                md = _match_report_dict(rep)
                md["flagged_unstable"] = [[z.real, z.imag] for z in flagged]
                write(f"match_h{tag}.json", _dump_json, md)
                write(f"match_h{tag}.csv", _write_match_csv, rep)
                if config.output.get("plot_data", True):
                    write(f"plot_h{tag}.csv", emit_plot_data, lat, rep)
                reports.append(rep)

        if "sweep" in stages:
            cap = config.compute.get("label_cap")
            res = fit_convergence(reports, 3 if cap is None else cap)
            write("convergence.json", _dump_json, {
                "slope": res.slope,
                "exact": res.exact,
                "errors": {format(h, ".6g"): e for h, e in res.errors.items()},
                "discarded_h": res.discarded,
            })
    except (EigensolveError, DimensionCapError, ArithmeticError) as exc:
        report["status"] = "incomplete"
        report["errors"].append({"stage": "numeric", "message": str(exc)})
    report["runtime_s"] = round(time.time() - t_start, 3)
    _dump_json(out / "run_report.json", report)
    if report["status"] != "ok":
        raise ScenarioNumericError(report["errors"][0]["message"])
    return report


class ScenarioNumericError(ArithmeticError):
    """Numeric failure while running a scenario; partial artifacts on disk."""
