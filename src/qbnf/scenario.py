"""Scenario configuration, batch orchestration and artifact emission.

A scenario is a JSON object.  ``qbnf.schema.SCHEMA`` is the one table
of its keys, listed below; README.md says what each does.  ``load_config``
raises ConfigError for a file it cannot read or decode.  It holds a
config to the table, which rejects an unknown key, a key of the other
model kind and a value of the wrong JSON type or out of its range, then
checks the rules that tie keys together: h_values descend, no two of
them share an artifact tag (h in 6 significant digits, which names every
per-h file), tau_order is no lower than the model's tau content, a
term's Fourier mode m is a multiple of 1/2, no term lies below the
pruning floor, and the model keeps its invariants.  A sweep needs the
direct stage and at least three h values.  ``scenario_echo.json`` is the
raw input, with no defaults filled in.

Artifacts are deterministic: CSV numbers are printed with 17 significant
digits, JSON keys are sorted, reruns are bit-identical.

The keys (name: what it accepts; model kinds; default):

"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from . import schema
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
    direct_spectrum,
)
from .schema import ConfigError
from .symbols import PRUNE_REL, FormalSymbol, PhaseSpec, TauSeries, _monomial_key

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
    "compute_normal_form",
    "computed_spectrum",
    "FLOAT_FMT",
]

#: fixed CSV float formatting, 17 significant digits
FLOAT_FMT = ".17e"


if __doc__:  # None under python -OO
    __doc__ += "".join(f"    {name}: {accepts}; {kinds}; {default}\n"
                       for name, accepts, kinds, default in schema.entries())


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

    def get(self, name: str):
        """The value of the key with dotted ``name`` ("compute.window.depth"), or its default."""
        block = self.raw
        for part in name.split(".")[:-1]:
            block = block.get(part) or {}
        return schema.read(block, name, self.kind)

    @property
    def h_values(self):
        return self.get("compute.h_values")

    @property
    def order(self) -> int:
        return self.get("compute.order")

    def window(self) -> Window:
        center = self.get("model.energy0")
        if center is None:  # a cylinder's default: the orbit energy f(0)
            center = self.model().reference_energy
        return Window(center, self.get("compute.window.half_width"),
                      self.get("compute.window.depth"))

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
        """The ``compute.basis`` override at h (ConfigError if empty), else the auto basis."""
        model, b = self.model(), self.get("compute.basis")
        if b is None:
            return auto_basis(model, self.window(), h)

        def field(name):
            return self.get(f"compute.basis.{name}")

        try:
            if self.kind == "cylinder":
                return CylinderBasis(field("k_min"), field("k_max"), field("levels"), h,
                                     model.action, model.orientable)
            return SaddleBasis(field("levels1"), field("levels2"), h)
        except DimensionCapError:
            raise
        except ValueError as exc:
            raise ConfigError(f"invalid basis block {b!r}: {exc}") from exc


def _build_terms(shape: PhaseSpec, items, what) -> FormalSymbol | None:
    """Symbol of a checked term list on a spec of ``shape`` sized to hold every term.

    Raises ConfigError for a term the symbol cannot hold: a Fourier mode
    that is not a multiple of 1/2, a key ``shape`` rejects, or one whose
    coefficient is below the relative pruning floor.
    """
    if not items:
        return None
    terms = {}
    for it in items:
        m, a, alpha, beta, j, re, im = (schema.read(it, f"term.{name}") for name in
                                        ("m", "a", "alpha", "beta", "j", "re", "im"))
        try:
            key = _monomial_key(shape, m, a, alpha, beta, j)
            shape.validate_key(key)
        except ValueError as exc:
            raise ConfigError(f"invalid {what} entry {it!r}: {exc}") from exc
        terms[key] = terms.get(key, 0.0) + complex(re, im)
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
    """The model of a checked ``model`` block."""
    kind = m["kind"]

    def get(name):
        return schema.read(m, f"model.{name}", kind)

    try:
        if kind == "cylinder":
            shape = PhaseSpec.cylinder(2, 0, get("orientable"))
            return CylinderModel(
                TauSeries(get("energy_coeffs")), TauSeries(get("rate_coeffs")),
                _build_terms(shape, get("perturbation"), "perturbation"),
                get("orientable"), get("action"), get("energy0"),
            )
        return SaddleModel(
            get("energy0"), get("lambda_unstable"), get("lambda_stable"),
            _build_terms(PhaseSpec.saddle(2), get("higher_terms"), "higher_terms"),
        )
    except ModelValidationError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(source) -> ScenarioConfig:
    """Load a scenario from a path, a bundled name, or a dict.

    The config is held to ``qbnf.schema.SCHEMA``, then to the rules that
    tie keys together: descending h values with distinct artifact tags, a
    tau order no lower than the model's, the model's own invariants and a
    buildable basis.  A file that cannot be read or decoded is a
    ConfigError naming its path.
    """
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
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    schema.check(raw)
    config = ScenarioConfig(raw)
    hs = config.h_values
    if hs != sorted(hs, reverse=True):
        raise ConfigError("compute.h_values must be in descending order")
    tagged = {}
    for h in hs:
        tag = _h_tag(h)
        if tag in tagged:
            raise ConfigError(f"compute.h_values {tagged[tag]!r} and {h!r} share the "
                              f"artifact tag h{tag}; give h values that differ in 6 "
                              f"significant digits")
        tagged[tag] = h
    model = config.model()  # raises ConfigError with the violated invariant
    tau_order = config.get("compute.tau_order")
    if tau_order is not None and tau_order < content_tau_order(model):
        raise ConfigError(f"compute.tau_order must be an integer >= {content_tau_order(model)} "
                          f"(the highest tau power of the model), got {tau_order}")
    if config.get("compute.basis") is not None:
        for h in hs:
            try:
                config.basis_for(h)  # raises ConfigError for an empty Fourier range
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

def _write_csv(path, header: str, rows) -> None:
    """``header``, then one line per row: a float cell in ``FLOAT_FMT``, any other through str."""
    lines = [header]
    for row in rows:
        lines.append(",".join(format(float(c), FLOAT_FMT) if isinstance(c, float) else str(c)
                              for c in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_lattice_csv(path: Path, lat: ResonanceLattice) -> None:
    _write_csv(path, "k,l,re_z,im_z", ((e.k, e.l, e.z.real, e.z.imag) for e in lat.entries))


def _write_spectrum_csv(path: Path, accepted) -> None:
    _write_csv(path, "re_z,im_z,residual", ((z.real, z.imag, res) for z, res in accepted))


def _write_match_csv(path: Path, rep: MatchReport) -> None:
    _write_csv(path, "k,l,re_pred,im_pred,re_comp,im_comp,abs_err", (
        (p.k, p.l, p.predicted.real, p.predicted.imag, p.computed.real, p.computed.imag,
         p.error)
        for p in rep.pairs
    ))


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
    """Debug dump of an assembled ``OperatorMatrix``: column-major complex pairs.

    The file holds the dimension as a first line, then one line per
    entry in column-major order with the real and imaginary parts in the
    fixed CSV float format.
    """
    _write_csv(path, str(op.dim), ((c.real, c.imag) for c in op.matrix.flatten(order="F")))


def emit_plot_data(path: Path, lattice: ResonanceLattice | None, rep: MatchReport | None) -> None:
    """Two-series scatter file: re,im,k,l,source,pair columns.

    Predicted and computed points carry the source tag; matched pairs
    share a pair id so any plotting tool can draw connecting segments.
    """
    pair_of_pred = {(p.k, p.l): i for i, p in enumerate(rep.pairs)} if rep is not None else {}
    rows = []
    if lattice is not None:
        rows += [(e.z.real, e.z.imag, e.k, e.l, "predicted", pair_of_pred.get((e.k, e.l), ""))
                 for e in lattice.entries]
    if rep is not None:
        rows += [(p.computed.real, p.computed.imag, p.k, p.l, "computed", i)
                 for i, p in enumerate(rep.pairs)]
        rows += [(z.real, z.imag, "", "", "computed", "") for z in rep.unmatched_computed]
    _write_csv(path, "re,im,k,l,source,pair", rows)


# --------------------------------------------------------------------------
# pipeline stages
# --------------------------------------------------------------------------

def _h_tag(h: float) -> str:
    return format(h, ".6g").replace(".", "p").replace("-", "m")


def compute_normal_form(config: ScenarioConfig):
    model = config.model()
    if config.kind == "cylinder":
        return closed_orbit_bnf(model, config.order, config.get("compute.tau_order"))
    return equilibrium_bnf(model, config.order)


def computed_spectrum(config: ScenarioConfig, h: float):
    sym = model_operator_symbol(config.model())
    basis = config.basis_for(h)
    return direct_spectrum(
        sym, basis, config.window().inflated(MATCH_WINDOW_PAD),
        stability_check=config.get("compute.stability_check"),
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
        if config.get("compute.direct"):
            stages += ["direct", "match"]
        if config.get("compute.sweep"):
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
                                        k_cap=config.get("compute.k_cap"),
                                        l_cap=config.get("compute.l_cap"))
                write(f"lattice_h{tag}.csv", _write_lattice_csv, lat)
            if "direct" in stages:
                accepted, flagged, spectrum = computed_spectrum(config, h)
                write(f"spectrum_h{tag}.csv", _write_spectrum_csv, accepted)
                if config.get("compute.dump_matrices"):
                    write(f"matrix_h{tag}.csv", dump_matrix, spectrum.operator)
            if "match" in stages:
                rep = match_lattices(lat, accepted, order=config.order,
                                     radius=config.get("compute.match_radius"))
                md = _match_report_dict(rep)
                md["flagged_unstable"] = [[z.real, z.imag] for z in flagged]
                write(f"match_h{tag}.json", _dump_json, md)
                write(f"match_h{tag}.csv", _write_match_csv, rep)
                if config.get("output.plot_data"):
                    write(f"plot_h{tag}.csv", emit_plot_data, lat, rep)
                reports.append(rep)

        if "sweep" in stages:
            res = fit_convergence(reports, config.get("compute.label_cap"))
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
