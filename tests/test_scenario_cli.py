"""Configuration, orchestration, artifact and CLI tests."""

import json
import math

import numpy as np
import pytest

from conftest import config_operator
from qbnf.cli import main
from qbnf.lattice import LatticeEntry, ResonanceLattice, Window
from qbnf.compare import MatchedPair, MatchReport, convergence_sweep
from qbnf.scenario import (
    ConfigError,
    bundled_scenarios,
    compute_normal_form,
    emit_plot_data,
    load_config,
    run_scenario,
)


GOOD = {
    "schema_version": 1,
    "model": {
        "kind": "saddle",
        "energy0": 0.0,
        "lambda_unstable": 1.0,
        "lambda_stable": math.sqrt(2.0),
    },
    "compute": {
        "order": 2,
        "h_values": [0.1],
        "window": {"half_width": 0.4, "depth": 0.4},
        "basis": {"levels1": 10, "levels2": 10},
        "stability_check": False,
    },
    "output": {"directory": "unused", "plot_data": True},
}


def test_config_roundtrip_identity():
    cfg = load_config(GOOD)
    canon = cfg.canonical()
    cfg2 = load_config(canon)
    assert cfg2.canonical() == canon


def test_config_rejects_bad_schema():
    bad = dict(GOOD)
    bad = json.loads(json.dumps(bad))
    bad["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(bad)


def test_config_rejects_nonpositive_rate():
    bad = json.loads(json.dumps(GOOD))
    bad["model"]["lambda_stable"] = -2.0
    with pytest.raises(ConfigError, match="positive"):
        load_config(bad)


def test_config_rejects_bad_rate_series():
    bad = {
        "schema_version": 1,
        "model": {
            "kind": "cylinder",
            "energy_coeffs": [0.0, 1.0],
            "rate_coeffs": [0.0],
        },
        "compute": {
            "order": 2,
            "h_values": [0.1],
            "window": {"half_width": 0.2, "depth": 0.2},
        },
    }
    with pytest.raises(ConfigError, match="rate"):
        load_config(bad)


def test_config_rejects_ascending_h():
    bad = json.loads(json.dumps(GOOD))
    bad["compute"]["h_values"] = [0.05, 0.1]
    with pytest.raises(ConfigError, match="descending"):
        load_config(bad)


def _with_terms(kind, terms):
    raw = json.loads(json.dumps(GOOD))
    if kind == "cylinder":
        raw["model"] = {"kind": "cylinder", "energy_coeffs": [0.0, 1.0],
                        "rate_coeffs": [1.0], "perturbation": terms}
        del raw["compute"]["basis"]  # GOOD's basis block is a saddle one
    else:
        raw["model"]["higher_terms"] = terms
    return raw


@pytest.mark.parametrize("kind, term", [
    ("cylinder", {"m": 1, "a": 9, "alpha": [3], "beta": [0], "re": 0.1}),
    ("cylinder", {"m": 1, "alpha": [14], "beta": [0], "re": 0.1}),
    ("saddle", {"alpha": [7, 7], "beta": [0, 0], "re": 0.1}),
])
def test_config_keeps_terms_beyond_any_fixed_size(kind, term):
    model = load_config(_with_terms(kind, [term])).model()
    sym = model.perturbation if kind == "cylinder" else model.higher
    key = (2 * term.get("m", 0), term.get("a", 0), tuple(term["alpha"]),
           tuple(term["beta"]), 0)
    assert sym.terms == {key: 0.1}


def test_config_rejects_term_below_pruning_floor():
    terms = [{"m": 1, "alpha": [3], "beta": [0], "re": 1.0},
             {"m": -1, "alpha": [0], "beta": [3], "re": 1e-17}]
    with pytest.raises(ConfigError, match="would be dropped"):
        load_config(_with_terms("cylinder", terms))


def test_config_builds_model_once(tmp_path, monkeypatch):
    import qbnf.scenario as scenario

    build = scenario._build_model
    calls = []

    def counting(m):
        calls.append(m)
        return build(m)

    monkeypatch.setattr(scenario, "_build_model", counting)
    cfg = load_config(GOOD)
    run_scenario(cfg, tmp_path)
    assert cfg.basis_for(0.1).h == 0.1
    assert len(calls) == 1


def test_run_scenario_artifacts(tmp_path):
    cfg = load_config(GOOD)
    report = run_scenario(cfg, tmp_path)
    assert report["status"] == "ok"
    for name in (
        "scenario_echo.json",
        "normal_form.json",
        "lattice_h0p1.csv",
        "spectrum_h0p1.csv",
        "match_h0p1.json",
        "plot_h0p1.csv",
        "run_report.json",
    ):
        assert (tmp_path / name).exists(), name
    lat = (tmp_path / "lattice_h0p1.csv").read_text().splitlines()
    assert lat[0] == "k,l,re_z,im_z"
    k, l, re, im = lat[1].split(",")
    assert (k, l) == ("0", "0")
    assert abs(float(re) - math.sqrt(2.0) * 0.05) < 1e-15
    assert abs(float(im) + 0.05) < 1e-15


def test_run_scenario_bit_identical(tmp_path):
    cfg = load_config(GOOD)
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    for name in ("lattice_h0p1.csv", "spectrum_h0p1.csv", "normal_form.json",
                 "match_h0p1.csv", "plot_h0p1.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name


def test_bundled_quadratic_saddle(tmp_path):
    cfg = load_config("quadratic_saddle")
    report = run_scenario(cfg, tmp_path)
    assert report["status"] == "ok"
    rows = (tmp_path / "lattice_h0p05.csv").read_text().splitlines()[1:]
    first = rows[0].split(",")
    h = 0.05
    assert abs(float(first[2]) - math.sqrt(2.0) * h / 2) < 1e-14
    assert abs(float(first[3]) + h / 2) < 1e-14


def test_bundled_cylinder_unperturbed(tmp_path):
    cfg = load_config("cylinder_unperturbed")
    report = run_scenario(cfg, tmp_path)
    assert report["status"] == "ok"
    # closed form: z = f(tau_k) - i mu(tau_k) (l + 1/2) h
    rows = (tmp_path / "lattice_h0p05.csv").read_text().splitlines()[1:]
    f = lambda t: t + 0.3 * t * t
    mu = lambda t: 1.0 + 0.2 * t
    h, S = 0.05, 0.4
    for row in rows:
        k, l, re, im = row.split(",")
        tau = h * int(k) - S / (2 * math.pi)
        assert abs(float(re) - f(tau)) < 1e-14
        assert abs(float(im) + mu(tau) * (int(l) + 0.5) * h) < 1e-14
    # and the direct spectrum agrees to rounding
    match = json.loads((tmp_path / "match_h0p05.json").read_text())
    assert match["num_matched"] == len(rows)
    assert match["max_err"] < 1e-10


def test_run_scenario_incomplete_report(tmp_path):
    from qbnf.scenario import ScenarioNumericError

    cfg = json.loads(json.dumps(GOOD))
    cfg["compute"]["basis"] = {"levels1": 200, "levels2": 200}
    with pytest.raises(ScenarioNumericError):
        run_scenario(load_config(cfg), tmp_path)
    report = json.loads((tmp_path / "run_report.json").read_text())
    assert report["status"] == "incomplete"
    assert report["errors"] and report["errors"][0]["stage"] == "numeric"
    # artifacts produced before the failure are listed
    assert "normal_form.json" in report["artifacts"]


def test_match_report_lists_its_unmatched_predicted_points(tmp_path):
    # the order-2 lattice misses the spectrum by far more than a 1e-6 match
    # radius, so its points are listed as unmatched, each with the values
    # of its line in the lattice file
    raw = json.loads(bundled_scenarios()["perturbed_saddle"].read_text())
    raw["compute"].update(order=2, h_values=[0.1], match_radius=1e-6, sweep=False)
    run_scenario(load_config(raw), tmp_path)
    lattice = {(int(k), int(l)): (float(re), float(im)) for k, l, re, im in (
        line.split(",") for line in (tmp_path / "lattice_h0p1.csv").read_text().splitlines()[1:])}
    match = json.loads((tmp_path / "match_h0p1.json").read_text())
    listed = match["unmatched_predicted"]
    assert listed
    for e in listed:
        assert set(e) == {"k", "l", "re", "im"}
        assert (e["re"], e["im"]) == lattice[e["k"], e["l"]]
    labels = [(e["k"], e["l"]) for e in listed] + [(p["k"], p["l"]) for p in match["pairs"]]
    assert sorted(labels) == sorted(lattice)


def test_run_scenario_nonorientable(tmp_path):
    cfg = load_config("nonorientable_halfmode")
    report = run_scenario(cfg, tmp_path)
    assert report["status"] == "ok"
    rows = (tmp_path / "lattice_h0p05.csv").read_text().splitlines()[1:]
    # half-shift rule: Re z = h (k + l/2) for the unperturbed-tau profile
    for row in rows:
        k, l, re, _ = row.split(",")
        assert abs(float(re) - 0.05 * (int(k) + 0.5 * int(l))) < 1e-12
    match = json.loads((tmp_path / "match_h0p05.json").read_text())
    assert match["num_matched"] == len(rows)
    assert match["max_err"] < 1e-9


def test_matrix_dump_roundtrip(tmp_path):
    import numpy as np
    from qbnf.scenario import dump_matrix

    cfg = load_config(GOOD)
    op = config_operator(cfg, 0.1)
    path = tmp_path / "matrix.csv"
    dump_matrix(path, op)
    lines = path.read_text().splitlines()
    n = int(lines[0])
    assert n == op.matrix.shape[0]
    vals = np.array([complex(float(r), float(i))
                     for r, i in (ln.split(",") for ln in lines[1:])])
    assert np.array_equal(vals.reshape((n, n), order="F"), op.matrix)


@pytest.mark.parametrize("dump", [True, False])
def test_run_writes_the_assembled_operator_only_when_asked(tmp_path, monkeypatch, dump):
    import numpy as np
    from qbnf import quantize

    raw = json.loads(json.dumps(GOOD))
    raw["compute"]["dump_matrices"] = dump
    # an odd power of xi2 makes the operator non-symmetric, so a dump in
    # the wrong order would not read back as the same matrix
    raw["model"]["higher_terms"] = [{"alpha": [0, 2], "beta": [0, 1], "re": 0.05}]
    cfg = load_config(raw)
    # every assembly ends in one _summed call: the dump is the operator the
    # run solved, so the base operator is assembled once either way
    dims, summed = [], quantize._summed
    monkeypatch.setattr(quantize, "_summed", lambda parts, n: dims.append(n) or summed(parts, n))
    run_scenario(cfg, tmp_path)
    monkeypatch.undo()
    assert dims == [cfg.basis_for(0.1).dim]
    listed = json.loads((tmp_path / "run_report.json").read_text())["artifacts"]
    path = tmp_path / "matrix_h0p1.csv"
    assert ("matrix_h0p1.csv" in listed) is dump and path.exists() is dump
    if not dump:
        return
    lines = path.read_text().splitlines()
    n = int(lines[0])
    vals = np.array([complex(float(r), float(i))
                     for r, i in (ln.split(",") for ln in lines[1:])])
    want = config_operator(cfg, 0.1).matrix  # an assembly of its own, apart from the run
    assert vals.size == n * n and n == want.shape[0]
    dense = np.ascontiguousarray(vals.reshape((n, n), order="F"))
    assert np.array_equal(dense.view(np.uint64), want.view(np.uint64))


def test_emit_plot_data_empty(tmp_path):
    p = tmp_path / "plot.csv"
    emit_plot_data(p, None, None)
    assert p.read_text().splitlines() == ["re,im,k,l,source,pair"]


def test_emit_plot_data_rows_and_pairs(tmp_path):
    entries = [LatticeEntry(0, 0, 0.1 - 0.05j), LatticeEntry(1, 0, 0.2 - 0.05j),
               LatticeEntry(0, 1, 0.1 - 0.15j)]
    lat = ResonanceLattice(entries, Window(0.0, 1.0, 1.0), 0.1)
    rep = MatchReport(
        pairs=[MatchedPair(0, 0, 0.1 - 0.05j, 0.1 - 0.05j + 1e-9, 1e-9)],
        unmatched_predicted=entries[1:],
        unmatched_computed=[0.9 - 0.9j],
        max_err=1e-9, mean_err=1e-9, h=0.1,
    )
    p = tmp_path / "plot.csv"
    emit_plot_data(p, lat, rep)
    lines = p.read_text().splitlines()
    assert len(lines) == 1 + 3 + 1 + 1
    pred0 = lines[1].split(",")
    comp0 = lines[4].split(",")
    assert pred0[4] == "predicted" and comp0[4] == "computed"
    assert pred0[5] == comp0[5] == "0"  # shared pair id


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def test_cli_run_quadratic(tmp_path, capsys):
    rc = main(["run", "--config", "quadratic_saddle", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "run_report.json").exists()


def test_cli_bnf_subcommand(tmp_path):
    rc = main(["bnf", "--config", "quadratic_saddle", "--out", str(tmp_path)])
    assert rc == 0
    nf = json.loads((tmp_path / "normal_form.json").read_text())
    assert nf["kind"] == "equilibrium"


def test_cli_lattice_subcommand(tmp_path):
    rc = main(["lattice", "--config", "quadratic_saddle", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "lattice_h0p05.csv").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1}))
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_exit_code(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("make", ["directory", "utf16_bom"])
def test_cli_unreadable_config_is_a_config_error_naming_the_path(tmp_path, capsys, make):
    path = tmp_path / "config.json"
    if make == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot read config file" in err and str(path) in err
    assert not out.exists()


def test_cli_config_that_is_not_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "config error: config is not valid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_subcommand(tmp_path):
    cfg = json.loads(json.dumps(GOOD))
    cfg["model"]["higher_terms"] = [
        {"alpha": [2, 2], "beta": [0, 0], "j": 0, "re": 0.2, "im": 0.0}
    ]
    cfg["compute"]["order"] = 4
    cfg["compute"]["h_values"] = [0.2, 0.1, 0.05]
    cfg["compute"]["window"] = {"half_width": 0.5, "depth": 0.4}
    cfg["compute"]["label_cap"] = 2
    del cfg["compute"]["basis"]
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(cfg))
    rc = main(["sweep", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 0
    conv = json.loads((tmp_path / "convergence.json").read_text())
    assert conv["slope"] is not None and conv["slope"] > 1.5


def test_cli_numeric_failure_exit_code(tmp_path, capsys):
    cfg = json.loads(json.dumps(GOOD))
    cfg["compute"]["basis"] = {"levels1": 200, "levels2": 200}  # beyond the cap
    p = tmp_path / "big.json"
    p.write_text(json.dumps(cfg))
    rc = main(["direct", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("coef", [1e15, 1e16])
def test_cli_saddle_whose_pruning_drops_the_quadratic_part_is_a_numeric_failure(
        tmp_path, capsys, coef):
    # higher terms this large make the prepared symbol's pruning drop the
    # rates it is divided by, before the prepared-form check runs: that is
    # the loop's numeric failure (exit 3), not a malformed model (exit 1)
    cfg = json.loads(json.dumps(GOOD))
    cfg["model"]["higher_terms"] = [
        {"alpha": [2, 2], "beta": [0, 0], "j": 0, "re": coef},
        {"alpha": [3, 0], "beta": [0, 0], "j": 0, "re": coef},
    ]
    cfg["compute"].update({"order": 8, "direct": False})
    cfg["compute"].pop("basis", None)
    p = tmp_path / "big.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 3
    assert "pruning dropped the grade-2 part" in capsys.readouterr().err
    report = json.loads((out / "run_report.json").read_text())
    assert report["status"] == "incomplete"


def _workload_cylinder_run(tmp_path, capsys, command, center):
    """Exit code, stderr and run report of ``command`` on the workload cylinder at ``center``."""
    from conftest import workload_cylinder

    p = tmp_path / f"c{center}.json"
    p.write_text(json.dumps(workload_cylinder(center)))
    out = tmp_path / f"{command}-{center}"
    rc = main([command, "--config", str(p), "--out", str(out)])
    return rc, capsys.readouterr().err, json.loads((out / "run_report.json").read_text())


@pytest.mark.parametrize("command, center", [
    ("run", 1.2), ("lattice", 1.2), ("run", 2.0), ("lattice", 2.0), ("direct", 2.0),
])
def test_cli_window_off_the_orbit_branch_is_a_numeric_failure(tmp_path, capsys, command,
                                                              center):
    # f = tau - 0.2 tau^2 peaks at 1.25: a window reaching above it (1.2)
    # or lying above it (2.0) has energies no orbit of the branch through
    # tau = 0 has, so the lattice cannot list it, nor the basis centre on it
    rc, err, report = _workload_cylinder_run(tmp_path, capsys, command, center)
    assert rc == 3 and "Traceback" not in err
    assert "its energies span (-inf, 1.25)" in err
    assert report["status"] == "incomplete" and report["errors"][0]["stage"] == "numeric"


def test_cli_window_near_the_fold_lists_the_whole_branch_or_fails(tmp_path, capsys):
    # at centre 1.03 the window (0.83, 1.23) holds 12 points of the branch;
    # its enumeration margin reaches 1.27, above the fold at 1.25
    rc, err, report = _workload_cylinder_run(tmp_path, capsys, "run", 1.03)
    if rc == 3:
        assert report["status"] == "incomplete" and "Traceback" not in err
        return
    assert rc == 0
    rows = (tmp_path / "run-1.03" / "lattice_h0p1.csv").read_text().splitlines()[1:]
    assert len(rows) == 12


def test_cli_bad_fourier_mode_is_a_config_error_naming_the_entry(tmp_path, capsys):
    from conftest import workload_cylinder

    raw = workload_cylinder(0.0)
    raw["model"]["perturbation"].append({"m": 0.3, "alpha": [3], "beta": [0], "re": 0.1})
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "invalid perturbation entry" in err and "'m': 0.3" in err
    assert "integer or half-integer" in err
    assert not (tmp_path / "out").exists()


def test_config_fourier_mode_near_an_integer_is_a_config_error(tmp_path, capsys):
    # rounded, m = 1 + 4e-13 would be echoed in scenario_echo.json and run as m = 1
    raw = json.loads(bundled_scenarios()["cylinder_cubic"].read_text())
    raw["model"]["perturbation"][0]["m"] = 1.0000000000004
    with pytest.raises(ConfigError, match=r"invalid perturbation entry \{'m': 1.0000000000004"):
        load_config(raw)
    p = tmp_path / "near.json"
    p.write_text(json.dumps(raw))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "integer or half-integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, basis", [
    ("quadratic_saddle", {"levels1": 10}),
    ("quadratic_saddle", {"levels1": -1, "levels2": 10}),
    ("quadratic_saddle", {"levels1": "ten", "levels2": 10}),
    ("cylinder_unperturbed", {"k_min": 3, "k_max": 2, "levels": 4}),
    ("cylinder_unperturbed", {"levels1": 10, "levels2": 10}),
])
def test_cli_bad_basis_block_is_a_config_error(tmp_path, capsys, name, basis):
    cfg = json.loads(bundled_scenarios()[name].read_text())
    cfg["compute"]["basis"] = basis
    p = tmp_path / "bad_basis.json"
    p.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="basis block"):
        load_config(cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------------
# subcommands as stage subsets of run_scenario
# --------------------------------------------------------------------------

def _sweep_raw(**compute):
    """Three-h saddle config with a basis override that the auto basis does not give."""
    raw = json.loads(json.dumps(GOOD))
    raw["model"]["higher_terms"] = [
        {"alpha": [2, 2], "beta": [0, 0], "j": 0, "re": 0.2, "im": 0.0}
    ]
    raw["compute"].update({"order": 4, "h_values": [0.2, 0.1, 0.05], "label_cap": 2,
                           "window": {"half_width": 0.5, "depth": 0.4},
                           "basis": {"levels1": 24, "levels2": 22}, **compute})
    return raw


TAGS = ("0p2", "0p1", "0p05")
_ALWAYS = {"scenario_echo.json", "run_report.json"}
_NF = {"normal_form.json"}
_LAT = {f"lattice_h{t}.csv" for t in TAGS}
_SPEC = {f"spectrum_h{t}.csv" for t in TAGS}
_MATCH = {f"{stem}_h{t}.{ext}" for t in TAGS
          for stem, ext in (("match", "json"), ("match", "csv"), ("plot", "csv"))}
_COMPARE = _ALWAYS | _NF | _LAT | _SPEC | _MATCH
ARTIFACTS = {
    "bnf": _ALWAYS | _NF,
    "lattice": _ALWAYS | _NF | _LAT,
    "direct": _ALWAYS | _SPEC,
    "compare": _COMPARE,
    "sweep": _COMPARE | {"convergence.json"},
    "run": _COMPARE | {"convergence.json"},  # the config sets compute.sweep
}


@pytest.fixture(scope="module")
def subcommand_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("subcommands")
    cfg = root / "sweep.json"
    cfg.write_text(json.dumps(_sweep_raw(sweep=True)))
    for command in ARTIFACTS:
        assert main([command, "--config", str(cfg), "--out", str(root / command)]) == 0
    return root


@pytest.mark.parametrize("command", sorted(ARTIFACTS))
def test_cli_subcommand_artifact_set(subcommand_runs, command):
    out = subcommand_runs / command
    assert {p.name for p in out.iterdir()} == ARTIFACTS[command]
    report = json.loads((out / "run_report.json").read_text())
    assert report["status"] == "ok"
    assert set(report["artifacts"]) == ARTIFACTS[command] - {"run_report.json"}


def test_cli_compare_writes_the_run_artifacts(subcommand_runs):
    for name in ARTIFACTS["compare"] - {"run_report.json"}:
        assert (subcommand_runs / "compare" / name).read_bytes() == (
            subcommand_runs / "run" / name
        ).read_bytes(), name


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_sweep_fits_the_runs_own_matches(subcommand_runs, command):
    out = subcommand_runs / command
    conv = json.loads((out / "convergence.json").read_text())
    want = {}
    for tag, h in zip(TAGS, (0.2, 0.1, 0.05)):
        match = json.loads((out / f"match_h{tag}.json").read_text())
        want[format(h, ".6g")] = max(
            p["abs_err"] for p in match["pairs"] if abs(p["k"]) <= 2 and p["l"] <= 2
        )
    assert conv["errors"] == want


def test_cli_compare_honors_plot_data(tmp_path):
    raw = json.loads(json.dumps(GOOD))
    raw["output"]["plot_data"] = False
    cfg = tmp_path / "noplot.json"
    cfg.write_text(json.dumps(raw))
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "match_h0p1.json").exists()
    assert not (tmp_path / "o" / "plot_h0p1.csv").exists()


@pytest.mark.parametrize("command, compute", [
    ("run", {"sweep": True, "h_values": [0.2, 0.1]}),
    ("sweep", {"h_values": [0.2, 0.1]}),
    ("run", {"sweep": True, "direct": False}),
])
def test_cli_sweep_it_cannot_fit_is_a_config_error(tmp_path, capsys, command, compute):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(_sweep_raw(**compute)))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bug_is_not_a_numeric_failure(tmp_path, monkeypatch):
    import qbnf.scenario as scenario

    def broken(config):
        raise TypeError("bug")

    monkeypatch.setattr(scenario, "compute_normal_form", broken)
    with pytest.raises(TypeError, match="bug"):
        main(["bnf", "--config", "quadratic_saddle", "--out", str(tmp_path)])


@pytest.mark.parametrize("stages", [("match",), ("lattice",), ("bnf", "plot")])
def test_run_scenario_rejects_stages_it_cannot_run(tmp_path, stages):
    with pytest.raises(ValueError, match="runnable subset"):
        run_scenario(load_config(GOOD), tmp_path / "out", stages)
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------------------
# lattice caps and the per-h route
# --------------------------------------------------------------------------

def _assert_config_error(tmp_path, capsys, raw, match):
    """load_config raises, and the CLI exits 2 before writing anything."""
    with pytest.raises(ConfigError, match=match):
        load_config(raw)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["lattice", "--config", str(p), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("h_values", [[0.1000001, 0.1], [0.1, 0.1]])
def test_config_rejects_h_values_that_share_an_artifact_tag(tmp_path, capsys, h_values):
    # both would write lattice_h0p1.csv and the other per-h files
    raw = json.loads(bundled_scenarios()["quadratic_saddle"].read_text())
    raw["compute"]["h_values"] = h_values
    first, second = h_values
    _assert_config_error(tmp_path, capsys, raw,
                         rf"{first} and {second} share the artifact tag h0p1")


def test_config_rejects_k_cap_on_a_cylinder(tmp_path, capsys):
    raw = json.loads(bundled_scenarios()["cylinder_cubic"].read_text())
    raw["compute"]["k_cap"] = 1
    _assert_config_error(tmp_path, capsys, raw, "k_cap")


@pytest.mark.parametrize("name, key, value", [
    ("quadratic_saddle", "l_cap", -1),
    ("quadratic_saddle", "l_cap", 1.5),
    ("quadratic_saddle", "k_cap", "2"),
    ("quadratic_saddle", "k_cap", True),
    ("cylinder_cubic", "l_cap", -1),
])
def test_config_rejects_caps_that_are_not_counts(tmp_path, capsys, name, key, value):
    raw = json.loads(bundled_scenarios()[name].read_text())
    raw["compute"][key] = value
    _assert_config_error(tmp_path, capsys, raw, key)


@pytest.mark.parametrize("key, value", [
    ("order", 3.7),
    ("order", "abc"),
    ("order", True),
    ("h_values", ["0.1"]),
    ("h_values", 0.05),
    ("window", {"half_width": "x", "depth": 0.5}),
    ("label_cap", "x"),
    ("label_cap", 2.5),
    ("match_radius", "x"),
    ("match_radius", 0),
])
def test_config_rejects_values_of_the_wrong_type(tmp_path, capsys, key, value):
    # none of these may be truncated, ignored or left to crash a later stage
    raw = json.loads(bundled_scenarios()["quadratic_saddle"].read_text())
    raw["compute"][key] = value
    _assert_config_error(tmp_path, capsys, raw, key)


def _cubic_energy_cylinder(**compute):
    """cylinder_cubic with a degree-3 energy, so the model reaches tau^3."""
    raw = json.loads(bundled_scenarios()["cylinder_cubic"].read_text())
    raw["model"]["energy_coeffs"] = [0.0, 1.0, -0.2, 0.05]
    raw["compute"].update(compute)
    return raw


@pytest.mark.parametrize("value", [1, 0, -1, 2.5, "3"])
def test_config_rejects_a_tau_order_below_the_model(tmp_path, capsys, value):
    _assert_config_error(tmp_path, capsys, _cubic_energy_cylinder(tau_order=value),
                         "tau_order")


def test_config_rejects_tau_order_on_a_saddle(tmp_path, capsys):
    raw = json.loads(bundled_scenarios()["quadratic_saddle"].read_text())
    raw["compute"]["tau_order"] = 4
    _assert_config_error(tmp_path, capsys, raw, "tau_order")


def test_config_tau_order_at_the_model_degree_keeps_every_energy_term():
    nf, _ = compute_normal_form(load_config(_cubic_energy_cylinder(tau_order=3)))
    assert nf.coeffs[(3, 0, 0)] == 0.05


def _written_labels(tmp_path, name, **caps):
    raw = json.loads(bundled_scenarios()[name].read_text())
    raw["compute"].update(caps)
    out = tmp_path / ("capped" if caps else "full")
    run_scenario(load_config(raw), out, ["bnf", "lattice"])
    (csv,) = out.glob("lattice_h*.csv")
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    return {(int(k), int(l)) for k, l, _, _ in rows}


@pytest.mark.parametrize("name, caps", [
    ("quadratic_saddle", {"k_cap": 1, "l_cap": 2}),
    ("cylinder_cubic", {"l_cap": 1}),
])
def test_config_caps_bound_the_written_lattice(tmp_path, name, caps):
    full = _written_labels(tmp_path, name)
    capped = _written_labels(tmp_path, name, **caps)
    kept = {(k, l) for k, l in full
            if k <= caps.get("k_cap", k) and l <= caps["l_cap"]}
    assert capped == kept and capped != full


def test_scenario_sweep_matches_convergence_sweep(tmp_path):
    raw = json.loads(json.dumps(GOOD))
    raw["model"]["higher_terms"] = [
        {"alpha": [2, 2], "beta": [0, 0], "j": 0, "re": 0.2, "im": 0.0}
    ]
    del raw["compute"]["basis"]
    raw["compute"].update({"order": 4, "h_values": [0.2, 0.1, 0.05], "sweep": True,
                           "window": {"half_width": 0.6, "depth": 0.45}, "label_cap": 2})
    config = load_config(raw)
    run_scenario(config, tmp_path)
    conv = json.loads((tmp_path / "convergence.json").read_text())
    res = convergence_sweep(config.model(), config.order, config.h_values,
                            window=config.window(), label_cap=2, stability_check=False)
    assert res.slope is not None and not res.exact
    assert conv["slope"] == res.slope and conv["exact"] == res.exact
    assert conv["errors"] == {format(h, ".6g"): e for h, e in res.errors.items()}


# --------------------------------------------------------------------------
# the config schema
# --------------------------------------------------------------------------

def _bundled_raw(name, edit):
    raw = json.loads(bundled_scenarios()[name].read_text())
    edit(raw)
    return raw


def _set(block, key, value):
    def edit(raw):
        target = raw
        for part in block.split("."):
            target = target[int(part) if part.isdigit() else part]
        target[key] = value
    return edit


def _rename(block, old, new):
    def edit(raw):
        target = raw[block] if block else raw
        target[new] = target.pop(old)
    return edit


@pytest.mark.parametrize("name, edit, match", [
    # a string flag would read as true: the orientable model, not the half-shift one
    ("cylinder_cubic", _set("model", "orientable", "false"), "orientable must be"),
    ("quadratic_saddle", _set("compute", "stability_check", "false"), "stability_check"),
    ("quadratic_saddle", _set("output", "plot_data", "no"), "plot_data"),
    ("quadratic_saddle", _rename("compute", "stability_check", "stabilty_check"),
     "did you mean 'stability_check'"),
    ("quadratic_saddle", _rename("", "output", "outptu"), "did you mean 'output'"),
    # integer fields given as floats or strings would be truncated or converted
    ("cylinder_cubic", _set("model.perturbation.0", "a", 1.5), "a must be"),
    ("cylinder_cubic", _set("model.perturbation.0", "j", 0.5), "j must be"),
    ("cylinder_cubic", _set("model.perturbation.0", "coef", 0.1), "unknown key 'coef'"),
    ("cylinder_cubic", _set("compute", "basis", {"k_min": -10.7, "k_max": 10, "levels": 12}),
     "k_min"),
    ("cylinder_cubic", _set("compute", "basis", {"k_min": -10, "k_max": 10, "levels": "12"}),
     "levels"),
    ("cylinder_cubic", _set("model", "energy_coeffs", ["0", "1"]), "energy_coeffs"),
    # keys of the other model kind
    ("perturbed_saddle", _set("model.higher_terms.0", "m", 1), "for cylinder models"),
    ("quadratic_saddle", _set("model", "orientable", True), "for cylinder models"),
    ("cylinder_cubic", _set("compute", "basis", {"levels1": 9, "levels2": 9}),
     "basis block"),
    # null stands for a key only where its default is null
    ("quadratic_saddle", _set("model", "energy0", None), "energy0"),
    ("quadratic_saddle", _set("compute", "direct", None), "direct"),
])
def test_config_schema_rejects_what_it_would_reinterpret(tmp_path, capsys, name, edit, match):
    _assert_config_error(tmp_path, capsys, _bundled_raw(name, edit), match)


def test_config_defaults_come_from_the_schema():
    saddle = load_config("quadratic_saddle")
    cylinder = load_config(_bundled_raw("cylinder_cubic", _set("model", "energy0", None)))
    assert saddle.get("model.energy0") == 0.0
    assert cylinder.get("model.energy0") is None
    assert cylinder.window().center == 0.0  # the orbit energy f(0)
    for config in (saddle, cylinder):
        assert config.get("compute.label_cap") == 3
        assert config.get("compute.direct") is True
        assert config.get("compute.sweep") is False
    no_output = load_config(_bundled_raw("quadratic_saddle", lambda raw: raw.pop("output")))
    assert no_output.get("output.plot_data") is True
    assert no_output.get("output.directory") == "qbnf_out"


def test_config_reads_integral_numbers_as_floats(tmp_path):
    # a JSON 0 and 0.0 are the same number: the run and its artifacts agree
    floats = _bundled_raw("cylinder_cubic", _set("model", "energy0", 0.0))
    ints = _bundled_raw("cylinder_cubic", _set("model", "energy0", 0))
    ints["model"]["action"] = 0
    run_scenario(load_config(floats), tmp_path / "floats", ["bnf", "lattice"])
    run_scenario(load_config(ints), tmp_path / "ints", ["bnf", "lattice"])
    for name in ("normal_form.json", "lattice_h0p05.csv"):
        assert (tmp_path / "floats" / name).read_bytes() == (
            tmp_path / "ints" / name).read_bytes(), name


def _perfbench():
    """perfbench's ``checks`` and ``workloads`` modules, imported read-only, and the repo root."""
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import checks
        import workloads
    finally:
        sys.path.pop(0)
    return checks, workloads, root


def test_every_shipped_config_loads_and_echoes_as_recorded(tmp_path):
    # the bundled scenarios and every input variant of every benchmark
    # workload pass the schema, and scenario_echo.json keeps the bytes
    # recorded in perfbench/reference.json
    import hashlib

    checks, workloads, root = _perfbench()
    for name in bundled_scenarios():
        load_config(name)
    reference = checks.load_reference()
    seen = 0
    for workload in workloads.WORKLOADS:
        for variant in range(workloads.NUM_VARIANTS):
            digests = checks.recorded(reference, "digests", workload, variant)
            for name, raw in workloads.scenarios(root, workload, variant):
                out = tmp_path / f"{workload}-{variant}-{name}"
                run_scenario(load_config(raw), out, [])
                echo = (out / "scenario_echo.json").read_bytes()
                assert hashlib.sha256(echo).hexdigest()[:16] == \
                    digests[name]["scenario_echo.json"], (workload, variant, name)
                seen += 1
    assert seen == 10 * (2 + 2 + 4 + 1)


def test_readme_lists_every_schema_key():
    from pathlib import Path

    from qbnf.schema import entries

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Scenario configs", 1)[1].split("\n## ", 1)[0]
    lines = section.splitlines()
    for name, accepts, kinds, default in entries():
        row = f"| `{name}` | {accepts} | {kinds} | {default} |"
        assert any(line.startswith(row) for line in lines), row


#: the BLAS thread count the reference digests were recorded at
#: (perfbench/baseline.json); at one thread LAPACK orders the eigenvalues
#: of some bundled operators differently (README)
_RECORDED_BLAS_THREADS = "2"

#: runs every scenario of the hashed workloads at input variants 0 and 1
#: under ``argv[2]`` and prints the digests of each run's artifacts
_HASHED_RUNS = """
import json, sys
from pathlib import Path
root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import checks, workloads
from qbnf.scenario import load_config, run_scenario
digests = {}
for workload in ("bnf_classical", "bnf_quantum", "bundled_run"):
    for variant in (0, 1):
        for name, raw in workloads.scenarios(root, workload, variant):
            run = out / f"{workload}-{variant}-{name}"
            run_scenario(load_config(raw), run)
            digests[f"{workload}/{variant}/{name}"] = checks.observe(run)["digests"]
print(json.dumps(digests))
"""


def test_workload_artifacts_keep_their_recorded_bytes(tmp_path):
    # every artifact of the normal-form and bundled workloads, at input
    # variants 0 and 1, hashes to its digest in perfbench/reference.json;
    # the runs go to a child process at the recorded BLAS thread count, so
    # the test holds whatever count the suite itself runs at
    import os
    import subprocess
    import sys

    checks, workloads, root = _perfbench()
    env = dict(os.environ, **{var: _RECORDED_BLAS_THREADS for var in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    child = subprocess.run([sys.executable, "-c", _HASHED_RUNS, str(root), str(tmp_path)],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    observed = json.loads(child.stdout)
    reference = checks.load_reference()
    seen = 0
    for workload in ("bnf_classical", "bnf_quantum", "bundled_run"):
        for variant in (0, 1):
            digests = checks.recorded(reference, "digests", workload, variant)
            for name, _ in workloads.scenarios(root, workload, variant):
                assert observed[f"{workload}/{variant}/{name}"] == digests[name], \
                    (workload, variant, name)
                seen += len(digests[name])
    assert seen == 2 * (4 * 3 + 4 * 7)  # two variants of 4 normal forms and 4 runs


def test_every_workload_substitution_matches_the_running_prune(monkeypatch):
    # every substitute_pair call of the normal forms, their chain replays and
    # the direct operators of every input variant of every benchmark
    # workload: summed in one pass and pruned once, as the package does, it
    # gives the keys, order and bits of a sum pruned after each source term
    from dict_symbol import loop_substitute_pair

    from qbnf import normal_form, quantize, symbols
    from qbnf.compare import model_operator_symbol
    from qbnf.scenario import compute_normal_form

    calls = []

    def recording(symbol, pair, x_row, xi_row):
        out = symbols.substitute_pair(symbol, pair, x_row, xi_row)
        calls.append((symbol, pair, x_row, xi_row, out))
        return out

    monkeypatch.setattr(normal_form, "substitute_pair", recording)
    monkeypatch.setattr(quantize, "substitute_pair", recording)
    _, workloads, root = _perfbench()
    for workload in workloads.WORKLOADS:
        for variant in range(workloads.NUM_VARIANTS):
            for _, raw in workloads.scenarios(root, workload, variant):
                config = load_config(raw)
                _, chain = compute_normal_form(config)
                assert chain.remainder is not None
                if config.get("compute.direct"):
                    model_operator_symbol(config.model())
    assert len(calls) >= 170
    for symbol, pair, x_row, xi_row, out in calls:
        want = loop_substitute_pair(symbol.terms, pair, x_row, xi_row)
        assert list(out.terms) == list(want)
        assert np.array_equal(np.array(list(out.terms.values())).view(np.uint64),
                              np.array(list(want.values()), dtype=complex).view(np.uint64))
