"""Command-line entry point.

Subcommands operate on a scenario config (a path or a bundled name) and
run a subset of the pipeline stages of ``qbnf.scenario.run_scenario``.
Every subcommand writes ``scenario_echo.json`` and ``run_report.json``;
``<h>`` stands for each h value of the config:

    qbnf bnf      --config C --out D    normal_form.json
    qbnf lattice  --config C --out D    normal_form.json, lattice_h<h>.csv
    qbnf direct   --config C --out D    spectrum_h<h>.csv
    qbnf compare  --config C --out D    bnf and lattice files, spectrum_h<h>.csv,
                                        match_h<h>.json, match_h<h>.csv,
                                        plot_h<h>.csv (output.plot_data)
    qbnf sweep    --config C --out D    compare files, convergence.json
    qbnf run      --config C --out D    the stages the config selects

``compute.dump_matrices`` adds matrix_h<h>.csv to every subcommand that
runs the direct solve.  The BLAS thread count is set in the environment
(``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``) before the process starts.

Exit codes: 0 success, 1 a bug (the traceback is printed), 2
configuration error, before any file is written: an unknown or
misspelled key, a value of the wrong JSON type (a flag that is not true
or false, an integer field given as a float or a string) or out of its
range, or a broken model invariant (``qbnf.schema.SCHEMA`` lists every
key), 3 numeric failure (``run_report.json`` is marked incomplete).
A cylinder window beyond the orbit branch through tau = 0 exits 3: the
lattice's when it leaves the branch's energies, widened by its 20 %
enumeration margin, and the auto basis's when its centre does.
"""

from __future__ import annotations

import argparse
import sys

from . import scenario as sc

#: the stages of ``run_scenario`` each subcommand runs; None: as the config selects
COMMANDS = {
    "bnf": ("compute the normal form", ("bnf",)),
    "lattice": ("evaluate the quantization lattice", ("bnf", "lattice")),
    "direct": ("assemble and diagonalize the model operator", ("direct",)),
    "compare": ("match lattice against direct spectrum",
                ("bnf", "lattice", "direct", "match")),
    "sweep": ("fit the convergence order over the h list",
              ("bnf", "lattice", "direct", "match", "sweep")),
    "run": ("full pipeline", None),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qbnf",
        description="Resonance lattices from quantum Birkhoff normal forms",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True,
                       help="config path or bundled scenario name")
        p.add_argument("--out", default=None, help="output directory")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = sc.load_config(args.config)
        out = args.out or config.get("output.directory")
        sc.run_scenario(config, out, COMMANDS[args.command][1])
    except sc.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except sc.ScenarioNumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote artifacts to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
