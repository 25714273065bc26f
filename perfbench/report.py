"""Run every workload and print its end-to-end metrics, optionally the trace.

    python3 perfbench/report.py [--seeds 0 1 ...] [--workloads W ...] [--trace]
                                [--write-baseline]

Calls ``run.py`` once per workload and seed with the ``run_seconds`` of
``BENCHMARK.json`` (by default on its workloads), and prints the median of
``wall_s``, ``setup_s`` and ``peak_rss_mb`` with units and their spread
(quartile distance over median) across the seeds, and ``fail_frac``.
With ``--trace`` it makes one traced run on the first seed and prints the
layer self-time shares, the checked ratios and the tracing overhead
(traced over untraced ``wall_s``, minus one).  ``--write-baseline``
merges the numbers, the environment and the layer-to-metric map below
into ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: which end-to-end metric a change in each layer should move, on which workload
LAYER_MAP = {
    "symbols": "wall_s on bnf_classical (poisson_bracket) and bnf_quantum (star_conjugate); "
               "no change on bundled_run and saddle_sweep, where it is under 0.1%",
    "normal_form": "wall_s on bnf_classical and bnf_quantum (replay_share is wasted work)",
    "lattice": "wall_s on bnf_* only by its share, under 1%",
    "quantize": "peak_rss_mb and wall_s on saddle_sweep (dense_mb is computed, not measured)",
    "eigensolve": "wall_s and peak_rss_mb on saddle_sweep and bundled_run",
    "compare": "wall_s on bundled_run, only by its share",
    "scenario": "wall_s on bundled_run (artifact writing and glue)",
}

SHOWN = ["normal_form.replay_share", "eigensolve.repeat_frac", "eigensolve.window_yield",
         "eigensolve.worst_residual_ratio", "quantize.dim_max", "quantize.dense_mb",
         "scenario.artifacts_changed"]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS,
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", action="store_true",
                    help="also make one traced run, with the first seed")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    baseline["layer_map"] = LAYER_MAP
    for workload in args.workloads:
        runs = [run(workload, s, seconds, 0) for s in args.seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        row = {"seeds": args.seeds, "seconds": seconds, "end_to_end": {},
               "spread": {}, "fail_frac": failed / attempted, "attempted": attempted,
               "failed": failed}
        print(f"{workload}  ({len(runs)} runs of {seconds} s)")
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            row["end_to_end"][name] = statistics.median(values)
            row["spread"][name] = spread(values)
            print(f"  {name:34s} {row['end_to_end'][name]:12.4f} {m['unit']:5s} "
                  f"spread {row['spread'][name]:.4f}")
        print(f"  {'fail_frac':34s} {failed / attempted:12.4f} ({failed}/{attempted})")
        if args.trace:
            traced = run(workload, args.seeds[0], seconds, 1)["metrics"]
            layers = {name: m["value"] for name, m in traced.items()}
            wall = layers["traced.wall_s"]
            row["per_layer"] = layers
            row["tracing_overhead"] = wall / row["end_to_end"]["wall_s"] - 1.0
            for layer in tracing.LAYERS:
                print(f"  {layer + ' share':34s} {layers[layer + '.self_s'] / wall:12.4f}")
            for name in SHOWN:
                print(f"  {name:34s} {layers[name]:12.4g}")
            print(f"  {'tracing overhead':34s} {row['tracing_overhead']:12.4f}")
        record = ROOT / ".perfbench_out" / "results" / f"{workload}-s{args.seeds[0]}-t0.json"
        row["environment"] = json.loads(record.read_text())["environment"]
        baseline["workloads"][workload] = row
    if args.write_baseline:
        path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
