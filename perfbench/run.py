"""qbnf benchmark: one workload, one seed, fixed measuring time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Load shape: one client in a
closed loop, each pass (all scenarios of the workload through
``qbnf.scenario.run_scenario``) in a fresh process, as a ``qbnf run``
user pays for it, so no in-process cache carries over between passes.
Passes repeat while the next one is expected to finish inside S seconds
(at least one pass).  Set-up is measured in every pass process and,
after the passes, in set-up-only processes up to ``MIN_SETUPS`` samples.
The BLAS threads are pinned to the number of usable cores through the
environment before any worker imports numpy.

With ``--trace 0`` the result carries the end-to-end metrics (medians
over the passes); with ``--trace 1`` every layer function is wrapped and
the result carries the per-layer metrics.  Every scenario run is checked
(see ``checks.py``); a failed check counts in ``failed``.  The last line
of standard output is the JSON result; a record with the environment and
every pass goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 5
#: every run must end within 180 s; a worker gets what is left of this
RUN_LIMIT_S = 170.0

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment of every worker: pinned BLAS threads, the checkout's sources."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(threads())
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def worker(args: list[str], timeout: float) -> dict | None:
    """Run worker.py with ``args``; its JSON result, or None if it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s: {' '.join(args)}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"worker failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qbnf" / "__init__.py").is_file():
        print(f"error: no qbnf sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    t_start = time.monotonic()
    env_info = {
        "workload": args.workload, "seed": args.seed,
        "variant": workloads.variant_of(args.seed), "seconds": args.seconds,
        "trace": args.trace, "blas_threads": threads(), "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(), "git_sha": git_sha(),
        "machine": platform.machine(), "platform": platform.platform(),
    }
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    compileall.compile_dir(ROOT / "src" / "qbnf", quiet=1)

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - t_start)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups, passes, attempted, failed = [], [], 0, 0
    n_scen = len(workloads.scenarios(ROOT, args.workload, 0))
    t_measure = time.monotonic()
    while True:
        t_pass = time.monotonic()
        res = worker(common + ["--trace", str(args.trace), "--pass-index", str(len(passes))],
                     left())
        attempted += n_scen
        if res is None:
            failed += n_scen
        else:
            failed += sum(1 for p in res["scenarios"].values() if p)
            passes.append(res)
            setups.append(res["setup_s"])
            for name, probs in res["scenarios"].items():
                for p in probs:
                    print(f"FAIL {name}: {p}")
            print(f"pass {len(passes)}: wall {res['wall_s']:.3f} s, "
                  f"setup {res['setup_s']:.3f} s, rss {res['peak_rss_mb']:.1f} MB")
        took = time.monotonic() - t_pass
        spent = time.monotonic() - t_measure
        if res is None or spent + took > args.seconds or took > left():
            break
    if not passes:
        print("error: no pass completed", file=sys.stderr)
        return 1
    while not args.trace and len(setups) < MIN_SETUPS:
        res = worker(common + ["--setup-only"], left())
        if res is None:
            return 1
        setups.append(res["setup_s"])

    env_info["versions"] = passes[0]["versions"]
    if args.trace:
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        values = {name: statistics.median(p["layers"][name] for p in passes)
                  for name in units}
    else:
        units = dict(END_TO_END)
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(f"workload {args.workload}, seed {args.seed} (variant {env_info['variant']}), "
          f"{len(passes)} passes, {len(setups)} set-ups, {env_info['blas_threads']} BLAS "
          f"threads of {env_info['nproc']} cores, load {env_info['loadavg_start'][0]:.2f}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {failed / attempted:14.6g} ({failed} of {attempted} "
          f"scenario runs)")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, environment=env_info, setups=setups, passes=passes)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
