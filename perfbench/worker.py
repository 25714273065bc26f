"""One benchmark pass in a fresh process, as a ``qbnf run`` user pays for it.

Set-up is timed from the first line of this process: importing qbnf,
building and validating the workload's configs, and one warm-up LAPACK
call (the first ``eig`` of a process is several times slower than later
ones).  The pass then runs every scenario of the workload back to back
through ``qbnf.scenario.run_scenario`` (a closed loop) into a fresh
directory, and is checked against ``reference.json`` after the clock
stops.  The BLAS thread count must already be pinned in the environment
by the caller.  The last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _versions() -> dict:
    import numpy
    import scipy

    def dep(mod, which):
        d = mod.show_config(mode="dicts").get("Build Dependencies", {}).get(which, {})
        return f"{d.get('name', '?')} {d.get('version', '?')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": dep(numpy, "blas"),
        "scipy_lapack": dep(scipy, "lapack"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pass-index", type=int, default=0,
                    help="number of this pass in its run; names the traced run's span file")
    ap.add_argument("--record", action="store_true",
                    help="report raw observations instead of checking them")
    args = ap.parse_args()

    import numpy as np
    import scipy.linalg

    import qbnf.scenario as sc

    variant = workloads.variant_of(args.seed)
    named = workloads.scenarios(args.root, args.workload, variant)
    configs = [sc.load_config(raw) for _, raw in named]
    warm = np.arange(40000, dtype=float).reshape(200, 200) % 7 + 1j * np.eye(200)
    scipy.linalg.eig(warm)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "versions": _versions()}))
        return 0

    tmp = args.root / ".perfbench_out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    out_root = Path(tempfile.mkdtemp(dir=tmp))
    tracer = tracing.Tracer() if args.trace else None
    errors = {}
    try:
        with tracing.traced(tracer) if tracer else nullcontext():
            t1 = time.perf_counter()
            for (name, _), config in zip(named, configs):
                try:
                    # looked up at call time so that the traced wrapper is used
                    sc.run_scenario(config, out_root / name)
                except Exception as exc:  # a failed scenario is counted, not fatal
                    errors[name] = f"{type(exc).__name__}: {exc}"
            wall_s = time.perf_counter() - t1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        obs = {name: checks.observe(out_root / name) if (out_root / name).is_dir() else None
               for name, _ in named}
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "versions": _versions()}
    if args.record:
        result["observations"] = obs
        result["errors"] = errors
        print(json.dumps(result))
        return 0

    reference = checks.load_reference()
    digests = checks.recorded(reference, "digests", args.workload, variant)
    nf_want = checks.recorded(reference, "normal_form", args.workload, variant)
    result["scenarios"] = {
        name: checks.problems(raw, obs[name], errors.get(name),
                              reference["max_err_bound"].get(name), nf_want.get(name))
        for name, raw in named
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, wall_s)
        layers["scenario.bytes_written"] = sum(o["bytes"] for o in obs.values() if o)
        layers["scenario.artifacts_changed"] = sum(
            checks.artifacts_changed(obs[name], digests.get(name)) for name, _ in named
        )
        result["layers"] = layers
        spans = args.root / ".perfbench_out" / "results"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans / f"spans-{args.workload}-s{args.seed}-p{args.pass_index}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
