"""Re-record ``reference.json``: the values the correctness gate compares with.

    python3 perfbench/record.py

Runs one unchecked pass of every workload for every input variant and
stores, per scenario, the artifact digests (for ``artifacts_changed``),
a ``max_err`` bound of twice the largest recorded matching error (at
least 1e-9, since exact models match at rounding level), and, for the
``bnf_*`` workloads, the normal-form coefficients of every variant.  It
refuses to record a run that raised or did not finish with status ok.
Takes about 16 minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads

MAX_ERR_FLOOR = 1e-9


def main() -> int:
    ref = {"max_err_bound": {}, "normal_form": {}, "digests": {}}
    worst: dict[str, float] = {}
    for workload in workloads.WORKLOADS:
        ref["digests"][workload] = {}
        for variant in range(workloads.NUM_VARIANTS):
            # seed v selects variant v for v < NUM_VARIANTS
            res = run.worker(["--workload", workload, "--seed", str(variant), "--record"],
                             timeout=600)
            if res is None or res["errors"]:
                print(f"{workload} variant {variant} failed: {res and res['errors']}",
                      file=sys.stderr)
                return 1
            obs = res["observations"]
            bad = [n for n, o in obs.items() if o is None or o["status"] != "ok"]
            if bad:
                print(f"{workload} variant {variant}: not ok: {bad}", file=sys.stderr)
                return 1
            ref["digests"][workload][str(variant)] = {n: o["digests"] for n, o in obs.items()}
            if workload.startswith("bnf_"):
                ref["normal_form"].setdefault(workload, {})[str(variant)] = {
                    n: o["nf"] for n, o in obs.items()}
            for name, o in obs.items():
                if o["max_err"] is not None:
                    worst[name] = max(worst.get(name, 0.0), o["max_err"])
            print(f"{workload} variant {variant}: wall {res['wall_s']:.2f} s", flush=True)
    ref["max_err_bound"] = {n: max(2.0 * e, MAX_ERR_FLOOR) for n, e in sorted(worst.items())}
    checks.REFERENCE.write_text(json.dumps(ref, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
