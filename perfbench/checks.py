"""Per-run correctness gate and artifact accounting.

``observe`` reads what one ``run_scenario`` call left on disk;
``problems`` compares it with ``reference.json``, recorded at the commit
that introduced the benchmark by ``record.py``.  A scenario run with any
problem counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

#: run_report.json carries runtime_s, so it is never byte-identical
UNDIGESTED = ("run_report.json",)

#: convergence order the perturbed saddle sweep must reach (criterion 2)
MIN_SLOPE = 2.0

#: relative tolerance of the normal-form coefficients against the reference
NF_RTOL = 1e-10


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _load(path: Path):
    return json.loads(path.read_text()) if path.exists() else None


def observe(out_dir: Path) -> dict:
    """Digests, sizes and the checked quantities of one scenario's artifacts."""
    files = sorted(p for p in out_dir.iterdir() if p.is_file())
    report = _load(out_dir / "run_report.json")
    matches = [_load(p) for p in sorted(out_dir.glob("match_h*.json"))]
    sweep = _load(out_dir / "convergence.json")
    nf = _load(out_dir / "normal_form.json")
    return {
        "status": report["status"] if report else "missing",
        "digests": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                    for p in files if p.name not in UNDIGESTED},
        "bytes": sum(p.stat().st_size for p in files),
        "max_err": max((m["max_err"] for m in matches), default=None),
        "unmatched": sum(len(m["unmatched_predicted"]) for m in matches),
        "matches": len(matches),
        "slope": sweep["slope"] if sweep else None,
        "nf": [[*c["indices"], c["re"], c["im"]] for c in nf["coefficients"]] if nf else None,
    }


def _nf_problems(got, want) -> list[str]:
    if got is None:
        return ["normal_form.json missing"]
    got_map = {tuple(r[:-2]): complex(r[-2], r[-1]) for r in got}
    want_map = {tuple(r[:-2]): complex(r[-2], r[-1]) for r in want}
    if got_map.keys() != want_map.keys():
        return [f"normal-form index set differs ({len(got_map)} vs {len(want_map)} terms)"]
    worst = max((abs(got_map[k] - w) / abs(w) if w else abs(got_map[k])
                 for k, w in want_map.items()), default=0.0)
    if worst > NF_RTOL:
        return [f"normal-form coefficient off by {worst:.3e} relative"]
    return []


def recorded(reference: dict, key: str, workload: str, variant: int) -> dict:
    """The per-scenario values stored under ``key`` for one workload and input variant."""
    return reference[key].get(workload, {}).get(str(variant), {})


def problems(raw: dict, obs: dict | None, error: str | None, max_err_bound: float | None,
             nf_want: list | None) -> list[str]:
    """Every reason the scenario run fails its correctness gate (empty if it passes).

    ``max_err_bound`` is the scenario's recorded bound and ``nf_want`` the
    normal-form coefficients recorded for its input variant (None if the
    workload has none).
    """
    if error is not None:
        return [f"raised {error}"]
    out = []
    if obs["status"] != "ok":
        out.append(f"status {obs['status']}")
    if raw["compute"].get("direct", True):
        if obs["matches"] != len(raw["compute"]["h_values"]):
            out.append(f"{obs['matches']} match reports for "
                       f"{len(raw['compute']['h_values'])} h values")
        if obs["unmatched"]:
            out.append(f"{obs['unmatched']} predicted points unmatched")
        if obs["max_err"] is not None and obs["max_err"] > max_err_bound:
            out.append(f"max_err {obs['max_err']:.3e} above bound {max_err_bound:.3e}")
    if raw["compute"].get("sweep", False):
        if obs["slope"] is None or obs["slope"] < MIN_SLOPE:
            out.append(f"sweep slope {obs['slope']} below {MIN_SLOPE}")
    if nf_want is not None:
        out += _nf_problems(obs["nf"], nf_want)
    return out


def artifacts_changed(obs: dict | None, recorded: dict | None) -> int:
    """Artifacts whose bytes differ from the recorded digests (missing ones count)."""
    got = obs["digests"] if obs else {}
    recorded = recorded or {}
    return sum(1 for f in got.keys() | recorded.keys() if got.get(f) != recorded.get(f))
