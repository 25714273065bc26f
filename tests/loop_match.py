"""Lattice matching as a per-entry scan, kept as a test oracle.

``qbnf.compare.match_lattices`` forms the distance matrix of lattice
entries and eigenvalues once and reads both nearest-neighbour choices
off it.  It must give exactly what this loop gives, which scans every
eigenvalue for each entry and every entry for the mutual check, and
keeps the bookkeeping of eigenvalues already taken: the same pairs, the
same unmatched points in the same order and the same error bits.
"""

import math

import numpy as np

from qbnf.compare import MatchedPair, MatchReport, _computed_values


def loop_match_lattices(pred, computed, radius=None, order=None) -> MatchReport:
    zs = _computed_values(computed)
    if radius is None:
        sep = pred.min_separation()
        radius = 0.45 * sep if math.isfinite(sep) else math.inf
    pairs, un_pred = [], []
    taken: dict[int, tuple[float, int]] = {}
    if len(zs) == 0:
        return MatchReport(
            [], list(pred.entries), [], 0.0, 0.0, pred.h, order, radius
        )
    for idx, entry in enumerate(pred.entries):
        d = np.abs(zs - entry.z)
        jbest = int(np.argmin(d))
        best = float(d[jbest])
        if best > radius:
            un_pred.append(entry)
            continue
        # mutual check: is this entry the closest lattice point to zs[jbest]?
        dl = [abs(e.z - zs[jbest]) for e in pred.entries]
        if int(np.argmin(dl)) != idx:
            un_pred.append(entry)
            continue
        if jbest in taken and taken[jbest][0] <= best:
            un_pred.append(entry)
            continue
        taken[jbest] = (best, len(pairs))
        pairs.append(MatchedPair(entry.k, entry.l, entry.z, complex(zs[jbest]), best))
    matched_js = set(taken.keys())
    un_comp = [complex(z) for j, z in enumerate(zs) if j not in matched_js]
    errs = [p.error for p in pairs]
    return MatchReport(
        pairs,
        un_pred,
        un_comp,
        max(errs, default=0.0),
        float(np.mean(errs)) if errs else 0.0,
        pred.h,
        order,
        radius,
    )
