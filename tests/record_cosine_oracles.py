"""Record the cosine engine's brackets against the composite 20-node
Gauss-Legendre oracle over a fixed sweep of cases; pytest does not collect
this script.

    PYTHONPATH=src python tests/record_cosine_oracles.py LABEL

writes ``ORACLE_cosine_sweep_LABEL.json`` in the working directory, one JSON
object a line, one line a case: the query, seed and n, the bracket, the
oracle value, whether the bracket holds it, the margin (the distance from
the value to the nearer end in bracket widths, negative outside) and the
seconds the query took on a fresh engine.  The cases:

* ``log_evidence`` over seeds 1-12 x n in {1, 2, 3, 5, 8, 10, 20, 40, 80};
* ``log_evidence``, ``region_mass(5)`` and ``hellinger_mass(0.5)`` over
  seeds 1-6 x n in {160, 320}.

The data are those of ``traj --seed SEED`` under the uniform truth, the
prior exponential with rate 1 and quad_tol 1e-9.  The oracle integrates the
joint density on [0, T], where the prior tail times the sup-likelihood bound
(2 / (1 - 1/T))^n is below e^-40 of the smallest part a query divides, on
panels of width at most 1/4 that are also cut at 5 and at every point where
the closed-form Hellinger distance to the uniform crosses 0.5; the panels are
halved until two rounds agree to 1e-12 (relative for masses, absolute for ln
evidence).  A region's mass is its panels' share.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np
from oracles import gauss_legendre_panels

from posterior_lab.cosine import CosineEngine, CosinePriorConfig, cosine_hellinger_uniform
from posterior_lab.harness import DATA_STREAM
from posterior_lab.numerics import RandomStream, log_sum_exp

QUAD_TOL = 1e-9
EPS = 0.5
REGION = 5.0
AGREE = 1e-12


def cases():
    for seed in range(1, 13):
        for n in (1, 2, 3, 5, 8, 10, 20, 40, 80):
            yield seed, n, ("log_evidence",)
    for seed in range(1, 7):
        for n in (160, 320):
            yield seed, n, ("log_evidence", "region_mass(5)", "hellinger_mass(0.5)")


def hellinger_crossings(top: float) -> list:
    """The points in (0, top) where d_h(f_theta, uniform) crosses EPS: sign
    changes on a 1e-3 grid, bisected to adjacent floats.  Past theta = 80,
    d_h stays below 0.5 (its plateau is 0.444)."""
    grid = np.arange(0.0, min(top, 80.0), 1e-3)
    above = cosine_hellinger_uniform(grid) > EPS
    points = []
    for i in np.flatnonzero(above[1:] != above[:-1]).tolist():
        lo, hi = float(grid[i]), float(grid[i + 1])
        side = bool(above[i])
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            if (float(cosine_hellinger_uniform(mid)) > EPS) == side:
                lo = mid
            else:
                hi = mid
        points.append(hi)
    return points


def reach(n: int, log_part: float) -> float:
    """The smallest integer T >= 60 at which the joint mass past T is below
    e^-40 of e^log_part."""
    t = 60.0
    while n * (math.log(2.0) - math.log1p(-1.0 / t)) - t > log_part - 40.0:
        t += 1.0
    return t


def oracle(data, queries) -> tuple:
    """The oracle value of each query, and the panel count it agreed at."""
    cuts = [REGION, *(hellinger_crossings(80.0) if "hellinger_mass(0.5)" in queries else [])]
    top, prev, step = reach(data.size, 0.0), None, 0.25
    while True:
        edges = np.unique(np.concatenate([np.arange(0.0, top, step), cuts, [top]]))
        edges = edges[edges <= top]
        logs = gauss_legendre_panels(data, edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        regions = {"region_mass(5)": mid > REGION,
                   "hellinger_mass(0.5)": cosine_hellinger_uniform(mid) > EPS}
        parts = {q: (log_sum_exp(logs[regions[q]]), log_sum_exp(logs[~regions[q]]))
                 for q in queries if q in regions}
        # the reach must serve the smallest part a query divides
        need = reach(data.size, min([log_sum_exp(logs), *sum(parts.values(), ())]))
        if need > top:
            top, prev, step = need, None, 0.25
            continue
        values = {"log_evidence": log_sum_exp(logs)}
        values.update((q, 1.0 / (1.0 + math.exp(out - in_))) for q, (in_, out) in parts.items())
        values = {q: values[q] for q in queries}
        if prev is not None and all(
                abs(values[q] - prev[q]) <= AGREE * (1.0 if q == "log_evidence"
                                                     else abs(values[q]))
                for q in queries):
            return values, edges.size - 1
        prev, step = values, 0.5 * step


def margin(lo: float, hi: float, value: float) -> float:
    """The distance from value to the nearer end of [lo, hi] in widths of
    it, negative outside."""
    near = min(value - lo, hi - value)
    if hi > lo:
        return near / (hi - lo)
    return 0.0 if near == 0.0 else math.copysign(math.inf, near)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, misses = [], 0
    for seed, n, queries in cases():
        data = RandomStream(seed, DATA_STREAM).uniform_open(n)
        want, panels = oracle(data, queries)
        for q in queries:
            eng = CosineEngine(CosinePriorConfig(), data, quad_tol=QUAD_TOL)
            t0 = time.perf_counter()
            br = (eng.log_evidence() if q == "log_evidence"
                  else eng.region_mass(REGION) if q == "region_mass(5)"
                  else eng.hellinger_mass(EPS))
            seconds = time.perf_counter() - t0
            inside = br.lower <= want[q] <= br.upper
            misses += not inside
            lines.append(json.dumps({
                "query": q, "seed": seed, "n": n, "bracket": [br.lower, br.upper],
                "oracle": want[q], "inside": inside,
                "margin": margin(br.lower, br.upper, want[q]),
                "seconds": round(seconds, 4), "oracle_panels": panels}))
    path = f"ORACLE_cosine_sweep_{argv[1]}.json"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{path}: {len(lines)} cases, {misses} outside their bracket")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
