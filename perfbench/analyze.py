"""Per-layer metrics from the spans of one traced CLI call.

Self time of a span is its duration minus the part of it that its child
spans cover (children in pool workers overlap each other, so their union
is taken).  Inclusive time of a function is the summed duration of its
outermost spans (those with no ancestor of the same name), i.e. the wall
time spent inside calls to it.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from tracer import LAYERS

# per-layer metric -> span name whose inclusive time it reports
INCLUSIVE = {
    "barron.add_point_s": "barron.BarronEngine.add_point",
    "barron.step_marginal_s": "barron.BarronEngine.step_marginal",
    "barron.posterior_over_n_s": "barron.BarronEngine.posterior_over_n",
    "barron.gauss_marginal_s": "barron.BarronEngine.gauss_marginal",
    "barron.interval_mass_s": "barron.PosteriorTheta.interval_mass",
    "barron.posterior_split_s": "barron.BarronEngine.posterior_split",
    "barron.hellinger_ball_mass_s": "barron.BarronEngine.hellinger_ball_mass",
    "barron.log_evidence_s": "barron.BarronEngine.log_evidence",
    "numerics.quad_s": "numerics.adaptive_quadrature",
    "diagnostics.evaluate_s": "diagnostics.evaluate_diagnostics",
    "diagnostics.gamma_stat_s": "diagnostics.gamma_stat",
    "diagnostics.band_posterior_mass_s": "diagnostics.band_posterior_mass",
    "diagnostics.band_prior_exponent_s": "diagnostics.band_prior_exponent",
    "diagnostics.beta_bound_mass_s": "diagnostics.beta_bound_mass",
    "cosine.cap_s": "cosine.CosineEngine.cap",
    "cosine.hellinger_mass_s": "cosine.CosineEngine.hellinger_mass",
    "cosine.region_mass_s": "cosine.CosineEngine.region_mass",
    "cosine.log_evidence_s": "cosine.CosineEngine.log_evidence",
    "harness.sample_s": "harness.TruthSpec.sample",
    "harness.write_s": "harness.write_trajectory",
}
CALLS = {
    "barron.add_point_calls": "barron.BarronEngine.add_point",
    "barron.step_marginal_calls": "barron.BarronEngine.step_marginal",
    "barron.interval_mass_calls": "barron.PosteriorTheta.interval_mass",
    "barron.prior_ball_mass_calls": "barron.PosteriorTheta.prior_ball_mass",
    "numerics.quad_calls": "numerics.adaptive_quadrature",
}
# exponent metric -> (span name, "per_call" mean over the grid interval, or
# "at_grid" total at the grid point); fitted over grid points n >= FIT_MIN_N
EXPONENTS = {
    "barron.add_point_exp_n": ("barron.BarronEngine.add_point", "per_call"),
    "barron.step_marginal_exp_n": ("barron.BarronEngine.step_marginal", "at_grid"),
    "diagnostics.evaluate_exp_n": ("diagnostics.evaluate_diagnostics", "at_grid"),
}
FIT_MIN_N = 100


def per_layer_units() -> dict:
    """Every per-layer metric of a traced run, with its unit.  All come from
    the spans except ``evidence_logwidth_max``, which run.py reads from the
    plain call's output files."""
    units = {name: "s" for name in INCLUSIVE}
    units.update({name: "count" for name in CALLS})
    units.update({name: "exponent" for name in EXPONENTS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({
        "barron.levels_M": "count",
        "barron.distinct_level": "count",
        "barron.useful_level_ratio": "ratio",
        "numerics.quad_evals": "count",
        "numerics.quad_evals_per_call": "evals/call",
        "harness.bytes_written": "B",
        "harness.pool_efficiency": "computed_ratio",
        "trace.overhead_share": "share",
        "trace.self_share": "share",
        "evidence_logwidth_max": "nats",
    })
    return units


class Spans:
    """Column view of one traced call's spans (all processes merged)."""

    def __init__(self, part: dict):
        self.names = part["names"]
        self.ids = list(part["ids"])
        self.parents = list(part["parents"])
        self.name_of = [self.names[i] for i in part["name_ids"]]
        self.t0 = list(part["t0"])
        self.t1 = list(part["t1"])
        self.tags = list(part["tags"])
        self.counts = list(part["counts"])
        self.levels = part["levels"]
        self.index = {sid: i for i, sid in enumerate(self.ids)}
        self.children = defaultdict(list)
        for i, p in enumerate(self.parents):
            self.children[p].append(i)

    def __len__(self):
        return len(self.ids)

    def dur(self, i) -> float:
        return self.t1[i] - self.t0[i]

    def covered(self, kids, lo=-math.inf, hi=math.inf) -> float:
        """Length of the union of the spans ``kids``, clipped to [lo, hi]."""
        total, end = 0.0, -math.inf
        for a, b in sorted((max(self.t0[k], lo), min(self.t1[k], hi)) for k in kids):
            if b <= a:
                continue
            if a > end:
                total += b - a
                end = b
            elif b > end:
                total += b - end
                end = b
        return total

    def self_time(self, i) -> float:
        kids = self.children.get(self.ids[i], ())
        return self.dur(i) - self.covered(kids, self.t0[i], self.t1[i])

    def outermost(self, name: str) -> list:
        out = []
        for i, nm in enumerate(self.name_of):
            if nm != name:
                continue
            p = self.parents[i]
            while p in self.index and self.name_of[self.index[p]] != name:
                p = self.parents[self.index[p]]
            if p not in self.index:
                out.append(i)
        return out

    def of_name(self, name: str) -> list:
        return [i for i, nm in enumerate(self.name_of) if nm == name]


def fit_exponent(points) -> float:
    """Least-squares slope of ln t against ln n; 0 with fewer than 2 points."""
    pts = [(n, t) for n, t in points if n >= FIT_MIN_N and t > 0]
    if len({n for n, _ in pts}) < 2:
        return 0.0
    n, t = np.log(np.array(pts)).T
    return float(np.polyfit(n, t, 1)[0])


def _grid_series(sp: Spans, name: str, mode: str, grid: list) -> list:
    idx = sp.outermost(name)
    if mode == "at_grid":
        by_n = defaultdict(float)
        for i in idx:
            by_n[sp.tags[i]] += sp.dur(i)
        return [(n, by_n[n]) for n in grid if n in by_n]
    # per_call: a call tagged n builds sample n + 1; average the calls that
    # build the points in (previous grid point, grid point]
    out, lo = [], 0
    tagged = sorted((sp.tags[i], sp.dur(i)) for i in idx)
    j = 0
    for n in grid:
        total, count = 0.0, 0
        while j < len(tagged) and tagged[j][0] < n:
            if tagged[j][0] >= lo:
                total += tagged[j][1]
                count += 1
            j += 1
        if count:
            out.append((n, total / count))
        lo = n
    return out


def layer_metrics(part: dict, *, traced_wall_s: float, untraced_wall_s: float,
                  jobs: int, grid: list, n_max: int, bytes_written: int) -> dict:
    sp = Spans(part)
    root_pid = part["pid"]
    m = {}
    for metric, name in INCLUSIVE.items():
        m[metric] = sum(sp.dur(i) for i in sp.outermost(name))
    for metric, name in CALLS.items():
        m[metric] = float(len(sp.of_name(name)))
    for metric, (name, mode) in EXPONENTS.items():
        m[metric] = fit_exponent(_grid_series(sp, name, mode, grid))

    self_by_layer = defaultdict(float)
    for i in range(len(sp)):
        self_by_layer[sp.name_of[i].split(".", 1)[0]] += sp.self_time(i)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]

    # worker spans hang off a span of the parent process; the parent's wait
    # for them is their time, so the timeline to account for is the call's
    # wall time plus the worker time that ran alongside it
    worker_roots = [i for i in range(len(sp))
                    if sp.ids[i] >> 32 != root_pid
                    and sp.parents[i] in sp.index
                    and sp.parents[i] >> 32 == root_pid]
    timeline = traced_wall_s + sum(sp.dur(i) for i in worker_roots) \
        - sp.covered(worker_roots)
    m["trace.self_share"] = sum(self_by_layer.values()) / timeline
    m["trace.overhead_share"] = traced_wall_s / untraced_wall_s - 1.0

    quad = sp.of_name("numerics.adaptive_quadrature")
    evals = sum(sp.counts[i] for i in quad)
    m["numerics.quad_evals"] = float(evals)
    m["numerics.quad_evals_per_call"] = evals / len(quad) if quad else 0.0

    final = [(mm, dl) for n, mm, dl in sp.levels if n == n_max]
    if final:
        final.sort()
        levels_m, distinct = final[len(final) // 2]
        m["barron.levels_M"] = float(levels_m)
        m["barron.distinct_level"] = float(distinct)
        m["barron.useful_level_ratio"] = min(distinct, levels_m) / levels_m
    else:
        m["barron.levels_M"] = m["barron.distinct_level"] = 0.0
        m["barron.useful_level_ratio"] = 0.0

    traj_time = sum(sp.dur(i) for i in sp.outermost("harness.run_trajectory"))
    m["harness.pool_efficiency"] = traj_time / (jobs * traced_wall_s)
    m["harness.bytes_written"] = float(bytes_written)
    return m
