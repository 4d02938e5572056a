"""Output checks for the trajectories a benchmark call writes.

``read_trajectory`` is the structural check: the CSV and its JSON sidecar
exist, parse, and agree on the columns.  ``row_failures`` then judges every
grid row.  A row fails when it is missing, when the sidecar lists an error
for it, or when it breaks one of these checks:

* every ``.lower``/``.upper`` pair is present and ordered;
* every bracketed mass (all stems but ``log_evidence``) lies in [0, 1];
* ``mass_f0.lower + mass_fstep.upper >= 1`` up to rounding;
* at the last row of a Barron trajectory, the tilt-family mass implied by an
  independent mpmath oracle of the tilt marginal (the data regenerated with
  ``TruthSpec.sample``) and by ``log_evidence.upper`` does not exceed
  ``mass_f0.upper``.  Both sides are compared in log space, so a mass that
  underflowed to 0 still fails against a positive oracle.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import statistics

import mpmath as mp

ROUNDING = 1e-12          # slack for "sums to at least 1"
ORACLE_SLACK = 1e-9       # relative slack on the oracle's tilt mass, in log space
ORACLE_DPS = 30           # mpmath working precision of the oracle, in digits


class OutputError(Exception):
    """The call's output files are missing or malformed."""


def read_trajectory(prefix: str) -> tuple:
    """(sidecar dict, list of row dicts) of ``<prefix>.csv``/``.json``."""
    try:
        with open(prefix + ".json", encoding="utf-8") as fh:
            side = json.load(fh)
        with open(prefix + ".csv", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [dict(zip(header, map(float, rec))) for rec in reader]
    except (OSError, ValueError, StopIteration) as exc:
        raise OutputError(f"{prefix}: {exc}") from None
    if header != side.get("columns"):
        raise OutputError(f"{prefix}: CSV header does not match the sidecar")
    if any(len(r) != len(header) for r in rows):
        raise OutputError(f"{prefix}: ragged CSV row")
    return side, rows


def _stems(columns) -> list:
    return [c[:-6] for c in columns if c.endswith(".lower")]


def row_failures(side: dict, rows: list, oracle) -> dict:
    """{n: [reasons]} over the sidecar's grid; ``oracle(side)`` returns the
    natural log of the tilt marginal at the last grid point."""
    grid = [int(n) for n in side["grid"]]
    by_n = {int(r["n"]): r for r in rows}
    fails = {}

    def fail(n, reason):
        fails.setdefault(n, []).append(reason)

    for n, msg in side.get("errors", []):
        fail(int(n), f"error: {msg}")
    stems = _stems(side["columns"])
    for n in grid:
        row = by_n.get(n)
        if row is None:
            fail(n, "missing row")
            continue
        for stem in stems:
            lo, hi = row[stem + ".lower"], row[stem + ".upper"]
            if math.isnan(lo) or math.isnan(hi):
                fail(n, f"{stem}: no value")
            elif not lo <= hi:
                fail(n, f"{stem}: lower {lo!r} > upper {hi!r}")
            elif stem != "log_evidence" and not (0.0 <= lo and hi <= 1.0):
                fail(n, f"{stem}: [{lo!r}, {hi!r}] outside [0, 1]")
        if "mass_f0.lower" in row and "mass_fstep.upper" in row:
            total = row["mass_f0.lower"] + row["mass_fstep.upper"]
            if not total >= 1.0 - ROUNDING:
                fail(n, f"mass_f0.lower + mass_fstep.upper = {total!r} < 1")
    last = grid[-1]
    if side["config"].get("model", "barron") == "barron" and last in by_n:
        reason = oracle_check(side, by_n[last], oracle(side))
        if reason:
            fail(last, reason)
    return fails


def oracle_check(side: dict, row: dict, log_tilt_marginal) -> str | None:
    """The mass_f0 check at one row; a reason string when it fails."""
    up = row.get("log_evidence.upper", math.nan)
    f0_up = row.get("mass_f0.upper", math.nan)
    if math.isnan(up) or math.isnan(f0_up):
        return None  # already failed as "no value"
    weight = side["config"].get("continuous_weight", 0.5)
    # under the uniform truth the ratio-normalized evidence is the evidence
    log_implied = mp.log(weight) + log_tilt_marginal - up
    log_f0_up = math.log(f0_up) if f0_up > 0.0 else -math.inf
    if log_implied > log_f0_up + ORACLE_SLACK:
        return (f"mass_f0.upper = {f0_up!r} but the oracle tilt mass is at "
                f"least exp({mp.nstr(log_implied, 12)})")
    return None


class TiltOracle:
    """ln of the tilt-family marginal likelihood
    (1/Z0) * integral_0^1 e^(-1/t) e^(-n t + sqrt(2 t) S_n) dt, in mpmath.

    Uniform truth only.  Integrated in u = sqrt(t) with breakpoints at the
    peak and a few peak widths either side; S_n uses the standard library's
    inverse normal CDF, independent of the package's own.  Results are
    cached per (truth, seed, n).
    """

    def __init__(self):
        self._cache = {}

    def __call__(self, side: dict):
        from posterior_lab.harness import DATA_STREAM, TruthSpec
        from posterior_lab.numerics import RandomStream

        if side["config"]["truth"]["kind"] != "uniform":
            raise ValueError("the oracle supports the uniform truth only")
        n = int(side["grid"][-1])
        key = (json.dumps(side["config"]["truth"], sort_keys=True), int(side["seed"]), n)
        if key not in self._cache:
            truth = TruthSpec.from_dict(side["config"]["truth"])
            xs = truth.sample(RandomStream(int(side["seed"]), DATA_STREAM), n)
            inv = statistics.NormalDist().inv_cdf
            s_n = math.fsum(inv(float(x)) for x in xs)
            with mp.workdps(ORACLE_DPS):
                self._cache[key] = +(_log_tilt_integral(n, mp.mpf(s_n))
                                     - _log_tilt_integral(0, mp.mpf(0)))
        return self._cache[key]


@functools.lru_cache(maxsize=None)  # the n = 0 normaliser is shared by every call
def _log_tilt_integral(n: int, s):
    rt2s = mp.sqrt(2) * s

    def h(u):
        return -1 / u ** 2 - n * u ** 2 + rt2s * u + mp.log(2 * u)

    def dh(u):
        return 2 / u ** 3 - 2 * n * u + rt2s + 1 / u

    one = mp.mpf(1)
    if dh(one) >= 0:
        peak = one
    else:
        lo, hi = mp.mpf("1e-6"), one
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if dh(mid) > 0 else (lo, mid)
        peak = (lo + hi) / 2
    width = 1 / mp.sqrt(6 / peak ** 4 + 2 * n + 1 / peak ** 2)
    pts = sorted({mp.mpf(0), one, *(p for p in (peak + k * width
                                                for k in (-10, -3, 0, 3, 10))
                                    if 0 < p < 1)})
    h_peak = h(peak)
    body = mp.quad(lambda u: mp.exp(h(u) - h_peak) if u > 0 else mp.mpf(0), pts)
    return h_peak + mp.log(body)
