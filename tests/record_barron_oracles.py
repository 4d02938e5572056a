"""Record the Barron engine's step and tilt brackets against mpmath over a
fixed list of cases; pytest does not collect this script.

    PYTHONPATH=src python tests/record_barron_oracles.py LABEL

writes ``ORACLE_barron_LABEL.json`` in the working directory, one JSON object
a line, one line a quantity of a case: the case, n, the quantity, the
engine's bracket, the oracle value, whether the bracket holds it (compared
in mpmath), the margin (the distance from the value to the nearer end in
bracket widths, negative outside) and the seconds a fresh engine took to
ingest the data and answer.  The quantities:

* ``step_marginal``: ln sum_N w_N 2^n (N^2)_k / (2N^2)_k, the step
  marginal with the likelihood;
* ``step_prior_mass``: the step marginal without it, shifted by -n ln 2;
* ``mean_inv_level``: the posterior mean of 1/N within the step component;
* ``tilt_marginal``: ln (1/Z0) int_0^1 e^(-1/t - n t + sqrt(2 t) S_n) dt,
  the tilt marginal, whose bracket is ``gauss_marginal().log_bracket()``.

The cases are the data sets of the closed-form oracle tests (``ORACLE_DATA``:
uniform n = 100 from seed 1, the lattice K = 200, and 0.3, 0.305, 0.9 on a
decimal cell boundary) and the uniform data of ``traj --seed 65`` at
n = 1000, 2000, 4000 and 8000, the sizes the lab runs.  The step oracle is
``oracles.mp_step_log_sum`` at 20 digits, and its mean of 1/N the ratio of
the sums weighted by 1/N and by 1; the tilt oracle is
``oracles.mp_tilt_log_marginal`` at 30 digits.
"""

from __future__ import annotations

import json
import sys
import time

import mpmath as mp
from oracles import ORACLE_DATA, mp_step_log_sum, mp_tilt_log_marginal

from posterior_lab.barron import BarronEngine
from posterior_lab.harness import DATA_STREAM
from posterior_lab.intervals import LogBracket
from posterior_lab.numerics import RandomStream

SEED = 65


def cases():
    yield from ORACLE_DATA.items()
    for n in (1000, 2000, 4000, 8000):
        yield (f"uniform seed {SEED}",
               lambda n=n: [float(x) for x in RandomStream(SEED, DATA_STREAM).uniform_open(n)])


def margin(lo, hi, value) -> float:
    """The distance from value to the nearer end of [lo, hi] in widths of
    it, negative outside."""
    near = min(value - lo, hi - value)
    if hi > lo:
        return float(near / (hi - lo))
    return 0.0 if near == 0 else float(mp.sign(near) * mp.inf)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    queries = {
        "step_marginal": lambda e: e.step_marginal(),
        "step_prior_mass": lambda e: e.step_marginal(with_likelihood=False),
        "mean_inv_level": lambda e: e.posterior_over_n(),
        "tilt_marginal": lambda e: LogBracket(*e.gauss_marginal().log_bracket()),
    }
    lines, misses = [], 0
    for case, make in cases():
        data = make()
        with mp.workdps(20):
            s = mp_step_log_sum(data)
            want = {"step_marginal": s,
                    "step_prior_mass": s - len(data) * mp.log(2),
                    "mean_inv_level": mp.exp(mp_step_log_sum(data, power=1) - s),
                    "tilt_marginal": mp_tilt_log_marginal(data)}
        for q, ask in queries.items():
            t0 = time.perf_counter()
            e = BarronEngine()
            e.add_points(data)
            br = ask(e)
            seconds = time.perf_counter() - t0
            inside = br.lower <= want[q] <= br.upper
            misses += not inside
            lines.append(json.dumps({
                "case": case, "n": len(data), "quantity": q,
                "bracket": [br.lower, br.upper], "oracle": float(want[q]),
                "inside": bool(inside), "margin": margin(br.lower, br.upper, want[q]),
                "seconds": round(seconds, 4)}))
    path = f"ORACLE_barron_{argv[1]}.json"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{path}: {len(lines)} lines, {misses} outside their bracket")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
