"""Self-test of the benchmark; run from the root of a source checkout:

    python3 perfbench/selftest.py

1. Every workload, shrunk to a tiny ``n_max``, runs plain and traced and
   reports every metric that BENCHMARK.json names, each with its unit.
2. The row checker passes a clean trajectory and flags a corrupted copy:
   a bracket with lower > upper, and ``mass_f0 = [0, 0]`` against a
   positive oracle at the last row.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.
Exits 0 when all pass.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
from checks import TiltOracle, read_trajectory, row_failures

TINY_N_MAX = {"traj-uniform-8k": 200, "replicate-uniform-1k": 40, "replicate-cosine-1k": 20}


def check_smoke(spec: dict) -> None:
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for name, w in run.WORKLOADS.items():
            tiny = dataclasses.replace(w, n_max=TINY_N_MAX[name])
            res = run.measure(tiny, seed=1, seconds=1, trace=trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{name} trace={trace}: metrics {got} != {want}"
            assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0, res
            for k, v in sorted(res["metrics"].items()):
                print(f"  {name:22s} {k:36s} {v['value']:.6g} {v['unit']}")


def check_row_checker(work: str) -> None:
    sys.path.insert(0, os.path.abspath("src"))
    from posterior_lab.harness import RunConfig, TruthSpec, run_trajectory, write_trajectory

    cfg = RunConfig(truth=TruthSpec("uniform"), n_max=40)
    prefix = os.path.join(work, "clean")
    write_trajectory(run_trajectory(cfg, 3), prefix)
    side, rows = read_trajectory(prefix)
    oracle = TiltOracle()
    assert row_failures(side, rows, oracle) == {}, row_failures(side, rows, oracle)

    bad = copy.deepcopy(rows)
    bad[5]["gamma_stat.lower"] = bad[5]["gamma_stat.upper"] + 0.25
    bad[-1]["mass_f0.lower"] = bad[-1]["mass_f0.upper"] = 0.0
    fails = row_failures(side, bad, oracle)
    n5, last = int(bad[5]["n"]), int(bad[-1]["n"])
    assert set(fails) == {n5, last}, fails
    assert any("gamma_stat: lower" in r for r in fails[n5]), fails
    assert any("oracle" in r for r in fails[last]), fails
    print(f"  row checker flags n={n5}: {fails[n5]}")
    print(f"  row checker flags n={last}: {fails[last]}")


def check_bare_directory(work: str) -> None:
    bare = os.path.join(work, "bare")
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, os.path.join(bare, os.path.basename(here)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(command + ["--workload", "traj-uniform-8k", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"  bare directory: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(run.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR)
    try:
        print("smoke runs:")
        check_smoke(spec)
        print("row checker:")
        check_row_checker(work)
        print("bare directory:")
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
