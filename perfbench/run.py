"""Benchmark of the posterior-lab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Each call of ``posterior_lab.cli.main`` runs in a fresh
interpreter (``child.py``) with the numeric thread pools pinned to one
thread, and its outputs are checked afterwards (``checks.py``).

``--trace 0`` makes the workload's fixed number of timed calls (about S
seconds of them at the reference speed, see ``Workload.calls``) and reports
the end-to-end metrics (medians over the calls).  ``--trace 1`` makes one plain
call and one call with the layer wrappers of ``tracer.py`` installed, and
reports the per-layer metrics of ``analyze.py``.  The last line of standard
output is the JSON result; the line before it records the machine and each
call's timings, and the one before that the failed rows.  Exit code 2: no
package under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from analyze import layer_metrics, per_layer_units
from checks import OutputError, TiltOracle, read_trajectory, row_failures

WORK_DIR = ".bench_run"
SETUP_PROBES = 4          # setup-only interpreters per run, after one warm-up
RUN_DEADLINE_S = 170.0    # a run must end within 180 s
SEED_BLOCK = 64           # program seeds owned by one benchmark seed
EXIT_NO_PACKAGE = 90      # child.py: the package is not importable from src/
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "rows_ok_share": "share",
    "peak_rss_mb": "MB",
}
HERE = os.path.dirname(os.path.abspath(__file__))


class NoPackage(Exception):
    """The checkout holds no importable ``src/posterior_lab``."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # "traj" or "replicate"
    args: tuple         # model, truth and grid flags
    n_max: int
    call_s: float       # one call's wall time at commit a706eaa, 2-vCPU Xeon
    seeds: int = 1      # trajectories per call
    jobs: int = 1

    def calls(self, seconds: float) -> int:
        """Timed calls per run: the whole number nearest to ``seconds`` /
        ``call_s``, at least 1.  The count does not depend on how fast the
        code under test runs, so every commit times the same data sets for
        a given seed."""
        return max(1, round(seconds / self.call_s))

    def program_seed(self, seed: int, call: int) -> int:
        """First program seed of a run's call number ``call``.  Each call
        takes fresh data, so a run's median covers several data sets."""
        return 1 + SEED_BLOCK * (seed % 1_000_000) + call * self.seeds

    def argv(self, base: int, out: str) -> list:
        argv = [self.command, *self.args, "--n-max", str(self.n_max)]
        if self.command == "traj":
            return argv + ["--seed", str(base), "--out", os.path.join(out, "traj")]
        return argv + ["--seeds", f"{base}..{base + self.seeds - 1}",
                       "--jobs", str(self.jobs), "--out-dir", out]

    def prefixes(self, base: int, out: str) -> list:
        if self.command == "traj":
            return [os.path.join(out, "traj")]
        return [os.path.join(out, f"traj_seed{s}") for s in range(base, base + self.seeds)]


WORKLOADS = {w.name: w for w in (
    Workload("traj-uniform-8k", "traj",
             ("--truth", "uniform", "--grid-ratio", "2.0"), n_max=8000, call_s=14.7),
    Workload("replicate-uniform-1k", "replicate", ("--truth", "uniform"),
             n_max=1000, call_s=5.5, seeds=2, jobs=2),
    Workload("replicate-cosine-1k", "replicate",
             ("--model", "cosine", "--grid-ratio", "2.0"),
             n_max=1000, call_s=33.0, seeds=8, jobs=2),
)}


# ---------------------------------------------------------------------------
# one child interpreter
# ---------------------------------------------------------------------------

def _child_env(tmp: str) -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", TMPDIR=tmp, PYTHONHASHSEED="0")
    env.pop("POSTERIOR_LAB_LOG", None)
    return env


def _tree_rss_kb(pid: int) -> int:
    """Resident memory of a process and all its descendants, in KiB."""
    total, todo, seen = 0, [pid], set()
    while todo:
        p = todo.pop()
        if p in seen:
            continue
        seen.add(p)
        try:
            with open(f"/proc/{p}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children", encoding="ascii") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue
    return total


def run_child(mode: str, argv: list, call_dir: str, deadline: float) -> dict:
    """Run child.py and return its report plus ``sampled_rss_kb``, the
    peak of the process tree's summed resident memory (sampled every
    100 ms).  Raises NoPackage, or returns ``{"rc": ...}`` on a crash."""
    report = os.path.join(call_dir, f"{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), report, mode, "--", *argv]
    with open(os.path.join(call_dir, f"{mode}.log"), "wb") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(os.path.join(os.path.dirname(call_dir), "tmp")),
                                start_new_session=True)
        peak = 0
        try:
            while True:
                try:
                    proc.wait(timeout=0.1)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > deadline:
                        raise
                peak = max(peak, _tree_rss_kb(proc.pid))
        finally:
            # the CLI's pool workers share the child's session
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode == EXIT_NO_PACKAGE:
        with open(os.path.join(call_dir, f"{mode}.log"), encoding="utf-8",
                  errors="replace") as fh:
            raise NoPackage(fh.read().strip())
    if proc.returncode != 0 or not os.path.exists(report):
        return {"rc": proc.returncode if proc.returncode else -1}
    with open(report, encoding="utf-8") as fh:
        out = json.load(fh)
    out["sampled_rss_kb"] = peak
    return out


# ---------------------------------------------------------------------------
# one checked CLI call
# ---------------------------------------------------------------------------

def cli_call(w: Workload, base: int, mode: str, run_dir: str, oracle,
             deadline: float) -> dict:
    call_dir = tempfile.mkdtemp(prefix=f"{mode}-", dir=run_dir)
    out = os.path.join(call_dir, "out")
    rep = run_child(mode, w.argv(base, out), call_dir, deadline)
    res = {"program_seed": base, "ok": rep.get("rc") == 0, "setup_s": rep.get("setup_s"),
           "wall_s": rep.get("wall_s"), "rows": 0, "failed_rows": {},
           "logwidth": 0.0, "grid": []}
    if res["wall_s"] is not None:
        res["peak_rss_mb"] = max(rep["maxrss_kb"], rep["sampled_rss_kb"]) / 1024.0
    if res["ok"]:
        try:
            for prefix in w.prefixes(base, out):
                side, rows = read_trajectory(prefix)
                fails = row_failures(side, rows, oracle)
                res["rows"] += len(side["grid"])
                res["grid"] = [int(n) for n in side["grid"]]
                tag = os.path.basename(prefix)
                res["failed_rows"].update({f"{tag}@{n}": r for n, r in fails.items()})
                widths = [r["log_evidence.upper"] - r["log_evidence.lower"] for r in rows]
                res["logwidth"] = max([res["logwidth"], *(x for x in widths if x == x)])
            if w.command == "replicate":
                for name in ("summary.csv", "summary.json"):
                    if not os.path.isfile(os.path.join(out, name)):
                        raise OutputError(f"{name} was not written")
        except OutputError as exc:
            print(f"output check failed: {exc}", file=sys.stderr)
            res["ok"] = False
    if os.path.isdir(out):
        res["bytes_written"] = sum(os.path.getsize(os.path.join(d, f))
                                   for d, _, fs in os.walk(out) for f in fs)
    if mode == "trace" and res["ok"]:
        from tracer import read_spans
        res["spans"] = read_spans(os.path.join(call_dir, "trace.json.spans"))
    shutil.rmtree(call_dir, ignore_errors=True)
    return res


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def environment(w: Workload, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": w.name, "seed": seed,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "commit": _git_commit()}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def setup_probe(w: Workload, seed: int, run_dir: str, deadline: float) -> float:
    """Set-up time of one interpreter that only imports and parses."""
    call_dir = tempfile.mkdtemp(prefix="setup-", dir=run_dir)
    rep = run_child("setup", w.argv(w.program_seed(seed, 0), os.path.join(call_dir, "out")),
                    call_dir, deadline)
    if "setup_s" not in rep:
        raise RuntimeError(f"setup probe failed with exit code {rep['rc']}")
    shutil.rmtree(call_dir, ignore_errors=True)
    return rep["setup_s"]


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            started: float | None = None) -> dict:
    """One benchmark run; returns the result object (see the module doc)."""
    if not os.path.isfile(os.path.join("src", "posterior_lab", "cli.py")):
        raise NoPackage("no src/posterior_lab/cli.py under the working directory")
    sys.path.insert(0, os.path.abspath("src"))  # the oracle regenerates data
    started = time.monotonic() if started is None else started
    deadline = started + RUN_DEADLINE_S
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_DIR)
    os.makedirs(os.path.join(run_dir, "tmp"))
    oracle = TiltOracle()
    try:
        setup_probe(w, seed, run_dir, deadline)  # warms the file cache, compiles bytecode
        # half the probes before the calls and half after, so that their
        # median samples the machine over the whole run
        setups = [setup_probe(w, seed, run_dir, deadline) for _ in range(SETUP_PROBES // 2)]
        if trace:  # the same data for both, so their times compare
            base = w.program_seed(seed, 0)
            calls = [cli_call(w, base, "run", run_dir, oracle, deadline),
                     cli_call(w, base, "trace", run_dir, oracle, deadline)]
        else:
            calls = [cli_call(w, w.program_seed(seed, i), "run", run_dir, oracle, deadline)
                     for i in range(w.calls(seconds))]
        setups += [setup_probe(w, seed, run_dir, deadline)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for c in calls if not c["ok"])
    rows = sum(c["rows"] for c in calls)
    failed_rows = {}
    for c in calls:
        failed_rows.update(c["failed_rows"])
    n_failed_rows = sum(len(c["failed_rows"]) for c in calls)
    done = [c for c in calls if c["wall_s"] is not None]
    print(json.dumps({"failed_rows": failed_rows}, sort_keys=True))
    print(json.dumps({"environment": environment(w, seed), "setup_s": setups,
                      "calls": [{k: c[k] for k in ("program_seed", "wall_s", "setup_s",
                                                  "peak_rss_mb")}
                                for c in done]}, sort_keys=True))

    if trace:
        plain, traced = calls
        if not (plain["ok"] and traced["ok"]):
            return {"correct": False, "attempted": len(calls), "failed": failed,
                    "metrics": {}}
        values = layer_metrics(
            traced["spans"], traced_wall_s=traced["wall_s"],
            untraced_wall_s=plain["wall_s"], jobs=w.jobs, grid=traced["grid"],
            n_max=w.n_max, bytes_written=traced.get("bytes_written", 0))
        values["evidence_logwidth_max"] = plain["logwidth"]
        units = per_layer_units()
    else:
        values = {
            "wall_s": statistics.median(c["wall_s"] for c in done),
            "setup_s": statistics.median(setups + [c["setup_s"] for c in done]),
            "rows_ok_share": 1.0 - n_failed_rows / rows if rows else 0.0,
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in done),
        }
        units = END_TO_END_UNITS
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed,
            "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                        for k in units}}


def main(argv=None) -> int:
    started = time.monotonic()
    # on SIGTERM, unwind so that run_child kills the call's process group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), started)
    except NoPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
