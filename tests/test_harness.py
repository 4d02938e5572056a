"""Harness tests: ingestion errors name rows, grids always include 1..10,
persisted trajectories replay exactly, config hashes canonicalize, and
summaries are independent of seed order and parallelism."""

import copy
import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from posterior_lab import cli, cosine, harness
from posterior_lab.cosine import CosinePriorConfig
from posterior_lab.diagnostics import BandSpec, DiagnosticSettings
from posterior_lab.harness import (
    FORMAT_VERSION,
    DatasetError,
    ReplicationResult,
    RunConfig,
    TrajectoryRecord,
    TruthSpec,
    _summary,
    config_hash,
    evaluation_grid,
    ingest_dataset,
    load_trajectory,
    run_replications,
    run_trajectory,
    summary_csv,
    write_trajectory,
)
from posterior_lab.numerics import LN2, ConfigError, QuadratureError


class TestIngestDataset:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1\n0.3\n0.7\n")
        assert ingest_dataset(str(p)) == [0.1, 0.3, 0.7]

    def test_optional_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x\n0.25\n0.5\n")
        assert ingest_dataset(str(p)) == [0.25, 0.5]

    def test_out_of_range_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1\n1.2\n")
        with pytest.raises(DatasetError, match="row 2"):
            ingest_dataset(str(p))

    def test_parse_error_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.1\n0.2\nbanana\n")
        with pytest.raises(DatasetError, match="row 3"):
            ingest_dataset(str(p))

    def test_empty_warns(self, tmp_path, caplog):
        p = tmp_path / "d.csv"
        p.write_text("")
        with caplog.at_level("WARNING", logger="posterior_lab"):
            assert ingest_dataset(str(p)) == []
        assert any("empty" in r.message for r in caplog.records)


class TestTruthSpec:
    def test_validation(self):
        # each rejected value is named, built directly or from a config
        for kwargs, named in (
                ({"kind": "gauss_exp", "theta": 1.5}, "got 1.5"),
                ({"kind": "gauss_exp", "theta": math.nan}, "got nan"),
                ({"kind": "gauss_exp"}, "got None"),
                ({"kind": "step", "level": 1, "selected": (0, 1)}, "got 2"),
                ({"kind": "step", "level": 2}, "level and selected"),
                ({"kind": "external"}, "dataset path"),
                ({"kind": "nope"}, "'nope'")):
            with pytest.raises(ValueError, match=re.escape(named)):
                TruthSpec(**kwargs)
            with pytest.raises(ConfigError, match=re.escape(named)):
                TruthSpec.from_dict(kwargs)

    def test_each_kind_draws_the_recorded_bits(self):
        # the first four draws at stream (5, 0), recorded from the samplers
        # as they stood before each density sampled itself
        from posterior_lab.densities import UniformDensity
        from posterior_lab.numerics import RandomStream
        want = {
            TruthSpec("uniform"): [0.6554262308169061, 0.09103854534942774,
                                   0.5155802646074548, 0.440358325181959],
            TruthSpec("gauss_exp", theta=0.25): [
                0.8658787528425271, 0.2652378162545887,
                0.7722178310369154, 0.7112519947371782],
            TruthSpec("step", level=2, selected=(0, 3, 5, 7)): [
                0.6363798181686785, 0.6800447906477449,
                0.7088250476965309, 0.6427830546581161],
        }
        for spec, xs in want.items():
            assert spec.sample(RandomStream(5, 0), 4).tolist() == xs
        assert TruthSpec("external", path="d.csv").density() == UniformDensity()

    def test_roundtrip(self):
        for spec in (TruthSpec("uniform"),
                     TruthSpec("gauss_exp", theta=0.25),
                     TruthSpec("step", level=2, selected=(7, 0, 3, 5))):
            assert TruthSpec.from_dict(harness.encode_config(spec)) == spec

    def test_external(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.4\n0.6\n0.8\n")
        spec = TruthSpec("external", path=str(p))
        from posterior_lab.numerics import RandomStream
        xs = spec.sample(RandomStream(1, 0), 2)
        assert list(xs) == [0.4, 0.6]
        with pytest.raises(DatasetError):
            spec.sample(RandomStream(1, 0), 9)


class TestEvaluationGrid:
    def test_small_n_always_present(self):
        for n_max in (1, 5, 10, 37, 2000):
            grid = evaluation_grid(n_max)
            assert grid[0] == 1
            assert set(range(1, min(10, n_max) + 1)) <= set(grid)
            assert grid[-1] == n_max
            assert grid == sorted(set(grid))

    def test_geometric_spacing(self):
        grid = evaluation_grid(2000, 1.15)
        big = [g for g in grid if g >= 100]
        ratios = [b / a for a, b in zip(big, big[1:])]
        assert all(1.05 < r < 1.25 for r in ratios)

    def test_ratio_next_to_one_gives_every_n(self):
        # below n_max (ratio - 1) = 0.5 the rounds visit every integer
        rng = np.random.default_rng(19)
        for _ in range(300):
            n_max = int(rng.integers(1, 400))
            ratio = 1.0 + rng.uniform(0.1, 1.0) * 0.5 / n_max
            assert n_max * (ratio - 1.0) < 0.5
            assert evaluation_grid(n_max, ratio) == grid_by_rounds(n_max, ratio) \
                == list(range(1, n_max + 1))

    def test_fold_equals_the_rounds(self):
        # seeded cases just above the n_max (ratio - 1) = 0.5 threshold, at
        # ordinary ratios and at ratios up to 1e300, whose first step already
        # passes n_max; 12.5 and 22.5 round half to even, to 12 and 22
        rng = np.random.default_rng(23)
        cases = [(10**4, 1.0 + 0.5 / 10**4), (11, 1e300), (2, 7.0), (20, 1.25), (100, 1.5)]
        for _ in range(30):
            n_max = int(rng.integers(11, 3000))
            cases += [(n_max, 1.0 + 0.5 / n_max * (1.0 + rng.uniform(0.0, 0.05))),
                      (n_max, 1.0 + rng.uniform(0.001, 2.0)),
                      (n_max, 10.0 ** rng.uniform(0.5, 300.0))]
        for n_max, ratio in cases:
            assert n_max * (ratio - 1.0) >= 0.5
            assert evaluation_grid(n_max, ratio) == grid_by_rounds(n_max, ratio), \
                (n_max, ratio)

    def test_traj_on_a_ratio_next_to_one_exits_at_once(self, tmp_path):
        # the rounds alone would take about 10^10 steps here
        out = str(tmp_path / "t")
        src = os.path.dirname(os.path.dirname(harness.__file__))
        subprocess.run([sys.executable, "-m", "posterior_lab.cli", "traj",
                        "--n-max", "30", "--grid-ratio", "1.0000000001", "--out", out],
                       env=dict(os.environ, PYTHONPATH=src), check=True,
                       capture_output=True, timeout=60)
        with open(out + ".json", encoding="utf-8") as fh:
            assert json.load(fh)["grid"] == list(range(1, 31))


def grid_by_rounds(n_max, ratio):
    """The grid as the rounds of evaluation_grid make it: 1..10, n_max and
    round(10 ratio^j) up to n_max."""
    pts = set(range(1, min(10, n_max) + 1))
    v = 10.0
    while v < n_max:
        v *= ratio
        if (r := int(round(v))) <= n_max:
            pts.add(r)
    pts.add(n_max)
    return sorted(pts)


class TestConfigHash:
    def test_seed_order_irrelevant(self):
        a = RunConfig(seeds=(1, 2, 3))
        b = RunConfig(seeds=(3, 1, 2))
        assert config_hash(a) == config_hash(b)

    def test_any_meaningful_change_changes_hash(self):
        rng = np.random.default_rng(0)
        base = RunConfig()
        seen = {config_hash(base)}
        # 50 random single-field perturbations must all hash differently
        for _ in range(50):
            field = rng.choice(["n_max", "grid_ratio", "quad_tol",
                                "continuous_weight", "cosine_regions",
                                "seeds", "truth", "model"])
            if field == "n_max":
                cfg = dataclasses.replace(base, n_max=int(rng.integers(2, 10_000)))
            elif field == "grid_ratio":
                cfg = dataclasses.replace(base, grid_ratio=float(rng.uniform(1.01, 2.0)))
            elif field == "quad_tol":
                cfg = dataclasses.replace(base, quad_tol=float(rng.uniform(1e-12, 1e-6)))
            elif field == "continuous_weight":
                cfg = dataclasses.replace(base, continuous_weight=float(rng.uniform(0.05, 0.95)))
            elif field == "cosine_regions":
                cfg = dataclasses.replace(base, cosine_regions=(
                    (float(rng.uniform(0.0, 10.0)), math.inf),))
            elif field == "seeds":
                cfg = dataclasses.replace(base, seeds=tuple(sorted(
                    int(s) for s in rng.choice(10_000, size=3, replace=False))))
            elif field == "truth":
                cfg = dataclasses.replace(base, truth=TruthSpec(
                    "gauss_exp", theta=float(rng.uniform(0, 1))))
            else:
                cfg = dataclasses.replace(base, model="cosine")
            h = config_hash(cfg)
            if cfg != base:
                assert h not in seen or h == config_hash(cfg)
                seen.add(h)

    def test_roundtrip_preserves_hash(self):
        cfg = RunConfig(truth=TruthSpec("gauss_exp", theta=0.5),
                        n_max=123, seeds=(5, 2),
                        diagnostics=DiagnosticSettings(
                            bands=(BandSpec(0.5, 0.9),), epsilons=(0.42,)))
        again = RunConfig.from_dict(cfg.to_dict())
        assert config_hash(again) == config_hash(cfg)

    @pytest.mark.parametrize("golden", ["v7_uniform_n60_seed3", "v7_step_n300_seed4"])
    def test_hashlib_fallback_keeps_the_stored_digest(self, monkeypatch, golden):
        import hashlib

        path = os.path.join(os.path.dirname(__file__), "data", golden + ".json")
        with open(path) as fh:
            side = json.load(fh)
        cfg = RunConfig.from_dict(side["config"])
        assert config_hash(cfg) == side["config_hash"]  # a built-in module
        # neither built-in SHA-256 module imports: hashlib gives the digest
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)
        calls = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256",
                            lambda data: calls.append(data) or sha256(data))
        assert config_hash(cfg) == side["config_hash"]
        assert len(calls) == 1


DEFAULT_CONFIG_DICT = {
    "truth": {"kind": "uniform"},
    "model": "barron",
    "n_max": 1000,
    "grid_ratio": 1.15,
    "seeds": [1],
    "quad_tol": 1e-9,
    "continuous_weight": 0.5,
    "diagnostics": {
        "gamma": LN2,
        "bands": [[0.6, 0.75], [0.2, 0.4]],
        "exponent_bands": [[LN2, LN2]],
        "betas": [LN2],
        "epsilons": [0.5, 0.7],
        "tau": 0.1,
        "track_mean_inv_level": True,
    },
    "cosine_prior": {"kind": "exponential", "rate": 1.0, "theta_max": 50.0},
    "cosine_regions": [[5.0, math.inf]],
}


class TestConfigSchema:
    def test_default_form_is_pinned(self):
        assert RunConfig().to_dict() == DEFAULT_CONFIG_DICT
        assert RunConfig.from_dict(DEFAULT_CONFIG_DICT) == RunConfig()

    def test_each_class_evaluates_its_annotations_once(self, monkeypatch):
        # encoding, hashing and decoding a config read each dataclass's
        # annotations from one evaluation, whatever the number of calls
        calls = []
        hints = harness.typing.get_type_hints
        monkeypatch.setattr(harness.typing, "get_type_hints",
                            lambda cls: calls.append(cls) or hints(cls))
        harness._fields.cache_clear()
        cfg = RunConfig(model="cosine")
        for _ in range(3):
            assert RunConfig.from_dict(cfg.to_dict()) == cfg
            config_hash(cfg)
        assert len(calls) == len(set(calls)) >= 5
        harness._fields.cache_clear()

    @pytest.mark.parametrize("truth", [
        TruthSpec("step", level=2, selected=(7, 0, 3, 5)),
        TruthSpec("external", path="data/points.csv"),
        TruthSpec("gauss_exp", theta=0.25),
    ])
    def test_every_field_roundtrips(self, truth):
        cfg = RunConfig(
            truth=truth, model="cosine", n_max=77, grid_ratio=2, seeds=(4, 9),
            quad_tol=1e-7, continuous_weight=0.25,
            diagnostics=DiagnosticSettings(
                gamma=0.5, bands=(BandSpec(0.1, 1),), exponent_bands=(),
                betas=(0.3, 1), epsilons=(1,), tau=0.2,
                track_mean_inv_level=False),
            cosine_prior=CosinePriorConfig(kind="truncated_uniform", rate=3,
                                           theta_max=20),
            cosine_regions=((2, math.inf), (0.5, 1.5)))
        d = json.loads(json.dumps(cfg.to_dict()))  # through the JSON text
        assert RunConfig.from_dict(d) == cfg
        assert RunConfig.from_dict(d).to_dict() == cfg.to_dict()
        # ints given for float fields are written as floats
        assert d["grid_ratio"] == 2.0 and type(d["grid_ratio"]) is float
        assert d["diagnostics"]["bands"] == [[0.1, 1.0]]
        assert d["cosine_prior"]["rate"] == 3.0
        assert d["cosine_regions"] == [[2.0, math.inf], [0.5, 1.5]]
        assert all(type(v) is float for v in d["diagnostics"]["betas"])
        assert set(d["truth"]) == {k for k, v in vars(truth).items()
                                   if v is not None}

    def test_seeds_written_sorted(self):
        assert RunConfig(seeds=(9, 4)).to_dict()["seeds"] == [4, 9]

    def test_missing_keys_take_the_defaults(self):
        assert RunConfig.from_dict({}) == RunConfig()
        assert RunConfig.from_dict({"n_max": 20}) == RunConfig(n_max=20)
        cfg = RunConfig.from_dict({"diagnostics": {"gamma": 0.5},
                                   "cosine_prior": {"kind": "truncated_uniform"}})
        assert cfg.diagnostics == DiagnosticSettings(gamma=0.5)
        assert cfg.cosine_prior == CosinePriorConfig(kind="truncated_uniform")

    @pytest.mark.parametrize("d, key", [
        ({"n_max": 20, "trunc_level": 3}, "trunc_level"),
        ({"diagnostics": {"bandz": []}}, "diagnostics.bandz"),
        ({"truth": {"kind": "uniform", "theta0": 0.1}}, "truth.theta0"),
    ])
    def test_unknown_key_is_a_config_error(self, d, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("d, where", [
        ({"n_max": "60"}, "n_max"),
        ({"seeds": 3}, "seeds"),
        ({"diagnostics": {"track_mean_inv_level": 1}},
         "diagnostics.track_mean_inv_level"),
        ({"diagnostics": {"bands": [[0.1]]}}, "diagnostics.bands[0]"),
        ({"cosine_regions": [[1.0, 2.0, 3.0]]}, "cosine_regions[0]"),
        ({"truth": {"theta": 0.5}}, "truth"),
        ({"n_max": 0}, "config"),
        ([1, 2], "config"),
    ])
    def test_malformed_value_is_a_config_error(self, d, where):
        with pytest.raises(ConfigError, match=f"^{re.escape(where)}: "):
            RunConfig.from_dict(d)

    def test_v1_truncation_keys_only_at_the_replayed_values(self):
        v1 = {**DEFAULT_CONFIG_DICT, "trunc_multiplier": 4.0, "trunc_fixed": None}
        assert RunConfig.from_dict(v1) == RunConfig()
        assert RunConfig.from_dict({"trunc_multiplier": 4}) == RunConfig()
        for key, value in (("trunc_multiplier", 8.0), ("trunc_fixed", 100)):
            with pytest.raises(ConfigError, match=key):
                RunConfig.from_dict({**v1, key: value})

    def test_retired_cosine_keys_only_at_the_replayed_values(self):
        old = {**DEFAULT_CONFIG_DICT, "cosine_prior": {
            **DEFAULT_CONFIG_DICT["cosine_prior"], "scale": 1.0,
            "tail_fraction": 1e-3}}
        kept = json.dumps(old)
        assert RunConfig.from_dict(old) == RunConfig()
        assert json.dumps(old) == kept  # the caller's dict is left as it was
        for key, value in (("scale", 2.0), ("tail_fraction", 1e-4)):
            bad = {"cosine_prior": {**old["cosine_prior"], key: value}}
            with pytest.raises(ConfigError, match=f"cosine_prior.{key}"):
                RunConfig.from_dict(bad)

    def test_retired_predictive_grid_only_at_zero(self):
        old = {**DEFAULT_CONFIG_DICT, "diagnostics": {
            **DEFAULT_CONFIG_DICT["diagnostics"], "predictive_grid": 0}}
        kept = json.dumps(old)
        assert RunConfig.from_dict(old) == RunConfig()
        assert json.dumps(old) == kept
        for value in (4, -5):
            with pytest.raises(ConfigError, match="diagnostics.predictive_grid"):
                RunConfig.from_dict({"diagnostics": {"predictive_grid": value}})

    def test_config_errors_are_value_errors(self):
        assert issubclass(DatasetError, ConfigError)
        assert issubclass(ConfigError, ValueError)

    def test_v1_sidecar_loads(self):
        here = os.path.dirname(__file__)
        loaded = load_trajectory(os.path.join(here, "data", "v1_uniform_n60_seed3"))
        assert loaded.config == RunConfig(n_max=60, seeds=(3,))
        assert loaded.seed == 3 and len(loaded.rows) == len(loaded.grid)

    def test_every_sidecar_pin_loads(self):
        # one pin or more of each version, read through read_sidecar's
        # checks; a replicate pin's JSON is its summary, not a sidecar
        data = os.path.join(os.path.dirname(__file__), "data")
        stems = sorted(f[:-5] for f in os.listdir(data)
                       if f.endswith(".json") and "_replicate_" not in f)
        assert {int(s[1:s.index("_")]) for s in stems} == set(range(1, FORMAT_VERSION + 1))
        for stem in stems:
            loaded = load_trajectory(os.path.join(data, stem))
            assert len(loaded.rows) == len(loaded.grid) > 0, stem


class TestTrajectoryRoundTrip:
    def test_persist_load_replay(self, tmp_path):
        cfg = RunConfig(truth=TruthSpec("uniform"), n_max=60)
        traj = run_trajectory(cfg, 3)
        prefix = str(tmp_path / "run")
        csv_path, json_path = write_trajectory(traj, prefix)
        assert os.path.exists(csv_path) and os.path.exists(json_path)

        loaded = load_trajectory(prefix)
        assert loaded.columns == traj.columns
        assert loaded.grid == traj.grid
        assert loaded.to_csv() == traj.to_csv()

        replayed = run_trajectory(loaded.config, loaded.seed)
        assert replayed.to_csv() == traj.to_csv()
        assert replayed.sidecar() == traj.sidecar()

    def test_sidecar_schema(self, tmp_path):
        cfg = RunConfig(truth=TruthSpec("uniform"), n_max=12)
        traj = run_trajectory(cfg, 1)
        side = traj.sidecar()
        assert set(side) >= {"config", "seed", "grid", "columns", "version"}
        # serialized floats carry 17 significant digits
        line = traj.to_csv().splitlines()[1]
        assert any(len(tok.split(".")[-1]) >= 10 for tok in line.split(",")
                   if "." in tok and "e" not in tok)

    def test_determinism(self):
        cfg = RunConfig(truth=TruthSpec("uniform"), n_max=40)
        a = run_trajectory(cfg, 7)
        b = run_trajectory(cfg, 7)
        assert a.to_csv() == b.to_csv()

    def test_cosine_far_tail_row_has_no_error(self):
        # at n = 1000 the Hellinger-mass ratio passes e^709.78; the row used
        # to end in an OverflowError ("math range error")
        cfg = RunConfig(model="cosine", n_max=1000, grid_ratio=100.0)
        traj = run_trajectory(cfg, 1)
        assert traj.grid[-1] == 1000
        assert traj.errors == []
        last = traj.rows[-1]
        assert all(not math.isnan(last[c]) for c in traj.columns)

    @pytest.mark.parametrize("exc, recorded", [
        (QuadratureError("no convergence", 0.0, 0.0, 10), True),
        (TypeError("a programming error"), False),
        (OverflowError("math range error"), False),
    ])
    def test_cosine_numeric_errors_are_gaps(self, monkeypatch, exc, recorded):
        # a quadrature that runs out of intervals is a gap in the row; any
        # other exception is a fault of the program and ends the run.  The
        # failure is injected below the engine's queries, a new exception per
        # quadrature: the engine keeps the first and raises it again for the
        # rest of the row, so the row records it once
        def failing(f, pieces, tol):
            if isinstance(exc, QuadratureError):  # each piece ends in its own
                return [copy.copy(exc) for _ in pieces]
            raise copy.copy(exc)

        monkeypatch.setattr(cosine, "lockstep_quadrature", failing)
        cfg = RunConfig(model="cosine", n_max=3,
                        diagnostics=DiagnosticSettings(epsilons=(0.3,)))
        if not recorded:
            with pytest.raises(type(exc)):
                run_trajectory(cfg, 2)
            return
        traj = run_trajectory(cfg, 2)
        assert traj.errors == [(n, "hellinger_mass_0.3: no convergence")
                               for n in traj.grid]
        assert [int(r["n"]) for r in traj.rows] == traj.grid
        assert all(br is None for _, br in traj.bracket_series("hellinger_mass_0.3"))
        # every column is kept, NaN from the failed statistic on
        assert all(list(r) == traj.columns for r in traj.rows)
        assert all(math.isnan(r[c]) for r in traj.rows for c in traj.columns[1:])

    def test_cosine_model_runs(self):
        cfg = RunConfig(truth=TruthSpec("uniform"), model="cosine", n_max=12,
                        diagnostics=DiagnosticSettings(epsilons=(0.3,)))
        traj = run_trajectory(cfg, 2)
        assert traj.errors == []
        series = traj.bracket_series("hellinger_mass_0.3")
        assert len(series) == len(traj.grid)
        assert all(br is not None for _, br in series)


class TestReplications:
    def test_summary_independent_of_parallelism_and_order(self):
        cfg = RunConfig(truth=TruthSpec("uniform"), n_max=40, seeds=(1, 2, 3))
        r1 = run_replications(cfg, parallelism=1)
        r3 = run_replications(cfg, parallelism=3)
        assert summary_csv(r1) == summary_csv(r3)
        assert r1.excursions == r3.excursions

        shuffled = RunConfig(truth=TruthSpec("uniform"), n_max=40, seeds=(3, 1, 2))
        r_shuf = run_replications(shuffled, parallelism=1)
        assert summary_csv(r_shuf) == summary_csv(r1)

    def test_duplicate_seeds_rejected(self):
        cfg = RunConfig(truth=TruthSpec("uniform"), n_max=10, seeds=(1, 1))
        with pytest.raises(ValueError):
            run_replications(cfg)

    def test_summary_shape(self):
        cfg = RunConfig(truth=TruthSpec("uniform"), n_max=25, seeds=(4, 9))
        r = run_replications(cfg)
        assert len(r.summary_rows) == len(evaluation_grid(25))
        assert "gamma_stat.lower.median" in r.summary_columns
        gs = r.excursions["gamma_stat"]["0.9"]
        assert gs["frequency"] == gs["seeds_with_excursion"] / 2


class SeedFailure(RuntimeError):
    pass


# module state a fork inherits: the file that every process appends the
# (pid, seed) of each call below to, the seeds whose trajectory raises, the
# seeds that end a fork ("kill": SIGKILL, "exit": SystemExit), make a fork
# raise a QuadratureError ("quadrature") or interrupt this process
# ("interrupt"), and the pid of each fork this process makes
TEST_PID = os.getpid()
CALL_LOG = ""
FAILING_SEEDS: set = set()
ABORTS: dict = {}
FORKS: list = []
REAL_FORK = os.fork


def recording_fork():
    pid = REAL_FORK()
    if pid:
        FORKS.append(pid)
    return pid


def recording_trajectory(cfg, seed):
    """run_trajectory, noting its pid and seed in CALL_LOG, raising for
    FAILING_SEEDS with a message that names the seed and its process, and
    acting out ABORTS."""
    with open(CALL_LOG, "a", encoding="ascii") as fh:
        fh.write(f"{os.getpid()} {seed}\n")
    if seed in FAILING_SEEDS:
        raise SeedFailure(f"seed {seed} in pid {os.getpid()}")
    abort, in_fork = ABORTS.get(seed), os.getpid() != TEST_PID
    if abort == "kill" and in_fork:
        os.kill(os.getpid(), signal.SIGKILL)
    if abort == "exit" and in_fork:
        raise SystemExit(5)
    if abort == "quadrature" and in_fork:
        raise QuadratureError(f"no convergence for seed {seed}", -1.5, -30.0, 45)
    if abort == "interrupt" and not in_fork:
        raise KeyboardInterrupt
    return run_trajectory(cfg, seed)


def trajectory_calls():
    """(pid, seed) of every recorded call, in every process, in order."""
    with open(CALL_LOG, encoding="ascii") as fh:
        return [tuple(int(v) for v in line.split()) for line in fh]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestReplicationLayout:
    """parallelism k runs the seeds in k processes: this one and k - 1 forks
    of it.  Fork i = 0..k - 2 runs the seed indices i, i + k, i + 2k, ...
    and this process the indices k - 1, 2k - 1, ...; each runs its share in
    order and stops at its first failure."""

    CFG = RunConfig(truth=TruthSpec("uniform"), n_max=40, seeds=(1, 2, 3, 4))

    @pytest.fixture()
    def recorded(self, monkeypatch, tmp_path):
        this = sys.modules[__name__]
        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(harness, "run_trajectory", recording_trajectory)
        monkeypatch.setattr(this, "FORKS", [])
        monkeypatch.setattr(this, "CALL_LOG", str(tmp_path / "calls"))
        (tmp_path / "calls").write_text("")

    def test_parent_is_one_of_the_jobs(self, recorded):
        run_replications(self.CFG, parallelism=3)
        assert len(FORKS) == 2
        calls = trajectory_calls()
        # seeds 1 and 2 go to the forks, and this process takes seed 3 first
        assert (FORKS[0], 1) in calls and (FORKS[1], 2) in calls
        assert [s for pid, s in calls if pid == os.getpid()][0] == 3
        assert sorted(s for _, s in calls) == [1, 2, 3, 4]
        assert_no_child_left()

    def test_serial_run_makes_no_pool(self, recorded):
        run_replications(self.CFG, parallelism=1)
        assert FORKS == []
        assert trajectory_calls() == [(os.getpid(), s) for s in (1, 2, 3, 4)]

    def test_results_independent_of_jobs(self):
        ref = run_replications(self.CFG, parallelism=1)
        for jobs in (2, 3, 8):  # 8: more jobs than seeds
            r = run_replications(self.CFG, parallelism=jobs)
            assert [t.seed for t in r.trajectories] == [1, 2, 3, 4]
            assert [t.rows for t in r.trajectories] == [t.rows for t in ref.trajectories]
            assert r.summary_columns == ref.summary_columns
            assert r.summary_rows == ref.summary_rows
            assert r.excursions == ref.excursions

    def test_every_seed_once_with_more_jobs_than_cores(self, recorded):
        # five processes split twelve seeds into shares of three and two:
        # a seed run twice or never would change the records or the calls
        cfg = RunConfig(truth=TruthSpec("uniform"), n_max=3, seeds=tuple(range(1, 13)))
        ref = [run_trajectory(cfg, s) for s in cfg.seeds]
        r = run_replications(cfg, parallelism=5)
        assert len(FORKS) == 4
        assert sorted(s for _, s in trajectory_calls()) == list(range(1, 13))
        assert [t.seed for t in r.trajectories] == list(range(1, 13))
        assert [t.rows for t in r.trajectories] == [t.rows for t in ref]
        assert_no_child_left()

    @pytest.mark.parametrize("failing, where", [
        ({1}, "worker"),       # seeds 1 and 2 go to the two forks first
        ({3}, "parent"),       # the parent takes seed 3 first
        ({2, 3}, "worker"),    # both fail: the earlier seed's error is raised
    ])
    def test_earliest_failing_seed_is_raised(self, recorded, monkeypatch,
                                             failing, where):
        monkeypatch.setattr(sys.modules[__name__], "FAILING_SEEDS", failing)
        first = min(failing)
        for jobs in (1, 3):
            open(CALL_LOG, "w").close()
            with pytest.raises(SeedFailure, match=f"seed {first} in") as info:
                run_replications(self.CFG, parallelism=jobs)
            assert_no_child_left()
            in_parent = f"pid {os.getpid()}" in str(info.value)
            assert in_parent == (jobs == 1 or where == "parent")
        assert len(FORKS) == 2
        if where == "parent":  # the shares are fixed: fork 0 goes on to seed 4
            assert sorted(trajectory_calls()) == sorted(
                [(FORKS[0], 1), (FORKS[0], 4), (FORKS[1], 2), (os.getpid(), 3)])

    def test_a_share_stops_at_its_first_failure(self, recorded, monkeypatch):
        # seed 1 fails in fork 0, whose share ends there, while this
        # process runs all of its own share
        monkeypatch.setattr(sys.modules[__name__], "FAILING_SEEDS", {1})
        cfg = RunConfig(truth=TruthSpec("uniform"), n_max=3, seeds=tuple(range(1, 7)))
        with pytest.raises(SeedFailure, match="seed 1 in") as info:
            run_replications(cfg, parallelism=2)
        assert_no_child_left()
        assert len(FORKS) == 1 and f"pid {FORKS[0]}" in str(info.value)
        calls = trajectory_calls()
        assert [s for pid, s in calls if pid == FORKS[0]] == [1]
        assert [s for pid, s in calls if pid == os.getpid()] == [2, 4, 6]

    @pytest.mark.parametrize("abort, status", [
        ("kill", f"signal {int(signal.SIGKILL)}"),
        ("exit", "exit code 1"),   # a BaseException ends the fork
    ])
    def test_fork_ending_early_is_a_runtime_error(self, recorded, monkeypatch,
                                                  abort, status):
        monkeypatch.setattr(sys.modules[__name__], "ABORTS", {1: abort})
        with pytest.raises(RuntimeError) as info:
            run_replications(self.CFG, parallelism=3)
        assert not isinstance(info.value, SeedFailure)
        assert f"worker {FORKS[0]} " in str(info.value)
        assert status in str(info.value)
        assert_no_child_left()

    def test_killed_fork_exits_3(self, recorded, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(sys.modules[__name__], "ABORTS", {1: "kill"})
        code = cli.main(["replicate", "--truth", "uniform", "--n-max", "40",
                         "--seeds", "1..4", "--jobs", "3",
                         "--out-dir", str(tmp_path / "r")])
        assert code == 3
        assert f"worker {FORKS[0]} " in capsys.readouterr().err
        assert_no_child_left()

    def test_quadrature_error_in_a_fork_exits_3(self, recorded, monkeypatch,
                                               tmp_path, capsys):
        # the fork pickles the exception and this process unpickles it
        monkeypatch.setattr(sys.modules[__name__], "ABORTS", {1: "quadrature"})
        code = cli.main(["replicate", "--truth", "uniform", "--n-max", "40",
                         "--seeds", "1..4", "--jobs", "3",
                         "--out-dir", str(tmp_path / "r")])
        assert code == 3
        assert "no convergence for seed 1" in capsys.readouterr().err
        assert_no_child_left()

    def test_interrupt_here_kills_the_forks(self, recorded, monkeypatch):
        # seed 3 runs in this process while the forks run seeds 1 and 2
        monkeypatch.setattr(sys.modules[__name__], "ABORTS", {3: "interrupt"})
        with pytest.raises(KeyboardInterrupt):
            run_replications(self.CFG, parallelism=3)
        assert len(FORKS) == 2
        assert_no_child_left()

    def test_without_fork_the_seeds_run_here(self, recorded, monkeypatch):
        monkeypatch.delattr(os, "fork")
        run_replications(self.CFG, parallelism=3)
        assert trajectory_calls() == [(os.getpid(), s) for s in (1, 2, 3, 4)]

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_parallelism_below_one_rejected(self, recorded, jobs):
        with pytest.raises(ConfigError, match="parallelism"):
            run_replications(self.CFG, parallelism=jobs)
        assert trajectory_calls() == [] and FORKS == []

    def test_worker_forks_without_the_hash_library(self):
        # in a fresh interpreter, each trajectory notes its pid and whether
        # OpenSSL's hash module is loaded in the process that ran it
        code = (
            "import json, os, sys\n"
            "from posterior_lab import harness\n"
            "run = harness.run_trajectory\n"
            "def probe(cfg, seed):\n"
            "    traj = run(cfg, seed)\n"
            "    traj.probe = (os.getpid(), '_hashlib' in sys.modules)\n"
            "    return traj\n"
            "harness.run_trajectory = probe\n"
            "cfg = harness.RunConfig(n_max=20, seeds=(1, 2))\n"
            "r = harness.run_replications(cfg, parallelism=2)\n"
            "print(json.dumps([os.getpid(), [t.probe for t in r.trajectories]]))\n")
        src = os.path.dirname(os.path.dirname(harness.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True).stdout
        parent, probes = json.loads(out)
        # seed 1 runs in the fork and seed 2 here
        assert probes[0][0] != parent and probes[1][0] == parent
        assert [loaded for _, loaded in probes] == [False, False]


def reference_summary(trajs):
    """The summary cell by cell, one np.nanmin, np.nanmedian and np.nanmax
    call per (grid point, column), NaN where every seed is NaN."""
    data_cols = [c for c in trajs[0].columns if c != "n"]
    columns = ["n"] + [f"{c}.{stat}" for c in data_cols
                       for stat in ("min", "median", "max")]
    rows = []
    for gi, n in enumerate(trajs[0].grid):
        row = {"n": float(n)}
        for c in data_cols:
            vals = np.array([t.rows[gi].get(c, math.nan) for t in trajs])
            empty = np.all(np.isnan(vals))
            for stat, reduce in (("min", np.nanmin), ("median", np.nanmedian),
                                 ("max", np.nanmax)):
                with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
                    row[f"{c}.{stat}"] = math.nan if empty else float(reduce(vals))
        rows.append(row)
    return columns, rows


CELL = st.one_of(st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf]),
                 st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([-2.0, -1.0, 0.5, 1.0, 2.0]))


@st.composite
def seed_tables(draw):
    """Per-seed rows over a shared grid and columns: NaN, +-inf and +-0.0
    cells, all-NaN columns and missing cells, in two seed orders."""
    seeds = draw(st.integers(1, 9))
    grid = list(range(1, draw(st.integers(1, 4)) + 1))
    columns = ["n"] + [f"c{j}" for j in range(draw(st.integers(1, 4)))]
    all_nan = {c for c in columns[1:] if draw(st.booleans())}
    trajs = []
    for seed in range(seeds):
        rows = []
        for n in grid:
            row = {"n": float(n)}
            for c in columns[1:]:
                cell = math.nan if c in all_nan else draw(st.one_of(CELL, st.none()))
                if cell is not None:  # None: the row lacks the cell
                    row[c] = cell
            rows.append(row)
        trajs.append(TrajectoryRecord(config=RunConfig(), seed=seed + 1, grid=grid,
                                      columns=columns, rows=rows))
    return trajs, draw(st.permutations(trajs))


def same_cells(a, b):
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (math.isnan(a[k]) and math.isnan(b[k])) for k in a)


def summary_text(columns, rows):
    return summary_csv(ReplicationResult([], columns, rows, {}))


class TestSummaryReduction:
    @given(seed_tables())
    @settings(max_examples=200, deadline=None)
    def test_one_pass_equals_the_cell_loop(self, tables):
        for trajs in tables:
            columns, rows = _summary(trajs)
            ref_columns, ref_rows = reference_summary(trajs)
            assert columns == ref_columns
            assert all(same_cells(a, b) for a, b in zip(rows, ref_rows))
            assert summary_text(columns, rows) == summary_text(ref_columns, ref_rows)
        # the seed order moves at most the sign of a zero min or max
        (_, rows), (_, shuffled) = _summary(tables[0]), _summary(tables[1])
        assert all(same_cells(a, b) for a, b in zip(rows, shuffled))


BARRON_COLUMNS = [
    "n", "w_n", "sup_loglik", "realized_gamma",
    "gamma_stat.lower", "gamma_stat.upper",
    "mass_f0.lower", "mass_f0.upper", "mass_fstep.lower", "mass_fstep.upper",
    "band_mass_0.6_0.75.lower", "band_mass_0.6_0.75.upper",
    "band_mass_0.2_0.4.lower", "band_mass_0.2_0.4.upper",
    "band_prior_exponent_0.693147_0.693147",
    "beta_bound_mass_0.693147.lower", "beta_bound_mass_0.693147.upper",
    "hellinger_mass_0.5.lower", "hellinger_mass_0.5.upper",
    "hellinger_mass_0.7.lower", "hellinger_mass_0.7.upper",
    "evidence_flag", "log_evidence.lower", "log_evidence.upper",
]


class TestColumnLayout:
    def test_default_barron_columns(self):
        traj = run_trajectory(RunConfig(n_max=3), 1)
        want = BARRON_COLUMNS + ["mean_inv_level.lower", "mean_inv_level.upper"]
        assert len(want) == 26
        assert traj.columns == want
        assert all(list(r) == want for r in traj.rows)

    def test_default_cosine_columns(self):
        traj = run_trajectory(RunConfig(model="cosine", n_max=2), 1)
        assert traj.columns == [
            "n", "hellinger_mass_0.5.lower", "hellinger_mass_0.5.upper",
            "hellinger_mass_0.7.lower", "hellinger_mass_0.7.upper",
            "region_mass_5_inf.lower", "region_mass_5_inf.upper",
            "log_evidence.lower", "log_evidence.upper"]

    def test_predictive_without_level_columns(self):
        # every sidecar up to v6 holds the predictive grid at 0, the value
        # format v7 retired, and decodes to the plain column layout
        cfg = RunConfig.from_dict({"n_max": 3, "diagnostics": {
            "predictive_grid": 0, "track_mean_inv_level": False}})
        assert cfg == RunConfig(n_max=3, diagnostics=DiagnosticSettings(
            track_mean_inv_level=False))
        assert run_trajectory(cfg, 1).columns == BARRON_COLUMNS


class TestRecordCounts:
    def test_ten_records_for_n_max_ten(self):
        cfg = RunConfig(truth=TruthSpec("uniform"), n_max=10)
        traj = run_trajectory(cfg, 1)
        assert len(traj.rows) == 10
        assert [int(r["n"]) for r in traj.rows] == list(range(1, 11))
