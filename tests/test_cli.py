"""CLI tests: exit-code contract (0 ok / 2 config / 3 numeric), replay via
--config, byte-identical outputs across --jobs, scan table shape, and
structural checks on the emitted SVG."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from posterior_lab.cli import (
    _config_from_args,
    build_parser,
    main,
    parse_grid,
    parse_seeds,
    parse_truth,
)
from posterior_lab.cosine import CosinePriorConfig
from posterior_lab.harness import RunConfig


DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(*argv):
    return main(list(argv))


def read_csv_cells(path):
    """The rows of a trajectory CSV as {column: cell text}."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]


def assert_replay_nests(golden, out, slack=None):
    """Each bracket of the replay ``out`` lies inside the stored one of
    ``golden``, on the same grid.  A bracket is a quadrature error estimate,
    so by default the nesting holds up to 2 quad_tol: relative for masses,
    absolute for ln evidence.  Returns both row lists."""
    if slack is None:
        with open(golden + ".json") as fh:
            slack = 2.0 * json.load(fh)["config"]["quad_tol"]
    old, new = read_csv_cells(golden + ".csv"), read_csv_cells(out + ".csv")
    assert [r["n"] for r in old] == [r["n"] for r in new]
    for was, now in zip(old, new):
        for col in (c for c in was if c.endswith(".lower")):
            stem = col[:-6]
            lo, hi = float(was[col]), float(was[stem + ".upper"])
            new_lo, new_hi = float(now[col]), float(now[stem + ".upper"])
            if stem == "log_evidence":
                assert lo - slack <= new_lo <= new_hi <= hi + slack, (was["n"], stem)
            else:
                assert lo * (1 - slack) <= new_lo <= new_hi <= hi * (1 + slack), \
                    (was["n"], stem)
    return old, new


def assert_bracket_free_columns_keep(old, new):
    """The columns without a bracket keep their bytes, all but the band prior
    exponent, which reads the midpoint of the step bracket: that midpoint
    lies inside the stored bracket, so the exponent moves by at most half
    the stored step width over n (the step bracket enclosed here by fstep
    times the evidence)."""
    for was, now in zip(old, new):
        n = int(was["n"])
        step = [math.log(float(was["mass_fstep" + e])) + float(was["log_evidence" + e])
                for e in (".lower", ".upper")]
        for col in was:
            if col.endswith((".lower", ".upper")) or was[col] == now[col]:
                continue
            if col.startswith("band_prior_exponent"):
                moved = abs(float(now[col]) - float(was[col]))
                assert moved <= 0.5 * (step[1] - step[0]) / n + 1e-15, (n, col)
            else:
                raise AssertionError((n, col, was[col], now[col]))


def assert_sidecars_differ_in_version(golden, out, versions):
    """The two sidecars are equal but for their versions, which are
    ``versions``, and, in a sidecar older than v7, the predictive grid that
    format v7 retired (0 in every such sidecar) with the config hash it was
    part of."""
    with open(golden + ".json") as a, open(out + ".json") as b:
        was, now = json.load(a), json.load(b)
    assert (was.pop("version"), now.pop("version")) == versions
    if versions[0] < 7:
        assert was["config"]["diagnostics"].pop("predictive_grid") == 0
        assert was.pop("config_hash") != now.pop("config_hash")
    assert was == now


class TestParsers:
    def test_truth(self):
        assert parse_truth("uniform").kind == "uniform"
        g = parse_truth("gauss:0.5")
        assert g.kind == "gauss_exp" and g.theta == 0.5
        s = parse_truth("step:2:0,3,5,7")
        assert s.kind == "step" and s.level == 2 and s.selected == (0, 3, 5, 7)
        f = parse_truth("file:/tmp/x.csv")
        assert f.kind == "external" and f.path == "/tmp/x.csv"

    def test_truth_errors(self):
        from posterior_lab.cli import ConfigError
        for bad, named in (("gauss:1.5", "got 1.5"), ("gauss:-inf", "got -inf"),
                           ("gauss:x", "'gauss:x'"), ("step:2", "'step:2'"),
                           ("step:2:0,1", "got 2"), ("step:1:5", "out of range"),
                           ("file:", "dataset path"), ("whatever", "'whatever'")):
            with pytest.raises(ConfigError, match=re.escape(named)):
                parse_truth(bad)

    def test_seeds(self):
        assert parse_seeds("1..4") == (1, 2, 3, 4)
        assert parse_seeds("5,2,9") == (5, 2, 9)

    def test_grid(self):
        assert parse_grid("0.2:0.6:0.2") == [0.2, 0.4, 0.6]


class TestTrajCommand:
    def test_cosine_data_below_the_finite_half_period_exits_0(self, tmp_path):
        # max(data) = 1e-305 puts pi / max(data) in units of 2^-20 past the
        # float range; such a half period ends no piece
        data = tmp_path / "tiny.csv"
        data.write_text("1e-305\n")
        out = str(tmp_path / "t")
        assert run_cli("traj", "--model", "cosine", "--truth", f"file:{data}",
                       "--n-max", "1", "--out", out) == 0
        rows = read_csv_cells(out + ".csv")
        assert len(rows) == 1 and "nan" not in rows[0].values()

    def test_writes_files_and_replays(self, tmp_path):
        out = str(tmp_path / "r1")
        assert run_cli("traj", "--model", "barron", "--truth", "uniform",
                       "--n-max", "30", "--seed", "1", "--out", out) == 0
        assert os.path.exists(out + ".csv") and os.path.exists(out + ".json")
        with open(out + ".json") as fh:
            side = json.load(fh)
        assert side["seed"] == 1 and side["config"]["n_max"] == 30

        out2 = str(tmp_path / "r2")
        assert run_cli("traj", "--config", out + ".json", "--out", out2) == 0
        assert open(out + ".csv").read() == open(out2 + ".csv").read()

    def test_v1_sidecar_replays_inside_its_brackets(self, tmp_path):
        # v1 cut the step sum at max(D, 4n) with a loose tail bracket and
        # took the tilt mass as 1 - fstep; v3 on replays it with a sharper
        # step bracket inside the stored one
        v1 = os.path.join(DATA, "v1_uniform_n60_seed3")
        out = str(tmp_path / "replay")
        assert run_cli("traj", "--config", v1 + ".json", "--out", out) == 0
        with open(out + ".json") as fh:
            side = json.load(fh)
        assert side["version"] == 8 and "trunc_multiplier" not in side["config"]
        old, new = read_csv_cells(v1 + ".csv"), read_csv_cells(out + ".csv")
        assert [r["n"] for r in old] == [r["n"] for r in new]
        for was, now in zip(old, new):
            n = int(was["n"])
            for col in ("n", "w_n", "sup_loglik", "realized_gamma"):
                assert was[col] == now[col], (n, col)
            for col in was:
                if col.endswith(".lower"):
                    stem = col[:-6]
                    lo, hi = float(was[col]), float(was[stem + ".upper"])
                    tol_lo = 1e-12 * abs(lo) + 1e-15
                    tol_hi = 1e-12 * abs(hi) + 1e-15
                    assert lo - tol_lo <= float(now[col]), (n, col)
                    assert float(now[stem + ".upper"]) <= hi + tol_hi, (n, col)
            # the stored step bracket is enclosed by fstep times the evidence;
            # the exponent reads its midpoint, which moves at most half its
            # width
            step = [math.log(float(was["mass_fstep" + e])) + float(was["log_evidence" + e])
                    for e in (".lower", ".upper")]
            col = "band_prior_exponent_0.693147_0.693147"
            moved = abs(float(now[col]) - float(was[col]))
            assert moved <= 0.5 * (step[1] - step[0]) / n + 1e-15, n
            assert now["evidence_flag"] in (was["evidence_flag"], "1"), n

    def test_v3_sidecar_replays_inside_its_brackets(self, tmp_path):
        # v5 moved the tilt quadrature to Gauss-Kronrod and v6 the step head
        # to Stirling pairs: every bracket nests in the stored one, the
        # columns without a bracket keep their bytes (see
        # assert_bracket_free_columns_keep), and the sidecar is the same but
        # for its version, the retired keys and the hash of the config
        # without them
        golden = os.path.join(DATA, "v3_uniform_n60_seed3")
        out = str(tmp_path / "replay")
        assert run_cli("traj", "--config", golden + ".json", "--out", out) == 0
        assert_bracket_free_columns_keep(*assert_replay_nests(golden, out))
        with open(golden + ".json") as a, open(out + ".json") as b:
            was, now = json.load(a), json.load(b)
        assert (was.pop("version"), now.pop("version")) == (3, 8)
        retired = was["config"]["cosine_prior"]
        assert (retired.pop("scale"), retired.pop("tail_fraction")) == (1.0, 1e-3)
        assert was["config"]["diagnostics"].pop("predictive_grid") == 0
        assert was.pop("config_hash") != now.pop("config_hash")
        assert was == now

    def test_v4_cosine_sidecar_replays_inside_its_brackets(self, tmp_path):
        golden = os.path.join(DATA, "v4_cosine_n40_seed1")
        out = str(tmp_path / "replay")
        assert run_cli("traj", "--config", golden + ".json", "--out", out) == 0
        assert_replay_nests(golden, out)
        assert_sidecars_differ_in_version(golden, out, (4, 8))

    # v6 sums the step head in closed form: the v5 Barron runs replay with
    # every bracket inside the stored one, with no slack, as the tilt
    # quadrature is unchanged
    @pytest.mark.parametrize("name", ["v5_uniform_n60_seed3", "v5_uniform_n8000_seed65",
                                      "v5_gauss_tiltband_n300_seed9",
                                      "v5_decimal_n3_seed1", "v5_step_n300_seed4"])
    def test_v5_sidecar_replays_inside_its_brackets(self, tmp_path, monkeypatch, name):
        golden = os.path.join(DATA, name)
        out = str(tmp_path / "replay")
        (tmp_path / "decimal.csv").write_text("0.3\n0.305\n0.9\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli("traj", "--config", golden + ".json", "--out", out) == 0
        assert_bracket_free_columns_keep(*assert_replay_nests(golden, out, slack=0.0))
        assert_sidecars_differ_in_version(golden, out, (5, 8))

    # v8 moved the cosine bits by rounding (the likelihood per Kronrod panel
    # by angle addition, the half period on a 2^-20 grid, both Hellinger
    # envelopes cut at the same points): every stored cosine run replays
    # with each bracket inside the stored one up to 2 quad_tol
    @pytest.mark.parametrize("name", ["v5_cosine_n40_seed1", "v6_cosine_n640_seed3",
                                      "v7_cosine_n640_seed3"])
    def test_cosine_sidecar_replays_inside_its_brackets(self, tmp_path, name):
        golden = os.path.join(DATA, name)
        out = str(tmp_path / "replay")
        assert run_cli("traj", "--config", golden + ".json", "--out", out) == 0
        assert_replay_nests(golden, out)
        assert_sidecars_differ_in_version(golden, out, (int(name[1]), 8))

    # v7 retired the predictive grid, which no v6 run turned on, and v8 left
    # the Barron bits alone: each v6 run replays to its v8 CSV byte for
    # byte, which for a Barron run is the v6 CSV
    @pytest.mark.parametrize("name", ["v6_uniform_n60_seed3", "v6_uniform_n8000_seed65",
                                      "v6_gauss_tiltband_n300_seed9",
                                      "v6_decimal_n3_seed1", "v6_step_n300_seed4",
                                      "v6_cosine_n640_seed3"])
    def test_v6_sidecar_replays_byte_identical(self, tmp_path, monkeypatch, name):
        golden = os.path.join(DATA, name)
        out = str(tmp_path / "replay")
        (tmp_path / "decimal.csv").write_text("0.3\n0.305\n0.9\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli("traj", "--config", golden + ".json", "--out", out) == 0
        with open(os.path.join(DATA, "v8" + name[2:] + ".csv"), "rb") as a, \
                open(out + ".csv", "rb") as b:
            assert a.read() == b.read()
        if "cosine" not in name:
            with open(golden + ".csv", "rb") as a, open(out + ".csv", "rb") as b:
                assert a.read() == b.read()
        assert_sidecars_differ_in_version(golden, out, (6, 8))

    # the gauss run's bands and betas hold tilt members, so it reads the
    # tilt side of the band mass, the band prior exponent and the beta bound;
    # the decimal run's dataset decimal.csv (0.3, 0.305, 0.9, read from the
    # working directory) puts 0.3 just below a level-5 cell boundary; the
    # step run's truth log-likelihood (step:2:0,3,5,7) sets its gamma columns;
    # the cosine run reaches past its head and shares panels between pieces.
    # Each v7 sidecar replays to its v8 pair byte for byte, CSV and sidecar;
    # the sidecars differ only in version, and a Barron CSV keeps its v7 bytes
    @pytest.mark.parametrize("name", ["v7_uniform_n60_seed3", "v7_uniform_n8000_seed65",
                                      "v7_gauss_tiltband_n300_seed9",
                                      "v7_decimal_n3_seed1", "v7_step_n300_seed4",
                                      "v7_cosine_n640_seed3"])
    def test_v7_sidecar_replays_byte_identical(self, tmp_path, monkeypatch, name):
        golden = os.path.join(DATA, name)
        out = str(tmp_path / "replay")
        (tmp_path / "decimal.csv").write_text("0.3\n0.305\n0.9\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli("traj", "--config", golden + ".json", "--out", out) == 0
        for ext in (".csv", ".json"):
            with open(os.path.join(DATA, "v8" + name[2:] + ext), "rb") as a, \
                    open(out + ext, "rb") as b:
                assert a.read() == b.read(), ext
        if "cosine" not in name:
            with open(golden + ".csv", "rb") as a, open(out + ".csv", "rb") as b:
                assert a.read() == b.read()
        assert_sidecars_differ_in_version(golden, out, (7, 8))

    def test_v2_cosine_sidecar_replays_inside_its_brackets(self, tmp_path):
        # v2 widened the cap only until the tail bound fell below 1e-3 of the
        # evidence; v4 on bounds it to quad_tol of the part it joins
        golden = os.path.join(DATA, "v2_cosine_n40_seed1")
        out = str(tmp_path / "replay")
        assert run_cli("traj", "--config", golden + ".json", "--out", out) == 0
        assert_replay_nests(golden, out)

    def test_partial_config_takes_the_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 20}))
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli("traj", "--config", str(cfg), "--out", a) == 0
        assert run_cli("traj", "--truth", "uniform", "--n-max", "20",
                       "--seed", "1", "--out", b) == 0
        header = open(a + ".csv").readline().rstrip("\n").split(",")
        assert len(header) == 26
        assert open(a + ".csv").read() == open(b + ".csv").read()

    @pytest.mark.parametrize("key, value", [("trunc_multiplier", 8.0),
                                            ("trunc_level", 3),
                                            ("cosine_prior.tail_fraction", 1e-4),
                                            ("cosine_prior.scale", 2.0)])
    def test_unsupported_sidecar_key_exits_2(self, tmp_path, capsys, key, value):
        with open(os.path.join(DATA, "v1_uniform_n60_seed3.json")) as fh:
            side = json.load(fh)
        *parents, name = key.split(".")
        node = side["config"]
        for p in parents:
            node = node[p]
        node[name] = value
        cfg = tmp_path / "side.json"
        cfg.write_text(json.dumps(side))
        code = run_cli("traj", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["half_cauchy", "half_cauchy:2.5",
                                      "exponential:abc"])
    def test_retired_cosine_prior_exits_2(self, tmp_path, capsys, spec):
        # a retired kind or an unreadable value: the message names the flag's
        # value and the accepted forms
        code = run_cli("traj", "--model", "cosine", "--cosine-prior", spec,
                       "--n-max", "2", "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert repr(spec) in err and "exponential:RATE" in err
        assert not os.path.exists(str(tmp_path / "x.csv"))

    def test_cosine_prior_parameter(self):
        args = build_parser().parse_args(
            ["traj", "--model", "cosine", "--cosine-prior", "exponential:2.5",
             "--out", "x"])
        prior = _config_from_args(args)[0].cosine_prior
        assert prior == CosinePriorConfig(kind="exponential", rate=2.5)

    def test_config_naming_half_cauchy_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "cosine", "n_max": 2,
                                   "cosine_prior": {"kind": "half_cauchy"}}))
        code = run_cli("traj", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "x"))
        assert code == 2
        assert "cosine_prior" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, field", [
        ("exponential:inf", "rate"), ("exponential:nan", "rate"),
        ("truncated_uniform:inf", "theta_max"), ("truncated_uniform:nan", "theta_max")])
    def test_nonfinite_cosine_prior_exits_2(self, tmp_path, capsys, spec, field):
        # a NaN fails no "<= 0" test, and an infinite one used to end as a
        # numeric failure (exit 3) in the first quadrature
        code = run_cli("traj", "--model", "cosine", "--cosine-prior", spec,
                       "--n-max", "3", "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 2
        assert f"{field} must be finite and positive" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "x.csv"))

    def test_infinite_rate_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": "cosine", "n_max": 3, '
                       '"cosine_prior": {"kind": "exponential", "rate": Infinity}}')
        code = run_cli("traj", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert "cosine_prior" in err and "rate must be finite and positive" in err
        assert not os.path.exists(str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("spec", ["truncated_uniform:1e6", "exponential:1e-5",
                                      "exponential:5e-324"])
    def test_reach_past_the_quadrature_budget_is_a_recorded_gap(self, tmp_path, spec):
        # a reach of 10^6 or more (inf at a subnormal rate) holds too many
        # half periods for one quadrature: each row records the budget
        # failure, before a breakpoint list or a Hellinger grid of that
        # reach is built
        out = str(tmp_path / "x")
        tracemalloc.start()
        try:
            code = run_cli("traj", "--model", "cosine", "--cosine-prior", spec,
                           "--n-max", "3", "--out", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 64 * 2 ** 20
        errors = json.load(open(out + ".json"))["errors"]
        assert [n for n, _ in errors] == [1, 2, 3]
        assert all("half period" in msg and "200000" in msg for _, msg in errors)
        rows = read_csv_cells(out + ".csv")
        assert all(cell == "nan" for row in rows for c, cell in row.items() if c != "n")

    def test_bad_truth_exits_2(self, tmp_path):
        code = run_cli("traj", "--truth", "gauss:1.5", "--n-max", "5",
                       "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        code = run_cli("traj", "--nope", "1", "--out", str(tmp_path / "x"))
        assert code == 2

    def test_help_exits_0(self, capsys):
        for sub in ("traj", "replicate", "scan", "plot"):
            assert run_cli(sub, "--help") == 0
            out = capsys.readouterr().out
            assert "--" in out


class TestReplicateCommand:
    def test_jobs_determinism(self, tmp_path):
        d1, d8 = str(tmp_path / "j1"), str(tmp_path / "j8")
        args = ["replicate", "--truth", "uniform", "--n-max", "25",
                "--seeds", "1..3"]
        assert run_cli(*args, "--jobs", "1", "--out-dir", d1) == 0
        assert run_cli(*args, "--jobs", "8", "--out-dir", d8) == 0
        for name in ("traj_seed1.csv", "traj_seed2.csv", "traj_seed3.csv",
                     "summary.csv", "summary.json"):
            a = open(os.path.join(d1, name), "rb").read()
            b = open(os.path.join(d8, name), "rb").read()
            assert a == b, name

    def test_v6_replicate_summary_is_byte_identical(self, tmp_path):
        # four seeds: every median cell of the summary is the mean of two.
        # Against the v5 summary every .lower cell (min, median or max over
        # the seeds of a bracket's lower end) is no lower and every .upper
        # cell no higher, as each seed's brackets nest; the other cells keep
        # their bytes but the band prior exponent's, which moves by an ulp
        # or two with the step bracket's midpoint
        golden = os.path.join(DATA, "v6_replicate_uniform_n300_seeds1-4")
        out = str(tmp_path / "r")
        assert run_cli("replicate", "--truth", "uniform", "--n-max", "300",
                       "--seeds", "1..4", "--jobs", "2", "--out-dir", out) == 0
        for ext in (".csv", ".json"):
            with open(golden + ext, "rb") as a, \
                    open(os.path.join(out, "summary" + ext), "rb") as b:
                assert a.read() == b.read(), ext
        old = read_csv_cells(os.path.join(DATA, "v5_replicate_uniform_n300_seeds1-4.csv"))
        new = read_csv_cells(os.path.join(out, "summary.csv"))
        assert [r["n"] for r in old] == [r["n"] for r in new]
        for was, now in zip(old, new):
            for col in was:
                if ".lower." in col:
                    assert float(was[col]) <= float(now[col]), (was["n"], col)
                elif ".upper." in col:
                    assert float(now[col]) <= float(was[col]), (was["n"], col)
                elif col.startswith("band_prior_exponent"):
                    assert float(now[col]) == pytest.approx(float(was[col]), abs=1e-15)
                else:
                    assert was[col] == now[col], (was["n"], col)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_v8_cosine_replicate_summary_is_byte_identical(self, tmp_path, jobs):
        # every row of the cosine model through the streamed engine and the
        # shared statistic loop.  Against the v6 summary, written before
        # either, every .lower cell (min, median or max over the seeds of a
        # bracket's lower end) is no lower and every .upper cell no higher,
        # up to 2 quad_tol, as each seed's brackets nest; n keeps its bytes
        golden = os.path.join(DATA, "v8_replicate_cosine_n300_seeds1-3")
        out = str(tmp_path / "r")
        assert run_cli("replicate", "--model", "cosine", "--grid-ratio", "2.0",
                       "--n-max", "300", "--seeds", "1..3", "--jobs", jobs,
                       "--out-dir", out) == 0
        for ext in (".csv", ".json"):
            with open(golden + ext, "rb") as a, \
                    open(os.path.join(out, "summary" + ext), "rb") as b:
                assert a.read() == b.read(), ext
        old = read_csv_cells(os.path.join(DATA, "v6_replicate_cosine_n300_seeds1-3.csv"))
        new = read_csv_cells(os.path.join(out, "summary.csv"))
        slack = 2.0 * RunConfig().quad_tol
        assert [r["n"] for r in old] == [r["n"] for r in new]
        for was, now in zip(old, new):
            for col in was:
                w, v = float(was[col]), float(now[col])
                if ".lower." in col:
                    assert w - slack * (1.0 if col.startswith("log_evidence") else w) <= v, \
                        (was["n"], col)
                elif ".upper." in col:
                    assert v <= w + slack * (1.0 if col.startswith("log_evidence") else w), \
                        (was["n"], col)
                else:
                    assert was[col] == now[col], (was["n"], col)

    def test_duplicate_seeds_exit_2(self, tmp_path):
        code = run_cli("replicate", "--truth", "uniform", "--n-max", "10",
                       "--seeds", "2,2", "--jobs", "1",
                       "--out-dir", str(tmp_path / "d"))
        assert code == 2

    def test_jobs_below_one_exits_2(self, tmp_path, capsys):
        code = run_cli("replicate", "--truth", "uniform", "--n-max", "10",
                       "--seeds", "1,2", "--jobs", "0",
                       "--out-dir", str(tmp_path / "d"))
        assert code == 2
        assert "parallelism" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "d")


class TestScanCommand:
    def test_scan_table(self, tmp_path):
        out = str(tmp_path / "scan.csv")
        code = run_cli("scan", "--truth", "uniform", "--n-max", "25",
                       "--seeds", "1,2", "--alpha-grid", "0.2:0.6:0.4",
                       "--beta-grid", "0.4:0.75:0.35",
                       "--delta-grid", "0.5:0.5:1", "--out", out)
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0].startswith("alpha,beta,delta")
        cells = [tuple(float(v) for v in ln.split(",")[:2]) for ln in lines[1:]]
        assert all(a <= b for a, b in cells)          # alpha > beta omitted
        assert (0.2, 0.4) in cells and (0.6, 0.75) in cells

    def test_v5_scan_table_is_byte_identical(self, tmp_path):
        out = str(tmp_path / "scan.csv")
        assert run_cli("scan", "--n-max", "150", "--seeds", "1..3",
                       "--alpha-grid", "0.1:0.7:0.3", "--beta-grid", "0.4:0.8:0.2",
                       "--delta-grid", "0.3:0.9:0.3", "--out", out) == 0
        with open(os.path.join(DATA, "v5_scan_uniform_n150_seeds1-3.csv"), "rb") as a, \
                open(out, "rb") as b:
            assert a.read() == b.read()

    def test_single_cell(self, tmp_path):
        out = str(tmp_path / "one.csv")
        code = run_cli("scan", "--truth", "uniform", "--n-max", "12",
                       "--seeds", "1", "--alpha-grid", "0.6:0.6:1",
                       "--beta-grid", "0.75:0.75:1", "--out", out)
        assert code == 0
        assert len(open(out).read().strip().splitlines()) == 2

    def test_empty_band_grid_exits_2(self, tmp_path):
        code = run_cli("scan", "--truth", "uniform", "--n-max", "12",
                       "--seeds", "1", "--alpha-grid", "0.8:0.8:1",
                       "--beta-grid", "0.3:0.3:1",
                       "--out", str(tmp_path / "no.csv"))
        assert code == 2

    def test_negative_jobs_exits_2(self, tmp_path, capsys):
        out = tmp_path / "neg.csv"
        code = run_cli("scan", "--truth", "uniform", "--n-max", "12",
                       "--seeds", "1,2", "--alpha-grid", "0.6:0.6:1",
                       "--beta-grid", "0.75:0.75:1", "--jobs", "-4",
                       "--out", str(out))
        assert code == 2
        assert "parallelism" in capsys.readouterr().err
        assert not out.exists()


class TestPlotCommand:
    @pytest.fixture()
    def traj_csv(self, tmp_path):
        out = str(tmp_path / "base")
        assert run_cli("traj", "--truth", "uniform", "--n-max", "30",
                       "--seed", "1", "--out", out) == 0
        return out + ".csv"

    def test_refline_and_band(self, traj_csv, tmp_path):
        svg_path = str(tmp_path / "p.svg")
        code = run_cli("plot", "--input", traj_csv, "--columns",
                       "band_prior_exponent", "--refline", "0.693147",
                       "--out", svg_path)
        assert code == 0
        svg = open(svg_path).read()
        assert "stroke-dasharray" in svg            # the reference line
        assert "y=0.693147" in svg

    def test_two_series_two_polylines(self, traj_csv, tmp_path):
        svg_path = str(tmp_path / "p2.svg")
        code = run_cli("plot", "--input", traj_csv, "--columns",
                       "mass_fstep,mass_f0", "--out", svg_path)
        assert code == 0
        svg = open(svg_path).read()
        assert len(re.findall(r"<polyline ", svg)) == 2
        assert len(re.findall(r"<polygon ", svg)) == 2   # two bracket bands

    def test_missing_column_exits_2_and_names_it(self, traj_csv, tmp_path, capsys):
        code = run_cli("plot", "--input", traj_csv, "--columns", "zzz_missing",
                       "--out", str(tmp_path / "x.svg"))
        assert code == 2
        assert "zzz_missing" in capsys.readouterr().err

    def test_deterministic_output(self, traj_csv, tmp_path):
        a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        for path in (a, b):
            assert run_cli("plot", "--input", traj_csv, "--columns",
                           "gamma_stat", "--out", path) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_empty_trajectory_exits_2(self, tmp_path):
        prefix = str(tmp_path / "empty")
        with open(prefix + ".csv", "w") as fh:
            fh.write("n,gamma_stat.lower,gamma_stat.upper\n")
        side = {"config": {"truth": {"kind": "uniform"}, "n_max": 1},
                "seed": 1, "grid": [],
                "columns": ["n", "gamma_stat.lower", "gamma_stat.upper"],
                "version": 1}
        with open(prefix + ".json", "w") as fh:
            json.dump(side, fh)
        code = run_cli("plot", "--input", prefix + ".csv", "--columns",
                       "gamma_stat", "--out", str(tmp_path / "e.svg"))
        assert code == 2


class TestNumericFailureExit:
    def test_numeric_failure_exits_3(self, monkeypatch, tmp_path, capsys):
        import posterior_lab.cli as cli

        def boom(cfg, seed):
            raise RuntimeError("synthetic numeric failure")

        monkeypatch.setattr(cli, "run_trajectory", boom)
        code = run_cli("traj", "--truth", "uniform", "--n-max", "5",
                       "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_invalid_bracket_exits_3(self, monkeypatch, tmp_path, capsys):
        from posterior_lab.barron import StepState
        from posterior_lab.intervals import LogBracket

        monkeypatch.setattr(StepState, "tail", property(lambda self: LogBracket(0.0, -1.0)))
        code = run_cli("traj", "--truth", "uniform", "--n-max", "5",
                       "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 3
        assert "invalid bracket" in capsys.readouterr().err

    def test_nonfinite_quadrature_value_exits_3(self, monkeypatch, tmp_path, capsys):
        from posterior_lab import barron
        from posterior_lab.numerics import adaptive_quadrature, kronrod_nodes

        def nan_integral(self, lo, hi):
            return adaptive_quadrature(
                lambda c, h: np.full_like(kronrod_nodes(c, h), math.nan), lo, hi,
                self.quad_tol)

        monkeypatch.setattr(barron.PosteriorTheta, "_integral", nan_integral)
        code = run_cli("traj", "--truth", "uniform", "--n-max", "5",
                       "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 3
        assert "non-finite log value" in capsys.readouterr().err

    def test_nonfinite_cosine_likelihood_exits_3(self, monkeypatch, tmp_path, capsys):
        # a program fault, not a recorded gap of the trajectory
        from posterior_lab import cosine

        monkeypatch.setattr(cosine, "_panel_loglik",
                            lambda c, h, data: np.full((c.size, 15), math.nan))
        code = run_cli("traj", "--model", "cosine", "--n-max", "3",
                       "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 3
        assert "non-finite log value" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "x.csv"))


class TestConfigErrorExit:
    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"truth": {"kind": "uniform"}, "n_max": 0}))
        code = run_cli("traj", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "x"))
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [
        ("--n-max", "n_max"), ("--grid-ratio", "grid_ratio"),
        ("--quad-tol", "quad_tol")])
    def test_zero_flag_exits_2_naming_the_field(self, tmp_path, capsys, flag, field):
        code = run_cli("traj", "--truth", "uniform", "--n-max", "5", flag, "0",
                       "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 2
        assert field in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "x.csv"))

    def test_nonpositive_tau_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 5, "diagnostics": {"tau": -1}}))
        code = run_cli("traj", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "x"))
        assert code == 2
        assert "tau must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("predictive_grid", -5), ("epsilons", [0.0]), ("betas", [-1.0]),
        ("cosine_regions", [[-1, 2]])])
    def test_bad_diagnostic_setting_exits_2_before_sampling(
            self, monkeypatch, tmp_path, capsys, key, value):
        import posterior_lab.cli as cli

        runs = []
        monkeypatch.setattr(cli, "run_trajectory", lambda *a: runs.append(a))
        # the cosine model's regions sit at the top of the config, and a
        # Barron run rejects a bad one too
        section = "config" if key == "cosine_regions" else "diagnostics"
        body = {key: value} if section == "config" else {section: {key: value}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 3, **body}))
        code = run_cli("traj", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert section in err and key in err
        assert runs == []
        assert not os.path.exists(str(tmp_path / "x.csv"))

    def test_one_ulp_dataset_exits_2_without_allocating(self, tmp_path, capsys):
        # two points one ulp apart are past the resolution of the cell map,
        # and their separating level is about 2^31: the engine must refuse
        # them before it sizes anything by that level
        data = tmp_path / "pair.csv"
        data.write_text("0.001\n0.0010000000000000002\n")
        tracemalloc.start()
        try:
            code = run_cli("traj", "--truth", f"file:{data}", "--n-max", "2",
                           "--out", str(tmp_path / "x"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "2^-52" in capsys.readouterr().err
        assert peak < 2 ** 24
        assert not os.path.exists(str(tmp_path / "x.csv"))

    def test_one_ulp_predictive_exits_2_without_allocating(self, tmp_path, capsys):
        # the predictive grid point 0.375 is one ulp off the first data
        # point; format v7 retired the grid, so a config that turns it on is
        # refused as a retired key before any data is read
        data = tmp_path / "pair.csv"
        data.write_text("0.37500000000000006\n0.9\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 2,
                                   "truth": {"kind": "external", "path": str(data)},
                                   "diagnostics": {"predictive_grid": 4}}))
        tracemalloc.start()
        try:
            code = run_cli("traj", "--config", str(cfg), "--seed", "1",
                           "--out", str(tmp_path / "x"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "diagnostics.predictive_grid" in capsys.readouterr().err
        assert peak < 2 ** 24
        assert not os.path.exists(str(tmp_path / "x.csv"))

    # a path the user named that the file system refuses: the config is a
    # directory, a regular file sits where an output directory goes, and
    # the replicate output directory is a regular file; each is refused
    # before any run, and nothing is created
    @pytest.mark.parametrize("argv", [
        ("traj", "--n-max", "3", "--config", "{tmp}", "--out", "{tmp}/x"),
        ("traj", "--n-max", "3", "--out", "{tmp}/f/x"),
        ("replicate", "--n-max", "3", "--seeds", "1..2", "--out-dir", "{tmp}/f"),
        ("scan", "--n-max", "3", "--seeds", "1..2", "--alpha-grid", "0.1:0.1:0.1",
         "--beta-grid", "0.4:0.4:0.1", "--out", "{tmp}/f/s.csv"),
        ("plot", "--input", "{tmp}/x.csv", "--columns", "w_n", "--out", "{tmp}/f/x.svg")])
    def test_file_system_error_exits_2(self, monkeypatch, tmp_path, capsys, argv):
        import posterior_lab.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")

        for name in ("run_trajectory", "run_replications", "load_trajectory"):
            monkeypatch.setattr(cli, name, never)
        (tmp_path / "f").write_text("")
        assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(tmp_path) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]

    @pytest.mark.parametrize("model", ["barron", "cosine"])
    def test_continuous_weight_out_of_range_exits_2_before_sampling(
            self, monkeypatch, tmp_path, capsys, model):
        from posterior_lab.harness import TruthSpec

        def never(*args):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(TruthSpec, "sample", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model, "n_max": 3, "continuous_weight": 2.0}))
        code = run_cli("traj", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "x"))
        assert code == 2
        assert "continuous_weight" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "x.csv"))

    def test_os_error_without_a_path_is_not_a_config_error(self, monkeypatch, tmp_path):
        # a failed fork names no file: it is raised, not reported as input
        import posterior_lab.cli as cli

        def fail(*args):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(cli, "run_trajectory", fail)
        with pytest.raises(BlockingIOError):
            run_cli("traj", "--n-max", "3", "--out", str(tmp_path / "x"))

    # each edit corrupts the second data row, which is line 3 of the CSV;
    # with that row dropped, the file ends one row short of the sidecar's grid
    @pytest.mark.parametrize("edit, where", [
        (lambda row: ["not-a-number" + row[row.index(","):]], "line 3:"),
        (lambda row: [row.rsplit(",", 3)[0]], "line 3: 23 values for 26 columns"),
        (lambda row: [row + ",0.5"], "line 3: 27 values for 26 columns"),
        (lambda row: [], "ends at line 11 after 10 rows"),
    ], ids=["not-a-number", "short-line", "long-line", "dropped-row"])
    def test_corrupted_plot_input_exits_2(self, tmp_path, capsys, edit, where):
        out = str(tmp_path / "base")
        assert run_cli("traj", "--truth", "uniform", "--n-max", "12",
                       "--seed", "1", "--out", out) == 0
        lines = open(out + ".csv").read().splitlines()
        assert len(lines[2].split(",")) == 26 and len(lines) == 12
        lines[2:3] = edit(lines[2])
        with open(out + ".csv", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code = run_cli("plot", "--input", out + ".csv", "--columns", "mass_fstep",
                       "--out", str(tmp_path / "p.svg"))
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and where in err
        assert not os.path.exists(tmp_path / "p.svg")

    # adding the step never passes b: to inf or from -inf it runs on
    # forever, 1e-300 leaves 0.1 where it is, and 9e-13 takes 10^11 steps.
    # The child runs under a 1 GiB address-space limit and a timeout, so a
    # grid that grows without end fails the test instead of filling the
    # machine
    @pytest.mark.parametrize("grid", ["0.1:inf:0.1", "0.1:0.2:1e-300",
                                      "-inf:0.2:0.1", "0.1:0.2:9e-13"])
    def test_endless_scan_grid_exits_2_at_once(self, tmp_path, grid):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        out = tmp_path / "s.csv"
        argv = ["scan", "--n-max", "5", "--seeds", "1", f"--alpha-grid={grid}",
                "--beta-grid", "0.6:0.6:0.1", "--out", str(out)]
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                  "from posterior_lab.cli import main\n"
                  f"sys.exit(main({argv!r}))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=10, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2, proc.stderr
        assert f"bad grid {grid!r}" in proc.stderr
        assert not out.exists()

    def test_a_nan_grid_part_is_refused(self):
        # it failed every comparison, so the grid came out empty
        from posterior_lab.cli import ConfigError
        for bad in ("nan:0.2:0.1", "0.1:nan:0.1", "0.1:0.2:nan"):
            with pytest.raises(ConfigError, match="bad grid"):
                parse_grid(bad)
        assert parse_grid("0.1:0.1:1e-12") == [0.1]

    # stems print values with :g, six significant digits, so each pair would
    # write one column that holds the values of whichever was computed last
    @pytest.mark.parametrize("body, names", [
        ({"diagnostics": {"epsilons": [0.5, 0.5000001]}},
         ["diagnostics.epsilons", "0.5", "0.5000001"]),
        ({"model": "cosine", "cosine_regions": [[5, 10], [5.0000001, 10]]},
         ["cosine_regions", "(5.0, 10.0)", "(5.0000001, 10.0)"])], ids=["eps", "region"])
    def test_colliding_column_stems_exit_2_before_sampling(
            self, monkeypatch, tmp_path, capsys, body, names):
        from posterior_lab.harness import TruthSpec

        def never(*args):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(TruthSpec, "sample", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 5, **body}))
        code = run_cli("traj", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names) and "column stem" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_colliding_scan_bands_exit_2_before_running(self, monkeypatch, tmp_path, capsys):
        import posterior_lab.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("ran before the bands were checked")

        monkeypatch.setattr(cli, "run_replications", never)
        code = run_cli("scan", "--n-max", "20", "--seeds", "1",
                       "--alpha-grid", "0.1:0.1000002:0.0000001",
                       "--beta-grid", "0.6:0.6:0.1", "--out", str(tmp_path / "s.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "alpha=0.1," in err and "alpha=0.1000001," in err and "'0.1_0.6'" in err
        assert list(tmp_path.iterdir()) == []


# modules a process need not load to run one trajectory: OpenSSL's hash
# module (the sidecar digest uses CPython's built-in SHA-256, so no process
# loads OpenSSL), the process pool and the SVG renderer
HEAVY = ("_hashlib", "multiprocessing", "concurrent.futures",
         "posterior_lab.svgplot")


def loaded_in_fresh_process(code):
    """The HEAVY modules loaded after ``code`` runs in a fresh interpreter
    (with ``cli`` imported from this checkout)."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    script = ("import sys\nimport posterior_lab.cli as cli\n" + code +
              f"\nprint(','.join(m for m in {HEAVY!r} if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", script], check=True, text=True,
                         capture_output=True, env=dict(os.environ, PYTHONPATH=src))
    last = out.stdout.split("\n")[-2]  # the line the script prints last
    return set(filter(None, last.split(",")))


class TestLeanProcesses:
    def test_parsing_a_traj_loads_none_of_the_heavy_modules(self):
        code = "cli.build_parser().parse_args(['traj', '--n-max', '20', '--out', 'x'])"
        assert loaded_in_fresh_process(code) == set()

    def test_traj_loads_no_pool_and_no_plotting(self, tmp_path):
        out = str(tmp_path / "t")
        code = f"assert cli.main(['traj', '--n-max', '20', '--out', {out!r}]) == 0"
        assert loaded_in_fresh_process(code) == set()

    def test_replicate_forks_without_pool_machinery(self, tmp_path):
        out = str(tmp_path / "r")
        code = ("assert cli.main(['replicate', '--n-max', '20', '--seeds', '1,2', "
                f"'--jobs', '2', '--out-dir', {out!r}]) == 0")
        assert loaded_in_fresh_process(code) == set()
