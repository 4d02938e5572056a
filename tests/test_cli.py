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
from goldens import GOLDENS
from posterior_lab.cli import (
    _config_from_args,
    build_parser,
    main,
    parse_grid,
    parse_seeds,
    parse_truth,
)
from posterior_lab.cosine import CosinePriorConfig
from posterior_lab.harness import _RETIRED_KEYS, FORMAT_VERSION, RunConfig


DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(*argv):
    return main(list(argv))


def read_csv_cells(path):
    """The rows of a trajectory CSV as {column: cell text}."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]


def sidecar_quad_tol(stem):
    with open(stem + ".json") as fh:
        return json.load(fh)["config"]["quad_tol"]


def assert_replay_nests(old, new, slack):
    """Each bracket of the replay's rows ``new`` lies inside the stored one
    of ``old``, on the same grid, up to ``slack``: relative for masses,
    absolute for ln evidence.  A bracket is a quadrature error estimate, so a
    changed quadrature nests only up to 2 quad_tol.  A replicate summary's
    cells (min, median or max over the seeds of a bracket's end) nest the
    same way, as each seed's brackets do."""
    assert [r["n"] for r in old] == [r["n"] for r in new]
    for was, now in zip(old, new):
        for col in (c for c in was if ".lower" in c):
            up = col.replace(".lower", ".upper")
            lo, hi, new_lo, new_hi = (float(r[c]) for r in (was, now) for c in (col, up))
            if col.startswith("log_evidence"):
                assert lo - slack <= new_lo <= new_hi <= hi + slack, (was["n"], col)
            else:
                assert lo * (1 - slack) <= new_lo <= new_hi <= hi * (1 + slack), \
                    (was["n"], col)


def assert_bracket_free_columns_keep(old, new):
    """The columns without a bracket keep their bytes, all but the band prior
    exponent, which reads the midpoint of the step bracket: that midpoint
    lies inside the stored bracket, so the exponent moves by at most half
    the stored step width over n (the step bracket enclosed here by fstep
    times the evidence); a summary cell, by an ulp or two."""
    for was, now in zip(old, new):
        for col in was:
            if ".lower" in col or ".upper" in col or was[col] == now[col]:
                continue
            assert col.startswith("band_prior_exponent"), (was["n"], col, was[col], now[col])
            bound = 1e-15
            if "mass_fstep.lower" in was:
                step = [math.log(float(was["mass_fstep" + e])) + float(was["log_evidence" + e])
                        for e in (".lower", ".upper")]
                bound += 0.5 * (step[1] - step[0]) / int(was["n"])
            assert abs(float(now[col]) - float(was[col])) <= bound, (was["n"], col)


def assert_sidecars_differ_in_version(golden, out, version):
    """The two sidecars are equal but for their versions, ``version`` and
    the newest, and the retired keys the stored one carries, each at the one
    value it replays, with the config hash they were part of."""
    with open(golden + ".json") as a, open(out + ".json") as b:
        was, now = json.load(a), json.load(b)
    assert (was.pop("version"), now.pop("version")) == (version, FORMAT_VERSION)
    retired = False
    for path, value in _RETIRED_KEYS.items():
        *parents, key = path.split(".")
        node = was["config"]
        for p in parents:
            node = node[p]
        if key in node:
            assert node.pop(key) == value, path
            retired = True
    if retired:
        assert was.pop("config_hash") != now.pop("config_hash")
    assert was == now


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def golden_cases():
    for g in GOLDENS:
        if g.command:
            yield from (pytest.param(g, jobs, id=f"{g.name}-jobs{jobs}") for jobs in g.jobs)
        else:
            yield from (pytest.param(g, v, id=f"v{v}_{g.name}") for v in g.versions()
                        if v < FORMAT_VERSION)


# each golden set keeps the rule tests/goldens.py states for it: the gauss
# run's bands and betas hold tilt members, so it reads the tilt side of the
# band mass, the band prior exponent and the beta bound; the decimal run's
# dataset decimal.csv (0.3, 0.305, 0.9, read from the working directory)
# puts 0.3 just below a level-5 cell boundary; the step run's truth
# log-likelihood (step:2:0,3,5,7) sets its gamma columns; the cosine run at
# n = 640 reaches past its head and shares panels between pieces; a
# replicate summary with four seeds has every median cell the mean of two
@pytest.mark.parametrize("golden, arg", golden_cases())
def test_golden_replays_by_its_rule(tmp_path, monkeypatch, golden, arg):
    (tmp_path / "decimal.csv").write_text("0.3\n0.305\n0.9\n")
    monkeypatch.chdir(tmp_path)
    if golden.command:
        assert run_cli(*golden.command.split(), "--jobs", str(arg), "--out-dir", "r") == 0
        out, stored, tol = os.path.join("r", "summary"), golden.versions(), RunConfig().quad_tol
    else:
        assert run_cli("traj", "--config", golden.pin(arg) + ".json", "--out", "r") == 0
        out, stored, tol = "r", [arg], sidecar_quad_tol(golden.pin(arg))
        assert_sidecars_differ_in_version(golden.pin(arg), out, arg)
    if golden.same_since is not None:
        for ext in (".csv", ".json"):
            assert read_bytes(golden.pin(FORMAT_VERSION) + ext) == read_bytes(out + ext), ext
    new = read_csv_cells(out + ".csv")
    for version in stored:
        pin = golden.pin(version)
        if golden.same_since is not None and version >= golden.same_since:
            assert read_bytes(pin + ".csv") == read_bytes(out + ".csv"), version
        old = read_csv_cells(pin + ".csv")
        assert_replay_nests(old, new, golden.slack * tol)
        assert_bracket_free_columns_keep(old, new)


# v10 cut each Hellinger region at its own crossings, one query per eps
# where v9 took a pair of 0.02-grid envelopes: only the hellinger_mass_*
# cells of a cosine pin moved, and at n = 640 each of them is a sharp
# bracket wherever the region's mass is above 0
@pytest.mark.parametrize("name", [g.name for g in GOLDENS if g.model == "cosine"
                                  and g.same_since is not None])
def test_v10_moved_only_the_hellinger_columns(name):
    old, new = (read_csv_cells(os.path.join(DATA, f"v{v}_{name}.csv")) for v in (9, 10))
    assert [list(r) for r in old] == [list(r) for r in new]
    moved = {c for was, now in zip(old, new) for c in was if was[c] != now[c]}
    assert moved and all(c.startswith("hellinger_mass_") for c in moved)
    with open(os.path.join(DATA, f"v9_{name}.json")) as a, \
            open(os.path.join(DATA, f"v10_{name}.json")) as b:
        was, now = json.load(a), json.load(b)
    # a trajectory sidecar names its version; a replicate summary does not
    assert (was.pop("version", 9), now.pop("version", 10)) == (9, 10)
    assert was == now


def test_v10_hellinger_brackets_are_sharp():
    rows = read_csv_cells(os.path.join(DATA, "v10_cosine_n640_seed3.csv"))
    sharp = [(float(r["hellinger_mass_0.5.lower"]), float(r["hellinger_mass_0.5.upper"]))
             for r in rows]
    assert all(lo > 0.0 and hi - lo <= 1e-6 * lo for lo, hi in sharp)


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
        assert side["version"] == FORMAT_VERSION and "trunc_multiplier" not in side["config"]
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
        old, new = read_csv_cells(golden + ".csv"), read_csv_cells(out + ".csv")
        assert_replay_nests(old, new, 2.0 * sidecar_quad_tol(golden))
        assert_bracket_free_columns_keep(old, new)
        assert_sidecars_differ_in_version(golden, out, 3)

    # v8 and v9 moved the cosine bits, by rounding and by the head and the
    # reach: each cosine run at n = 640 replays with every bracket inside its
    # own stored one up to 2 quad_tol, and a sidecar equal but for its version
    @pytest.mark.parametrize("name", ["v6_cosine_n640_seed3", "v7_cosine_n640_seed3",
                                      "v8_cosine_n640_seed3"])
    def test_cosine_sidecar_replays_inside_its_brackets(self, tmp_path, name):
        golden = os.path.join(DATA, name)
        out = str(tmp_path / "replay")
        assert run_cli("traj", "--config", golden + ".json", "--out", out) == 0
        old, new = read_csv_cells(golden + ".csv"), read_csv_cells(out + ".csv")
        assert_replay_nests(old, new, 2.0 * sidecar_quad_tol(golden))
        assert_sidecars_differ_in_version(golden, out, int(name[1]))

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

    # bytes that plot wrote before svgplot kept one point rule; the first
    # chart holds bands, a plain column, a prefix-matched column, a log x
    # axis, a reference line and a title to escape, the second two inputs,
    # seed labels and a log y axis over 225 decades
    @pytest.mark.parametrize("pin, argv", [
        ("plot_uniform_n60_seed3",
         ("--input", "v10_uniform_n60_seed3.csv",
          "--columns", "mass_fstep,w_n,band_prior_exponent", "--log-x",
          "--refline", "0.693147", "--title", "uniform n<60> & seed 3")),
        ("plot_hellinger_two_inputs",
         ("--input", "v10_uniform_n8000_seed65.csv", "v10_cosine_n640_seed3.csv",
          "--columns", "hellinger_mass_0.5", "--log-y")),
    ])
    def test_svg_bytes_are_pinned(self, tmp_path, monkeypatch, pin, argv):
        monkeypatch.chdir(DATA)
        out = tmp_path / "p.svg"
        assert run_cli("plot", *argv, "--out", str(out)) == 0
        assert out.read_bytes() == read_bytes(os.path.join(DATA, pin + ".svg"))

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

        monkeypatch.setattr(cosine, "panel_loglik",
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

    def test_a_csv_header_other_than_the_sidecar_columns_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "base")
        assert run_cli("traj", "--n-max", "4", "--seed", "1", "--out", out) == 0
        with open(out + ".csv") as fh:
            text = fh.read()
        assert ",w_n," in text.splitlines()[0]
        with open(out + ".csv", "w") as fh:
            fh.write(text.replace(",w_n,", ",w_m,", 1))
        code = run_cli("plot", "--input", out + ".csv", "--columns", "mass_fstep",
                       "--out", str(tmp_path / "p.svg"))
        assert code == 2
        assert (f"config error: {out}.csv: the header does not match the sidecar's "
                "columns") in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "p.svg")

    @staticmethod
    def _without(key):
        return lambda side: {k: v for k, v in side.items() if k != key}

    @staticmethod
    def _read_back(command, out, tmp_path):
        """The exit code of plot on ``out``.csv or of traj --config ``out``.json."""
        if command == "plot":
            return run_cli("plot", "--input", out + ".csv", "--columns", "mass_fstep",
                           "--out", str(tmp_path / "p.svg"))
        return run_cli("traj", "--config", out + ".json", "--out", str(tmp_path / "x"))

    @pytest.mark.parametrize("edit, where", [
        (lambda side: [side], "expected a sidecar object, got list"),
        (_without("config"), "the sidecar has no 'config'"),
        (_without("columns"), "the sidecar has no 'columns'"),
        (_without("grid"), "the sidecar has no 'grid'"),
        (_without("seed"), "the sidecar has no 'seed'"),
        (lambda side: {**side, "seed": 1.0}, "seed must be an integer, got 1.0"),
        (lambda side: {**side, "grid": 3}, "grid must be a list, got 3"),
    ], ids=["list", "no-config", "no-columns", "no-grid", "no-seed", "float-seed",
            "grid-not-list"])
    def test_malformed_plot_sidecar_exits_2(self, tmp_path, capsys, edit, where):
        out = str(tmp_path / "base")
        assert run_cli("traj", "--n-max", "4", "--seed", "1", "--out", out) == 0
        with open(out + ".json") as fh:
            side = edit(json.load(fh))
        with open(out + ".json", "w") as fh:
            json.dump(side, fh)
        code = run_cli("plot", "--input", out + ".csv", "--columns", "mass_fstep",
                       "--out", str(tmp_path / "p.svg"))
        assert code == 2
        assert f"config error: {out}.json: {where}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "p.svg")

    # plot and traj --config read a sidecar through one check: errors [5]
    # made plot exit 1 (TypeError), [["x", "m"]] and [[1]] exit 2 without
    # naming the file, and {} and every version ran, unchecked
    @pytest.mark.parametrize("key, value", [
        ("errors", [5]), ("errors", [["x", "m"]]), ("errors", [[1]]), ("errors", {}),
        ("version", FORMAT_VERSION + 1), ("version", str(FORMAT_VERSION)), ("version", 0)])
    @pytest.mark.parametrize("command", ["plot", "traj"])
    def test_a_sidecar_key_at_fault_exits_2(self, tmp_path, capsys, command, key, value):
        out = str(tmp_path / "base")
        assert run_cli("traj", "--n-max", "4", "--seed", "1", "--out", out) == 0
        with open(out + ".json") as fh:
            side = json.load(fh)
        side[key] = value
        with open(out + ".json", "w") as fh:
            json.dump(side, fh)
        written = sorted(os.listdir(tmp_path))
        assert self._read_back(command, out, tmp_path) == 2
        assert f"config error: {out}.json: {key} must be " in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == written

    # a sidecar's seed is an integer, as in RunConfig.seeds: null and [1]
    # raised TypeError (exit 1), and 1.7 and true ran seed 1
    @pytest.mark.parametrize("seed", [None, [1], 1.7, True, "1"])
    def test_a_sidecar_seed_that_is_not_an_integer_exits_2(self, tmp_path, capsys, seed):
        out = str(tmp_path / "base")
        assert run_cli("traj", "--n-max", "4", "--seed", "1", "--out", out) == 0
        with open(out + ".json") as fh:
            side = json.load(fh)
        side["seed"] = seed
        cfg = tmp_path / "side.json"
        cfg.write_text(json.dumps(side))
        code = run_cli("traj", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert code == 2
        assert f"{cfg}: seed must be an integer, got {seed!r}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x.csv")

    # a config at fault, or a file that is not JSON, named no file
    @pytest.mark.parametrize("command, edit, where", [
        ("traj", lambda side: {"n_max": "x"}, "n_max: expected int, got 'x'"),
        *((command, lambda side: {**side, "config": {**side["config"], "quad_tol": "x"}},
           "quad_tol: expected float, got 'x'") for command in ("plot", "traj")),
        *((command, lambda side: {**side, "config": "oops"},
           "config: expected an object, got 'oops'") for command in ("plot", "traj")),
        *((command, lambda side: json.dumps(side)[:-1], "Expecting ',' delimiter")
          for command in ("plot", "traj")),
    ], ids=["traj-bare-n_max", "plot-quad_tol", "traj-quad_tol", "plot-config",
            "traj-config", "plot-not-json", "traj-not-json"])
    def test_a_config_at_fault_names_its_file(self, tmp_path, capsys, command, edit, where):
        out = str(tmp_path / "base")
        assert run_cli("traj", "--n-max", "4", "--seed", "1", "--out", out) == 0
        with open(out + ".json") as fh:
            side = edit(json.load(fh))
        with open(out + ".json", "w") as fh:
            fh.write(side if isinstance(side, str) else json.dumps(side))
        written = sorted(os.listdir(tmp_path))
        assert self._read_back(command, out, tmp_path) == 2
        assert f"config error: {out}.json: {where}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == written

    # a list key at fault was quoted whole, and no entry was named
    @pytest.mark.parametrize("command", ["plot", "traj"])
    def test_a_list_key_names_its_first_entry_at_fault(self, tmp_path, capsys, command):
        out = str(tmp_path / "base")
        assert run_cli("traj", "--n-max", "4", "--seed", "1", "--out", out) == 0
        with open(out + ".json") as fh:
            side = json.load(fh)
        side["grid"] = list(range(1, 8001))
        side["grid"][4000] = side["grid"][6000] = "a"
        with open(out + ".json", "w") as fh:
            json.dump(side, fh)
        assert self._read_back(command, out, tmp_path) == 2
        err = capsys.readouterr().err.strip()
        assert err == (f"config error: {out}.json: grid must be a list of integers, "
                       "got 'a' at grid[4000]")
        assert len(err) - len(out) < 200
        assert not {"p.svg", "x.csv"} & set(os.listdir(tmp_path))

    # an inverted bracket made plot exit 3 ("invalid bracket [0.9, 0.1]")
    # without naming the file or the column; a NaN end is a gap and loads
    def test_an_inverted_bracket_in_a_csv_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "base")
        assert run_cli("traj", "--n-max", "4", "--seed", "1", "--out", out) == 0
        lines = open(out + ".csv").read().splitlines()
        col = lines[0].split(",").index("mass_fstep.lower")
        rows = [line.split(",") for line in lines]
        rows[1][col] = "nan"
        rows[2][col:col + 2] = rows[2][col + 1], rows[2][col]
        assert float(rows[2][col]) > float(rows[2][col + 1])
        with open(out + ".csv", "w") as fh:
            fh.write("\n".join(",".join(r) for r in rows) + "\n")
        code = run_cli("plot", "--input", out + ".csv", "--columns", "mass_fstep",
                       "--out", str(tmp_path / "p.svg"))
        assert code == 2
        assert (f"config error: {out}.csv line 3: mass_fstep's lower end is above its "
                "upper end") in capsys.readouterr().err
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
