"""CLI tests: exit-code contract (0 ok / 2 config / 3 numeric), replay via
--config, byte-identical outputs across --jobs, scan table shape, and
structural checks on the emitted SVG."""

import json
import math
import os
import re

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


DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(*argv):
    return main(list(argv))


def read_csv_cells(path):
    """The rows of a trajectory CSV as {column: cell text}."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]


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
        for bad in ("gauss:1.5", "gauss:x", "step:2", "step:2:0,1", "whatever"):
            with pytest.raises(ConfigError):
                parse_truth(bad)

    def test_seeds(self):
        assert parse_seeds("1..4") == (1, 2, 3, 4)
        assert parse_seeds("5,2,9") == (5, 2, 9)

    def test_grid(self):
        assert parse_grid("0.2:0.6:0.2") == [0.2, 0.4, 0.6]


class TestTrajCommand:
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
        # took the tilt mass as 1 - fstep; v3 replays it with a sharper step
        # bracket inside the stored one
        v1 = os.path.join(DATA, "v1_uniform_n60_seed3")
        out = str(tmp_path / "replay")
        assert run_cli("traj", "--config", v1 + ".json", "--out", out) == 0
        with open(out + ".json") as fh:
            side = json.load(fh)
        assert side["version"] == 3 and "trunc_multiplier" not in side["config"]
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

    def test_v3_sidecar_replays_byte_identical(self, tmp_path):
        golden = os.path.join(DATA, "v3_uniform_n60_seed3")
        out = str(tmp_path / "replay")
        assert run_cli("traj", "--config", golden + ".json", "--out", out) == 0
        for ext in (".csv", ".json"):
            with open(golden + ext, "rb") as a, open(out + ext, "rb") as b:
                assert a.read() == b.read(), ext

    def test_v2_cosine_sidecar_replays_byte_identical(self, tmp_path):
        # the cosine output did not change with v3: the same CSV bytes, and
        # the same sidecar but for its version
        golden = os.path.join(DATA, "v2_cosine_n40_seed1")
        out = str(tmp_path / "replay")
        assert run_cli("traj", "--config", golden + ".json", "--out", out) == 0
        with open(golden + ".csv", "rb") as a, open(out + ".csv", "rb") as b:
            assert a.read() == b.read()
        with open(golden + ".json") as a, open(out + ".json") as b:
            was, now = json.load(a), json.load(b)
        assert (was.pop("version"), now.pop("version")) == (2, 3)
        assert was == now

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
                                            ("trunc_level", 3)])
    def test_unsupported_sidecar_key_exits_2(self, tmp_path, capsys, key, value):
        with open(os.path.join(DATA, "v1_uniform_n60_seed3.json")) as fh:
            side = json.load(fh)
        side["config"][key] = value
        cfg = tmp_path / "side.json"
        cfg.write_text(json.dumps(side))
        code = run_cli("traj", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("spec, scale", [("half_cauchy", 1.0),
                                             ("half_cauchy:2.5", 2.5)])
    def test_cosine_prior_parameter(self, spec, scale):
        args = build_parser().parse_args(
            ["traj", "--model", "cosine", "--cosine-prior", spec, "--out", "x"])
        prior = _config_from_args(args)[0].cosine_prior
        assert prior == CosinePriorConfig(kind="half_cauchy", scale=scale)

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
        from posterior_lab.barron import BarronEngine
        from posterior_lab.intervals import LogBracket

        monkeypatch.setattr(BarronEngine, "_tail",
                            lambda self, *args, **kwargs: LogBracket(0.0, -1.0))
        code = run_cli("traj", "--truth", "uniform", "--n-max", "5",
                       "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 3
        assert "invalid bracket" in capsys.readouterr().err

    def test_nonfinite_quadrature_value_exits_3(self, monkeypatch, tmp_path, capsys):
        from posterior_lab import barron
        from posterior_lab.numerics import adaptive_quadrature

        def nan_integral(n, s, tol, lo=0.0, hi=1.0):
            return adaptive_quadrature(lambda u: math.nan, lo, hi, tol)

        monkeypatch.setattr(barron, "_tilt_integral", nan_integral)
        code = run_cli("traj", "--truth", "uniform", "--n-max", "5",
                       "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 3
        assert "non-finite log value" in capsys.readouterr().err


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
        ("predictive_grid", -5), ("epsilons", [0.0]), ("betas", [-1.0])])
    def test_bad_diagnostic_setting_exits_2_before_sampling(
            self, monkeypatch, tmp_path, capsys, key, value):
        import posterior_lab.cli as cli

        runs = []
        monkeypatch.setattr(cli, "run_trajectory", lambda *a: runs.append(a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 3, "diagnostics": {key: value}}))
        code = run_cli("traj", "--config", str(cfg), "--seed", "1",
                       "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert "diagnostics" in err and key in err
        assert runs == []
        assert not os.path.exists(str(tmp_path / "x.csv"))

    def test_corrupted_plot_input_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "base")
        assert run_cli("traj", "--truth", "uniform", "--n-max", "12",
                       "--seed", "1", "--out", out) == 0
        lines = open(out + ".csv").read().splitlines()
        lines[2] = "not-a-number" + lines[2][lines[2].index(","):]
        with open(out + ".csv", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code = run_cli("plot", "--input", out + ".csv", "--columns", "mass_fstep",
                       "--out", str(tmp_path / "p.svg"))
        assert code == 2
        assert "config error" in capsys.readouterr().err
