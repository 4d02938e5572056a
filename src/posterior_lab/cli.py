"""Command-line driver: run trajectories and replications, scan band grids
for excursion frequencies, and export SVG plots.

Exit codes: 0 success, 2 usage/config error, 3 numeric failure.  Log
verbosity comes from the POSTERIOR_LAB_LOG environment variable
(DEBUG/INFO/WARNING/ERROR).
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import math
import os
import sys
from dataclasses import replace

from .cosine import PRIOR_PARAMS, CosinePriorConfig
from .diagnostics import BandSpec, excursion_count
from .harness import (
    RunConfig,
    TruthSpec,
    load_trajectory,
    run_replications,
    run_trajectory,
    summary_csv,
    write_trajectory,
)
from .numerics import ConfigError, QuadratureError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

log = logging.getLogger("posterior_lab")

def parse_truth(spec: str) -> TruthSpec:
    """uniform | gauss:THETA | step:LEVEL:IDX,IDX,... | file:PATH; a value
    that TruthSpec rejects is a ConfigError carrying its message."""
    if spec == "uniform":
        fields = {"kind": "uniform"}
    elif spec.startswith("gauss:"):
        try:
            fields = {"kind": "gauss_exp", "theta": float(spec.split(":", 1)[1])}
        except ValueError:
            raise ConfigError(f"bad gauss truth {spec!r}") from None
    elif spec.startswith("step:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad step truth {spec!r} "
                              "(want step:LEVEL:IDX,IDX,...)")
        try:
            fields = {"kind": "step", "level": int(parts[1]),
                      "selected": tuple(int(t) for t in parts[2].split(",") if t)}
        except ValueError:
            raise ConfigError(f"bad step truth {spec!r}") from None
    elif spec.startswith("file:"):
        fields = {"kind": "external", "path": spec.split(":", 1)[1]}
    else:
        raise ConfigError(f"unknown truth spec {spec!r}")
    try:
        return TruthSpec(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_seeds(spec: str) -> tuple:
    """'1..20' (inclusive range) or a comma list '1,2,5'."""
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        try:
            return tuple(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ConfigError(f"bad seed range {spec!r}") from None
    try:
        return tuple(int(t) for t in spec.split(",") if t)
    except ValueError:
        raise ConfigError(f"bad seed list {spec!r}") from None


def parse_grid(spec: str) -> list:
    """'a:b:step' inclusive grid of finite parts and a step of at least 1e-12,
    the resolution of its rounded values (a smaller one may not move v)."""
    try:
        a, b, step = (float(t) for t in spec.split(":"))
    except ValueError:
        raise ConfigError(f"bad grid {spec!r} (want a:b:step)") from None
    if not all(map(math.isfinite, (a, b, step))) or step < 1e-12 or b < a:
        raise ConfigError(f"bad grid {spec!r} (want finite a <= b and step >= 1e-12)")
    out = []
    v = a
    while v <= b + 1e-12 * step:
        out.append(round(v, 12))
        v += step
    return out


def _config_from_args(args):
    base, sidecar_seed = {}, None
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            side = json.load(fh)
        is_sidecar = isinstance(side, dict) and "config" in side
        base = side["config"] if is_sidecar else side  # or a bare config
        if is_sidecar and "seed" in side:
            sidecar_seed = int(side["seed"])
    cfg = RunConfig.from_dict(base)
    updates = {name: getattr(args, name)
               for name in ("model", "n_max", "grid_ratio", "quad_tol")
               if getattr(args, name, None) is not None}
    if getattr(args, "truth", None):
        updates["truth"] = parse_truth(args.truth)
    if getattr(args, "seeds", None):
        updates["seeds"] = parse_seeds(args.seeds)
    elif getattr(args, "seed", None) is not None:
        updates["seeds"] = (args.seed,)
    if getattr(args, "cosine_prior", None):
        kind, _, param = args.cosine_prior.partition(":")
        try:
            name = PRIOR_PARAMS[kind]  # the parameter VALUE sets
            given = {name: float(param)} if param else {}
        except (KeyError, ValueError):
            raise ConfigError(f"bad cosine prior {args.cosine_prior!r} (want "
                              "exponential:RATE | truncated_uniform:MAX)") from None
        updates["cosine_prior"] = CosinePriorConfig(kind=kind, **given)
    try:
        cfg = replace(cfg, **updates) if updates else cfg
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg, sidecar_seed


def _check_out_dir(path: str) -> None:
    """Raise an OSError naming the nearest existing one of the directory
    path and its ancestors if that is not a directory, so that an output
    location that cannot be written is refused before any work.  Creates
    nothing."""
    path = os.path.abspath(path)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def _add_run_flags(p, with_seed=True):
    p.add_argument("--model", choices=("barron", "cosine"))
    p.add_argument("--truth", help="uniform | gauss:T | step:N:I,J,... | file:PATH")
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--grid-ratio", dest="grid_ratio", type=float)
    p.add_argument("--quad-tol", dest="quad_tol", type=float)
    p.add_argument("--config", help="JSON config or a sidecar from a previous run")
    p.add_argument("--cosine-prior", dest="cosine_prior",
                   help="exponential:RATE | truncated_uniform:MAX")
    if with_seed:
        p.add_argument("--seed", type=int)


def cmd_traj(args) -> int:
    _check_out_dir(os.path.dirname(os.path.abspath(args.out)))
    cfg, sidecar_seed = _config_from_args(args)
    if args.seed is not None:
        seed = args.seed
    elif sidecar_seed is not None:
        seed = sidecar_seed  # replaying a persisted run
    else:
        seed = cfg.seeds[0]
    traj = run_trajectory(cfg, seed)
    csv_path, json_path = write_trajectory(traj, args.out)
    print(csv_path)
    print(json_path)
    return EXIT_OK


def cmd_replicate(args) -> int:
    _check_out_dir(args.out_dir)
    cfg, _ = _config_from_args(args)
    result = run_replications(cfg, parallelism=args.jobs)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = []
    for traj in result.trajectories:
        prefix = os.path.join(args.out_dir, f"traj_seed{traj.seed}")
        paths.extend(write_trajectory(traj, prefix))
    spath = os.path.join(args.out_dir, "summary.csv")
    with open(spath, "w", encoding="utf-8") as fh:
        fh.write(summary_csv(result))
    jpath = os.path.join(args.out_dir, "summary.json")
    with open(jpath, "w", encoding="utf-8") as fh:
        json.dump({"excursions": result.excursions,
                   "seeds": [t.seed for t in result.trajectories]},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    for p in paths + [spath, jpath]:
        print(p)
    return EXIT_OK


def cmd_scan(args) -> int:
    out_dir = os.path.dirname(os.path.abspath(args.out))
    _check_out_dir(out_dir)
    alphas = parse_grid(args.alpha_grid)
    betas = parse_grid(args.beta_grid)
    deltas = parse_grid(args.delta_grid) if args.delta_grid else [0.5]
    bands = [BandSpec(a, b) for a in alphas for b in betas if 0.0 < a <= b]
    if not bands:
        raise ConfigError("band grid is empty after the alpha <= beta filter")
    cfg, _ = _config_from_args(args)
    cfg = replace(cfg, diagnostics=replace(
        cfg.diagnostics, bands=tuple(bands), epsilons=(),
        track_mean_inv_level=False))
    result = run_replications(cfg, parallelism=args.jobs)
    n_seeds = len(result.trajectories)
    lines = ["alpha,beta,delta,seeds_with_excursion,n_seeds,frequency,"
             "mean_excursion_count"]
    for band in bands:
        stem = f"band_mass_{band.key()}"
        for delta in deltas:
            counts = [excursion_count(t, stem, delta) for t in result.trajectories]
            hits = sum(1 for c in counts if c > 0)
            lines.append(",".join([
                f"{band.alpha:.17g}", f"{band.beta:.17g}", f"{delta:.17g}",
                str(hits), str(n_seeds), f"{hits / n_seeds:.17g}",
                f"{sum(counts) / n_seeds:.17g}"]))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(args.out)
    return EXIT_OK


def cmd_plot(args) -> int:
    from .svgplot import PlotSpec, Series, render_svg  # only plot draws

    out_dir = os.path.dirname(os.path.abspath(args.out))
    _check_out_dir(out_dir)
    columns = [c for c in args.columns.split(",") if c]
    if not columns:
        raise ConfigError("no columns requested")
    series = []
    for path in args.input:
        prefix = path[:-4] if path.endswith(".csv") else path
        traj = load_trajectory(prefix)
        if not traj.rows:
            raise ConfigError(f"trajectory {path} has no rows")
        label_prefix = f"seed{traj.seed}:" if len(args.input) > 1 else ""
        for stem in columns:
            brs = traj.bracket_series(stem)
            if brs:
                xs = [n for n, _ in brs]
                ys = [br.midpoint() if br else math.nan for _, br in brs]
                lo = [br.lower if br else math.nan for _, br in brs]
                hi = [br.upper if br else math.nan for _, br in brs]
                series.append(Series(name=label_prefix + stem, xs=xs, ys=ys,
                                     lower=lo, upper=hi))
                continue
            vals = traj.value_series(stem)
            if not vals:
                raise ConfigError(f"column {stem!r} not found in {path}")
            series.append(Series(name=label_prefix + stem,
                                 xs=[n for n, _ in vals],
                                 ys=[v for _, v in vals]))
    try:
        spec = PlotSpec(series=series, log_x=args.log_x, log_y=args.log_y,
                        reflines=args.refline or [],
                        title=args.title or "")
        svg = render_svg(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="posterior-lab",
        description="Exact finite-n posterior (in)consistency laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("traj", help="run one trajectory and persist CSV+JSON")
    _add_run_flags(p)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(fn=cmd_traj)

    p = sub.add_parser("replicate", help="run one trajectory per seed plus summary")
    _add_run_flags(p, with_seed=False)
    p.add_argument("--seeds", required=True, help="'1..20' or '1,2,5'")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(fn=cmd_replicate)

    p = sub.add_parser("scan", help="excursion-frequency table over a band grid")
    _add_run_flags(p, with_seed=False)
    p.add_argument("--seeds", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--alpha-grid", dest="alpha_grid", required=True,
                   help="a:b:step")
    p.add_argument("--beta-grid", dest="beta_grid", required=True)
    p.add_argument("--delta-grid", dest="delta_grid")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("plot", help="render trajectory columns as an SVG chart")
    p.add_argument("--input", nargs="+", required=True,
                   help="trajectory CSV path(s)")
    p.add_argument("--columns", required=True, help="comma list of column stems")
    p.add_argument("--refline", type=float, action="append",
                   help="horizontal reference value (repeatable)")
    p.add_argument("--log-x", dest="log_x", action="store_true")
    p.add_argument("--log-y", dest="log_y", action="store_true")
    p.add_argument("--title")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(fn=cmd_plot)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("POSTERIOR_LAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise  # not a path the user named, such as a failed fork
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, ArithmeticError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
