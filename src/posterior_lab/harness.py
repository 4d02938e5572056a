"""Truth specification, trajectory orchestration, replication management,
dataset ingestion, and persistence.

A truth maps its kind to its density in one place, TruthSpec.density, and
samples its data through that density; an external dataset is read from
its file instead, with the uniform as its reference density.

A trajectory is one (config, seed) run: data are streamed into the engine
and the configured diagnostics are evaluated on a geometric grid of sample
sizes (always including n = 1..10, so the small-n analytic identities stay
checkable in every run).  Trajectories persist as a CSV of numeric columns
plus a JSON sidecar carrying the exact config for replay; replications run
one engine per seed and reduce to an order-normalized summary.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import pickle
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .barron import BarronEngine, BarronPriorConfig
from .cosine import CosineEngine, CosinePriorConfig
from .densities import GaussExpDensity, StepDensity, UniformDensity
from .diagnostics import (
    BandSpec,
    DiagnosticSettings,
    barron_statistics,
    cosine_statistics,
    evaluate_diagnostics,
    excursion_count,
)
from .intervals import Bracket
from .numerics import ConfigError, RandomStream

__all__ = [
    "TruthSpec",
    "RunConfig",
    "TrajectoryRecord",
    "ReplicationResult",
    "DatasetError",
    "ingest_dataset",
    "evaluation_grid",
    "run_trajectory",
    "run_replications",
    "write_trajectory",
    "load_trajectory",
    "read_sidecar",
    "config_hash",
    "encode_config",
    "decode_config",
]

log = logging.getLogger("posterior_lab")

FORMAT_VERSION = 12

# keys that older formats wrote, by dotted path, each accepted only at the
# value every run that wrote it used: the truncation knobs of v1, the
# half-Cauchy scale and the cap-search fraction of v1 to v3, and the
# predictive grid of v1 to v6
_RETIRED_KEYS = {"trunc_multiplier": 4.0, "trunc_fixed": None,
                 "cosine_prior.scale": 1.0, "cosine_prior.tail_fraction": 1e-3,
                 "diagnostics.predictive_grid": 0}

# stream id of the data within one replicate seed
DATA_STREAM = 0


class DatasetError(ConfigError):
    """Malformed input dataset; the message names the offending row."""


def ingest_dataset(path: str) -> list:
    """Read one CSV value per row, each strictly inside (0,1); an optional
    header row ``x`` is skipped.  Raises DatasetError naming the row on any
    parse or range failure; an empty file yields an empty list with a
    warning."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.strip()
            if not s:
                continue
            if lineno == 1 and s.lower() == "x":
                continue
            try:
                v = float(s)
            except ValueError:
                raise DatasetError(f"row {lineno}: not a decimal value: {s!r}") \
                    from None
            if not 0.0 < v < 1.0:
                raise DatasetError(f"row {lineno}: value {v} outside (0,1)")
            values.append(v)
    if not values:
        log.warning("dataset %s is empty", path)
    log.info("ingested %d points from %s", len(values), path)
    return values


@dataclass(frozen=True)
class TruthSpec:
    """Data-generating distribution: uniform, a tilt member, a step density,
    or an external dataset (for which diagnostics use the uniform reference
    density, since the true density is unknown)."""

    kind: str
    theta: float | None = None
    level: int | None = None
    selected: tuple[int, ...] | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind == "step":
            if self.level is None or self.selected is None:
                raise ValueError("step truth needs level and selected cells")
            object.__setattr__(self, "selected",
                               tuple(sorted(int(i) for i in self.selected)))
        elif self.kind == "external" and not self.path:
            raise ValueError("external truth needs a dataset path")
        self.density()  # validates the kind and the density's parameters

    def density(self):
        """The truth's density, the one map from a kind to it; an external
        dataset's is the uniform reference."""
        if self.kind in ("uniform", "external"):
            return UniformDensity()
        if self.kind == "gauss_exp":
            return GaussExpDensity(self.theta)
        if self.kind == "step":
            return StepDensity(self.level, frozenset(self.selected))
        raise ValueError(f"unknown truth kind {self.kind!r}")

    def sample(self, rs: RandomStream, n: int) -> np.ndarray:
        """n draws from the density, or the first n points of the dataset."""
        if self.kind != "external":
            return self.density().sample(rs, n)
        data = ingest_dataset(self.path)
        if len(data) < n:
            raise DatasetError(f"dataset {self.path} holds {len(data)} points, "
                               f"need {n}")
        return np.asarray(data[:n])

    @staticmethod
    def from_dict(d: dict) -> "TruthSpec":
        """Decode a truth alone.  The package decodes it inside RunConfig;
        the benchmark's tilt oracle calls this to rebuild a run's data."""
        return decode_config(TruthSpec, d)


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run except the seed actually used."""

    truth: TruthSpec = TruthSpec("uniform")
    model: str = "barron"
    n_max: int = 1000
    grid_ratio: float = 1.15
    seeds: tuple[int, ...] = field(default=(1,), metadata={"unordered": True})
    quad_tol: float = 1e-9
    continuous_weight: float = 0.5
    diagnostics: DiagnosticSettings = DiagnosticSettings()
    cosine_prior: CosinePriorConfig = CosinePriorConfig()
    cosine_regions: tuple[tuple[float, float], ...] = ((5.0, math.inf),)

    def __post_init__(self):
        if self.model not in ("barron", "cosine"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not self.grid_ratio > 1.0:
            raise ValueError("grid_ratio must exceed 1")
        if not self.quad_tol > 0.0:
            raise ValueError("quad_tol must be positive")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        for lo, hi in self.cosine_regions:  # a NaN fails every comparison
            if not 0.0 <= lo <= hi:
                raise ValueError(f"cosine_regions needs 0 <= lo <= hi, got [{lo}, {hi}]")
        self.barron_prior()  # its check of continuous_weight, for either model
        # two values whose column stems print alike would write one column
        d, g = self.diagnostics, "{:g}".format
        for key, stem, values in (
                ("diagnostics.epsilons", g, d.epsilons), ("diagnostics.betas", g, d.betas),
                ("diagnostics.bands", BandSpec.key, d.bands),
                ("diagnostics.exponent_bands", BandSpec.key, d.exponent_bands),
                ("cosine_regions", "{0[0]:g}_{0[1]:g}".format, self.cosine_regions)):
            seen = {}
            for v in values:
                if (s := stem(v)) in seen:
                    raise ValueError(f"{key}: {seen[s]!r} and {v!r} share the "
                                     f"column stem {s!r}")
                seen[s] = v

    def barron_prior(self) -> BarronPriorConfig:
        return BarronPriorConfig(continuous_weight=self.continuous_weight)

    def to_dict(self) -> dict:
        return encode_config(self)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        """Decode a config; an older one may still carry retired keys, each
        at the one value this version replays."""
        if isinstance(d, dict):
            d = dict(d)
            for path, old in _RETIRED_KEYS.items():
                parent, _, key = path.rpartition(".")
                node = d
                if parent:
                    if not isinstance(d.get(parent), dict):
                        continue
                    node = d[parent] = dict(d[parent])  # the caller's is kept
                if key in node and (value := node.pop(key)) != old:
                    raise ConfigError(
                        f"retired config key {path!r} = {value!r} cannot be "
                        f"replayed; only {json.dumps(old)} can")
        return decode_config(RunConfig, d)


def encode_config(obj) -> dict:
    """JSON form of a config dataclass: one key per field that is not None,
    nested configs as objects, tuples as lists (a dataclass in a tuple as the
    list of its field values), floats for float fields, and the elements of
    an ``unordered`` field sorted."""
    out = {}
    for f, tp in _fields(type(obj)):
        value = getattr(obj, f.name)
        if value is not None:
            value = _encode(value, tp)
            out[f.name] = sorted(value) if f.metadata.get("unordered") else value
    return out


def _encode(value, tp, in_tuple: bool = False):
    tp = _non_null(tp)
    if is_dataclass(tp) and in_tuple:  # its field values, in order
        return [_encode(getattr(value, f.name), t) for f, t in _fields(tp)]
    if is_dataclass(tp):
        return encode_config(value)
    if typing.get_origin(tp) is tuple:
        return [_encode(v, t, True)
                for v, t in zip(value, _element_types(tp, len(value), ""))]
    return float(value) if tp is float else value


def decode_config(cls, d, where: str = ""):
    """The config dataclass ``cls`` from its JSON form ``d``, found at path
    ``where`` of the whole config.  A missing key takes the field's default.
    An unknown key, a missing required key, a value of the wrong type and a
    value the dataclass rejects are ConfigErrors that name the key."""
    prefix = f"{where}." if where else ""
    if not isinstance(d, dict):
        raise ConfigError(f"{where or 'config'}: expected an object, got {d!r}")
    schema = _fields(cls)
    for key in sorted(d.keys() - {f.name for f, _ in schema}):
        raise ConfigError(f"unknown config key {prefix + key!r}")
    kwargs = {f.name: _decode(d[f.name], tp, prefix + f.name)
              for f, tp in schema if f.name in d}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # TypeError: a required key is missing
        raise ConfigError(f"{where or 'config'}: {exc}") from None


def _decode(value, tp, where: str):
    base = _non_null(tp)
    if value is None and base is not tp:
        return None
    if is_dataclass(base):
        if isinstance(value, (list, tuple)):  # in a tuple: its field values
            names = [f.name for f in fields(base)]
            if len(value) != len(names):
                raise ConfigError(f"{where}: expected {names}, got {value!r}")
            value = dict(zip(names, value))
        return decode_config(base, value, where)
    if typing.get_origin(base) is tuple and isinstance(value, (list, tuple)):
        types_ = _element_types(base, len(value), where)
        return tuple(_decode(v, t, f"{where}[{i}]")
                     for i, (v, t) in enumerate(zip(value, types_)))
    if base is float and type(value) is int:
        return float(value)
    if type(value) is base:
        return value
    raise ConfigError(f"{where}: expected {base.__name__}, got {value!r}")


@functools.lru_cache(maxsize=None)
def _fields(cls) -> tuple:
    """(field, annotation) of each field of a config dataclass, once per class."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def _non_null(tp):
    """``T`` for an annotation ``T | None``; any other annotation as is."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return next(a for a in typing.get_args(tp) if a is not type(None))
    return tp


def _element_types(tp, size: int, where: str) -> tuple:
    """Element annotations of a ``tuple[T, ...]`` or a fixed-size tuple."""
    args = typing.get_args(tp)
    if args[-1] is Ellipsis:
        return (args[0],) * size
    if len(args) != size:
        raise ConfigError(f"{where}: expected {len(args)} values, got {size}")
    return args


def config_hash(cfg: RunConfig) -> str:
    """sha256 of the canonical JSON form (sorted keys, seeds sorted -- seed
    order is not semantically meaningful).  The digest comes from CPython's
    built-in SHA-256 module (``_sha2`` on 3.12+, ``_sha256`` before), as the
    stdlib's ``random`` takes its sha512: ``hashlib`` would map OpenSSL's
    libcrypto, about 3.6 MB of RSS, to hash a few hundred bytes.  ``hashlib``
    is the fallback where neither module exists; every source gives the
    same digest."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    payload = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return sha256(payload.encode("utf-8")).hexdigest()


def evaluation_grid(n_max: int, ratio: float = RunConfig.grid_ratio) -> list:
    """Geometric grid of sample sizes, always containing 1..10 and n_max:
    the rounds of v = 10 ratio, 10 ratio^2, ... up to the first v >= n_max,
    each v the float product of the one before and ratio."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max * (ratio - 1.0) < 0.5:
        # every step below n_max moves v by less than 0.5, so the rounds
        # visit every integer, in about log(n_max) / (ratio - 1) steps
        return list(range(1, n_max + 1))
    pts = set(range(1, min(10, n_max) + 1))
    v = 10.0
    while v < n_max:
        # the next steps as one left fold, the products of repeated
        # v *= ratio, about as many as reach n_max: only a ratio near the
        # float range overflows, and such a v is past n_max anyway
        steps = min(1 << 16, max(1, math.ceil(math.log(n_max / v) / math.log(ratio))))
        with np.errstate(over="ignore"):
            vs = np.multiply.accumulate(np.r_[v, np.full(steps, ratio)])[1:]
        vs = vs[:np.searchsorted(vs, n_max) + 1]
        r = np.rint(vs[vs < n_max + 0.5])  # rounds below n_max, non-decreasing
        pts.update(r[np.diff(r, prepend=0.0) != 0.0].astype(np.int64).tolist())
        v = float(vs[-1])
    pts.add(n_max)
    return sorted(pts)


# ---------------------------------------------------------------------------
# trajectories (the columns are those of evaluate_diagnostics' rows)
# ---------------------------------------------------------------------------

def _csv(columns: list, rows: list) -> str:
    """CSV text: a header, then one line per row (absent values as nan)."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(f"{row.get(c, math.nan):.17g}" for c in columns))
    return "\n".join(lines) + "\n"


@dataclass
class TrajectoryRecord:
    """One (config, seed) run: per-grid-point rows of named numeric values
    (bracketed statistics occupy ``stem.lower``/``stem.upper`` columns)."""

    config: RunConfig
    seed: int
    grid: list
    columns: list
    rows: list            # list of dicts keyed by column name
    errors: list = field(default_factory=list)  # (n, message)

    def bracket_series(self, stem: str):
        """[(n, Bracket | None)] for a bracketed statistic; ``stem`` may be a
        prefix (the first matching column pair is used)."""
        lo_col = self._resolve(stem, ".lower")
        if lo_col is None:
            return []
        hi_col = lo_col[:-6] + ".upper"
        out = []
        for row in self.rows:
            lo, hi = row.get(lo_col, math.nan), row.get(hi_col, math.nan)
            br = None if (math.isnan(lo) or math.isnan(hi)) else Bracket(lo, hi)
            out.append((int(row["n"]), br))
        return out

    def value_series(self, name: str):
        """[(n, value)] of a one-column statistic, matched as bracket_series
        matches; ``plot`` draws every column without a bracket from it."""
        col = self._resolve(name, "")
        if col is None:
            return []
        return [(int(r["n"]), r.get(col, math.nan)) for r in self.rows]

    def _resolve(self, stem: str, suffix: str):
        exact = stem + suffix
        if exact in self.columns:
            return exact
        for c in self.columns:
            if not c.startswith(stem):
                continue
            if suffix:
                if c.endswith(suffix):
                    return c
            elif not c.endswith(".lower") and not c.endswith(".upper"):
                return c
        return None

    def to_csv(self) -> str:
        return _csv(self.columns, self.rows)

    def sidecar(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "seed": self.seed,
            "grid": list(self.grid),
            "columns": list(self.columns),
            "version": FORMAT_VERSION,
            "config_hash": config_hash(self.config),
            "errors": [[n, msg] for n, msg in self.errors],
        }


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def run_trajectory(cfg: RunConfig, seed: int) -> TrajectoryRecord:
    """Stream data from the truth into the model's engine one block per grid
    point, and evaluate the model's statistic list at each (see
    evaluate_diagnostics).  Deterministic given (cfg, seed); numeric
    failures are recorded per grid point and the run continues."""
    grid = evaluation_grid(cfg.n_max, cfg.grid_ratio)
    data = cfg.truth.sample(RandomStream(seed, DATA_STREAM), cfg.n_max)
    if cfg.model == "barron":
        engine = BarronEngine(prior=cfg.barron_prior(), quad_tol=cfg.quad_tol,
                              truth=cfg.truth.density())
        stats = barron_statistics(cfg.diagnostics)
    else:
        engine = CosineEngine(cfg.cosine_prior, (), quad_tol=cfg.quad_tol)
        stats = cosine_statistics(cfg.diagnostics, cfg.cosine_regions)
    rows, errors = [], []
    for prev, n in zip([0] + grid, grid):
        engine.add_points(data[prev:n])
        row, errs = evaluate_diagnostics(engine, stats)
        rows.append(row)
        errors.extend((n, msg) for msg in errs)
    log.info("trajectory seed=%d: %d grid points, %d flagged errors",
             seed, len(rows), len(errors))
    return TrajectoryRecord(config=cfg, seed=seed, grid=grid,
                            columns=list(rows[0]), rows=rows, errors=errors)


def _run_pooled(cfg: RunConfig, seeds: list, jobs: int) -> list:
    """run_trajectory for every seed in ``jobs`` processes: this one and
    jobs - 1 forks of it, made with POSIX ``os.fork`` before any thread
    exists (a spawned worker would import numpy again); at jobs = 1 there
    is no fork and no pipe.  Fork i runs the share of seed indices i,
    i + jobs, ... and this process the share from jobs - 1 (see _run_share).
    The exception of the earliest failing seed is re-raised, as a serial run
    would raise it: each seed before it lies in a share whose first failure
    comes no earlier, so it has run.  A fork pickles its (index, record |
    exception) pairs into its own pipe when its share is done; one that ends
    without sending them all is a RuntimeError naming its pid and wait
    status.  On any exception here, KeyboardInterrupt included, the forks
    are killed and reaped.  The records come back in seed order."""
    forks = {}                      # pid -> the file its results come through
    try:
        for first in range(jobs - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # a fork: run its share, send it, and never return
                code = 1
                try:
                    os.close(r)
                    with open(w, "wb") as fh:
                        pickle.dump(_run_share(cfg, seeds, first, jobs), fh)
                    code = 0
                finally:
                    os._exit(code)
            forks[pid] = open(r, "rb")
            os.close(w)
        done = dict(_run_share(cfg, seeds, jobs - 1, jobs))
        for pid in list(forks):
            with forks[pid] as fh:
                sent = fh.read()
            status = os.waitpid(pid, 0)[1]
            del forks[pid]
            if status:  # a fork exits 0 only once all it sent is written
                code = os.waitstatus_to_exitcode(status)
                how = f"signal {-code}" if code < 0 else f"exit code {code}"
                raise RuntimeError(f"replicate worker {pid} ended without "
                                   f"sending its results (wait status "
                                   f"{status}: {how})")
            done.update(pickle.loads(sent))
    finally:
        if forks:  # only after an exception here
            import signal  # 2 ms to import, so loaded only to kill forks

            for pid, fh in forks.items():
                fh.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failures = [v for _, v in sorted(done.items()) if isinstance(v, Exception)]
    if failures:
        raise failures[0]
    return [done[i] for i in range(len(seeds))]


def _run_share(cfg: RunConfig, seeds: list, first: int, step: int) -> list:
    """(index, record | exception) of the seed indices first, first + step,
    first + 2 step, ..., in order, up to and including the first failure."""
    out = []
    for i in range(first, len(seeds), step):
        try:
            out.append((i, run_trajectory(cfg, seeds[i])))
        except Exception as exc:  # re-raised by _run_pooled if the earliest
            out.append((i, exc))
            break
    return out


@dataclass
class ReplicationResult:
    trajectories: list            # ordered as cfg.seeds
    summary_columns: list
    summary_rows: list            # per grid n: min/median/max per column
    excursions: dict              # stem -> {delta -> {...}}


def _nanmedian(vals: np.ndarray) -> np.ndarray:
    """np.nanmedian over the last axis, NaN where every value is NaN, from
    one sort (NaN last): the middle value of an odd count and the mean of
    the two middle values of an even one, with np.mean's operations
    (0.0 + lo + hi) / 2, so that -0.0 comes out as 0.0 as it does there."""
    count = (~np.isnan(vals)).sum(axis=-1, keepdims=True)
    srt = np.sort(vals, axis=-1)
    lo = np.take_along_axis(srt, (count - 1) // 2, axis=-1)[..., 0]  # count 0: a NaN
    hi = np.take_along_axis(srt, count // 2, axis=-1)[..., 0]
    even = (count[..., 0] % 2 == 0) & (count[..., 0] > 0)
    med = 0.0 + lo
    with np.errstate(invalid="ignore", over="ignore"):  # inf + -inf is NaN
        med[even] = (med[even] + hi[even]) / 2
    return med


def _summary(trajs: list) -> tuple[list, list]:
    """(columns, rows) of the summary: per grid point, the min, median and
    max of each column over the trajectories, ignoring NaN (NaN where every
    trajectory is NaN).  One pass over the seed axis of a (grid, columns,
    seeds) array, equal to np.nanmin, np.nanmedian and np.nanmax cell by
    cell: each cell's seeds are contiguous, so fmin.reduce and fmax.reduce
    run np.nanmin's and np.nanmax's loop on every cell."""
    grid = trajs[0].grid
    data_cols = [c for c in trajs[0].columns if c != "n"]
    columns = ["n"]
    for c in data_cols:
        columns += [f"{c}.min", f"{c}.median", f"{c}.max"]
    vals = np.array([[[t.rows[gi].get(c, math.nan) for t in trajs] for c in data_cols]
                     for gi in range(len(grid))])
    stats = np.stack((np.fmin.reduce(vals, axis=-1), _nanmedian(vals),
                      np.fmax.reduce(vals, axis=-1)), axis=-1).reshape(len(grid), -1)
    return columns, [dict(zip(columns, [float(n)] + cells))
                     for n, cells in zip(grid, stats.tolist())]


def run_replications(cfg: RunConfig, parallelism: int = 1) -> ReplicationResult:
    """One trajectory per seed plus an order-normalized summary (see
    _summary: one array pass over the seeds) and the excursion counts at the
    thresholds 0.5 and 0.9; results are independent of the parallelism
    degree: every record is byte for byte the same for any k.
    ``parallelism`` k runs the seeds in min(k, len(seeds)) processes in all,
    1 where ``os.fork`` is missing: the invoking one plus a fork of it per
    further process, each running a fixed share of the seeds (see
    _run_pooled).  The exception raised is the earliest failing seed's, for
    every k.  k < 1 is a ConfigError."""
    seeds = [int(s) for s in cfg.seeds]
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if parallelism < 1:
        raise ConfigError(f"parallelism must be at least 1, got {parallelism}")
    jobs = min(parallelism, len(seeds)) if hasattr(os, "fork") else 1
    trajs = _run_pooled(cfg, seeds, jobs)

    summary_columns, summary_rows = _summary(trajs)
    excursions: dict = {}
    stems = sorted({c[:-6] for c in trajs[0].columns if c.endswith(".lower")})
    for stem in stems:
        per_delta = {}
        for delta in (0.5, 0.9):
            counts = [excursion_count(t, stem, delta) for t in trajs]
            per_delta[f"{delta:g}"] = {
                "per_seed_counts": counts,
                "seeds_with_excursion": int(sum(1 for c in counts if c > 0)),
                "frequency": sum(1 for c in counts if c > 0) / len(counts),
            }
        excursions[stem] = per_delta
    return ReplicationResult(trajectories=trajs, summary_columns=summary_columns,
                             summary_rows=summary_rows, excursions=excursions)


def summary_csv(result: ReplicationResult) -> str:
    return _csv(result.summary_columns, result.summary_rows)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def write_trajectory(traj: TrajectoryRecord, prefix: str) -> tuple:
    """Write ``<prefix>.csv`` and ``<prefix>.json``; returns the two paths."""
    csv_path, json_path = prefix + ".csv", prefix + ".json"
    os.makedirs(os.path.dirname(os.path.abspath(csv_path)), exist_ok=True)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(traj.to_csv())
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(traj.sidecar(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


# what each entry of a sidecar's list key must be
_SIDECAR_ENTRIES = (
    ("columns", "strings", lambda c: type(c) is str),
    ("grid", "integers", lambda n: type(n) is int),
    ("errors", "[n, message] pairs",
     lambda e: type(e) is list and list(map(type, e)) == [int, str]),
)
# what each sidecar key must be, checked in order (a bool is no integer)
_SIDECAR_CHECKS = (
    ("seed", "an integer", lambda v: type(v) is int),
    ("version", f"an integer from 1 to {FORMAT_VERSION}",
     lambda v: type(v) is int and 1 <= v <= FORMAT_VERSION),
    *((key, "a list", lambda v: type(v) is list) for key, _, _ in _SIDECAR_ENTRIES),
)


def read_sidecar(path: str, required: tuple = ()) -> tuple:
    """(RunConfig, seed or None, sidecar or None) of the JSON file ``path``.
    An object that holds ``config`` is a sidecar: each key of _SIDECAR_CHECKS
    it holds is checked, then each entry of its list keys.  Any other object
    is a bare config.  Text that is not JSON, a value that is not an object,
    a missing key of ``required`` and a key, list entry or config at fault
    are ConfigErrors naming the file and the key or entry."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            side = json.load(fh)
        if not isinstance(side, dict):
            raise ConfigError(f"expected a sidecar object, got {type(side).__name__}")
        for key in required:
            if key not in side:
                raise ConfigError(f"the sidecar has no {key!r}")
        if "config" not in side:
            return RunConfig.from_dict(side), None, None
        for key, what, ok in _SIDECAR_CHECKS:
            if key in side and not ok(side[key]):
                raise ConfigError(f"{key} must be {what}, got {side[key]!r}")
        for key, what, ok in _SIDECAR_ENTRIES:
            for i, v in enumerate(side.get(key, ())):
                if not ok(v):
                    raise ConfigError(f"{key} must be a list of {what}, got {v!r} at {key}[{i}]")
        return RunConfig.from_dict(side["config"]), side.get("seed"), side
    except ValueError as exc:  # a ConfigError, or JSON that does not parse
        raise ConfigError(f"{path}: {exc}") from None


def load_trajectory(prefix: str) -> TrajectoryRecord:
    """Load a persisted trajectory (CSV + sidecar, which must hold a config,
    columns, grid and seed) back into memory.  A CSV header other than the
    sidecar's columns, a line that is not one number per column and a row
    count other than the grid's, and a row whose ``.lower`` end of a
    bracket is above its ``.upper`` end, raise ValueError naming the CSV."""
    cfg, seed, side = read_sidecar(prefix + ".json", ("config", "columns", "grid", "seed"))
    columns, grid, path = side["columns"], side["grid"], prefix + ".csv"
    stems = [c[:-6] for c in columns if c.endswith(".lower")]
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != columns:
            raise ValueError(f"{path}: the header does not match the sidecar's columns")
        for i, line in enumerate(fh, start=2):
            vals = line.strip().split(",")
            try:
                if len(vals) != len(columns):
                    raise ValueError(f"{len(vals)} values for {len(columns)} columns")
                rows.append(row := dict(zip(columns, map(float, vals))))
                for stem in stems:  # a NaN end is a gap, not a fault
                    if row[stem + ".lower"] > row.get(stem + ".upper", math.nan):
                        raise ValueError(f"{stem}'s lower end is above its upper end")
            except ValueError as exc:
                raise ValueError(f"{path} line {i}: {exc}") from None
    if len(rows) != len(grid):
        raise ValueError(f"{path} ends at line {len(rows) + 1} after {len(rows)} "
                         f"rows, but its sidecar's grid has {len(grid)} points")
    return TrajectoryRecord(config=cfg, seed=seed, grid=grid, columns=columns,
                            rows=rows, errors=[tuple(e) for e in side.get("errors", [])])
