"""Exact posterior engine for the two-component mixture prior: half the mass
spread over the smooth tilt family (theta-prior density proportional to
e^(-1/theta) on [0,1]), half over the oscillatory step families (level N
weighted 6/(pi^2 N^2), uniform across the C(2N^2, N^2) members of a level).

Every posterior quantity is computed exactly up to bracketed errors:

* the step-family marginal is a sum over levels -- a step density matches
  the data iff it selects every occupied cell, and the fraction of members
  of level N doing so is the falling-factorial ratio (N^2)_k / (2N^2)_k at
  occupancy k -- whose levels past the cut M (see BarronEngine) sum in
  closed form against Hurwitz-zeta tails, with every series remainder and
  the rounding in the bracket;
* the tilt-family marginal is log-space adaptive quadrature of
  (1/Z0) * integral of exp(-1/theta - n theta + sqrt(2 theta) S_n), whose
  error bound is a Richardson estimate, not a proof.

From the distinct-cell level D on, every level separates every pair of
distinct points, so its occupancy is the number of distinct points; the
engine stores occupancies only for the levels 1..D-1 below it.  The level
constants 2 N^2 and ln 6/(pi^2 N^2) live in one process-wide table.

The engine is single-writer (``add_point``); all queries are read-only.
Each engine state (the data seen so far) caches what its queries share and
``add_point`` drops it: the step sum, which the step marginal, the level
posterior and the predictive all read; the predictive's per-level factor
for an unoccupied cell; and the full-interval tilt integral, which the tilt
marginal and every interval mass divide by.  The data-free normalizer Z0 is
integrated once per process.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .densities import gauss_exp_hellinger_threshold, HELLINGER_STEP_UNIFORM
from .intervals import Bracket, LogBracket, mass_ratio
from .numerics import (
    LN2,
    LOG_ZERO,
    QuadratureResult,
    adaptive_quadrature,
    inv_norm_cdf,
    log_falling_factorial_ratio,
    zeta_series,
)

__all__ = [
    "BarronPriorConfig",
    "SufficientStats",
    "OccupancyStats",
    "BarronEngine",
    "PosteriorTheta",
    "LevelPosterior",
    "log_step_term",
    "UndefinedPosteriorError",
]

# ln of the level-weight normalizer 6/pi^2 (so that sum_N 6/(pi^2 N^2) = 1)
_LOG_LEVEL_NORM = math.log(6.0) - 2.0 * math.log(math.pi)

# terms of the series in 1/N^2 (used where q = (k-1)/N^2 <= _SERIES_Q) and in
# (M+1)^2/N^2 past the cut; each one's remainder is part of the bracket
_HEAD_TERMS = 20
_SERIES_Q = 0.125
_TAIL_TERMS = 40
_EPS = math.ulp(1.0)

# 2 N^2 and ln 6/(pi^2 N^2) for the levels N = 1, 2, ...: one table per
# process, grown by doubling (see _level_table)
_W2 = np.zeros(0)
_LOG_W = np.zeros(0)


def _level_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(2 N^2, ln 6/(pi^2 N^2)) for the levels 1..m.  The ln is taken with
    math.log level by level: np.log rounds a few levels differently, which
    would change the stored trajectories."""
    global _W2, _LOG_W
    cur = _W2.size
    if m > cur:
        cap = max(m, 2 * cur)
        levels = np.arange(cur + 1, cap + 1, dtype=np.float64)
        _W2 = np.concatenate([_W2, 2.0 * levels * levels])
        _LOG_W = np.concatenate([_LOG_W, [_LOG_LEVEL_NORM - 2.0 * math.log(level)
                                          for level in range(cur + 1, cap + 1)]])
    return _W2[:m], _LOG_W[:m]


class UndefinedPosteriorError(RuntimeError):
    """Both mixture components carry zero likelihood -- posterior undefined."""


@dataclass(frozen=True)
class BarronPriorConfig:
    """Mixture weights of the prior.  ``continuous_weight`` goes to the tilt
    family; the complement goes to the step families with per-level weights
    6/(pi^2 N^2) and the uniform distribution within each level."""

    continuous_weight: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.continuous_weight < 1.0:
            raise ValueError("continuous_weight must lie strictly inside (0,1)")

    @property
    def log_continuous_weight(self) -> float:
        return math.log(self.continuous_weight)

    @property
    def log_step_weight(self) -> float:
        return math.log1p(-self.continuous_weight)


@dataclass(frozen=True)
class SufficientStats:
    """Running data summaries: n, S_n = sum of PhiInv(x_i), W_n = S_n / n,
    the sorted sample, and the smallest positive gap between consecutive
    distinct points."""

    n: int
    s_n: float
    sorted_points: np.ndarray
    min_gap: float
    n_distinct: int

    @property
    def w_n(self) -> float:
        return self.s_n / self.n if self.n else 0.0


@dataclass(frozen=True)
class OccupancyStats:
    """Occupied-cell counts k_N for the levels 1..M up to the cut, filled with
    n_distinct from the distinct-cell level on, where every distinct point
    sits in its own cell."""

    n: int
    n_distinct: int
    distinct_level: int
    k_by_level: np.ndarray  # k_by_level[i] = occupancy of level i+1

    def k(self, level: int) -> int:
        if 1 <= level <= self.k_by_level.size:
            return int(self.k_by_level[level - 1])
        if level >= self.distinct_level:
            return self.n_distinct
        raise KeyError(f"level {level} not maintained")


def log_step_term(level: int, k: int, n: int, with_likelihood: bool = True) -> float:
    """ln of the level-N contribution to the step-family marginal:
    (6/(pi^2 N^2)) * [2^n] * (N^2)_k / (2N^2)_k.

    LOG_ZERO when k > N^2 (no member of the level can hold all occupied
    cells); k > n violates the precondition.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if k > n:
        raise ValueError(f"occupancy k={k} cannot exceed the sample size n={n}")
    m = level * level
    if k > 2 * m:
        raise ValueError(f"occupancy k={k} exceeds the cell count {2*m}")
    r = log_falling_factorial_ratio(m, 2 * m, k)
    if r == LOG_ZERO:
        return LOG_ZERO
    t = float(_level_table(level)[1][-1]) + r
    if with_likelihood:
        t += n * LN2
    return t


@dataclass(frozen=True)
class PosteriorTheta:
    """Posterior over theta within the tilt component (unnormalized log
    density -1/theta - n theta + sqrt(2 theta) S_n) with bracketed interval
    masses and the prior small-ball query that witnesses KL support."""

    n: int
    s_n: float
    quad_tol: float

    def log_density(self, theta: float) -> float:
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must lie in [0,1], got {theta}")
        if theta == 0.0:
            return LOG_ZERO
        return -1.0 / theta - self.n * theta + math.sqrt(2.0 * theta) * self.s_n

    def _integral(self, lo: float, hi: float) -> QuadratureResult:
        return _tilt_integral(self.n, self.s_n, self.quad_tol, lo, hi)

    @functools.cached_property
    def _normalizer(self) -> QuadratureResult:
        """The full-interval integral, computed once per instance."""
        return self._integral(0.0, 1.0)

    def interval_mass(self, lo: float, hi: float) -> Bracket:
        """Posterior mass of {lo <= theta <= hi} within the tilt family."""
        lo, hi = max(0.0, lo), min(1.0, hi)
        if not lo < hi:
            return Bracket(0.0, 0.0)
        if lo == 0.0 and hi == 1.0:
            return Bracket(1.0, 1.0)  # the whole component, by definition
        return _quotient(self._integral(lo, hi), self._normalizer)

    def prior_ball_mass(self, delta: float) -> Bracket:
        """Prior mass of {theta < delta}; since KL(uniform, f_theta) = theta,
        this is the prior mass of the KL ball of radius delta -- positive for
        every delta > 0."""
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must lie in (0,1], got {delta}")
        return _quotient(_tilt_integral(0, 0.0, self.quad_tol, 0.0, delta),
                         _z0(self.quad_tol))


@dataclass(frozen=True)
class LevelPosterior:
    """Posterior over partition levels within the step component."""

    levels: np.ndarray          # 1..M
    weights_lower: np.ndarray   # per-level posterior weight enclosures
    weights_upper: np.ndarray
    tail_weight: Bracket        # total weight of levels > M
    mean_inv_level: Bracket     # posterior mean of 1/N (0 signals escape to
                                # ever finer partitions)


def _exp_or_zero(v: float) -> float:
    return math.exp(v) if v > LOG_ZERO else 0.0


def _mass(part: LogBracket, total: LogBracket, cap: float) -> Bracket:
    """Enclosure of part / total, capped at ``cap``."""
    return Bracket(_exp_or_zero(part.lower - total.upper),
                   min(cap, _exp_or_zero(part.upper - total.lower)))


def _quotient(num: QuadratureResult, den: QuadratureResult) -> Bracket:
    """Enclosure of num / den from the log brackets of two quadratures,
    clamped to [0, 1]."""
    nl, nh = num.log_bracket()
    dl, dh = den.log_bracket()
    return Bracket(_exp_or_zero(nl - dh), _exp_or_zero(nh - dl)).clamp01()


def _tilt_integrand_max(n: int, s: float) -> float:
    """Maximizer of h(u) = -1/u^2 - n u^2 + sqrt(2) s u on (0, 1]."""
    def dh(u):
        return 2.0 / u ** 3 - 2.0 * n * u + math.sqrt(2.0) * s

    if dh(1.0) >= 0.0:  # h increasing on the whole interval
        return 1.0
    lo, hi = 1e-8, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dh(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def _tilt_integral(n: int, s: float, tol: float,
                   theta_lo: float = 0.0, theta_hi: float = 1.0) -> QuadratureResult:
    """ln of integral over theta in [theta_lo, theta_hi] of
    e^(-1/theta - n theta + sqrt(2 theta) s), via theta = u^2 (the
    substitution regularizes the essential zero at theta = 0)."""
    u_lo, u_hi = math.sqrt(theta_lo), math.sqrt(theta_hi)
    rt2s = math.sqrt(2.0) * s

    def f(u):
        if u <= 0.0:
            return LOG_ZERO
        return -1.0 / (u * u) - n * u * u + rt2s * u + math.log(2.0 * u)

    u_star = _tilt_integrand_max(n, s)
    bps = [x for x in (0.5 * u_star, u_star, 0.5 * (u_star + 1.0), 0.25, 0.5)
           if u_lo < x < u_hi]
    return adaptive_quadrature(f, u_lo, u_hi, tol, breakpoints=bps, relative=True)


@functools.lru_cache(maxsize=None)
def _z0(tol: float) -> QuadratureResult:
    """The data-free normalizer Z0 = integral of e^(-1/theta) over [0,1]; it
    depends on the tolerance alone, so it is integrated once per process."""
    return _tilt_integral(0, 0.0, tol)


class _StepSum(NamedTuple):
    """Enclosures of the ln terms of the levels 1..M, of the tail and total."""

    lo: np.ndarray
    hi: np.ndarray
    tail: LogBracket
    total: LogBracket


class BarronEngine:
    """Single-writer exact posterior engine.

    Feed data with ``add_point``/``add_points``; query marginals, the
    component split, the within-component posteriors, Hellinger ball masses
    and the step-family predictive.  When a truth density is supplied its
    running log-likelihood is tracked so diagnostics can convert between
    plain likelihoods and likelihood ratios.

    The step sum is cut at M = max(distinct-cell level D, ceil(K / 2)),
    K = n_distinct: past D every occupancy is K, and past K/2 the tail series
    converges fast; no truncation is a setting.  The step-marginal bracket
    is below 1e-10 nats wide (uniform truth, n = 100 to 8000), from rounding.
    """

    def __init__(self, prior: BarronPriorConfig | None = None,
                 quad_tol: float = 1e-9, truth=None):
        self.prior = prior or BarronPriorConfig()
        self.quad_tol = float(quad_tol)
        self.truth = truth
        self._pts: list[float] = []
        self._n = 0
        self._s = 0.0
        self._sum_log_truth = 0.0
        self._min_gap = math.inf
        self._n_distinct = 0
        # occupancy k_N of the levels 1..D-1 below the distinct-cell level D
        self._k = np.zeros(0, dtype=np.int64)
        self._cache: dict = {}

    # -- state ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def stats(self) -> SufficientStats:
        return SufficientStats(n=self._n, s_n=self._s,
                               sorted_points=np.array(self._pts),
                               min_gap=self._min_gap,
                               n_distinct=self._n_distinct)

    @property
    def occupancy(self) -> OccupancyStats:
        return OccupancyStats(n=self._n, n_distinct=self._n_distinct,
                              distinct_level=self.distinct_level(),
                              k_by_level=self._occupancies(self._cut()))

    @property
    def w_n(self) -> float:
        return self._s / self._n if self._n else 0.0

    @property
    def mean_log_truth(self) -> float:
        """(1/n) sum_i ln f_star(x_i); 0 under the uniform truth."""
        return self._sum_log_truth / self._n if self._n else 0.0

    def distinct_level(self) -> int:
        """Smallest level beyond which distinct points occupy distinct
        cells.  Uses min_gap/2 so float rounding in the cell map cannot
        merge two distinct points."""
        if not math.isfinite(self._min_gap):
            return 1
        # smallest N with 1/(2 N^2) < min_gap / 2
        nd = math.isqrt(int(1.0 / self._min_gap)) + 1
        while 1.0 / (2.0 * nd * nd) >= 0.5 * self._min_gap:
            nd += 1
        return nd

    def _occupancies(self, m: int) -> np.ndarray:
        """k_N for the levels 1..m: the stored ones below the distinct-cell
        level, n_distinct from it on."""
        fill = np.full(max(0, m - self._k.size), self._n_distinct, np.int64)
        return np.concatenate([self._k[:m], fill])

    def _neighbours(self, x: float) -> list[float]:
        """The sample points next to x, one on each side where there is one.
        At every level, a point in x's cell on one side implies the nearest
        point on that side is in it too."""
        pos = bisect_left(self._pts, x)
        return self._pts[max(pos - 1, 0):pos + 1]

    def _nearest_distance(self, x: float) -> float:
        return min((abs(x - nb) for nb in self._neighbours(x)), default=math.inf)

    # -- updates ----------------------------------------------------------

    def add_point(self, x: float) -> None:
        """Insert one observation: updates S_n, the sorted sample, min_gap
        and the stored occupancies, and drops the state's cached queries.

        Cost: O(n) for the sorted-list insert plus O(D) cell compares over
        the levels below the distinct-cell level D, with no recount of the
        sample.  When a closer pair raises D, the levels that join the
        stored ones held n_distinct before x, since they lay at or beyond
        the old D.
        """
        x = float(x)
        if not 0.0 < x < 1.0:
            raise ValueError(f"data points must lie in (0,1), got {x}")
        self._cache.clear()
        nbs = self._neighbours(x)
        gap = self._nearest_distance(x)

        self._n += 1
        self._s += inv_norm_cdf(x)
        if self.truth is not None:
            self._sum_log_truth += self.truth.logpdf(x)

        if gap > 0.0:  # x is not a duplicate
            self._min_gap = min(self._min_gap, gap)
            below = self.distinct_level() - 1
            if below > self._k.size:
                self._k = self._occupancies(below)
            self._n_distinct += 1
        insort(self._pts, x)

        # x occupies a new cell at a level unless a neighbour shares it
        w2 = _level_table(self._k.size)[0]
        c_x = (w2 * x).astype(np.int64)
        newly = np.ones(self._k.size, dtype=bool)
        for nb in nbs:
            newly &= c_x != (w2 * nb).astype(np.int64)
        self._k += newly

    def add_points(self, xs) -> None:
        for x in xs:
            self.add_point(x)

    # -- step-family marginal ----------------------------------------------

    def _cut(self) -> int:
        """The cut M = max(D, ceil(n_distinct / 2)) (see the class docstring)."""
        return max(self.distinct_level(), -(-self._n_distinct // 2))

    def _head(self, levels: int) -> tuple[np.ndarray, np.ndarray]:
        """Enclosures [lo, hi] of ln w_N 2^n (N^2)_k / (2N^2)_k for the levels
        1..levels (LOG_ZERO where k > N^2).  Where q = (k-1)/N^2 <= 1/8 the ratio
        is -k ln 2 - sum_p (1 - 2^-p) S_p(k) / (p N^2p), with a rest after P
        terms of at most k q^(P+1) / ((P+1)(1-q)); the other levels multiply
        the factors (N^2-i)/(2N^2-i).  Both ends carry the rounding."""
        ks, P = self._occupancies(levels), _HEAD_TERMS
        m = np.arange(1, levels + 1, dtype=np.float64) ** 2
        q = np.maximum((ks - 1) / m, 0.0)
        ser, ratio, err = q <= _SERIES_Q, np.full(levels, LOG_ZERO), np.zeros(levels)
        if "powers" not in self._cache:  # S_p(k) = sum_(i<k) i^p, k = 0..K
            i = np.arange(self._n_distinct, dtype=np.float64)
            self._cache["powers"] = np.array(
                [np.concatenate(([0.0], np.cumsum(i ** p))) for p in range(1, P + 1)])
        sums, k, acc = self._cache["powers"], ks[ser], 0.0
        for p in range(P, 0, -1):
            acc = (acc + (1.0 - 2.0 ** -p) / p * sums[p - 1, k]) / m[ser]
        ratio[ser], err[ser] = -k * LN2 - acc, _EPS * (k + 4 * P + 8) * acc
        rest = np.where(ser, ks * q ** (P + 1) / (P + 1) / (1 - np.minimum(q, 0.5)), 0)
        for i in np.flatnonzero(~ser & (ks <= m)).tolist():
            # blocks of factors (m-j)/(2m-j) >= 1/2m keep their products normal
            k, j = int(ks[i]), np.arange(ks[i])
            block = int(690.0 / math.log(2.0 * m[i]))
            f = np.ones(-(-k // block) * block)
            f[:k] = (m[i] - j) / (2.0 * m[i] - j)
            logs = np.log(f.reshape(-1, block).prod(axis=1))
            ratio[i], err[i] = logs.sum(), _EPS * (2 * k - (logs.size + 2) * logs.sum())
        terms = _level_table(levels)[1] + self._n * LN2 + ratio
        err += 4.0 * _EPS * np.where(ks <= m, abs(terms) + (self._n + ks) * LN2 + 1, 0)
        return terms - err - rest, terms + err

    def _tail(self, cut: int, s0: int = 2, extra: int = 0) -> LogBracket:
        """Enclosure of ln sum_{N > cut} w_N 2^n (N^2)_k / (2N^2)_k N^(2-s0)
        at k = n_distinct + extra, every level past the cut holding all
        n_distinct points.  In u = a^2/N^2 <= 1, a = cut + 1, the ratio is
        2^-k e^-F(u), F(u) = sum_p (1 - 2^-p) S_p(k) u^p / (p a^2p) =
        sum_(i<k) ln((1 - i u/2a^2) / (1 - i u/a^2)); e^-F, cut after J terms,
        is summed against Hurwitz-zeta tails, and its rest is at most Cauchy's
        e^F(rho) / rho^j on the majorant e^F, at rho inside its pole a^2/(k-1)."""
        key = ("tail", cut, s0, extra)
        if key not in self._cache:
            k, a, J = self._n_distinct + extra, cut + 1.0, _TAIL_TERMS
            ix = np.arange(k) / (a * a)
            pa = np.array([0.0] + [(ix ** p).sum() * (1.0 - 2.0 ** -p)  # p a_p
                                   for p in range(1, J + 1)])
            coef = np.r_[1.0, np.zeros(J)]
            for j in range(1, J + 1):  # e^(-F): j c_j = -sum_p p a_p c_(j-p)
                coef[j] = -np.dot(pa[1:j + 1], coef[j - 1::-1]) / j
            slack = 0.0
            if k > 1:
                rho = min((J + 1) / pa[1], (J + 1) / ((J + 2) * ix[-1]))
                u = np.outer((rho, 1.0), ix)  # F at rho and at 1
                f_rho, f_one = np.log1p(-0.5 * u).sum(1) - np.log1p(-u).sum(1)
                slack = _EPS * (k + 4 * J + 8) * (1.0 + pa.sum()) * math.exp(f_one) \
                    + math.exp(f_rho - (J + 1) * math.log(rho) - math.log1p(-1 / rho))
            lo, hi = zeta_series(coef, s0, a, slack)
            base = _LOG_LEVEL_NORM + (self._n - k) * LN2
            rnd = 4.0 * _EPS * (abs(base) + abs(hi) + (self._n + k) * LN2)
            self._cache[key] = LogBracket(lo + base - rnd, hi + base + rnd)
        return self._cache[key]

    def _step_sum(self) -> _StepSum:
        if "step" not in self._cache:
            m_cut = self._cut()
            lo, hi = self._head(m_cut)
            tail = self._tail(m_cut)
            self._cache["step"] = _StepSum(lo, hi, tail,
                                           LogBracket.sum_of(lo, hi).add(tail))
        return self._cache["step"]

    def step_marginal(self, with_likelihood: bool = True) -> LogBracket:
        """Enclosure of ln of the step-component marginal: with the
        likelihood flag this is ln sum_N w_N 2^n (N^2)_{k_N} / (2N^2)_{k_N};
        without it, shifted by -n ln 2, the prior mass of the data-consistent
        step densities."""
        total = self._step_sum().total
        if with_likelihood:
            return total
        rnd = 4.0 * _EPS * (self._n * LN2 + abs(total.upper))
        return LogBracket(total.lower - rnd, total.upper + rnd).shift(-self._n * LN2)

    # -- tilt-family marginal ----------------------------------------------

    def gauss_marginal(self) -> QuadratureResult:
        """ln of the tilt-component marginal likelihood
        (1/Z0) * integral_0^1 e^(-1/theta) e^(-n theta + sqrt(2 theta) S_n)
        d theta, as a log-space quadrature result with a relative bound."""
        if "gauss" not in self._cache:
            if self._n == 0 and self._s == 0.0:
                # numerator and normalizer are the same integral
                return QuadratureResult(0.0, 0.0, 0)
            num = self.posterior_theta()._normalizer
            den = _z0(self.quad_tol)
            rel = (1.0 + num.rel_error_bound) * (1.0 + den.rel_error_bound) - 1.0
            self._cache["gauss"] = QuadratureResult(
                log_estimate=num.log_estimate - den.log_estimate,
                rel_error_bound=rel,
                evaluations=num.evaluations + den.evaluations)
        return self._cache["gauss"]

    # -- posterior queries ---------------------------------------------------

    def component_marginals(self) -> tuple[LogBracket, LogBracket]:
        """Prior-weighted marginals (tilt part, step part)."""
        g = LogBracket(*self.gauss_marginal().log_bracket()) \
            .shift(self.prior.log_continuous_weight)
        s = self.step_marginal().shift(self.prior.log_step_weight)
        return g, s

    def posterior_split(self) -> tuple[Bracket, Bracket]:
        """(mass of the tilt family, mass of the step families), each its own
        marginal over the total, so neither flushes to 0 while positive."""
        g, s = self.component_marginals()
        if g.is_zero() and s.is_zero():
            raise UndefinedPosteriorError(
                "both component marginals are zero for this data")
        return mass_ratio(g, s), mass_ratio(s, g)

    def log_evidence(self) -> LogBracket:
        """Enclosure of ln integral of the likelihood against the prior
        (uniform reference); subtract n * mean_log_truth for the
        likelihood-ratio normalization."""
        g, s = self.component_marginals()
        return g.add(s)

    def posterior_theta(self) -> PosteriorTheta:
        if "theta" not in self._cache:
            self._cache["theta"] = PosteriorTheta(n=self._n, s_n=self._s,
                                                  quad_tol=self.quad_tol)
        return self._cache["theta"]

    def posterior_over_n(self) -> LevelPosterior:
        """Posterior over partition levels within the step component."""
        lo, hi, tail, total = self._step_sum()
        log_n = np.log(np.arange(1, lo.size + 1, dtype=np.float64))
        inv = LogBracket.sum_of(lo - log_n, hi - log_n).add(self._tail(lo.size, 3))
        return LevelPosterior(levels=np.arange(1, lo.size + 1),
                              weights_lower=np.exp(lo - total.upper),
                              weights_upper=np.minimum(1.0, np.exp(hi - total.lower)),
                              tail_weight=_mass(tail, total, 1.0),
                              mean_inv_level=_mass(inv, total, 1.0))

    def set_mass(self, steps: bool, thetas=()) -> Bracket:
        """Posterior mass of the set that holds every step density if
        ``steps`` (none otherwise) and the tilt members whose theta lies in
        one of the disjoint intervals ``thetas``: the step mass times
        [steps] plus the tilt mass times each interval's tilt posterior
        mass.  An empty set has mass 0 without computing the split."""
        if not steps and not thetas:
            return Bracket(0.0, 0.0)
        f0, fstep = self.posterior_split()
        total = fstep if steps else Bracket(0.0, 0.0)
        for lo, hi in thetas:
            im = self.posterior_theta().interval_mass(lo, hi)
            total = total + Bracket(f0.lower * im.lower, f0.upper * im.upper)
        return total.clamp01()

    def hellinger_ball_mass(self, eps: float) -> Bracket:
        """Posterior mass of {f : d_h(f, uniform) > eps}.  Every step density
        sits at the constant distance sqrt(2 - sqrt 2); the tilt part is the
        theta tail above the closed-form affinity threshold."""
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        thr = gauss_exp_hellinger_threshold(eps)
        return self.set_mass(eps < HELLINGER_STEP_UNIFORM,
                             [(thr, 1.0)] if thr < 1.0 else [])

    # -- step-family predictive ----------------------------------------------

    def _unoccupied_log_factors(self, levels: int) -> np.ndarray:
        """ln 2 (N^2-k)/(2N^2-k) per level 1..levels (LOG_ZERO where N^2 < k):
        the predictive factor of an unoccupied cell, the same for every x,
        so computed once per engine state (again only for more levels)."""
        unocc = self._cache.get("unoccupied")
        if unocc is None or unocc.size < levels:
            m = _level_table(levels)[0] / 2.0
            ks = self._occupancies(levels).astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                unocc = np.log(2.0) + np.log(m - ks) - np.log(2.0 * m - ks)
            unocc[np.isnan(unocc)] = LOG_ZERO
            self._cache["unoccupied"] = unocc
        return unocc[:levels]

    def _predictive_log_factors(self, x: float, levels: int) -> np.ndarray:
        """ln of the per-level predictive density at x (occupied cell -> 2;
        unoccupied -> 2 (N^2-k)/(2N^2-k))."""
        w2 = _level_table(levels)[0]
        c_x = (w2 * x).astype(np.int64)
        occupied = np.zeros(levels, dtype=bool)
        for nb in self._neighbours(x):
            occupied |= c_x == (w2 * nb).astype(np.int64)
        return np.where(occupied, math.log(2.0), self._unoccupied_log_factors(levels))

    def _predictive_at(self, x: float) -> Bracket:
        """The level mixture of the cell predictives at x: per level up to
        N^2 = 1/d, d the distance to the nearest point; past it x's cell is
        unoccupied, and 2 (N^2-K)/(2N^2-K) (N^2)_K/(2N^2)_K is twice the
        ratio at K+1 (at a data point every cell of x is occupied)."""
        lo, hi, tail, total = self._step_sum()
        d = self._nearest_distance(x)
        if d > 0.0:
            levels = max(lo.size, int(1.0 / math.sqrt(d)) + 1)
            if levels > lo.size:
                lo, hi = self._head(levels)
            tail = self._tail(levels, 2, extra=1)
        f = self._predictive_log_factors(x, lo.size)
        tail = tail.shift(LN2)
        return _mass(LogBracket.sum_of(lo + f, hi + f).add(tail), total, 2.0)

    def step_predictive(self, x: float) -> Bracket:
        """Posterior predictive density of the step component at x (the
        level mixture of per-level cell predictives)."""
        if not 0.0 <= x < 1.0:
            raise ValueError(f"x must lie in [0,1), got {x}")
        return self._predictive_at(float(x))

    def predictive_uniform_ks(self, grid: int = 1024) -> float:
        """Kolmogorov distance between the step-predictive CDF (midpoint
        values on a regular grid) and the uniform CDF."""
        xs = (np.arange(grid) + 0.5) / grid
        mids = np.array([self._predictive_at(float(x)).midpoint() for x in xs])
        cdf = np.cumsum(mids) / grid
        targets = (np.arange(grid) + 1.0) / grid
        return float(np.max(np.abs(cdf - targets)))
