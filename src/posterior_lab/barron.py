"""Exact posterior engine for the two-component mixture prior: half the mass
spread over the smooth tilt family (theta-prior density proportional to
e^(-1/theta) on [0,1]), half over the oscillatory step families (level N
weighted 6/(pi^2 N^2), uniform across the C(2N^2, N^2) members of a level).

Every posterior quantity is computed exactly up to bracketed errors:

* the step-family marginal is a sum over levels -- a step density matches
  the data iff it selects every occupied cell, and the fraction of members
  of level N doing so is the falling-factorial ratio (N^2)_k / (2N^2)_k at
  occupancy k -- whose levels up to the cut M (see BarronEngine) each take
  one closed form, Stirling pairs with Binet's remainder (see _log_ratio),
  and whose levels past it sum in closed form against Hurwitz-zeta tails,
  with every remainder and the rounding in the bracket;
* the tilt-family marginal is log-space G7/K15 Gauss-Kronrod quadrature of
  (1/Z0) * integral of exp(-1/theta - n theta + sqrt(2 theta) S_n), whose
  error bound is QUADPACK's error estimate, still not a proof.

No two points g or more apart share a cell from the separating level S(g)
on, so from D = S(min_gap) on the occupancy is the number K of distinct
points.  The engine stores the deficits K - k_N, 0 from D on: d_N counts
the consecutive distinct points that share a level-N cell, so a pair g
apart counts only below S(g).  The level constants 2 N^2 and
ln 6/(pi^2 N^2) live in one process-wide table.

The engine is single-writer: ``add_points`` ingests a block of data with
one merge into the sorted sample, and cell compares on the consecutive
pairs the block makes and splits; all queries are read-only.  The step
predictive at x is the ratio M(data + x) / M(data) of two step marginals
with likelihood: it merges x into a copy of the engine's step state.  Each
engine state (the data seen so far) caches what its queries share, and a
merge starts a new cache: the step sum, which the step marginal, the mean
of 1/N and the predictive all read; the tail series past the cut, which the
step sum's tail and the 1/N tail both sum; and the tilt state
(PosteriorTheta), which keeps its integrand's peak, its full-interval
integral and its marginal.  The data-free tilt state, whose full integral
is Z0, is built once per process and tolerance.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .densities import cell_floor, gauss_exp_hellinger_threshold, HELLINGER_STEP_UNIFORM
from .intervals import Bracket, LogBracket, mass_ratio
from .numerics import (
    LN2,
    LOG_ZERO,
    QuadratureResult,
    adaptive_quadrature,
    binet,
    inv_norm_cdf,
    kronrod_nodes,
    zeta_series,
)

__all__ = [
    "BarronPriorConfig",
    "OccupancyStats",
    "BarronEngine",
    "PosteriorTheta",
    "UndefinedPosteriorError",
]

# ln of the level-weight normalizer 6/pi^2 (so that sum_N 6/(pi^2 N^2) = 1)
_LOG_LEVEL_NORM = math.log(6.0) - 2.0 * math.log(math.pi)

# terms of the series in (M+1)^2/N^2 past the cut; its remainder is part of
# the bracket
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
        logs = np.fromiter(map(math.log, range(cur + 1, cap + 1)), np.float64, cap - cur)
        _W2 = np.concatenate([_W2, 2.0 * levels * levels])
        _LOG_W = np.concatenate([_LOG_W, _LOG_LEVEL_NORM - 2.0 * logs])
    return _W2[:m], _LOG_W[:m]


# a 1/gap below this keeps the levels below S(gap) under 2 N^2 = 2^53, the
# range of cell_floor, and converts int(1/gap) to a float exactly, so its
# float sqrt is within one of its isqrt; add_points rejects a smaller gap
_EXACT_INV = 2.0 ** 52


def _separating_level(gap: float) -> int:
    """S(gap): from the start isqrt(int(1/gap)) + 1, the first N with
    1/(2 N^2) < gap/2 in floats, so that two points gap or more apart share
    no level-N cell from S(gap) on.  It is the smallest such level or one
    above it: one ulp above fl(1/9), at 0.11111111111111112, the level 3
    already holds, and S is 4.  The margin of half the gap is wider than the
    exact cells need (a cell narrower than the gap parts the pair, the gap's
    own rounding aside), but D and the cut M follow it, and so do the output
    bits.  The levels below S have N^2 <= 1/gap, so the gap must have
    1/gap < 2^52, as add_points ensures."""
    assert 1.0 / gap < _EXACT_INV
    nd = math.isqrt(int(1.0 / gap)) + 1
    while 1.0 / (2.0 * nd * nd) >= 0.5 * gap:
        nd += 1
    return nd


def _compared_levels(gaps: np.ndarray, limit: int) -> np.ndarray:
    """How many levels 1..c two points gap > 0 apart are compared on, as
    int64 c = min(limit, floor(sqrt(0.5 / gap)) + 1), where limit = D - 1
    is the number of levels the deficits hold.  The exact cells of a < b
    part once 2 N^2 (b - a) >= 1, as then floor(2 N^2 b) >= floor(2 N^2 a)
    + 1, so they share only levels N < sqrt(0.5 / (b - a)).  gap = fl(b - a),
    the quotient and the sqrt each round by half an ulp, and the root lies
    below 2^26, so that bound is below the float sqrt + 1 and no shared
    level lies past c.  A pair no closer than min_gap shares no cell from
    S(gap) <= D on, so the levels compared past S(gap) - 1 add nothing."""
    return np.minimum(limit, np.sqrt(0.5 / gaps).astype(np.int64) + 1)


# (pair, level) elements that one pass of _add_shared compares
_CHUNK = 1 << 14
# levels that one pass of _head sums: its closed form holds about twenty
# float temporaries per level, so a pass of 2^12 levels peaks near 1 MiB;
# the bits do not depend on the pass size
_HEAD_CHUNK = 1 << 12


def _add_shared(out: np.ndarray, a: np.ndarray, b: np.ndarray,
                sizes: np.ndarray, weight: np.ndarray) -> None:
    """Add weight[i] to out[N - 1] at every level N on which the points
    a[i] < b[i] share a cell.  Each pair is compared only on its levels
    1..sizes[i] (see _compared_levels), past which the cells part, over the
    flattened (pair, level) range in chunks of _CHUNK elements, which may
    split one pair's levels; np.add.at, unlike a bincount, needs no array as
    long as a chunk's level range."""
    ends = np.cumsum(sizes)
    starts = ends - sizes
    w2 = _level_table(int(sizes.max(initial=0)))[0]
    total = int(sizes.sum())
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        p0, p1 = np.searchsorted(ends, (lo, hi - 1), side="right")
        pairs = slice(p0, p1 + 1)
        span = np.minimum(ends[pairs], hi) - np.maximum(starts[pairs], lo)
        level = np.arange(lo, hi) - np.repeat(starts[pairs], span)
        w = w2[level]
        shared = cell_floor(w, np.repeat(a[pairs], span)) == \
            cell_floor(w, np.repeat(b[pairs], span))
        np.add.at(out, level, shared * np.repeat(weight[pairs], span))


def _log_ratio(m: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, bound) of ln (m)_k / (2m)_k = ln m! - ln b! - ln (2m)! + ln d!
    at integers 0 <= k <= m, b = m - k and d = 2m - k.  Stirling's main
    terms pair off, with Binet's function beta (see binet), into
      -k ln 2 + (b + 1/2) log1p(k / 2b) + m log1p(-k / 2m)
        + beta(m) - beta(b) - beta(2m) + beta(d),
    the two log1p terms each about k/2; at k = m (ln 0! = 0) the b terms
    are ln sqrt(pi m).  The bound adds the betas' and, in ulps: each log1p
    argument's rounding carried through it, k (d + 1/2) / 2d; each log1p
    (within an ulp, as numpy's accuracy tests hold) and its product, 3/2
    of the product, and one more where b + 1/2 rounds (b >= 2^52); and the
    sums, |s| + 2k ln 2 + 1."""
    b, d = m - k, 2.0 * m - k
    full = b == 0.0
    p1 = np.where(full, 0.5 * np.log(math.pi * m),
                  (b + 0.5) * np.log1p(k / (2.0 * np.maximum(b, 1.0))))
    p2 = m * np.log1p(-0.5 * (k / m))
    (bm, em), (bb, eb), (b2, e2), (bd, ed) = (
        binet(z) for z in (m, np.maximum(b, 1.0), 2.0 * m, d))
    s = p1 + p2
    r = (bm - b2) + (bd - np.where(full, 0.0, bb)) - k * LN2 + s
    err = _EPS * (0.5 * k * (d + 0.5) / d + 1.5 * (abs(p1) + abs(p2)) + abs(s)
                  + (b >= 2.0 ** 52) * abs(p1) + 2.0 * k * LN2 + 1.0)
    return r, err + em + np.where(full, 0.0, eb) + e2 + ed


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
class OccupancyStats:
    """Occupied-cell counts k_N for the levels 1..M up to the cut; from the
    distinct-cell level on every level holds n_distinct.  The package does
    not read it: the benchmark's tracer reads n, the size of k_by_level and
    distinct_level after each diagnostics row, for its level metrics."""

    n: int
    n_distinct: int
    distinct_level: int
    k_by_level: np.ndarray  # k_by_level[i] = occupancy of level i+1


@dataclass(frozen=True)
class PosteriorTheta:
    """The tilt component's state for one data set: the posterior over theta
    (unnormalized log density -1/theta - n theta + sqrt(2 theta) S_n) with
    bracketed interval masses, the component's marginal over Z0, and the
    prior small-ball query that witnesses KL support.  The integrand's peak,
    the full-interval integral and the marginal are each computed once per
    instance; the data-free instance of _prior holds Z0 and the prior."""

    n: int
    s_n: float
    quad_tol: float

    @functools.cached_property
    def _peak(self) -> float:
        """Maximizer of h(u) = -1/u^2 - n u^2 + sqrt(2) s u on (0, 1], a
        bisection of up to 200 steps."""
        n, s = self.n, self.s_n

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

    def _integral(self, theta_lo: float, theta_hi: float) -> QuadratureResult:
        """ln of integral over theta in [theta_lo, theta_hi] of
        e^(-1/theta - n theta + sqrt(2 theta) s), via theta = u^2 (the
        substitution regularizes the essential zero at theta = 0)."""
        u_lo, u_hi = math.sqrt(theta_lo), math.sqrt(theta_hi)
        n, rt2s = self.n, math.sqrt(2.0) * self.s_n

        def f(c, h):
            u = kronrod_nodes(c, h)
            return -1.0 / (u * u) - n * u * u + rt2s * u + np.log(2.0 * u)

        u_star = self._peak
        bps = [x for x in (0.5 * u_star, u_star, 0.5 * (u_star + 1.0), 0.25, 0.5)
               if u_lo < x < u_hi]
        return adaptive_quadrature(f, u_lo, u_hi, self.quad_tol, breakpoints=bps,
                                   relative=True)

    @functools.cached_property
    def _normalizer(self) -> QuadratureResult:
        """The full-interval integral (Z0 for the data-free instance)."""
        return self._integral(0.0, 1.0)

    @functools.cached_property
    def _marginal(self) -> QuadratureResult:
        """ln of the component's marginal likelihood, the normalizer over Z0,
        with the two relative bounds composed."""
        if self.n == 0 and self.s_n == 0.0:
            # numerator and normalizer are the same integral
            return QuadratureResult(0.0, 0.0, 0)
        num, den = self._normalizer, _prior(self.quad_tol)._normalizer
        rel = (1.0 + num.rel_error_bound) * (1.0 + den.rel_error_bound) - 1.0
        return QuadratureResult(log_estimate=num.log_estimate - den.log_estimate,
                                rel_error_bound=rel,
                                evaluations=num.evaluations + den.evaluations)

    def interval_mass(self, lo: float, hi: float) -> Bracket:
        """Posterior mass of {lo <= theta <= hi} within the tilt family."""
        lo, hi = max(0.0, lo), min(1.0, hi)
        if not lo < hi:
            return Bracket(0.0, 0.0)
        if lo == 0.0 and hi == 1.0:
            return Bracket(1.0, 1.0)  # the whole component, by definition
        return _mass(LogBracket(*self._integral(lo, hi).log_bracket()),
                     LogBracket(*self._normalizer.log_bracket()), 1.0)

    def prior_ball_mass(self, delta: float) -> Bracket:
        """Prior mass of {theta < delta}; since KL(uniform, f_theta) = theta,
        this is the prior mass of the KL ball of radius delta -- positive for
        every delta > 0."""
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must lie in (0,1], got {delta}")
        prior = _prior(self.quad_tol)
        return _mass(LogBracket(*prior._integral(0.0, delta).log_bracket()),
                     LogBracket(*prior._normalizer.log_bracket()), 1.0)


@functools.lru_cache(maxsize=None)
def _prior(tol: float) -> PosteriorTheta:
    """The data-free tilt state: its normalizer is Z0, the integral of
    e^(-1/theta) over [0,1], which depends on the tolerance alone."""
    return PosteriorTheta(0, 0.0, tol)


def _exp_or_zero(v: float) -> float:
    return math.exp(v) if v > LOG_ZERO else 0.0


def _mass(part: LogBracket, total: LogBracket, cap: float) -> Bracket:
    """Enclosure of part / total, both ends capped at ``cap``."""
    return Bracket(min(cap, _exp_or_zero(part.lower - total.upper)),
                   min(cap, _exp_or_zero(part.upper - total.lower)))


class _StepSum(NamedTuple):
    """Enclosures of the ln terms of the levels 1..M, of the tail and total."""

    lo: np.ndarray
    hi: np.ndarray
    tail: LogBracket
    total: LogBracket


class BarronEngine:
    """Single-writer exact posterior engine.

    Feed data in blocks with ``add_points`` (``add_point`` is a block of
    one); query marginals, the component split, the within-component
    posteriors, Hellinger ball masses and the step-family predictive.  A
    block costs one O(n) merge plus about sqrt(0.5 / gap) cell compares per
    consecutive pair it makes and splits, so the points between two queries
    go in as one block.  A predictive costs one such merge of x into a copy
    of the step state and one step sum of the copy.  When a truth density
    is supplied its running log-likelihood is tracked so diagnostics can
    convert between plain likelihoods and likelihood ratios.

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
        self._pts = np.zeros(0)  # the sorted sample, duplicates included
        self._n = 0
        self._s = 0.0
        self._sum_log_truth = 0.0
        self._min_gap = math.inf
        self._n_distinct = 0
        # deficit n_distinct - k_N of the levels 1..D-1 (0 from D on)
        self._d = np.zeros(0, dtype=np.int64)
        self._cache: dict = {}

    # -- state ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def occupancy(self) -> OccupancyStats:
        """The occupancies up to the cut (see OccupancyStats, which says who
        reads them)."""
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
        """The distinct-cell level D = S(min_gap) (see _separating_level):
        the deficits hold the levels 1..D-1."""
        return self._d.size + 1

    def _occupancies(self, m: int) -> np.ndarray:
        """k_N = n_distinct - d_N for the levels 1..m (d_N = 0 past the stored ones)."""
        return self._n_distinct - np.pad(self._d[:m], (0, max(0, m - self._d.size)))

    # -- updates ----------------------------------------------------------

    def add_point(self, x: float) -> None:
        """Insert one observation (see add_points)."""
        self.add_points((x,))

    def add_points(self, xs) -> None:
        """Insert a block of observations: fold S_n and the truth's
        log-likelihood in data order (one cumsum each, the left fold a
        sequence of single points makes) and merge the block into the step
        state (see _merge).  A block with a point outside (0,1), or one that
        makes two points closer than 2^-52, raises and changes nothing."""
        xs = np.asarray(xs, dtype=np.float64).ravel()
        bad = ~((xs > 0.0) & (xs < 1.0))
        if bad.any():
            raise ValueError(f"data points must lie in (0,1), got {float(xs[bad][0])}")
        if not xs.size:
            return
        s = float(np.cumsum(np.r_[self._s, inv_norm_cdf(xs)])[-1])
        log_truth = self._sum_log_truth
        if self.truth is not None:
            log_truth = float(np.cumsum(np.r_[log_truth, self.truth.logpdf(xs)])[-1])
        self._merge(xs)
        self._s, self._sum_log_truth = s, log_truth

    def _merge(self, xs: np.ndarray) -> None:
        """Merge the points xs in [0,1) into the step state: the sorted
        sample, n, n_distinct, min_gap and the deficits, with a new cache.
        Two points closer than 2^-52 raise before anything is assigned, as
        that is past the resolution of the cell map (see _EXACT_INV).

        The deficit d_N counts the consecutive distinct points that share a
        level-N cell, so the block adds the flags of the consecutive pairs it
        makes and subtracts those of the pairs it splits, each compared on
        about sqrt(0.5 / gap) levels (see _compared_levels).  Cost: one O(n)
        merge into the sorted sample plus the sum of those cell compares
        over the pairs.  The deficits are always a new array, so a copy of
        the engine (see step_predictive) never writes into the original's.
        """
        # merged sample, with each new point after its old copies, so that
        # the first copy of a value is new only if the value is
        block = np.sort(xs)
        pos = np.searchsorted(self._pts, block, side="right")
        pts = np.insert(self._pts, pos, block)
        first = np.r_[True, pts[1:] != pts[:-1]]
        u = pts[first]
        new = np.insert(np.zeros(self._pts.size, dtype=bool), pos, True)[first]
        made = np.flatnonzero(new[:-1] | new[1:])
        old = np.flatnonzero(~new)
        split = np.flatnonzero(np.diff(old) > 1)
        left = np.r_[u[made], u[old[split]]]
        right = np.r_[u[made + 1], u[old[split + 1]]]
        sign = np.repeat(np.array([1, -1], dtype=np.int64), (made.size, split.size))

        gaps = u[made + 1] - u[made]
        min_gap = min(self._min_gap, float(gaps.min(initial=math.inf)))
        if 1.0 / min_gap >= _EXACT_INV:
            i = made[gaps.argmin()]
            a, b = u[i:i + 2].tolist()
            raise ValueError(f"data points {a!r} and {b!r} lie closer than 2^-52: "
                             f"the level cells cannot part them in floats")
        # the deficits hold the levels below D = S(min_gap), and no pair is
        # compared past them
        grow = _separating_level(min_gap) - 1 - self._d.size
        d = np.pad(self._d, (0, max(grow, 0)))
        _add_shared(d, left, right, _compared_levels(right - left, d.size), sign)

        self._pts, self._n, self._n_distinct = pts, self._n + xs.size, u.size
        self._min_gap, self._d, self._cache = min_gap, d, {}

    # -- step-family marginal ----------------------------------------------

    def _cut(self) -> int:
        """The cut M = max(D, ceil(n_distinct / 2)) (see the class docstring)."""
        return max(self.distinct_level(), -(-self._n_distinct // 2))

    def _head(self, levels: int) -> tuple[np.ndarray, np.ndarray]:
        """Enclosures [lo, hi] of ln w_N 2^n (N^2)_k / (2N^2)_k for the levels
        1..levels (LOG_ZERO where k > N^2), the ratio in closed form (see
        _log_ratio), _HEAD_CHUNK levels at a time.  Both ends carry the
        ratio's bound and the rounding of ln w_N, of n ln 2 and of their sum."""
        ks = self._occupancies(levels).astype(np.float64)
        w2, log_w = _level_table(levels)
        lo, hi = np.empty(levels), np.empty(levels)
        for a in range(0, levels, _HEAD_CHUNK):
            i = slice(a, a + _HEAD_CHUNK)
            m, k, lw = w2[i] / 2.0, ks[i], log_w[i]
            r, err = _log_ratio(m, np.minimum(k, m))
            terms = lw + self._n * LN2 + r
            err += _EPS * (2.0 * abs(lw) + 2.0 * self._n * LN2 + abs(terms) + 1.0)
            lo[i] = np.where(k <= m, terms - err, LOG_ZERO)
            hi[i] = np.where(k <= m, terms + err, LOG_ZERO)
        return lo, hi

    def _tail_series(self) -> tuple[np.ndarray, float]:
        """(coefficients, slack) of e^-F(u) cut after J terms at
        k = n_distinct and a = M + 1 (see _tail), built once per engine
        state: every s0 of _tail sums the same series."""
        key = "tail_series"
        if key not in self._cache:
            k, a, J = self._n_distinct, self._cut() + 1.0, _TAIL_TERMS
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
            self._cache[key] = coef, slack
        return self._cache[key]

    def _tail(self, s0: int = 2) -> LogBracket:
        """Enclosure of ln sum_{N > M} w_N 2^n (N^2)_k / (2N^2)_k N^(2-s0)
        at k = n_distinct, every level past the cut M holding all n_distinct
        points.  In u = a^2/N^2 <= 1, a = M + 1, the ratio is
        2^-k e^-F(u), F(u) = sum_p (1 - 2^-p) S_p(k) u^p / (p a^2p) =
        sum_(i<k) ln((1 - i u/2a^2) / (1 - i u/a^2)); e^-F, cut after J terms,
        is summed against Hurwitz-zeta tails, and its rest is at most Cauchy's
        e^F(rho) / rho^j on the majorant e^F, at rho inside its pole a^2/(k-1)."""
        key = ("tail", s0)
        if key not in self._cache:
            k, a = self._n_distinct, self._cut() + 1.0
            coef, slack = self._tail_series()
            lo, hi = zeta_series(coef, s0, a, slack)
            base = _LOG_LEVEL_NORM + (self._n - k) * LN2
            rnd = 4.0 * _EPS * (abs(base) + abs(hi) + (self._n + k) * LN2)
            self._cache[key] = LogBracket(lo + base - rnd, hi + base + rnd)
        return self._cache[key]

    def _step_sum(self) -> _StepSum:
        if "step" not in self._cache:
            m_cut = self._cut()
            lo, hi = self._head(m_cut)
            tail = self._tail()
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
        return self.posterior_theta()._marginal

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

    def posterior_over_n(self) -> Bracket:
        """Enclosure of the posterior mean of 1/N over the partition levels
        within the step component; near 0 it signals escape to ever finer
        partitions."""
        lo, hi, _, total = self._step_sum()
        log_n = np.log(np.arange(1, lo.size + 1, dtype=np.float64))
        inv = LogBracket.sum_of(lo - log_n, hi - log_n).add(self._tail(3))
        return _mass(inv, total, 1.0)

    def set_mass(self, steps: bool, thetas=()) -> Bracket:
        """Posterior mass of the set that holds every step density if
        ``steps`` (none otherwise) and the tilt members whose theta lies in
        one of the disjoint intervals ``thetas``: the step mass times
        [steps] plus the tilt mass times each interval's tilt posterior
        mass.  An empty set has mass 0 without computing the split."""
        if not steps and not thetas:
            return Bracket(0.0, 0.0)
        f0, fstep = self.posterior_split()
        # a plain left fold of each end: sum() compensates from Python 3.12
        lo, hi = (fstep.lower, fstep.upper) if steps else (0.0, 0.0)
        for a, b in thetas:
            im = self.posterior_theta().interval_mass(a, b)
            lo, hi = lo + f0.lower * im.lower, hi + f0.upper * im.upper
        return Bracket(min(lo, 1.0), min(hi, 1.0))

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

    def step_predictive(self, x: float) -> Bracket:
        """Posterior predictive density of the step component at x: the
        ratio M(data + x) / M(data) of the step marginals with likelihood,
        the first from a copy of the step state with x merged in.  An x
        within 2^-52 of a data point but not on it raises, as add_points
        does."""
        if not 0.0 <= x < 1.0:
            raise ValueError(f"x must lie in [0,1), got {x}")
        ext = copy.copy(self)
        ext._merge(np.array([x], dtype=np.float64))
        return _mass(ext._step_sum().total, self._step_sum().total, 2.0)
