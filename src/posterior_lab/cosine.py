"""Posterior computation for the one-parameter cosine family under an
exponential or a truncated-uniform prior on theta >= 0.

Every query integrates the head [0, theta_0] (``CosineEngine.cap``) to a
relative quad_tol.  Beyond a reach c the joint mass is bracketed by the prior
tail times the sup-likelihood bound (2 / (1 - 1/c))^n.  Each query works out
c in closed form, so that this bound is at most quad_tol times the head part
it joins, and integrates [theta_0, c] to that absolute error.  The bound is
added whatever c is, so c sets only how sharp a bracket is, never whether it
holds.  The oscillatory likelihood is subdivided at half-period boundaries of
the fastest data-driven oscillation.  The quadrature is G7/K15
Gauss-Kronrod with QUADPACK's error estimate, still not a proof.

An engine holds one data set.  Its evidence, region and Hellinger queries
each integrate their own pieces, cut at their own edges but at the same
half-period breakpoints, so interior panels repeat exactly; the engine
memoizes ln prior + ln likelihood per theta, and each theta reaches the
likelihood once per engine, in one theta x data pass per refinement round.

The Hellinger distance to the uniform has a closed form here (the affinity
is an integral of |cos|), which the test suite verifies against the generic
numeric integrator before it is relied on; each query computes distances on
a theta grid only up to the point from which a certified tail bound decides
the region, and region masses use inner/outer envelope enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import cosine_normalizer
from .intervals import Bracket, LogBracket, mass_ratio
from .numerics import (LN2, LOG_ZERO, MAX_INTERVALS, QuadratureError,
                       adaptive_quadrature, log_add, log_sum_exp)

__all__ = [
    "CosinePriorConfig",
    "CosineEngine",
    "cosine_loglik",
    "cosine_hellinger_uniform",
]

_PRIOR_KINDS = ("exponential", "truncated_uniform")


@dataclass(frozen=True)
class CosinePriorConfig:
    """Prior on theta >= 0: exponential(rate) or uniform on [0, theta_max];
    both have closed-form tail masses."""

    kind: str = "exponential"
    rate: float = 1.0
    theta_max: float = 50.0

    def __post_init__(self):
        if self.kind not in _PRIOR_KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}; "
                             f"choose from {_PRIOR_KINDS}")
        name = "rate" if self.kind == "exponential" else "theta_max"
        value = getattr(self, name)
        if not (math.isfinite(value) and value > 0):  # a NaN fails no <= 0
            raise ValueError(f"{name} must be finite and positive, got {value}")

    def log_density(self, theta):
        """ln prior density at each theta of an array."""
        t = np.asarray(theta, dtype=float)
        if self.kind == "exponential":
            v = math.log(self.rate) - self.rate * t
        else:
            v = np.where(t <= self.theta_max, -math.log(self.theta_max), LOG_ZERO)
        return np.where(t < 0.0, LOG_ZERO, v)

    def log_tail_mass(self, t: float) -> float:
        """ln of the prior mass of (t, infinity), in closed form."""
        if t <= 0:
            return 0.0
        if self.kind == "exponential":
            return -self.rate * t
        if t >= self.theta_max:
            return LOG_ZERO
        return math.log((self.theta_max - t) / self.theta_max)


# elements of the theta x data matrix that one pass of cosine_loglik holds
_CHUNK = 1 << 15


def cosine_loglik(theta, data):
    """sum_i ln(1 + cos(theta x_i)) - n ln(1 + sin(theta)/theta) at each theta
    of an array, via the half-angle form 2 cos^2(theta x / 2); LOG_ZERO where
    a point sits on a zero of the pdf.  The thetas go through a theta x data
    matrix a chunk of rows at a time, and each row is reduced on its own, so
    a theta's value does not depend on the others."""
    t = np.asarray(theta, dtype=float)
    if (t < 0).any():
        raise ValueError(f"theta must be >= 0, got {t.min()}")
    x = np.asarray(data, dtype=float)
    flat = t.ravel()
    out = x.size * (LN2 - np.log(cosine_normalizer(flat)))
    rows = max(1, _CHUNK // max(1, x.size))
    with np.errstate(divide="ignore"):
        for i in range(0, flat.size, rows):
            c = np.cos(np.multiply.outer(0.5 * flat[i:i + rows], x))
            out[i:i + rows] += 2.0 * np.log(np.abs(c)).sum(axis=1)
    return out.reshape(t.shape)


# ---------------------------------------------------------------------------
# closed-form Hellinger distance to the uniform
# ---------------------------------------------------------------------------

def _int_abs_cos(t):
    """integral of |cos u| du over [0, t] at each t >= 0 of an array."""
    k, s = np.divmod(t, math.pi)
    sin = np.sin(s)
    return 2.0 * k + np.where(s <= 0.5 * math.pi, sin, 2.0 - sin)


def cosine_hellinger_uniform(theta):
    """d_h(f_theta, uniform) at each theta >= 0 of an array: the affinity
    integral of sqrt(1 + cos(theta x)) reduces to an |cos| primitive
    (verified against the numeric integrator in the tests)."""
    t = np.asarray(theta, dtype=float)
    if (t < 0).any():
        raise ValueError(f"theta must be >= 0, got {t.min()}")
    with np.errstate(divide="ignore", invalid="ignore"):
        aff = math.sqrt(2.0) * (2.0 / t) * _int_abs_cos(0.5 * t) \
            / np.sqrt(cosine_normalizer(t))
    aff = np.where(t == 0.0, 1.0, aff)  # f_0 is the uniform
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.minimum(1.0, aff)))


def _tail_dh_bounds(theta: float) -> tuple[float, float]:
    """Certified [min, max] of d_h(f_t, uniform) over t >= theta (theta > 2):
    the |cos| primitive is (2/pi) t within +-0.25 and c(t) is within 1/t of 1.
    """
    dev = 1.0 / theta  # (2/t) * 0.25 * 2 safety
    a_hi = math.sqrt(2.0) * (2.0 / math.pi + dev) / math.sqrt(1.0 - 1.0 / theta)
    a_lo = math.sqrt(2.0) * (2.0 / math.pi - dev) / math.sqrt(1.0 + 1.0 / theta)
    d_lo = math.sqrt(max(0.0, 2.0 - 2.0 * min(1.0, a_hi)))
    d_hi = math.sqrt(max(0.0, 2.0 - 2.0 * max(0.0, a_lo)))
    return d_lo, d_hi


_DH_STEP = 0.02
# the first point i * 0.02 of the Hellinger grid at or past theta = 3
_DH_FROM = 150


def _decided_from(eps: float, size: int):
    """The index i of the first point i * 0.02 >= 3 of the Hellinger grid of
    ``size`` points where _tail_dh_bounds decides eps, and whether d_h
    exceeds eps from there on; None where no point of the grid decides it.
    The bounds narrow as theta grows, in floats too (each operation rounds
    monotonically), so a decided point is the first by bisection."""
    def side(i):
        d_lo, d_hi = _tail_dh_bounds(i * _DH_STEP)
        return True if eps < d_lo else False if eps >= d_hi else None

    lo, hi = _DH_FROM, size - 1
    if hi < lo or side(hi) is None:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if side(mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return hi, side(hi)


def _region_above(eps: float, theta_hi: float):
    """Inner and outer unions of the cells of the grid np.arange(0, theta_hi
    + 0.02, 0.02) approximating {theta in [0, theta_hi] : d_h(f_theta,
    uniform) > eps}.  From the first point at or past theta = 3 where
    _tail_dh_bounds decides eps, every cell lies inside (or every one
    outside) the region, so d_h is computed only up to there and a run that
    reaches the grid's end ends at theta_hi, where the quadrature pieces are
    clamped anyway; an eps no point decides takes the whole grid.  d_h
    oscillates with period 2 pi in theta, so its runs may change every half
    period pi: a theta_hi past MAX_INTERVALS of them raises QuadratureError
    before anything is computed, for every eps, so that such a reach stays a
    recorded gap rather than one quadrature over it."""
    if theta_hi / math.pi > MAX_INTERVALS:
        raise QuadratureError(f"[0, {theta_hi}] holds more than {MAX_INTERVALS} "
                              f"half periods of the Hellinger distance, past the "
                              f"quadrature budget", math.nan, math.inf, 0)
    size = math.ceil((theta_hi + _DH_STEP) / _DH_STEP)  # np.arange's length
    k, inside = _decided_from(eps, size) or (size - 1, False)
    grid = np.arange(k + 1) * _DH_STEP  # the prefix of np.arange's grid
    above = cosine_hellinger_uniform(grid) > eps
    if k < size - 1:
        grid = np.append(grid, theta_hi)
        above = np.append(above, inside)

    def runs(cells):  # (start, end) of each run of cells [grid[i], grid[i+1]]
        step = np.diff(cells.astype(np.int8), prepend=0, append=0)
        return list(zip(grid[step == 1].tolist(), grid[step == -1].tolist()))

    return runs(above[:-1] & above[1:]), runs(above[:-1] | above[1:])


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class CosineEngine:
    """Posterior over theta >= 0 given data in [0,1] under a
    CosinePriorConfig, with bracketed region masses."""

    def __init__(self, prior: CosinePriorConfig, data, quad_tol: float = 1e-8):
        self.prior = prior
        self.data = np.asarray(list(data), dtype=float)
        if self.data.size and (self.data.min() < 0.0 or self.data.max() > 1.0):
            raise ValueError("data must lie in [0,1]")
        self.quad_tol = float(quad_tol)
        self._cache: dict = {}
        self._joint: dict = {}  # theta -> ln prior + ln likelihood

    @property
    def n(self) -> int:
        return int(self.data.size)

    def log_joint(self, theta):
        """ln prior density + ln likelihood at each theta of an array; each
        theta is evaluated once per engine, with the thetas not seen before
        in one likelihood pass."""
        t = np.asarray(theta, dtype=float)
        keys = t.ravel().tolist()
        memo = self._joint
        got = list(map(memo.get, keys))
        if None in got:
            new = list(dict.fromkeys([k for k, v in zip(keys, got) if v is None]))
            ts = np.array(new)
            v = self.prior.log_density(ts)
            if self.n:
                v = v + cosine_loglik(ts, self.data)
            memo.update(zip(new, v.tolist()))
            got = list(map(memo.__getitem__, keys))
        return np.array(got).reshape(t.shape)

    # -- quadrature domain --------------------------------------------------

    def cap(self) -> float:
        """The head end theta_0: theta_max under the truncated uniform,
        else max(30, 0.75 n)."""
        if self.prior.kind == "truncated_uniform":
            return float(self.prior.theta_max)
        return max(30.0, 0.75 * self.n)

    def _log_tail_bound(self, c: float) -> float:
        """ln upper bound of the joint mass beyond c >= cap(): prior tail
        times the sup-likelihood bound (2 / (1 - 1/c))^n."""
        pt = self.prior.log_tail_mass(c)
        if pt == LOG_ZERO or self.n == 0:
            return pt
        return pt + self.n * (LN2 - math.log(1.0 - 1.0 / c))

    def _reach(self, floor: float, region_end: float) -> float:
        """The reach c >= max(cap(), region_end) at which the tail bound is at
        most quad_tol * e^floor: past cap() it is at most
        n ln(2 / (1 - 1/cap())) - rate c."""
        head = self.cap()
        if self.prior.kind == "truncated_uniform":  # no prior mass past head
            return head
        c = max(head, region_end)
        if floor > LOG_ZERO:
            sup = self.n * (LN2 - math.log(1.0 - 1.0 / head))
            c = max(c, (sup - math.log(self.quad_tol) - floor) / self.prior.rate)
        return c

    def _half_period(self) -> float:
        """pi / max(data): the half period of the fastest oscillation, or
        inf where no point lies above 0."""
        xmax = float(self.data.max()) if self.n else 0.0
        return math.pi / xmax if xmax > 0.0 else math.inf

    def _breakpoints(self, lo: float, hi: float) -> list:
        half = self._half_period()
        if math.isinf(half):
            return []
        k0 = int(lo / half) + 1
        return [k * half for k in range(k0, int(hi / half) + 1) if lo < k * half < hi]

    def _check_panels(self, lo: float, hi: float) -> None:
        """Raise QuadratureError if [lo, hi] holds more half-period panels
        than one quadrature may, counted with floor arithmetic before any
        breakpoint list or Hellinger grid is built for it."""
        half = self._half_period()
        top = hi / half  # inf (or NaN) past the float range: no budget holds it
        panels = math.floor(top) - math.floor(lo / half) + 1 \
            if math.isfinite(top) else math.inf
        if panels > MAX_INTERVALS:
            raise QuadratureError(f"[{lo}, {hi}] holds {panels:.6g} panels of a half "
                                  f"period of the likelihood, past the budget of "
                                  f"{MAX_INTERVALS} intervals", math.nan, math.inf, 0)

    def _piece_integral(self, lo: float, hi: float, floor=None) -> LogBracket:
        """The joint mass of [lo, hi] to a relative quad_tol, or, given a
        floor F, to an absolute quad_tol * e^F."""
        key = (lo, hi, floor)
        if key not in self._cache:
            f = self.log_joint if floor is None else \
                (lambda t: self.log_joint(t) - floor)
            res = adaptive_quadrature(f, lo, hi, self.quad_tol,
                                      breakpoints=self._breakpoints(lo, hi),
                                      relative=floor is None)
            br = LogBracket(*res.log_bracket())
            self._cache[key] = br if floor is None else br.shift(floor)
        return self._cache[key]

    def _pieces(self, intervals, lo: float, hi: float, floor=None) -> list:
        """[in, out]: log enclosures of the joint mass of [lo, hi] inside and
        outside the union of intervals, summed over its pieces."""
        cuts = sorted({lo, hi, *(min(max(e, lo), hi) for iv in intervals for e in iv)})
        los, his = ([], []), ([], [])
        for a, b in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (a + b)
            side = 0 if any(s <= mid <= e for s, e in intervals) else 1
            br = self._piece_integral(a, b, floor)
            los[side].append(br.lower)
            his[side].append(br.upper)
        return [LogBracket(log_sum_exp(l), log_sum_exp(h)) for l, h in zip(los, his)]

    def _parts(self, intervals_to, tail_in, region_end: float = 0.0) -> tuple:
        """(in, out): log enclosures of the joint mass inside and outside a
        theta region.  ``intervals_to(t)`` lists the region's intervals in
        [0, t]; ``tail_in(t)`` says where (t, inf) lies: True inside, False
        outside, None on either side."""
        head = self.cap()
        self._check_panels(0.0, head)
        parts = self._pieces(intervals_to(head), 0.0, head)
        side = tail_in(head)
        # the floor F: ln of the head part the tail bound joins
        joins = parts if side is None else [parts[0] if side else parts[1]]
        floor = min(p.lower for p in joins)
        if floor == LOG_ZERO:
            floor = log_add(parts[0].lower, parts[1].lower) + math.log(self.quad_tol)
        c = self._reach(floor, region_end)
        if c > head:
            self._check_panels(head, c)
            ext = self._pieces(intervals_to(c), head, c, floor)
            parts = [p.add(e) for p, e in zip(parts, ext)]
            side = tail_in(c)
        tb = self._log_tail_bound(c)
        inside, outside = parts
        if side is not False:
            inside = LogBracket(inside.lower, log_add(inside.upper, tb))
        if side is not True:
            outside = LogBracket(outside.lower, log_add(outside.upper, tb))
        return inside, outside

    def log_evidence(self) -> LogBracket:
        return self._parts(lambda t: [], lambda t: False)[1]

    # -- region masses --------------------------------------------------------

    def region_mass(self, lo: float, hi: float = math.inf) -> Bracket:
        """Posterior mass of {lo <= theta <= hi} with the tail beyond the
        reach bracketed analytically; the reach covers a finite hi."""
        if lo < 0.0 or not lo <= hi:
            raise ValueError(f"invalid region [{lo}, {hi}]")
        tail_in = math.isinf(hi)
        return mass_ratio(*self._parts(lambda t: [(lo, hi)], lambda t: tail_in,
                                       region_end=0.0 if tail_in else hi))

    def hellinger_mass(self, eps: float) -> Bracket:
        """Posterior mass of {theta : d_h(f_theta, uniform) > eps}, from
        inner/outer envelopes of the cached distance curve plus a certified
        classification of the tail beyond the reach."""
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        if eps >= math.sqrt(2.0):
            return Bracket(0.0, 0.0)

        def tail_in(t):
            d_lo, d_hi = _tail_dh_bounds(max(t, 3.0))
            return True if eps < d_lo else False if eps >= d_hi else None

        lo = mass_ratio(*self._parts(lambda t: _region_above(eps, t)[0],
                                     tail_in)).lower
        hi = mass_ratio(*self._parts(lambda t: _region_above(eps, t)[1],
                                     tail_in)).upper
        return Bracket(min(lo, hi), hi).clamp01()
