"""Posterior computation for the one-parameter cosine family under priors
on theta >= 0 with closed-form tails.

The quadrature domain is capped adaptively: beyond the cap the posterior
contribution is bracketed by (prior tail mass) x (sup-likelihood bound
(2/c_min)^n), and the cap is widened until that bound is a negligible
fraction of the evidence.  The oscillatory likelihood is subdivided at
half-period boundaries of the fastest data-driven oscillation.  The
quadrature error bound is a Richardson estimate, not a proof.

An engine holds one data set.  Its evidence, region and Hellinger queries
each integrate [0, cap] again, cut at their own edges but at the same
half-period breakpoints, so interior panels repeat exactly; the engine
memoizes ln prior + ln likelihood per theta, and each theta reaches the
likelihood (one pass over the data) once per engine.

The Hellinger distance to the uniform has a closed form here (the affinity
is an integral of |cos|), which the test suite verifies against the generic
numeric integrator before it is relied on; distances are computed once per
process on one theta grid, which grows with the largest cap asked for, and
region masses use inner/outer envelope enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import CosineDensity
from .intervals import Bracket, LogBracket, mass_ratio
from .numerics import LN2, LOG_ZERO, adaptive_quadrature, log_add, log_sum_exp

__all__ = [
    "CosinePriorConfig",
    "CosineEngine",
    "cosine_loglik",
    "cosine_posterior_mass",
    "cosine_hellinger_mass",
    "cosine_hellinger_uniform",
]

_PRIOR_KINDS = ("exponential", "half_cauchy", "truncated_uniform")


@dataclass(frozen=True)
class CosinePriorConfig:
    """Prior on theta >= 0: exponential(rate), half-Cauchy(scale), or
    uniform on [0, theta_max]; all three have closed-form tail masses."""

    kind: str = "exponential"
    rate: float = 1.0
    scale: float = 1.0
    theta_max: float = 50.0
    tail_fraction: float = 1e-3  # cap widens until tail bound <= this x head

    def __post_init__(self):
        if self.kind not in _PRIOR_KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}; "
                             f"choose from {_PRIOR_KINDS}")
        if self.kind == "exponential" and self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.kind == "half_cauchy" and self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.kind == "truncated_uniform" and self.theta_max <= 0:
            raise ValueError("theta_max must be positive")

    def log_density(self, theta: float) -> float:
        if theta < 0:
            return LOG_ZERO
        if self.kind == "exponential":
            return math.log(self.rate) - self.rate * theta
        if self.kind == "half_cauchy":
            z = theta / self.scale
            return math.log(2.0 / math.pi) - math.log(self.scale) \
                - math.log1p(z * z)
        return -math.log(self.theta_max) if theta <= self.theta_max else LOG_ZERO

    def log_tail_mass(self, t: float) -> float:
        """ln of the prior mass of (t, infinity), in closed form."""
        if t <= 0:
            return 0.0
        if self.kind == "exponential":
            return -self.rate * t
        if self.kind == "half_cauchy":
            return math.log(2.0 / math.pi) + math.log(math.atan2(self.scale, t))
        if t >= self.theta_max:
            return LOG_ZERO
        return math.log((self.theta_max - t) / self.theta_max)


def cosine_loglik(theta: float, data) -> float:
    """sum_i ln(1 + cos(theta x_i)) - n ln(1 + sin(theta)/theta), via the
    half-angle form 2 cos^2(theta x / 2); LOG_ZERO if any point sits on a
    zero of the pdf."""
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    x = np.asarray(data, dtype=float)
    c = np.cos(0.5 * theta * x)
    if (c == 0.0).any():
        return LOG_ZERO
    return float(x.size * (LN2 - CosineDensity(theta).log_normalizer())
                 + 2.0 * np.log(np.abs(c)).sum())


# ---------------------------------------------------------------------------
# closed-form Hellinger distance to the uniform
# ---------------------------------------------------------------------------

def _int_abs_cos(t: float) -> float:
    """integral of |cos u| du over [0, t], t >= 0."""
    k, s = divmod(t, math.pi)
    part = math.sin(s) if s <= 0.5 * math.pi else 2.0 - math.sin(s)
    return 2.0 * k + part


def cosine_hellinger_uniform(theta: float) -> float:
    """d_h(f_theta, uniform): the affinity integral of sqrt(1 + cos(theta x))
    reduces to an |cos| primitive (verified against the numeric integrator
    in the tests)."""
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    if theta == 0.0:
        return 0.0
    aff = math.sqrt(2.0) * (2.0 / theta) * _int_abs_cos(0.5 * theta) \
        / math.sqrt(CosineDensity(theta).normalizer())
    return math.sqrt(max(0.0, 2.0 - 2.0 * min(1.0, aff)))


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
# the theta grid of the largest cap asked for so far in this process and
# d_h(f_theta, uniform) on it; the grid of a smaller cap is a prefix of it
_dh_grid = np.zeros(0)
_dh_vals = np.zeros(0)


def _hellinger_grid(theta_hi: float):
    """np.arange(0, theta_hi + 0.02, 0.02) and d_h to the uniform on it,
    sliced from the process-wide grid, which grows (computing only its new
    points) when theta_hi lies beyond it."""
    global _dh_grid, _dh_vals
    size = math.ceil((theta_hi + _DH_STEP) / _DH_STEP)  # np.arange's length
    if size > _dh_grid.size:
        grid = np.arange(0.0, theta_hi + _DH_STEP, _DH_STEP)
        new = [cosine_hellinger_uniform(t) for t in grid[_dh_vals.size:].tolist()]
        _dh_grid, _dh_vals = grid, np.concatenate([_dh_vals, new])
    return _dh_grid[:size], _dh_vals[:size]


def _region_above(eps: float, theta_hi: float):
    """Inner and outer unions of grid cells approximating
    {theta in [0, theta_hi] : d_h(f_theta, uniform) > eps}."""
    grid, vals = _hellinger_grid(theta_hi)
    above = vals > eps
    inner_cells = above[:-1] & above[1:]
    outer_cells = above[:-1] | above[1:]

    def merge(mask):
        out = []
        start = None
        for i, m in enumerate(mask):
            if m and start is None:
                start = grid[i]
            if not m and start is not None:
                out.append((start, grid[i]))
                start = None
        if start is not None:
            out.append((start, grid[-1]))
        return out

    return merge(inner_cells), merge(outer_cells)


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
        self._joint: dict = {}  # theta -> log_joint(theta)
        self._cap: float | None = None

    @property
    def n(self) -> int:
        return int(self.data.size)

    def log_joint(self, theta: float) -> float:
        """ln prior density + ln likelihood at theta, evaluated once per
        theta and engine."""
        v = self._joint.get(theta)
        if v is None:
            lp = self.prior.log_density(theta)
            if lp == LOG_ZERO or self.n == 0:
                v = lp
            else:
                v = lp + cosine_loglik(theta, self.data)
            self._joint[theta] = v
        return v

    # -- quadrature domain --------------------------------------------------

    def _log_tail_bound(self, cap: float) -> float:
        """ln upper bound of the joint mass beyond cap: prior tail times the
        sup-likelihood bound (2 / (1 - 1/cap))^n."""
        pt = self.prior.log_tail_mass(cap)
        if pt == LOG_ZERO or self.n == 0:
            return pt
        c_min = 1.0 - 1.0 / cap if cap > 2.0 else 0.5
        return pt + self.n * (LN2 - math.log(c_min))

    def _breakpoints(self, lo: float, hi: float) -> list:
        xmax = float(self.data.max()) if self.n else 0.0
        if xmax <= 0.0:
            return []
        half = math.pi / xmax
        k0 = int(lo / half) + 1
        return [k * half for k in range(k0, int(hi / half) + 1) if lo < k * half < hi]

    def _piece_integral(self, lo: float, hi: float) -> LogBracket:
        key = ("piece", lo, hi)
        if key not in self._cache:
            if not lo < hi:
                self._cache[key] = LogBracket.zero()
            else:
                res = adaptive_quadrature(self.log_joint, lo, hi, self.quad_tol,
                                          breakpoints=self._breakpoints(lo, hi),
                                          relative=True)
                self._cache[key] = LogBracket(*res.log_bracket())
        return self._cache[key]

    def cap(self) -> float:
        """Quadrature cap: widened until the analytic tail bound is below
        tail_fraction of the head integral."""
        if self._cap is None:
            if self.prior.kind == "truncated_uniform":
                self._cap = float(self.prior.theta_max)
            else:
                cap = max(30.0, 0.75 * self.n)
                head = self._piece_integral(0.0, cap)
                for _ in range(200):
                    tb = self._log_tail_bound(cap)
                    if tb <= math.log(self.prior.tail_fraction) + head.lower:
                        break
                    cap *= 1.5
                    head = self._piece_integral(0.0, cap)
                else:
                    raise RuntimeError("could not find a finite quadrature cap")
                self._cap = cap
        return self._cap

    def log_evidence(self) -> LogBracket:
        cap = self.cap()
        head = self._piece_integral(0.0, cap)
        tb = self._log_tail_bound(cap)
        return LogBracket(head.lower, log_add(head.upper, tb))

    # -- region masses --------------------------------------------------------

    def region_mass(self, lo: float, hi: float = math.inf) -> Bracket:
        """Posterior mass of {lo <= theta <= hi} with the beyond-cap tail
        bracketed analytically."""
        if lo < 0.0 or not lo <= hi:
            raise ValueError(f"invalid region [{lo}, {hi}]")
        tail_in = math.isinf(hi)
        # a finite region end beyond the cap straddles the bracketed tail
        tail_unc = (not tail_in) and hi > self.cap()
        return self._mass_of_intervals([(lo, hi)], tail_in_region=tail_in,
                                       tail_uncertain=tail_unc)

    def _mass_of_intervals(self, intervals, tail_in_region: bool,
                           tail_uncertain: bool = False) -> Bracket:
        cap = self.cap()
        cuts = sorted({0.0, cap, *(max(0.0, min(cap, b))
                                   for iv in intervals for b in iv)})
        in_region = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (a + b)
            in_region.append(any(lo <= mid <= hi for lo, hi in intervals))
        a_br = _sum_pieces(self, cuts, in_region, True)
        b_br = _sum_pieces(self, cuts, in_region, False)
        tb = self._log_tail_bound(cap)
        if tail_uncertain:
            a_br = LogBracket(a_br.lower, log_add(a_br.upper, tb))
            b_br = LogBracket(b_br.lower, log_add(b_br.upper, tb))
        elif tail_in_region:
            a_br = LogBracket(a_br.lower, log_add(a_br.upper, tb))
        else:
            b_br = LogBracket(b_br.lower, log_add(b_br.upper, tb))
        return mass_ratio(a_br, b_br)

    def hellinger_mass(self, eps: float) -> Bracket:
        """Posterior mass of {theta : d_h(f_theta, uniform) > eps}, from
        inner/outer envelopes of the cached distance curve plus a certified
        classification of the beyond-cap tail."""
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        if eps >= math.sqrt(2.0):
            return Bracket(0.0, 0.0)
        cap = self.cap()
        inner, outer = _region_above(eps, cap)
        d_lo, d_hi = _tail_dh_bounds(max(cap, 3.0))
        lo_mass = self._mass_of_intervals(inner, tail_in_region=(eps < d_lo)).lower \
            if inner or eps < d_lo else 0.0
        if eps < d_lo:
            hi_mass = self._mass_of_intervals(outer, tail_in_region=True).upper
        elif eps >= d_hi:
            hi_mass = self._mass_of_intervals(outer, tail_in_region=False).upper
        else:
            hi_mass = self._mass_of_intervals(outer, tail_in_region=False,
                                              tail_uncertain=True).upper
        return Bracket(min(lo_mass, hi_mass), hi_mass).clamp01()


def _sum_pieces(engine: CosineEngine, cuts, in_region, want: bool) -> LogBracket:
    los, his = [], []
    for (a, b), flag in zip(zip(cuts[:-1], cuts[1:]), in_region):
        if flag == want and a < b:
            br = engine._piece_integral(a, b)
            los.append(br.lower)
            his.append(br.upper)
    if not los:
        return LogBracket.zero()
    return LogBracket(log_sum_exp(los), log_sum_exp(his))


def cosine_posterior_mass(prior: CosinePriorConfig, data,
                          region: tuple, quad_tol: float = 1e-8) -> Bracket:
    """Posterior mass of a theta interval (lo, hi); hi may be inf."""
    return CosineEngine(prior, data, quad_tol).region_mass(*region)


def cosine_hellinger_mass(prior: CosinePriorConfig, data, eps: float,
                          quad_tol: float = 1e-8) -> Bracket:
    """Posterior mass at Hellinger distance more than eps from the uniform."""
    return CosineEngine(prior, data, quad_tol).hellinger_mass(eps)
