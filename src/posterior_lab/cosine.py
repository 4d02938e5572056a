"""Posterior computation for the one-parameter cosine family under an
exponential or a truncated-uniform prior on theta >= 0.

Every query integrates the head [0, theta_0] (``CosineEngine.cap``) to a
relative quad_tol.  Beyond a reach c the joint mass is bracketed by the prior
tail times the sup-likelihood bound (2 / (1 - 1/c))^n.  Each query works out
c in closed form, so that this bound is at most quad_tol times the head part
it joins, and integrates [theta_0, c] to that absolute error.  The bound is
added whatever c is, so c sets only how sharp a bracket is, never whether it
holds.  The oscillatory likelihood is subdivided at the multiples of the
half period pi / max(data) of its fastest oscillation, rounded down to a
multiple of 2^-20, so that every seed panel between two breakpoints has the
same exact width and bisection halves it exactly.  The quadrature is G7/K15
Gauss-Kronrod with QUADPACK's error estimate, still not a proof.

The likelihood is evaluated a Kronrod panel at a time (``_panel_loglik``):
the half-angle cosine at each node c + h xi_k comes from the panel's centre
c by angle addition, so a panel costs one cos and one sin per data point,
and each distinct half-width h one table of cos and sin of h xi_k x / 2,
which the panels of that width share.

An engine holds one data set.  Its evidence, region and Hellinger queries
each integrate their own pieces, cut at their own edges (the two Hellinger
envelopes at the edges of both) but at the same half-period breakpoints, so
interior panels repeat exactly.  The engine keeps one memo of the joint's
values at each panel's 15 nodes, keyed by (centre, half-width); the head's
integrand and each extension's (the joint less its floor) all read it, so
each panel reaches the likelihood once per data set, in one pass per
refinement round.

The Hellinger distance to the uniform has a closed form here (the affinity
is an integral of |cos|), which the test suite verifies against the generic
numeric integrator before it is relied on; each query computes distances on
a theta grid only up to the point from which a certified tail bound decides
the region, and region masses use inner/outer envelope enclosures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .densities import cosine_normalizer
from .intervals import Bracket, LogBracket, mass_ratio
from .numerics import (LN2, LOG_ZERO, MAX_INTERVALS, QuadratureError,
                       adaptive_quadrature, kronrod_nodes, log_add, log_sum_exp)

__all__ = [
    "PRIOR_PARAMS",
    "CosinePriorConfig",
    "CosineEngine",
    "cosine_hellinger_uniform",
]

# the parameter each prior kind takes
PRIOR_PARAMS = {"exponential": "rate", "truncated_uniform": "theta_max"}


@dataclass(frozen=True)
class CosinePriorConfig:
    """Prior on theta >= 0: exponential(rate) or uniform on [0, theta_max];
    both have closed-form tail masses."""

    kind: str = "exponential"
    rate: float = 1.0
    theta_max: float = 50.0

    def __post_init__(self):
        if self.kind not in PRIOR_PARAMS:
            raise ValueError(f"unknown prior kind {self.kind!r}; "
                             f"choose from {tuple(PRIOR_PARAMS)}")
        name = PRIOR_PARAMS[self.kind]
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


# elements of each (panel, node, data) buffer of _panel_loglik
_CHUNK = 1 << 15
# the positive Kronrod nodes xi_k: the centre less h xi_k is column k of a
# panel's row, the centre plus h xi_k column 14 - k
_XI = -kronrod_nodes(np.zeros(1), np.ones(1))[0, :7]


def _panel_loglik(c: np.ndarray, h: np.ndarray, data: np.ndarray) -> np.ndarray:
    """sum_i ln(1 + cos(theta x_i)) - n ln(1 + sin(theta)/theta) at the 15
    Kronrod nodes theta of each panel (c_j, h_j), as an (m, 15) array;
    LOG_ZERO where a point sits on a zero of the pdf.  With u = c x / 2 and
    v_k = h xi_k x / 2, the half-angle cosines are cos(u -+ v_k) = cos u
    cos v_k +- sin u sin v_k and cos u at the centre: a panel costs one cos
    and one sin per data point, and each distinct half-width a table of
    cos v_k and sin v_k.  The panels go in order of h, one table alive at a
    time, a chunk of rows at a time through (rows, 7, n) buffers that each
    step overwrites; each (panel, node) row is reduced on its own, so a
    panel's values do not depend on the others.  The normalizer term is
    taken at the float nodes."""
    x = 0.5 * data
    out = x.size * (LN2 - np.log(cosine_normalizer(kronrod_nodes(c, h))))
    rows = min(c.size, max(1, _CHUNK // (14 * max(1, x.size))))
    anchor, sine = np.empty((rows, x.size)), np.empty((rows, x.size))
    prod, cross = np.empty((rows, 7, x.size)), np.empty((rows, 7, x.size))
    order = np.argsort(h, kind="stable")
    cuts = np.flatnonzero(h[order][1:] != h[order][:-1]) + 1
    with np.errstate(divide="ignore"):
        for group in np.split(order, cuts):
            v = np.multiply.outer(h[group[0]] * _XI, x)
            cos_v, sin_v = np.cos(v), np.sin(v, out=v)
            for i in range(0, group.size, rows):
                sel = group[i:i + rows]
                r = sel.size
                a = np.multiply.outer(c[sel], x, out=anchor[:r])
                b = np.sin(a, out=sine[:r])
                np.cos(a, out=a)
                mid = np.abs(a, out=prod[:r, 0])
                out[sel, 7] += 2.0 * np.log(mid, out=mid).sum(axis=1)
                p = np.multiply(a[:, None], cos_v, out=prod[:r])
                q = np.multiply(b[:, None], sin_v, out=cross[:r])
                np.subtract(p, q, out=q)  # cos(u + v_k)
                np.log(np.abs(q, out=q), out=q)
                out[sel, 8:] += 2.0 * q.sum(axis=2)[:, ::-1]
                np.add(p, np.multiply(b[:, None], sin_v, out=q), out=p)  # cos(u - v_k)
                np.log(np.abs(p, out=p), out=p)
                out[sel, :7] += 2.0 * p.sum(axis=2)
    return out


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


def _tail_side(eps: float, theta: float):
    """Whether d_h(f_t, uniform) > eps for every t >= T = max(theta, 3): True
    or False where the certified [min, max] of d_h over t >= T decides it,
    None where it does not.  The |cos| primitive is (2/pi) t within +-0.25
    and c(t) is within 1/t of 1."""
    theta = max(theta, 3.0)
    dev = 1.0 / theta  # (2/t) * 0.25 * 2 safety
    a_hi = math.sqrt(2.0) * (2.0 / math.pi + dev) / math.sqrt(1.0 - 1.0 / theta)
    a_lo = math.sqrt(2.0) * (2.0 / math.pi - dev) / math.sqrt(1.0 + 1.0 / theta)
    d_lo = math.sqrt(max(0.0, 2.0 - 2.0 * min(1.0, a_hi)))
    d_hi = math.sqrt(max(0.0, 2.0 - 2.0 * max(0.0, a_lo)))
    return True if eps < d_lo else False if eps >= d_hi else None


_DH_STEP = 0.02
# the first point i * 0.02 of the Hellinger grid at or past theta = 3
_DH_FROM = 150


def _decided_from(eps: float, size: int):
    """The index i of the first point i * 0.02 >= 3 of the Hellinger grid of
    ``size`` points where _tail_side decides eps, and whether d_h exceeds
    eps from there on; None where no point of the grid decides it.  The
    bounds narrow as theta grows, in floats too (each operation rounds
    monotonically), so a decided point is the first by bisection."""
    lo, hi = _DH_FROM, size - 1
    if hi < lo or _tail_side(eps, hi * _DH_STEP) is None:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if _tail_side(eps, mid * _DH_STEP) is None:
            lo = mid + 1
        else:
            hi = mid
    return hi, _tail_side(eps, hi * _DH_STEP)


# hellinger_mass asks for the region at the head and at the reach of the
# inner and of the outer envelope: 4 entries hold one query's
@functools.lru_cache(maxsize=4)
def _region_above(eps: float, theta_hi: float):
    """Inner and outer unions of the cells of the grid np.arange(0, theta_hi
    + 0.02, 0.02) approximating {theta in [0, theta_hi] : d_h(f_theta,
    uniform) > eps}.  From the first point at or past theta = 3 where
    _tail_side decides eps, every cell lies inside (or every one
    outside) the region, so d_h is computed only up to there and a run that
    reaches the grid's end ends at theta_hi, where the quadrature pieces are
    clamped anyway; an eps no point decides takes the whole grid.  d_h
    oscillates with period 2 pi in theta, so its runs may change every half
    period pi: a theta_hi past MAX_INTERVALS of them raises QuadratureError
    before anything is computed, for every eps, so that such a reach stays a
    recorded gap rather than one quadrature over it.  Each union is a tuple
    of (start, end) pairs, cached for the next call with the same eps and
    theta_hi."""
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
        return tuple(zip(grid[step == 1].tolist(), grid[step == -1].tolist()))

    return runs(above[:-1] & above[1:]), runs(above[:-1] | above[1:])


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class CosineEngine:
    """Posterior over theta >= 0 given data in [0,1] under a
    CosinePriorConfig, with bracketed region masses."""

    def __init__(self, prior: CosinePriorConfig, data, quad_tol: float = 1e-8):
        self.prior, self.quad_tol, self.data = prior, float(quad_tol), np.zeros(0)
        self.add_points(data)

    def add_points(self, xs) -> None:
        """Append a block of points in [0,1] (one outside or NaN raises and
        changes nothing) and drop every cached query, as a fresh engine.
        The half period pi / max(data) of the fastest oscillation is rounded
        down to a multiple of 2^-20 (inf where no point lies above 0): its
        multiples are exact, so every seed panel between two breakpoints has
        one width, which bisection halves exactly."""
        xs = np.asarray(xs, dtype=float).ravel()
        bad = ~((xs >= 0.0) & (xs <= 1.0))
        if bad.any():
            raise ValueError(f"data points must lie in [0,1], got {float(xs[bad][0])}")
        self.data = np.concatenate([self.data, xs])
        xmax = float(self.data.max()) if self.n else 0.0
        half = math.pi / xmax if xmax > 0.0 else math.inf
        self._half = math.floor(half * 2 ** 20) / 2 ** 20 if math.isfinite(half) else half
        # (lo, hi, floor) -> a piece's bracket; the memo, (centre,
        # half-width) -> the row of _rows holding the joint's 15 values on
        # that panel (an index, not a row view, keeps it small); the first
        # QuadratureError, which every later query raises again
        self._cache, self._memo, self._failure = {}, {}, None
        self._rows = np.empty((0, 15))

    @property
    def n(self) -> int:
        return int(self.data.size)

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

    def _breakpoints(self, lo: float, hi: float) -> list:
        half = self._half
        if math.isinf(half):
            return []
        k0 = int(lo / half) + 1
        return [k * half for k in range(k0, int(hi / half) + 1) if lo < k * half < hi]

    def _check_panels(self, lo: float, hi: float) -> None:
        """Raise QuadratureError if [lo, hi] holds more half-period panels
        than one quadrature may, counted with floor arithmetic before any
        breakpoint list or Hellinger grid is built for it."""
        half = self._half
        top = hi / half  # inf (or NaN) past the float range: no budget holds it
        panels = math.floor(top) - math.floor(lo / half) + 1 \
            if math.isfinite(top) else math.inf
        if panels > MAX_INTERVALS:
            raise QuadratureError(f"[{lo}, {hi}] holds {panels:.6g} panels of a half "
                                  f"period of the likelihood, past the budget of "
                                  f"{MAX_INTERVALS} intervals", math.nan, math.inf, 0)

    def _joint(self, c: np.ndarray, h: np.ndarray) -> np.ndarray:
        """ln prior + ln likelihood at the 15 Kronrod nodes of each panel
        (c_j, h_j), read from the memo; the panels it lacks are evaluated in
        one pass and appended to it."""
        keys = list(zip(c.tolist(), h.tolist()))
        new = [i for i, key in enumerate(keys) if key not in self._memo]
        if new:
            nc, nh = c[new], h[new]
            rows = self.prior.log_density(kronrod_nodes(nc, nh)) \
                + _panel_loglik(nc, nh, self.data)
            self._memo.update((keys[i], len(self._rows) + j) for j, i in enumerate(new))
            self._rows = np.concatenate([self._rows, rows])
        return self._rows[list(map(self._memo.__getitem__, keys))]

    def _piece_integral(self, lo: float, hi: float, floor=None) -> LogBracket:
        """The joint mass of [lo, hi] to a relative quad_tol, or, given a
        floor F, to an absolute quad_tol * e^F on the joint less F."""
        key = (lo, hi, floor)
        if key not in self._cache:
            f = self._joint if floor is None else lambda c, h: self._joint(c, h) - floor
            res = adaptive_quadrature(f, lo, hi, self.quad_tol,
                                      breakpoints=self._breakpoints(lo, hi),
                                      relative=floor is None)
            br = LogBracket(*res.log_bracket())
            self._cache[key] = br if floor is None else br.shift(floor)
        return self._cache[key]

    def _pieces(self, intervals, cut_at, lo: float, hi: float, floor=None) -> list:
        """[in, out]: log enclosures of the joint mass of [lo, hi] inside and
        outside the union of intervals, summed over its pieces: [lo, hi] cut
        at every end of the intervals ``cut_at``, the region's own among them."""
        cuts = sorted({lo, hi, *(min(max(e, lo), hi) for iv in cut_at for e in iv)})
        los, his = ([], []), ([], [])
        for a, b in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (a + b)
            side = 0 if any(s <= mid <= e for s, e in intervals) else 1
            br = self._piece_integral(a, b, floor)
            los[side].append(br.lower)
            his[side].append(br.upper)
        return [LogBracket(log_sum_exp(l), log_sum_exp(h)) for l, h in zip(los, his)]

    def _parts(self, intervals_to, cuts_to, tail_in, region_end: float = 0.0) -> tuple:
        """(in, out): log enclosures of the joint mass inside and outside a
        theta region.  ``intervals_to(t)`` lists the region's intervals in
        [0, t], and ``cuts_to(t)`` the intervals at whose ends the pieces are
        cut (the region's own, or those of two regions that share their
        pieces); ``tail_in(t)`` says where (t, inf) lies: True inside, False
        outside, None on either side."""
        if self._failure is not None:
            raise self._failure
        head = self.cap()
        try:
            self._check_panels(0.0, head)
            parts = self._pieces(intervals_to(head), cuts_to(head), 0.0, head)
            side = tail_in(head)
            # the floor F: ln of the head part the tail bound joins
            joins = parts if side is None else [parts[0] if side else parts[1]]
            floor = min(p.lower for p in joins)
            if floor == LOG_ZERO:
                floor = log_add(parts[0].lower, parts[1].lower) + math.log(self.quad_tol)
            c = self._reach(floor, region_end)
            if c > head:
                self._check_panels(head, c)
                ext = self._pieces(intervals_to(c), cuts_to(c), head, c, floor)
                parts = [p.add(e) for p, e in zip(parts, ext)]
                side = tail_in(c)
        except QuadratureError as exc:
            self._failure = exc
            raise
        tb = self._log_tail_bound(c)
        inside, outside = parts
        if side is not False:
            inside = LogBracket(inside.lower, log_add(inside.upper, tb))
        if side is not True:
            outside = LogBracket(outside.lower, log_add(outside.upper, tb))
        return inside, outside

    def log_evidence(self) -> LogBracket:
        def none(t):
            return []

        return self._parts(none, none, lambda t: False)[1]

    # -- region masses --------------------------------------------------------

    def region_mass(self, lo: float, hi: float = math.inf) -> Bracket:
        """Posterior mass of {lo <= theta <= hi} with the tail beyond the
        reach bracketed analytically; the reach covers a finite hi."""
        if lo < 0.0 or not lo <= hi:
            raise ValueError(f"invalid region [{lo}, {hi}]")

        def region(t):
            return [(lo, hi)]

        tail_in = math.isinf(hi)
        return mass_ratio(*self._parts(region, region, lambda t: tail_in,
                                       region_end=0.0 if tail_in else hi))

    def hellinger_mass(self, eps: float) -> Bracket:
        """Posterior mass of {theta : d_h(f_theta, uniform) > eps}, from
        inner/outer envelopes of the cached distance curve plus a certified
        classification of the tail beyond the reach."""
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        if eps >= math.sqrt(2.0) and self._failure is None:  # else _parts raises it
            return Bracket(0.0, 0.0)

        def envelope(i):  # cut at the ends of both, so the two share pieces
            return mass_ratio(*self._parts(lambda t: _region_above(eps, t)[i],
                                           lambda t: sum(_region_above(eps, t), ()),
                                           functools.partial(_tail_side, eps)))

        lo, hi = envelope(0).lower, envelope(1).upper
        if lo > hi:  # only a quadrature miss inverts the pair
            raise QuadratureError(f"hellinger_mass({eps}) at n = {self.n}: the inner "
                                  f"envelope's lower end {lo!r} lies above the outer "
                                  f"envelope's upper end {hi!r}", math.nan, math.inf, 0)
        return Bracket(lo, hi)
