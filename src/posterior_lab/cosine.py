"""Posterior computation for the one-parameter cosine family under an
exponential or a truncated-uniform prior on theta >= 0.

Every query integrates its head [0, theta_0] (``CosineEngine.cap``) to a
relative quad_tol: up to theta_max under the truncated uniform, and under
the exponential prior up to max(30, theta_d), where theta_d is the first
point from which the query's tail side is decided (73.1 for the Hellinger
region at eps = 0.5, none for the evidence and a region [lo, inf)), but no
further than max(30, 0.75 n).  Past the head the joint mass is bounded cell
by cell, on cells of a quarter of the rounded half period H: by AM-GM a
cell's likelihood is at most (1 + Psi)^n over the normalizer's minimum,
Psi(theta) = n^-1 sum_i cos(theta x_i) taken at the cell ends plus a
curvature term (``Lattice``).  The cells run up to the crude reach C, past
which the prior tail times the sup-likelihood bound (2 / (1 - 1/C))^n is at
most quad_tol/4 times the head part the bound joins (the floor).  The
extension [theta_0, A] is integrated to the absolute error quad_tol times
the floor, and A is the first cell edge past which the cells and the crude
tail sum to at most quad_tol/2 times the floor; that sum is added whatever
A is, so A sets only how sharp a bracket is, never whether it holds.  A
finite region's end lies at or before A.  Pieces are subdivided at the
multiples of the rounded half period of the likelihood (``add_points``),
which is evaluated a Kronrod panel at a time (``panel_loglik``).  The
quadrature is G7/K15 Gauss-Kronrod with QUADPACK's error estimate, still
not a proof.

An engine holds one data set.  Its evidence, region and Hellinger queries
each integrate their own pieces, cut at their own edges but at the same
half-period breakpoints, so interior panels repeat exactly.  A row's
queries refine in lockstep (``solve_row``), one likelihood pass per round
for the whole row, and every piece reads one memo of the joint at each
panel's nodes (``_joint``), so each panel reaches the likelihood once.

The Hellinger distance to the uniform has a closed form (the affinity aff
is an integral of |cos|), which the tests verify against the numeric
integrator.  hellinger_mass(eps) is one query, cut at the crossings of aff
= 1 - eps^2/2 up to where a certified tail bound decides the region: a
0.02 grid's cells are split until bounds on aff'' and on its rounding put
each on one side (``_crossings``), and each crossing ends in a sliver (under
1e-10 wide off a tangency), counted in the upper end of both sides only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cosine_likelihood import Lattice, panel_loglik
from .densities import cosine_normalizer
from .intervals import Bracket, LogBracket, mass_ratio
from .numerics import (LN2, LOG_ZERO, MAX_INTERVALS, QuadratureError, QuadraturePiece,
                       kronrod_nodes, lockstep_quadrature, log_add)

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


# ---------------------------------------------------------------------------
# closed-form Hellinger distance to the uniform
# ---------------------------------------------------------------------------

def _affinity(t):
    """The affinity of f_t and the uniform, the integral of sqrt(f_t), at each
    t >= 0 of an array: sqrt(2) (2/t) I(t/2) / sqrt(c(t)), where I(k pi + s)
    = 2k + (sin s or 2 - sin s) integrates |cos|.  It is 1 where sqrt(2) 2/t
    overflows (t below about 1.6e-308, 0 included): f_0 is the uniform, and
    1 - aff is of order t^2 there."""
    k, s = np.divmod(0.5 * t, math.pi)
    sin = np.sin(s)
    prim = 2.0 * k + np.where(s <= 0.5 * math.pi, sin, 2.0 - sin)  # I(t/2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = math.sqrt(2.0) * (2.0 / t)
        aff = scale * prim / np.sqrt(cosine_normalizer(t))
    return np.where(np.isinf(scale), 1.0, aff)


def cosine_hellinger_uniform(theta):
    """d_h(f_theta, uniform) at each theta >= 0 of an array, from the closed
    form affinity (verified against the numeric integrator in the tests).
    Up to pi, aff = A / r with A = (2/t) sin(t/2) and r = sqrt(c(t)/2), and
    1 - aff = S / (r (r + A)) for S = c/2 - A^2 = sum_{j>=2} (-1)^j (j - 1)
    t^(2j) / (2j + 2)!, an alternating series whose terms do not cancel."""
    t = np.asarray(theta, dtype=float)
    if (t < 0).any():
        raise ValueError(f"theta must be >= 0, got {t.min()}")
    x, s = np.minimum(t, math.pi) ** 2, 0.0
    for j in range(17, 1, -1):  # S / t^4 by Horner in x = t^2; at pi, j = 16 adds 4e-21 of it
        s = s * x + (-1) ** j * (j - 1) / math.factorial(2 * j + 2)
    r, a = np.sqrt(0.5 * cosine_normalizer(t)), np.sinc(t / (2.0 * math.pi))
    return np.where(t <= math.pi, x * np.sqrt(2.0 * s / (r * (r + a))),
                    np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.minimum(1.0, _affinity(t)))))[()]


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


# the Hellinger grid's step, its first point i * 0.02 at or past theta = 3,
# and the size of the grid on which each eps's decided point is sought
_DH_STEP, _DH_FROM, _DH_DECIDED = 0.02, 150, 10 ** 8


@functools.lru_cache(maxsize=16)
def _decided(eps: float):
    """The index i of the first point i * 0.02 >= 3 of the Hellinger grid of
    _DH_DECIDED points where _tail_side decides eps, and whether d_h exceeds
    eps from there on; None where no point of the grid decides it.  The
    bounds narrow as theta grows, in floats too (each operation rounds
    monotonically), so a decided point is the first by bisection, and a
    shorter grid's first decided point is this one if it holds it."""
    lo, hi = _DH_FROM, _DH_DECIDED - 1
    if _tail_side(eps, hi * _DH_STEP) is None:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if _tail_side(eps, mid * _DH_STEP) is None:
            lo = mid + 1
        else:
            hi = mid
    return hi, _tail_side(eps, hi * _DH_STEP)


# the bounds on the rounding of aff - (1 - eps^2/2) and on |aff''| (_crossings)
_AFF_ROUND = 24.0 * 2.0 ** -53
_AFF_CURVE, _AFF_CURVE_DECAY = 1.6, 5.7


@functools.lru_cache(maxsize=16)
def _crossings(eps: float, k: int) -> tuple:
    """{theta : d_h(f_theta, uniform) > eps} = {g < 0} on [0, 0.02 k], g =
    aff - (1 - eps^2/2), as sorted (start, end, side) runs: side 0 inside,
    2 a sliver of unknown side, the rest outside.  Each cell of the 0.02
    grid is split at its midpoint until decided: g lies within M w^2 / 8 of
    its chord on a cell of width w where |g''| <= M, so a cell whose ends
    both exceed M w^2 / 8 + r lies outside, one whose ends both lie below
    -(M w^2 / 8 + r) inside, and no pair of crossings hides in it.  An
    undecided cell with both ends within r of 0, or no float between them,
    is a sliver.  r = 24u (u = 2^-53) bounds |fl(g) - g|: I is within 7u
    relative (math.pi's error moves s by at most 0.6u I, np.sin is within 4
    ulp, two roundings), the products add 5u and sqrt(c) 2.75u (c within
    3.5u); aff <= 1 makes these absolute, and 1 - eps^2/2 and g add 3u.
    M(u) = min(1.6, 5.7/u) bounds |aff''| on [u, inf): aff = sqrt(2) A
    c^-1/2, A(t) = (2/t) I(t/2), c = 1 + sinc t, so A' = (|cos(t/2)| - A)/t
    and t A'' = +-sin(t/2)/2 - 2A' (aff' is continuous where the sign flips).
    With 0 <= A <= 1, c >= 0.7827, |sinc'| <= 0.437, |sinc''| <= 1/3, |A'| <=
    1/pi and |A''| <= 0.362, aff'' = sqrt(2) (A'' c^-1/2 - A' c' c^-3/2 - A
    c'' c^-3/2 / 2 + 3 A c'^2 c^-5/2 / 4) is at most 1.58; for t >= pi, |A'|
    <= 1/t, |A''| <= (1/2 + 2/pi)/t, |c'| <= (1 + 1/pi)/t and |c''| <= 1.86/t
    give 5.65/t."""
    tau = 1.0 - 0.5 * eps * eps
    grid = np.arange(k + 1) * _DH_STEP
    g = _affinity(grid) - tau
    lo, hi, g_lo, g_hi, done = grid[:-1], grid[1:], g[:-1], g[1:], []  # (start, side)
    while lo.size:
        with np.errstate(divide="ignore"):  # M(0) is the global bound
            curve = np.minimum(_AFF_CURVE, _AFF_CURVE_DECAY / lo)
        bound = 0.125 * curve * (hi - lo) ** 2 + _AFF_ROUND
        side = np.where(np.minimum(g_lo, g_hi) > bound, 1,
                        np.where(np.maximum(g_lo, g_hi) < -bound, 0, 2))
        mid = 0.5 * (lo + hi)
        split = (side == 2) & (np.maximum(abs(g_lo), abs(g_hi)) > _AFF_ROUND) \
            & (lo < mid) & (mid < hi)
        done.append((lo[~split], side[~split]))
        lo, hi, mid = lo[split], hi[split], mid[split]
        g_mid = _affinity(mid) - tau
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        g_lo, g_hi = np.concatenate([g_lo[split], g_mid]), np.concatenate([g_mid, g_hi[split]])
    start, side = (np.concatenate(col) for col in zip(*done))
    order = np.argsort(start)  # the cells tile the grid: a run ends where the next starts
    first = order[np.flatnonzero(np.diff(side[order], prepend=-1))]
    return tuple(run for run in zip(start[first].tolist(), start[first[1:]].tolist()
                                    + grid[-1:].tolist(), side[first].tolist()) if run[2] != 1)


# ---------------------------------------------------------------------------
# queries: what one (in, out) pair of joint masses is taken over
# ---------------------------------------------------------------------------
# A query lists its region's runs (start, end, side) in [0, t] (``runs_to``):
# side 0 inside, 2 a sliver, and outside elsewhere; its pieces are cut at
# their ends.  ``tail_in(t)`` says where (t, inf) lies: True inside, False
# outside, None either.  Its head ends at ``decided`` or later, and its reach
# covers ``region_end``.  The base query's region is empty: the evidence's.

class _Query:
    """A query's kind and arguments; queries are values, so the engine keys
    its results by them."""

    __slots__ = ("args",)
    region_end = decided = 0.0

    def __init__(self, *args):
        self.args = args

    def __eq__(self, other):
        return type(self) is type(other) and self.args == other.args

    def __hash__(self):
        return hash((type(self).__name__, self.args))

    def runs_to(self, t):
        return ()

    def tail_in(self, t):
        return False


class _Evidence(_Query):
    __slots__ = ()


class _Region(_Query):
    """[lo, hi]."""

    __slots__ = ()

    def runs_to(self, t):
        return ((*self.args, 0),)

    def tail_in(self, t):
        return math.isinf(self.args[1])

    @property
    def region_end(self):
        return 0.0 if math.isinf(self.args[1]) else self.args[1]


class _Hellinger(_Query):
    """{theta : d_h(f_theta, uniform) > eps}: the runs of _crossings up to
    the grid point where _tail_side decides eps (or t), then [that point, t]
    if the tail lies inside.  Its runs may change every half period pi of
    d_h, so a t past MAX_INTERVALS of them raises QuadratureError before
    anything is computed: a recorded gap, not one quadrature over it.

    The runs of a grid of k cells are those of any longer grid clipped at
    0.02 k: the cells tile the grid, and each splits on its own ends alone.
    So an eps with a decided point K builds its table at the least power of
    two above k, or at K if that is less, and clips it: K's table serves
    every later query, and where K is far past any grid a run reaches (eps
    near the limit 0.4465, K up to 10^8) each table is at most twice the
    size the query needs."""

    __slots__ = ()

    def runs_to(self, t):
        if t / math.pi > MAX_INTERVALS:
            raise QuadratureError(f"[0, {t}] holds more than {MAX_INTERVALS} half "
                                  f"periods of the Hellinger distance, past the "
                                  f"quadrature budget", math.nan, math.inf, 0)
        size = math.ceil((t + _DH_STEP) / _DH_STEP)  # np.arange's length
        got = _decided(self.args[0])
        k, inside = got if got and got[0] < size else (size - 1, False)
        edge, built = k * _DH_STEP, min(got[0], 1 << k.bit_length()) if got else k
        runs = tuple((s, min(e, edge), side)
                     for s, e, side in _crossings(self.args[0], built) if s < edge)
        if inside and runs and runs[-1][1:] == (edge, 0):  # it goes on into the tail
            return runs[:-1] + ((runs[-1][0], t, 0),)
        return runs + ((edge, t, 0),) if inside else runs

    def tail_in(self, t):
        return _tail_side(self.args[0], t)

    @property
    def decided(self):
        """The first point of the Hellinger grid from which tail_in decides
        (inf where none does)."""
        got = _decided(self.args[0])
        return got[0] * _DH_STEP if got else math.inf


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
        down to a multiple of 2^-20: its multiples are exact, so every seed
        panel between two breakpoints has one width, which bisection halves
        exactly.  It is inf where no point lies above 0, and where it is
        past the float range in units of 2^-20 (max(data) below about
        1.8e-302), since so long a half period ends no piece."""
        xs = np.asarray(xs, dtype=float).ravel()
        bad = ~((xs >= 0.0) & (xs <= 1.0))
        if bad.any():
            raise ValueError(f"data points must lie in [0,1], got {float(xs[bad][0])}")
        self.data = np.concatenate([self.data, xs])
        xmax = float(self.data.max()) if self.n else 0.0
        units = math.pi / xmax * 2 ** 20 if xmax > 0.0 else math.inf
        self._half = math.floor(units) / 2 ** 20 if math.isfinite(units) else math.inf
        # query -> its (in, out); the memo, centre + i half-width (one
        # complex, not a pair, keeps it small) -> the row of _rows holding
        # the joint's 15 values on that panel (an index, not a row view);
        # the first QuadratureError, which every later query raises again
        self._results, self._memo, self._failure = {}, {}, None
        self._rows = np.empty((0, 15))
        self._lattice = Lattice(self.data, self._half)

    @property
    def n(self) -> int:
        return int(self.data.size)

    # -- quadrature domain --------------------------------------------------

    def cap(self, decided: float = 0.0) -> float:
        """The head end theta_0 of a query whose tail side is decided from
        ``decided`` on: theta_max under the truncated uniform, else
        max(30, decided), but no further than max(30, 0.75 n)."""
        if self.prior.kind == "truncated_uniform":
            return float(self.prior.theta_max)
        return max(30.0, min(decided, 0.75 * self.n))

    def _log_tail_bound(self, c: float) -> float:
        """ln upper bound of the joint mass beyond c >= 30: prior tail times
        the sup-likelihood bound (2 / (1 - 1/c))^n."""
        pt = self.prior.log_tail_mass(c)
        if pt == LOG_ZERO or self.n == 0:
            return pt
        return pt + self.n * (LN2 - math.log(1.0 - 1.0 / c))

    def _reach(self, floor: float, region_end: float) -> float:
        """The crude reach C >= max(30, 0.75 n, region_end) of the
        exponential prior, at which the tail bound is at most quad_tol/4 *
        e^floor: past b = max(30, 0.75 n) it is at most n ln(2 / (1 - 1/b))
        - rate C."""
        base = max(30.0, 0.75 * self.n)
        sup = self.n * (LN2 - math.log(1.0 - 1.0 / base))
        return max(base, region_end,
                   (sup - math.log(0.25 * self.quad_tol) - floor) / self.prior.rate)

    def _stop(self, head: float, floor: float, region_end: float) -> tuple:
        """(A, tb): where a query's extension past its head stops, A >=
        region_end, and ln of a bound on the joint mass beyond A.  Under the
        exponential prior the lattice cells run from the head up to the
        crude reach C, each bounded by its prior mass times its likelihood
        bound (``Lattice.cell_loglik``); A is the first cell edge past which
        the cells and the crude tail beyond C sum to at most quad_tol/2 *
        e^floor (C itself at the latest, where the crude tail alone is at
        most a quarter of that).  The sum is widened by its rounding."""
        if self.prior.kind == "truncated_uniform":  # no prior mass past head
            return head, LOG_ZERO
        if floor == LOG_ZERO:
            end = max(head, region_end)
            return end, self._log_tail_bound(end)
        c = self._reach(floor, region_end)
        self._check_panels(head, c)  # before any cell of that reach is built
        w = self._lattice.w
        if self.n == 0 or math.isinf(w) or c <= head:  # no likelihood, or no cell
            return c, self._log_tail_bound(c)
        k0, k1 = int(head // w), -int(-c // w)  # exact floor and ceiling
        edges = np.arange(k0, k1 + 1) * w
        left = np.maximum(edges[:-1], head)
        rate = self.prior.rate
        cells = -rate * left + np.log1p(-np.exp(-rate * (edges[1:] - left))) \
            + self._lattice.cell_loglik(k0, k1, head)
        # beyond[k]: the cells from k on and the crude tail past the last edge
        beyond = np.logaddexp.accumulate(
            np.append(cells, self._log_tail_bound(edges[-1]))[::-1])[::-1]
        beyond += 8.0 * math.ulp(1.0) * (cells.size + 4) \
            * (rate * edges[-1] + self.n + abs(floor) + 64.0)
        stops = np.append(left, edges[-1])
        ok = (stops >= region_end) & (beyond <= math.log(0.5 * self.quad_tol) + floor)
        k = int(ok.argmax()) if ok.any() else stops.size - 1
        return float(stops[k]), float(beyond[k])

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
        (c_j, h_j), read from the memo; the distinct panels it lacks are
        evaluated in one pass and appended to it."""
        memo, keys = self._memo, c.astype(complex)
        keys.imag = h
        keys = keys.tolist()
        new = dict.fromkeys(key for key in keys if key not in memo)
        if new:
            z = np.array(list(new))
            rows = self.prior.log_density(kronrod_nodes(z.real, z.imag)) \
                + panel_loglik(z.real, z.imag, self.data)
            memo.update((key, len(self._rows) + j) for j, key in enumerate(new))
            self._rows = np.concatenate([self._rows, rows])
        return self._rows[[memo[key] for key in keys]]

    def _integrate(self, pieces) -> dict:
        """piece -> its bracket, for every piece (lo, hi, floor), refined in
        lockstep: the joint mass of [lo, hi] to a relative quad_tol, or,
        given a floor F, to an absolute quad_tol * e^F on the joint less F.
        A piece's QuadratureError stands in place of its bracket.  A piece
        asked for again is summed again from the same memo rows, to the same
        bits.  No pieces, no quadrature."""
        brackets = dict.fromkeys(pieces)
        if not brackets:
            return brackets
        spec = [QuadraturePiece(lo, hi, tuple(self._breakpoints(lo, hi)), floor is None,
                                0.0 if floor is None else floor)
                for lo, hi, floor in brackets]
        for (lo, hi, floor), res in zip(list(brackets), lockstep_quadrature(
                self._joint, spec, self.quad_tol)):
            if not isinstance(res, QuadratureError):
                br = LogBracket(*res.log_bracket())
                res = br if floor is None else br.shift(floor)
            brackets[lo, hi, floor] = res
        return brackets

    @staticmethod
    def _cut(runs, lo: float, hi: float, floor=None) -> list:
        """The pieces of [lo, hi] cut at every end of the runs (start, end,
        side), each as ((lo, hi, floor), side): the side of the run that
        holds it, 1 (outside) where none does."""
        cuts = sorted({lo, hi, *(min(max(e, lo), hi) for run in runs for e in run[:2])})
        return [((a, b, floor), next((side for s, e, side in runs if s <= a and b <= e), 1))
                for a, b in zip(cuts[:-1], cuts[1:])]

    @staticmethod
    def _sum(pieces, brackets) -> list:
        """[in, out]: log enclosures of the summed brackets (``_integrate``)
        of the cut pieces on each side, a sliver (side 2) in the upper end of
        both, each summed by LogBracket.sum_of and so widened by its rounding;
        the first piece that failed raises its error."""
        los, his = ([], []), ([], [])
        for key, side in pieces:
            br = brackets[key]
            if isinstance(br, QuadratureError):
                raise br
            for i in (0, 1) if side == 2 else (side,):
                his[i].append(br.upper)
            if side != 2:
                los[side].append(br.lower)
        return [LogBracket.sum_of(l, h) for l, h in zip(los, his)]

    def _solve(self, queries) -> None:
        """(in, out) of every query the results lack, its pieces refined in
        lockstep with the others': first the heads of all, then, once each
        query knows its floor and reach, all extensions.  The queries go in
        the order given, and the first QuadratureError is kept as its
        query's result: the queries after it, which a row never reads (the
        engine raises that error again), are dropped at that step and are
        not planned by a later call."""
        if self._failure is not None:  # every query raises it again
            return
        plans = []  # [query, head, head pieces], then [query, ends, extension pieces]
        for q in dict.fromkeys(queries):
            got = self._results.get(q)
            if isinstance(got, QuadratureError):  # the row reads nothing past it
                break
            if got is not None:
                continue
            try:
                head = self.cap(q.decided)
                self._check_panels(0.0, head)
                plans.append([q, head, self._cut(q.runs_to(head), 0.0, head)])
            except QuadratureError as exc:
                self._results[q] = exc
                break

        def each(step):  # integrate every plan's pieces, then step through the plans
            brackets = self._integrate(key for *_, pieces in plans for key, _ in pieces)
            for i, plan in enumerate(plans):
                try:
                    step(plan, brackets)
                except QuadratureError as exc:
                    self._results[plan[0]] = exc
                    del plans[i:]
                    return

        def extend(plan, brackets):
            q, head, pieces = plan
            parts, side = self._sum(pieces, brackets), q.tail_in(head)
            # the floor F: ln of the head part the tail bound joins
            joins = parts if side is None else [parts[0] if side else parts[1]]
            floor = min(p.lower for p in joins)
            if floor == LOG_ZERO:
                floor = log_add(parts[0].lower, parts[1].lower) + math.log(self.quad_tol)
            end, tb = self._stop(head, floor, q.region_end)
            self._check_panels(head, end)
            plan[1:] = ((parts, tb, q.tail_in(end)),
                        self._cut(q.runs_to(end), head, end, floor))

        def finish(plan, brackets):
            q, (parts, tb, side), pieces = plan
            if pieces:
                parts = [p.add(e) for p, e in zip(parts, self._sum(pieces, brackets))]
            # the tail bound joins (in, out) on each side that may hold it
            tail = LogBracket(LOG_ZERO, tb)
            self._results[q] = tuple(p if side is s else p.add(tail)
                                     for p, s in zip(parts, (False, True)))

        each(extend)
        each(finish)

    def _parts(self, query) -> tuple:
        """(in, out): log enclosures of the joint mass inside and outside a
        query's theta region (_Evidence, _Region or _Hellinger), from the
        results, solving the query alone if they lack it.  Its
        QuadratureError becomes the engine's kept failure."""
        if self._failure is not None:
            raise self._failure
        if query not in self._results:
            self._solve([query])
        got = self._results[query]
        if isinstance(got, QuadratureError):
            self._failure = got
            raise got
        return got

    def solve_row(self, epsilons, regions) -> None:
        """Solve, in lockstep, every query of a row: the Hellinger region at
        each eps, each region (lo, hi) and the evidence.  The statistics' own
        calls then read the results; each brackets exactly as if it had been
        solved alone."""
        self._solve([_Hellinger(eps) for eps in epsilons if eps < math.sqrt(2.0)]
                    + [_Region(lo, hi) for lo, hi in regions] + [_Evidence()])

    def log_evidence(self) -> LogBracket:
        return self._parts(_Evidence())[1]

    # -- region masses --------------------------------------------------------

    def region_mass(self, lo: float, hi: float = math.inf) -> Bracket:
        """Posterior mass of {lo <= theta <= hi} with the tail beyond the
        reach bracketed analytically; the reach covers a finite hi."""
        if lo < 0.0 or not lo <= hi:
            raise ValueError(f"invalid region [{lo}, {hi}]")
        return mass_ratio(*self._parts(_Region(lo, hi)))

    def hellinger_mass(self, eps: float) -> Bracket:
        """Posterior mass of {theta : d_h(f_theta, uniform) > eps}, its pieces
        cut at the region's crossings (slivers on either side) plus a
        certified classification of the tail beyond the reach."""
        if eps <= 0.0:
            raise ValueError(f"eps must be positive, got {eps}")
        if eps >= math.sqrt(2.0) and self._failure is None:  # else _parts raises it
            return Bracket(0.0, 0.0)
        return mass_ratio(*self._parts(_Hellinger(eps)))
