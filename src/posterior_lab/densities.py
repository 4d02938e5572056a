"""The three density families on [0,1): the smooth exponential-tilt family
f_theta(x) = exp(-theta + sqrt(2 theta) * PhiInv(x)), the oscillatory step
families on the dyadic-style partitions P_N, and the one-parameter cosine
family f_theta(x) proportional to 1 + cos(theta x).

Closed-form divergences (KL, Hellinger) for the tilt family are provided
together with an independent numeric Hellinger integrator used to verify
them in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    LN2,
    LOG_ZERO,
    RandomStream,
    adaptive_quadrature,
    inv_norm_cdf,
    norm_cdf,
    norm_logpdf,
)

__all__ = [
    "GaussExpDensity",
    "Partition",
    "StepDensity",
    "CosineDensity",
    "UniformDensity",
    "cosine_normalizer",
    "cell_floor",
    "cell_index",
    "kl_gauss_exp",
    "hellinger_gauss_exp",
    "hellinger_step_uniform",
    "hellinger_numeric",
    "sample_gauss_exp",
    "sample_step",
]

HELLINGER_STEP_UNIFORM = math.sqrt(2.0 - math.sqrt(2.0))  # 0.765366...

# Veltkamp's splitting constant 2^27 + 1 for doubles
_SPLIT = 134217729.0


def cell_floor(w, x) -> np.ndarray:
    """floor(w x) exactly, elementwise, for integers w < 2^53 and x in
    [0,1), w and x numbers or float64 arrays of one shape: the cell of x in
    a partition of [0,1) into w cells, as float64 integers (each below
    2^53, so exact).  The floor of f = fl(w x) is exact unless f is an
    integer (an integer strictly between f and w x would be a float nearer
    to w x than f is).  Only there is the rounding error w x - f read, from
    Dekker's two-product with Veltkamp splits (no FMA), and a negative one
    moves x one cell down.  f >= 1 makes x >= 1/w, so the split products
    stay normal; f = 0 only at x = 0."""
    f = w * x
    cells = np.floor(f)
    tie = cells == f
    # a single point skips the reduction, which costs more than its floor
    if tie.any() if tie.ndim else tie:
        cells = np.asarray(cells)
        w, x, f = (v[tie] if np.ndim(v) else v for v in (w, x, np.asarray(f)))
        t = _SPLIT * w
        w_hi = t - (t - w)
        w_lo = w - w_hi
        t = _SPLIT * x
        x_hi = t - (t - x)
        x_lo = x - x_hi
        err = ((w_hi * x_hi - f) + w_hi * x_lo + w_lo * x_hi) + w_lo * x_lo
        cells[tie] -= err < 0.0
    return cells


def cell_index(x: float, level: int) -> int:
    """Index of the cell of P_level containing x, i.e. floor(2 level^2 x)
    (see cell_floor)."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x must lie in [0,1), got {x}")
    if not 1 <= level < 2 ** 26:
        raise ValueError("level must be a positive integer below 2^26")
    return int(cell_floor(2 * level * level, x))


def _unit_values(x, open_low: bool):
    """x as a float, or an array as float64, once every element lies in
    [0,1), or in (0,1) with ``open_low``."""
    if isinstance(x, float) or np.ndim(x) == 0:
        v = float(x)
        if (0.0 < v if open_low else 0.0 <= v) and v < 1.0:
            return v
        bad = v
    else:
        v = np.asarray(x, dtype=np.float64)
        inside = ((v > 0.0) if open_low else (v >= 0.0)) & (v < 1.0)
        if inside.all():
            return v
        bad = float(v[~inside][0])
    span = "the open interval (0,1)" if open_low else "[0,1)"
    raise ValueError(f"x must lie in {span}, got {bad}")


@dataclass(frozen=True)
class Partition:
    """Partition of [0,1) into 2*level^2 half-open cells of equal width."""

    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be a positive integer")

    @property
    def n_cells(self) -> int:
        return 2 * self.level * self.level

    @property
    def cell_width(self) -> float:
        return 1.0 / self.n_cells

    def boundaries(self) -> np.ndarray:
        """Interior cell boundaries j/(2 level^2), j = 1..n_cells-1."""
        return np.arange(1, self.n_cells) / self.n_cells


@dataclass(frozen=True)
class GaussExpDensity:
    """Member of the exponential-tilt family, theta in [0,1].

    pdf(x) = exp(-theta + sqrt(2 theta) PhiInv(x)); theta = 0 is the uniform.
    """

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0,1], got {self.theta}")

    def logpdf(self, x):
        """ln f_theta at x, a number or an array, in (0,1): pdf -> 0 at x=0
        and -> inf at x=1 for theta>0, and endpoints are a measure-zero event
        for continuous data, so they are rejected."""
        z = inv_norm_cdf(_unit_values(x, open_low=True))
        return -self.theta + math.sqrt(2.0 * self.theta) * z

    def pdf(self, x: float) -> float:
        return math.exp(self.logpdf(x))

    def cdf(self, x: float) -> float:
        if not 0.0 < x < 1.0:
            raise ValueError(f"x must lie in (0,1), got {x}")
        return norm_cdf(inv_norm_cdf(x) - math.sqrt(2.0 * self.theta))

    def quad_breakpoints(self) -> tuple:
        return ()


@dataclass(frozen=True)
class UniformDensity:
    """The uniform density on [0,1) (identical to GaussExpDensity(0), but
    accepts the closed endpoint and never touches PhiInv)."""

    def logpdf(self, x):
        """0 at x, a number or an array, in [0,1)."""
        v = _unit_values(x, open_low=False)
        return 0.0 if isinstance(v, float) else np.zeros(v.shape)

    def pdf(self, x: float) -> float:
        self.logpdf(x)
        return 1.0

    def quad_breakpoints(self) -> tuple:
        return ()


@dataclass(frozen=True)
class StepDensity:
    """A step density at partition level N: value 2 on exactly N^2 selected
    cells of P_N, value 0 on the remaining N^2 cells."""

    level: int
    selected: frozenset

    def __post_init__(self):
        object.__setattr__(self, "selected", frozenset(int(i) for i in self.selected))
        part = Partition(self.level)
        if len(self.selected) != self.level * self.level:
            raise ValueError(
                f"need exactly level^2 = {self.level**2} selected cells, "
                f"got {len(self.selected)}")
        if any(not 0 <= i < part.n_cells for i in self.selected):
            raise ValueError("selected cell index out of range")

    @property
    def partition(self) -> Partition:
        return Partition(self.level)

    def pdf(self, x: float) -> float:
        return 2.0 if cell_index(x, self.level) in self.selected else 0.0

    def logpdf(self, x):
        """ln 2 on a selected cell, LOG_ZERO elsewhere, at x, a number or an
        array, in [0,1)."""
        v = _unit_values(x, open_low=False)
        if isinstance(v, float):
            return LN2 if cell_index(v, self.level) in self.selected else LOG_ZERO
        cells = cell_floor(self.partition.n_cells, v)
        return np.where(np.isin(cells, tuple(self.selected)), LN2, LOG_ZERO)

    def quad_breakpoints(self) -> tuple:
        return tuple(self.partition.boundaries())


def cosine_normalizer(theta):
    """c(theta) = 1 + sin(theta)/theta at each theta >= 0 of an array."""
    t = np.asarray(theta, dtype=float)
    t2 = t * t
    # sin(t)/t by series below 1e-6; 4 terms, exact to well below 1 ulp there
    series = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 * t2 * t2 / 5040.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 + np.where(t < 1e-6, series, np.sin(t) / t)


@dataclass(frozen=True)
class CosineDensity:
    """pdf(x) = (1 + cos(theta x)) / c(theta) on [0,1], theta >= 0, with
    normalizer c(theta) = 1 + sin(theta)/theta (c(0) = 2)."""

    theta: float

    def __post_init__(self):
        if self.theta < 0.0 or not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite and >= 0, got {self.theta}")

    def log_normalizer(self) -> float:
        return self._log_normalizer

    def normalizer(self) -> float:
        return float(cosine_normalizer(self.theta))

    @functools.cached_property
    def _log_normalizer(self) -> float:
        # once per instance: logpdf reads it at every x
        return math.log(self.normalizer())

    def logpdf(self, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"x must lie in [0,1], got {x}")
        # 1 + cos(u) = 2 cos^2(u/2): stable where the pdf touches zero
        c = math.cos(0.5 * self.theta * x)
        if c == 0.0:
            return LOG_ZERO
        return math.log(2.0) + 2.0 * math.log(abs(c)) - self.log_normalizer()

    def pdf(self, x: float) -> float:
        lp = self.logpdf(x)
        return math.exp(lp) if lp > LOG_ZERO else 0.0

    def quad_breakpoints(self) -> tuple:
        # pdf zeros at theta*x = pi, 3pi, ... plus half-period points
        if self.theta <= 0.0:
            return ()
        half = math.pi / self.theta
        return tuple(k * half for k in range(1, int(1.0 / half) + 1))


# ---------------------------------------------------------------------------
# closed-form divergences for the tilt family
# ---------------------------------------------------------------------------

def kl_gauss_exp(theta1: float, theta2: float) -> float:
    """KL(f_theta1, f_theta2) = (theta2 - theta1) + sqrt(2 theta1)
    (sqrt(2 theta1) - sqrt(2 theta2)); equals (sqrt(theta1)-sqrt(theta2))^2.
    """
    for t in (theta1, theta2):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"theta must lie in [0,1], got {t}")
    s1 = math.sqrt(2.0 * theta1)
    s2 = math.sqrt(2.0 * theta2)
    return max(0.0, (theta2 - theta1) + s1 * (s1 - s2))


def hellinger_gauss_exp(theta1: float, theta2: float) -> float:
    """Hellinger distance between tilt members; the affinity is
    exp(-(sqrt(theta1)-sqrt(theta2))^2 / 4) (verified against quadrature in
    the test suite before being relied on)."""
    for t in (theta1, theta2):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"theta must lie in [0,1], got {t}")
    d = math.sqrt(theta1) - math.sqrt(theta2)
    return math.sqrt(max(0.0, 2.0 - 2.0 * math.exp(-0.25 * d * d)))


def gauss_exp_hellinger_threshold(eps: float) -> float:
    """theta above which d_h(f_0, f_theta) > eps; +inf when unreachable."""
    if eps <= 0.0:
        return 0.0
    a = 1.0 - 0.5 * eps * eps  # required affinity
    if a <= 0.0:
        return float("inf")
    return -4.0 * math.log(a)


def hellinger_step_uniform(d: StepDensity) -> float:
    """Distance of any step density to the uniform: sqrt(2 - sqrt(2)),
    independent of level and selection (affinity sqrt(2)/2)."""
    if not isinstance(d, StepDensity):
        raise TypeError("expected a StepDensity")
    return HELLINGER_STEP_UNIFORM


# ---------------------------------------------------------------------------
# numeric Hellinger distance (independent oracle route)
# ---------------------------------------------------------------------------

_Z_CUTOFF = 9.0
# crude uniform bound on sqrt(f g) * phi outside |z| > cutoff for all pairs
# from the three families (see test suite); folded into the reported bound
_TAIL_SLACK = 1e-13


def hellinger_numeric(f, g, tol: float = 1e-9) -> float:
    """d_h(f, g) by adaptive quadrature of the affinity integral.

    The integral runs in z = PhiInv(x) coordinates, where the tilt family is
    a smooth exponential and the substitution removes its x -> 1 endpoint
    blow-up; step-density cell boundaries (and cosine pdf zeros) are passed
    as subdivision breakpoints.
    """
    def integrand(z: float) -> float:
        x = norm_cdf(z)
        if not 0.0 < x < 1.0:
            return LOG_ZERO
        lf = f.logpdf(x)
        lg = g.logpdf(x)
        if lf == LOG_ZERO or lg == LOG_ZERO:
            return LOG_ZERO
        return 0.5 * (lf + lg) + norm_logpdf(z)

    bps = set()
    for d in (f, g):
        get = getattr(d, "quad_breakpoints", None)
        if get is not None:
            for x in get():
                if 0.0 < x < 1.0:
                    bps.add(inv_norm_cdf(float(x)))
    res = adaptive_quadrature(np.vectorize(integrand, otypes=[float]),
                              -_Z_CUTOFF, _Z_CUTOFF, tol, breakpoints=sorted(bps))
    # the upper end of the affinity bracket: near x = 1, x = Phi(z) rounds
    # and the integrand carries rounding of about 1e-12, which the
    # quadrature's error bound covers, so d(f, f) comes out 0
    affinity = min(1.0, math.exp(res.log_bracket()[1]) + _TAIL_SLACK)
    return math.sqrt(max(0.0, 2.0 - 2.0 * affinity))


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

_OPEN_LO = math.ulp(0.5)  # clamp guard: keep samples strictly inside (0,1)
_OPEN_HI = 1.0 - math.ulp(0.5)


def sample_gauss_exp(d: GaussExpDensity, rs: RandomStream, n: int) -> np.ndarray:
    """n draws from f_theta: X = Phi(sqrt(2 theta) + Z), Z standard normal
    (inverse-CDF, so the output is a pure function of the stream)."""
    u = rs.uniform_open(n)
    shift = math.sqrt(2.0 * d.theta)
    out = np.fromiter(map(norm_cdf, (shift + inv_norm_cdf(u)).tolist()),
                      dtype=float, count=n)
    return np.clip(out, _OPEN_LO, _OPEN_HI)


def sample_step(d: StepDensity, rs: RandomStream, n: int) -> np.ndarray:
    """n draws from a step density: uniform cell among the selected ones,
    then uniform within the cell (two stream words per draw)."""
    cells = np.array(sorted(d.selected), dtype=float)
    u = rs.uniform(2 * n)
    pick = np.minimum((u[0::2] * cells.size).astype(int), cells.size - 1)
    width = d.partition.cell_width
    x = (cells[pick] + u[1::2]) * width
    # keep draws strictly inside (0,1): the posterior engine's update
    # contract excludes the endpoints
    return np.clip(x, _OPEN_LO, _OPEN_HI)
