"""The three density families on [0,1): the smooth exponential-tilt family
f_theta(x) = exp(-theta + sqrt(2 theta) * PhiInv(x)), the oscillatory step
families on the partitions of [0,1) into 2 N^2 cells, and the normalizer of
the one-parameter cosine family f_theta(x) proportional to 1 + cos(theta x).

Each density validates its parameters when built, and has one log-density,
on arrays (a number is a 0-d array), and one exact sampler, a pure function
of a RandomStream whose draws lie strictly inside (0,1); a run's truth
scores and samples its data through them.  The closed-form divergences,
the numeric Hellinger integrator and the cosine density itself are the test
suite's oracles and live beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import LN2, LOG_ZERO, RandomStream, inv_norm_cdf, norm_cdf

__all__ = [
    "GaussExpDensity",
    "StepDensity",
    "UniformDensity",
    "cosine_normalizer",
    "cell_floor",
]

HELLINGER_STEP_UNIFORM = math.sqrt(2.0 - math.sqrt(2.0))  # 0.765366...

# Veltkamp's splitting constant 2^27 + 1 for doubles
_SPLIT = 134217729.0

# clamp guard of the samplers: the posterior engine's update contract
# excludes the endpoints, so draws stay strictly inside (0,1)
_OPEN_LO = math.ulp(0.5)
_OPEN_HI = 1.0 - math.ulp(0.5)


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


def _unit_values(x, open_low: bool) -> np.ndarray:
    """x as a float64 array, a number as a 0-d one, once every element lies
    in [0,1), or in (0,1) with ``open_low``."""
    v = np.asarray(x, dtype=np.float64)
    inside = ((v > 0.0) if open_low else (v >= 0.0)) & (v < 1.0)
    if inside.all():
        return v
    span = "the open interval (0,1)" if open_low else "[0,1)"
    raise ValueError(f"x must lie in {span}, got {float(v[~inside][0])}")


@dataclass(frozen=True)
class GaussExpDensity:
    """Member of the exponential-tilt family, theta in [0,1].

    pdf(x) = exp(-theta + sqrt(2 theta) PhiInv(x)); theta = 0 is the uniform.
    """

    theta: float

    def __post_init__(self):
        if self.theta is None or not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0,1], got {self.theta}")

    def logpdf(self, x):
        """ln f_theta at each x of an array in (0,1): pdf -> 0 at x=0 and
        -> inf at x=1 for theta>0, and endpoints are a measure-zero event
        for continuous data, so they are rejected."""
        z = inv_norm_cdf(_unit_values(x, open_low=True))
        return -self.theta + math.sqrt(2.0 * self.theta) * z

    def sample(self, rs: RandomStream, n: int) -> np.ndarray:
        """n draws: X = Phi(sqrt(2 theta) + Z), Z standard normal
        (inverse-CDF, one stream word per draw)."""
        u = rs.uniform_open(n)
        shift = math.sqrt(2.0 * self.theta)
        out = np.fromiter(map(norm_cdf, (shift + inv_norm_cdf(u)).tolist()),
                          dtype=float, count=n)
        return np.clip(out, _OPEN_LO, _OPEN_HI)


@dataclass(frozen=True)
class UniformDensity:
    """The uniform density on [0,1) (identical to GaussExpDensity(0), but
    accepts the closed endpoint and never touches PhiInv, so its draws are
    the stream's words as they are)."""

    def logpdf(self, x):
        """0 at each x of an array in [0,1)."""
        return np.zeros(_unit_values(x, open_low=False).shape)

    def sample(self, rs: RandomStream, n: int) -> np.ndarray:
        """n draws, one stream word each, already inside (0,1)."""
        return rs.uniform_open(n)


@dataclass(frozen=True)
class StepDensity:
    """A step density at partition level N: value 2 on exactly N^2 selected
    cells of the partition of [0,1) into 2 N^2 equal half-open cells, value
    0 on the remaining N^2 cells."""

    level: int
    selected: frozenset

    def __post_init__(self):
        object.__setattr__(self, "selected", frozenset(int(i) for i in self.selected))
        if self.level < 1:
            raise ValueError("level must be a positive integer")
        if len(self.selected) != self.level * self.level:
            raise ValueError(
                f"need exactly level^2 = {self.level**2} selected cells, "
                f"got {len(self.selected)}")
        if any(not 0 <= i < self.n_cells for i in self.selected):
            raise ValueError("selected cell index out of range")

    @property
    def n_cells(self) -> int:
        return 2 * self.level * self.level

    def logpdf(self, x):
        """ln 2 on a selected cell, LOG_ZERO elsewhere, at each x of an array
        in [0,1)."""
        cells = cell_floor(self.n_cells, _unit_values(x, open_low=False))
        return np.where(np.isin(cells, tuple(self.selected)), LN2, LOG_ZERO)

    def sample(self, rs: RandomStream, n: int) -> np.ndarray:
        """n draws: uniform cell among the selected ones, then uniform
        within the cell (two stream words per draw)."""
        cells = np.array(sorted(self.selected), dtype=float)
        u = rs.uniform(2 * n)
        pick = np.minimum((u[0::2] * cells.size).astype(int), cells.size - 1)
        x = (cells[pick] + u[1::2]) * (1.0 / self.n_cells)
        return np.clip(x, _OPEN_LO, _OPEN_HI)


def cosine_normalizer(theta):
    """c(theta) = 1 + sin(theta)/theta at each theta >= 0 of an array."""
    t = np.asarray(theta, dtype=float)
    t2 = t * t
    # sin(t)/t by series below 1e-6; 4 terms, exact to well below 1 ulp there
    series = 1.0 - t2 / 6.0 + t2 * t2 / 120.0 - t2 * t2 * t2 / 5040.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 + np.where(t < 1e-6, series, np.sin(t) / t)


def gauss_exp_hellinger_threshold(eps: float) -> float:
    """theta above which d_h(f_0, f_theta) > eps; +inf when unreachable."""
    if eps <= 0.0:
        return 0.0
    a = 1.0 - 0.5 * eps * eps  # required affinity
    if a <= 0.0:
        return float("inf")
    return -4.0 * math.log(a)
