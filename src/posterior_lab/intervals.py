"""Certified interval values.

``LogBracket`` carries [lower, upper] bounds on the log of a nonnegative
quantity (marginals, series with truncated tails); ``Bracket`` carries plain
linear bounds (posterior masses, probabilities).  ``add`` widens each end
by a fixed slack, or by one ulp of the end where that is more (past 1024 in
magnitude); ``sum_of`` widens by its own term, scaled with the count and
the size of the sum; ``shift`` rounds each end outward where its sum is
inexact.  A linear mass that is positive keeps an upper end >= ulp(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import LOG_ZERO, NumericError, log_add, log_sum_exp

# outward rounding per combine, in log space (~relative 1e-13)
COMBINE_SLACK = 1e-13


@dataclass(frozen=True)
class LogBracket:
    """Enclosure [lower, upper] of the log of a nonnegative real."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise NumericError(f"invalid bracket [{self.lower}, {self.upper}]")

    @staticmethod
    def point(v: float) -> "LogBracket":
        return LogBracket(v, v)

    @staticmethod
    def sum_of(lower, upper) -> "LogBracket":
        """Enclosure of ln sum_i e^(t_i) from arrays of lower and upper ends of
        the t_i, widened by the rounding of log_sum_exp and of forming each t_i
        (a few ulp, weighted by e^(t_i - max) <= (|max| + 1/e) / |t_i|)."""
        hi = log_sum_exp(upper)
        rnd = math.ulp(1.0) * (6.0 * (upper.size + abs(hi)) + 8.0)
        return LogBracket(log_sum_exp(lower) - rnd, hi + rnd if hi > LOG_ZERO else hi)

    def is_zero(self) -> bool:
        return self.upper == LOG_ZERO

    def add(self, other: "LogBracket") -> "LogBracket":
        """Enclosure of the sum of the two underlying quantities: each end
        widened by COMBINE_SLACK, or by one ulp of itself once that is more
        (past 1024 in magnitude), which log_add's rounding stays within."""
        lo = log_add(self.lower, other.lower)
        hi = log_add(self.upper, other.upper)
        return LogBracket(lo - max(COMBINE_SLACK, math.ulp(lo)) if lo > LOG_ZERO else lo,
                          hi + max(COMBINE_SLACK, math.ulp(hi)) if hi > LOG_ZERO else hi)

    def shift(self, c: float) -> "LogBracket":
        """Multiply the underlying quantity by e^c: each end plus c, one ulp
        outward where the sum is inexact, so an exact shift (c = 0 among
        them) keeps its bits."""
        return LogBracket(add_outward(self.lower, c, False) if self.lower > LOG_ZERO else LOG_ZERO,
                          add_outward(self.upper, c, True) if self.upper > LOG_ZERO else LOG_ZERO)

    def width(self) -> float:
        if self.upper == LOG_ZERO:
            return 0.0
        return self.upper - self.lower

    def midpoint(self) -> float:
        if self.upper == LOG_ZERO:
            return LOG_ZERO
        if self.lower == LOG_ZERO:
            return self.upper
        return 0.5 * (self.lower + self.upper)

    def contains(self, log_v: float) -> bool:
        return self.lower <= log_v <= self.upper


@dataclass(frozen=True)
class Bracket:
    """Enclosure [lower, upper] of a real (used for masses in [0,1])."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise NumericError(f"invalid bracket [{self.lower}, {self.upper}]")

    @staticmethod
    def point(v: float) -> "Bracket":
        return Bracket(v, v)

    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, v: float) -> bool:
        return self.lower <= v <= self.upper


def add_outward(a: float, b: float, up: bool) -> float:
    """a + b, one ulp up (or down) where TwoSum's error puts the exact sum
    above (below) it (Knuth, TAOCP vol. 2, 4.2.2): an exact sum keeps its bits."""
    s = a + b
    t = s - a
    err = (a - (s - t)) + (b - t)
    if err > 0.0 if up else err < 0.0:
        return math.nextafter(s, math.inf if up else -math.inf)
    return s


def _positive_upper(hi: float, log_part: float) -> float:
    """A mass's upper end, at least ulp(0) while its part is positive."""
    return max(hi, math.ulp(0.0)) if log_part > LOG_ZERO else hi


def mass_share(part: LogBracket, total: LogBracket) -> Bracket:
    """Enclosure of part / total <= 1, both ends capped at 1."""
    return Bracket(min(1.0, math.exp(part.lower - total.upper)),
                   min(1.0, _positive_upper(math.exp(part.upper - total.lower), part.upper)))


def mass_ratio(num: LogBracket, rest: LogBracket) -> Bracket:
    """Enclosure of A/(A+B) given log enclosures of A and B.

    Endpoints are matched so that mass_ratio(A, B) and mass_ratio(B, A)
    sum to exactly 1 at opposite ends.
    """
    def ratio(log_a: float, log_b: float) -> float:
        if log_a == LOG_ZERO:
            return 0.0
        if log_b == LOG_ZERO:
            return 1.0
        d = log_b - log_a
        try:
            return 1.0 / (1.0 + math.exp(d))
        except OverflowError:
            # d > 709.78, where 1 / (1 + e^d) equals e^-d to well below 1 ulp
            return math.exp(-d)

    lo = ratio(num.lower, rest.upper)
    hi = _positive_upper(ratio(num.upper, rest.lower), num.upper)
    return Bracket(min(lo, hi), max(lo, hi))
