"""Certified interval values.

``LogBracket`` carries [lower, upper] bounds on the log of a nonnegative
quantity (marginals, series with truncated tails); ``Bracket`` carries plain
linear bounds (posterior masses, probabilities).  Every end is rounded
outward, by one rule for each kind of step:

* a sum of log brackets, ``sum_of`` over arrays of ends and ``add``, its
  two-term case on floats, widens each end by one bound on the rounding of
  log_sum_exp (derived in ``sum_of``), for terms formed exactly: a caller
  that forms its terms first rounds them outward itself;
* ``shift`` rounds each end outward where its sum is inexact (add_outward);
* the mass maps ``mass_share`` and ``mass_ratio`` round the log difference
  they exponentiate, the exponential and each step after it outward, so a
  positive part keeps an upper end of at least ulp(0) where it underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import LOG_ZERO, NumericError, add_outward, log_add, log_sum_exp


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
        """Enclosure of ln sum_i e^(t_i) from sequences of lower and upper
        ends of the t_i, each end log_sum_exp's v widened by the bound
        eps (n + |v| + 2) on its rounding, n the end's count of terms and
        u = eps/2.  With m the largest term, S = sum_i e^(t_i - m) >= 1, and
        libm's exp and log within an ulp, log_sum_exp errs by at most:
          the shift, t_i - m to within u |t_i - m| on the n - 1 other terms,
            u |d| e^d <= u/e of S each;
          the exponentials, 2u of S (e^0 = 1 is exact; an underflow is
            below 2^-1074, nothing against S);
          the sum, in any order, (n - 1) u of S;
          so ln S errs by u ((n - 1)(1 + 1/e) + 2) to first order;
          the log, an ulp of ln S <= ln n + O(u), 2u ln n;
          the final add m + ln S, half an ulp of v, u |v|.
        Rounding v -+ the bound adds u |v| more, and
        (n - 1)(1 + 1/e) + 2 + 2 ln n <= 2n + 1 for n >= 2, so the rest of
        the bound, at least 3u, holds the second-order terms.  A term of
        LOG_ZERO adds nothing, so n may count it; one term, or none, is summed
        exactly and keeps its bits."""
        return LogBracket(_widen(log_sum_exp(lower), len(lower), False),
                          _widen(log_sum_exp(upper), len(upper), True))

    def is_zero(self) -> bool:
        return self.upper == LOG_ZERO

    def add(self, other: "LogBracket") -> "LogBracket":
        """Enclosure of the sum of the two underlying quantities: sum_of's
        two-term case, on floats.  log_add's hi + log1p(x), x = e^(lo - hi),
        errs by u/e from the shift and u from the exponential (log1p's
        slope x / (1 + x) <= 1/2), an ulp of log1p(x) <= ln 2 and half an
        ulp of the end: within sum_of's bound at n = 2.  n counts the nonzero
        terms, so a term of LOG_ZERO leaves the other's bits."""
        a, b = self, other
        return LogBracket(
            _widen(log_add(a.lower, b.lower), (a.lower > LOG_ZERO) + (b.lower > LOG_ZERO), False),
            _widen(log_add(a.upper, b.upper), (a.upper > LOG_ZERO) + (b.upper > LOG_ZERO), True))

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


def _widen(v: float, terms: int, up: bool) -> float:
    """An end v of a sum of ``terms`` log terms (at least its nonzero ones),
    moved outward by the bound on its rounding (see LogBracket.sum_of)."""
    r = math.ulp(1.0) * (terms + abs(v) + 2.0) if terms > 1 else 0.0
    return v + r if up else v - r


def _exp_outward(d: float, up: bool) -> float:
    """e^d one ulp up (or down), as exp is within an ulp; e^0 = 1 and
    e^-inf = 0 are exact and keep their bits.  A positive e^d that
    underflows rounds up to ulp(0)."""
    v = math.exp(d)
    return v if d == 0.0 or d == LOG_ZERO else math.nextafter(v, math.inf if up else 0.0)


def mass_share(part: LogBracket, total: LogBracket) -> Bracket:
    """Enclosure of part / total <= 1: e^(part - total) at each end, the
    difference and the exponential rounded outward, both ends capped at 1."""
    return Bracket(min(1.0, _exp_outward(add_outward(part.lower, -total.upper, False), False)),
                   min(1.0, _exp_outward(add_outward(part.upper, -total.lower, True), True)))


def mass_ratio(num: LogBracket, rest: LogBracket) -> Bracket:
    """Enclosure of A/(A+B) given log enclosures of A and B: 1 / (1 + e^d),
    d = ln B - ln A, with d, e^d, 1 + e^d and the quotient each rounded
    outward.  mass_ratio(A, B) and mass_ratio(B, A) sum to 1 at opposite
    ends within a few ulps."""
    def ratio(log_a: float, log_b: float, up: bool) -> float:
        if log_a == LOG_ZERO:
            return 0.0
        if log_b == LOG_ZERO:
            return 1.0
        d = add_outward(log_b, -log_a, not up)
        try:
            den = add_outward(1.0, _exp_outward(d, not up), not up)
        except OverflowError:
            # d > 709.78, where 1 / (1 + e^d) lies within e^-2d below e^-d,
            # far less than the ulp that e^-d is rounded outward by
            return _exp_outward(-d, up)
        return min(1.0, math.nextafter(1.0 / den, math.inf if up else 0.0))

    return Bracket(ratio(num.lower, rest.upper, False), ratio(num.upper, rest.lower, True))
