"""Self-contained numerical kernel: log-space arithmetic, special functions,
adaptive quadrature with a Richardson error estimate, and deterministic
splittable random streams.

Everything here is pure (no global state); the only "state" is the value-type
``RandomStream``, which is advanced functionally.

Log-space convention: a nonnegative real w is represented by ln(w), with
``LOG_ZERO = -inf`` as the distinguished representation of w = 0.  All
aggregation routines use max-subtraction so that magnitudes up to e**(+-1e4)
never overflow intermediates.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

# ln(0); step densities legitimately produce zero likelihood, so this is a
# first-class value, not a fault.
LOG_ZERO = float("-inf")

LN2 = math.log(2.0)

__all__ = [
    "LOG_ZERO",
    "LN2",
    "log_add",
    "log_sub",
    "log_sum_exp",
    "norm_cdf",
    "norm_logpdf",
    "inv_norm_cdf",
    "log_falling_factorial_ratio",
    "inv_square_tail",
    "QuadratureResult",
    "QuadratureError",
    "adaptive_quadrature",
    "NumericError",
    "ConfigError",
    "RandomStream",
]


# ---------------------------------------------------------------------------
# log-space arithmetic
# ---------------------------------------------------------------------------

def log_add(a: float, b: float) -> float:
    """ln(e^a + e^b) without overflow."""
    if a == LOG_ZERO:
        return b
    if b == LOG_ZERO:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def log_sub(a: float, b: float) -> float:
    """ln(e^a - e^b) for a >= b; returns LOG_ZERO when a == b."""
    if b == LOG_ZERO:
        return a
    if b > a:
        raise ValueError(f"log_sub requires a >= b, got a={a} b={b}")
    if a == b:
        return LOG_ZERO
    return a + math.log(-math.expm1(b - a))


def log_sum_exp(terms) -> float:
    """ln(sum_i e^{t_i}) with max-subtraction; empty input -> LOG_ZERO."""
    if not isinstance(terms, (list, tuple, np.ndarray)):
        terms = list(terms)
    arr = np.asarray(terms, dtype=float)
    if arr.size == 0:
        return LOG_ZERO
    m = float(arr.max())
    if m == LOG_ZERO:
        return LOG_ZERO
    if math.isinf(m):  # +inf dominates
        return m
    return m + math.log(float(np.exp(arr - m).sum()))


# ---------------------------------------------------------------------------
# standard normal CDF and inverse
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def norm_cdf(z: float) -> float:
    """Phi(z) via erfc; full relative accuracy in both tails."""
    return 0.5 * math.erfc(-z / _SQRT2)


def norm_logpdf(z: float) -> float:
    return -0.5 * z * z - _LOG_SQRT_2PI


# Acklam's rational approximation to the inverse normal CDF (|err| ~ 1.15e-9),
# then one Halley step against the erfc-based CDF pushes the error to the
# rounding level of Phi itself.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_ACK_PLOW = 0.02425


def _acklam(p: float) -> float:
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    if p < _ACK_PLOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - _ACK_PLOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def inv_norm_cdf(p: float) -> float:
    """Inverse standard normal CDF on (0,1), abs error <= 1e-9 on
    [1e-12, 1-1e-12] (in practice near machine precision after refinement).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"inv_norm_cdf requires 0 < p < 1, got {p}")
    z = _acklam(p)
    if abs(z) > 37.0:  # phi(z) underflows; Acklam alone is all float64 offers
        return z
    # one Halley refinement: u = (Phi(z)-p)/phi(z); z <- z - u/(1 + z*u/2)
    u = (norm_cdf(z) - p) * math.exp(0.5 * z * z + _LOG_SQRT_2PI)
    return z - u / (1.0 + 0.5 * z * u)


# ---------------------------------------------------------------------------
# falling-factorial log ratios
# ---------------------------------------------------------------------------

# below this k the ratio is an explicit sum of log factors (exact up to one
# rounding per term); above, lgamma differences are plenty accurate and O(1)
_DIRECT_K = 2048


def log_falling_factorial_ratio(m: int, m2: int, k: int) -> float:
    """ln[(m)_k / (m2)_k] for the falling factorials (m)_k = m(m-1)...(m-k+1).

    Preconditions: 0 <= k, m <= m2.  Returns LOG_ZERO when k > m (the upper
    product contains a zero factor); k > m2 is a domain error.
    """
    if k < 0 or m < 0 or m2 < 0:
        raise ValueError("arguments must be nonnegative integers")
    if m > m2:
        raise ValueError(f"requires m <= m2, got m={m} m2={m2}")
    if k > m2:
        raise ValueError(f"requires k <= m2, got k={k} m2={m2}")
    if k > m:
        return LOG_ZERO
    if k == 0:
        return 0.0
    if k <= _DIRECT_K:
        i = np.arange(k, dtype=float)
        return float(np.sum(np.log(m - i)) - np.sum(np.log(m2 - i)))
    return (math.lgamma(m + 1) - math.lgamma(m - k + 1)) \
        - (math.lgamma(m2 + 1) - math.lgamma(m2 - k + 1))


def inv_square_tail(m: int) -> float:
    """sum_{N > m} 1/N^2, i.e. the trigamma value psi_1(m+1), to ~1e-15.

    Small arguments are pushed up by the recurrence psi_1(z) = 1/z^2 +
    psi_1(z+1); beyond z = 32 the asymptotic series through z^-11 is at
    machine precision.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    z = float(m + 1)
    acc = 0.0
    while z < 32.0:
        acc += 1.0 / (z * z)
        z += 1.0
    r = 1.0 / z
    r2 = r * r
    # 1/z + 1/(2 z^2) + 1/(6 z^3) - 1/(30 z^5) + 1/(42 z^7) - 1/(30 z^9) + 5/(66 z^11)
    tail = r * (1.0 + r * (0.5 + r * (1.0 / 6.0 + r2 * (-1.0 / 30.0 + r2 * (
        1.0 / 42.0 + r2 * (-1.0 / 30.0 + r2 * (5.0 / 66.0)))))))
    return acc + tail


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature in log space
# ---------------------------------------------------------------------------

class NumericError(ArithmeticError):
    """A broken numeric invariant, such as an inverted bracket or a
    non-finite log value: a fault in the program, not in its input."""


class ConfigError(ValueError):
    """A malformed config, option or dataset: a fault in the input."""


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted; carries the best bracket reached."""

    def __init__(self, message, log_estimate, log_error_bound, evaluations):
        super().__init__(message)
        self.log_estimate = log_estimate
        self.log_error_bound = log_error_bound
        self.evaluations = evaluations


@dataclass(frozen=True)
class QuadratureResult:
    """Integral estimate with a Richardson error estimate.

    ``log_estimate`` is ln of the integral of e^f; ``estimate`` is its linear
    value (which may under/overflow for extreme magnitudes -- the log fields
    are authoritative).  ``abs_error_bound`` and ``rel_error_bound`` are the
    absolute and relative error estimates of Simpson extrapolation (with a
    safety factor): they bound the error when the integrand is smooth enough
    on each panel for extrapolation to hold, which is not proven.
    """

    log_estimate: float
    rel_error_bound: float
    evaluations: int

    @property
    def estimate(self) -> float:
        return math.exp(self.log_estimate) if self.log_estimate > LOG_ZERO else 0.0

    @property
    def abs_error_bound(self) -> float:
        if self.log_estimate == LOG_ZERO:
            return 0.0
        b = self.log_estimate + math.log(self.rel_error_bound) \
            if self.rel_error_bound > 0 else LOG_ZERO
        return math.exp(b) if b > LOG_ZERO else 0.0

    def log_bracket(self) -> tuple[float, float]:
        """[lower, upper] bracket on the log of the integral."""
        r = self.rel_error_bound
        if r >= 1.0:
            return (LOG_ZERO, self.log_estimate + math.log1p(r))
        return (self.log_estimate + math.log1p(-r),
                self.log_estimate + math.log1p(r))


_LN4 = math.log(4.0)


def _simpson_log(a, b, fa, fm, fb):
    # ln[ (b-a)/6 * (e^fa + 4 e^fm + e^fb) ]: log_sum_exp of the three terms
    # with one np.exp call; the max and the left-to-right sum in floats give
    # the same bits as the array form
    fm += _LN4
    m = max(fa, fm, fb)
    if m == LOG_ZERO:
        return LOG_ZERO
    ea, em, eb = np.exp(np.array((fa - m, fm - m, fb - m))).tolist()
    return math.log((b - a) / 6.0) + (m + math.log(ea + em + eb))


def _log_abs_diff(s1, s2):
    # ln|e^{s1} - e^{s2}|
    if s1 == s2:
        return LOG_ZERO
    hi, lo = (s1, s2) if s1 > s2 else (s2, s1)
    if lo == LOG_ZERO:
        return hi
    return hi + math.log(-math.expm1(lo - hi))


def adaptive_quadrature(f, a: float, b: float, tol: float = 1e-9, *,
                        breakpoints=(), relative: bool = False,
                        max_intervals: int = 200_000) -> QuadratureResult:
    """Globally adaptive Simpson rule for integrands given in LOG space.

    ``f(x)`` returns ln of the (nonnegative) integrand; LOG_ZERO is fine.
    The interval with the largest estimated error is bisected until the
    accumulated bound satisfies err <= tol * max(1, I) (or err <= tol * I
    when ``relative`` is set).  ``breakpoints`` seed the initial subdivision,
    e.g. at step-density cell boundaries or an integrand's interior mode.

    Raises QuadratureError (carrying the best bracket) when the subdivision
    budget is exhausted.
    """
    if not a < b:
        raise ValueError(f"requires a < b, got [{a}, {b}]")
    if tol <= 0:
        raise ValueError("tol must be positive")

    pts = sorted({a, b, *(float(x) for x in breakpoints if a < x < b)})
    evals = 0

    def feval(x):
        nonlocal evals
        evals += 1
        v = float(f(x))
        if math.isnan(v) or v == float("inf"):
            raise NumericError(f"integrand returned non-finite log value {v} at x={x}")
        return v

    # heap entries: (-err_log, tiebreak, a, b, fa, fm, fb, s_log, err_log);
    # min-heap, so the interval with the largest error estimate pops first
    heap = []
    tie = 0
    # Richardson divisor with a ~4x safety margin over the asymptotic 15:
    # the raw estimate understates the true error on coarse meshes
    log4 = math.log(4.0)

    def push(lo, hi, flo, fmid, fhi, s_log, err_log):
        nonlocal tie
        key = -err_log if err_log > LOG_ZERO else float("inf")
        heapq.heappush(heap, (key, tie, lo, hi, flo, fmid, fhi, s_log, err_log))
        tie += 1

    def split(lo, hi, flo, fmid, fhi, s1):
        mid = 0.5 * (lo + hi)
        m1, m2 = 0.5 * (lo + mid), 0.5 * (mid + hi)
        f1, f2 = feval(m1), feval(m2)
        sl = _simpson_log(lo, mid, flo, f1, fmid)
        sr = _simpson_log(mid, hi, fmid, f2, fhi)
        s2 = log_add(sl, sr)
        err = _log_abs_diff(s2, s1) - log4
        # assign the Richardson estimate to the children pro rata by mass
        if s2 > LOG_ZERO and err > LOG_ZERO:
            el = err + sl - s2 if sl > LOG_ZERO else LOG_ZERO
            er = err + sr - s2 if sr > LOG_ZERO else LOG_ZERO
        else:
            el = er = LOG_ZERO
        push(lo, mid, flo, f1, fmid, sl, el)
        push(mid, hi, fmid, f2, fhi, sr, er)

    # seed intervals, splitting each once so all carry real error estimates
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        flo, fmid, fhi = feval(lo), feval(mid), feval(hi)
        split(lo, hi, flo, fmid, fhi, _simpson_log(lo, hi, flo, fmid, fhi))

    def totals():
        s_all = log_sum_exp([e[7] for e in heap])
        e_all = log_sum_exp([e[8] for e in heap])
        return s_all, e_all

    def done(s_all, e_all):
        if e_all == LOG_ZERO:
            return True
        thresh = math.log(tol) + (s_all if relative else max(0.0, s_all))
        return e_all <= thresh

    check_every, since_check = 1, 1
    while True:
        if since_check >= check_every:
            since_check = 0
            s_all, e_all = totals()
            if done(s_all, e_all):
                break
            check_every = max(1, len(heap) // 16)
        if len(heap) >= max_intervals:
            s_all, e_all = totals()
            raise QuadratureError(
                f"no convergence within {max_intervals} intervals "
                f"(bracket ln I = {s_all} +- e^{e_all})",
                s_all, e_all, evals)
        worst = heapq.heappop(heap)
        if worst[8] == LOG_ZERO:  # nothing left to improve
            heapq.heappush(heap, worst)
            break
        split(*worst[2:8])
        since_check += 1

    s_all, e_all = totals()
    rel = math.exp(e_all - s_all) if s_all > LOG_ZERO and e_all > LOG_ZERO else (
        0.0 if e_all == LOG_ZERO else float("inf"))
    return QuadratureResult(log_estimate=s_all, rel_error_bound=rel, evaluations=evals)


# ---------------------------------------------------------------------------
# deterministic splittable random streams
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB
_STREAM_SALT = 0x6A09E667F3BCC909


def _mix64(z: int) -> int:
    # SplitMix64 finalizer (Stafford mix13): full-avalanche 64-bit mixer
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_M2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _stream_key(seed: int, stream_id: int) -> int:
    k1 = _mix64(seed & _MASK64)
    k2 = _mix64((stream_id & _MASK64) ^ _STREAM_SALT)
    return _mix64((k1 + (_GOLDEN * k2)) & _MASK64)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_M2)
    z ^= z >> np.uint64(31)
    return z


@dataclass(frozen=True)
class RandomStream:
    """Counter-based deterministic random stream (SplitMix64-derived key,
    Stafford-mix13 output).  A value type: drawing does not mutate; use
    ``advance`` to move the counter.  (seed, stream_id, counter) fully
    determine every output, and distinct stream_ids from one seed give
    decorrelated streams.
    """

    seed: int
    stream_id: int = 0
    counter: int = 0

    def advance(self, n: int) -> "RandomStream":
        return replace(self, counter=self.counter + int(n))

    def bits64(self, n: int) -> np.ndarray:
        """n raw 64-bit words starting at the current counter."""
        if n < 0:
            raise ValueError("n must be >= 0")
        key = _stream_key(self.seed, self.stream_id)
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            words = _mix64_np(np.uint64(key) + idx * np.uint64(_GOLDEN))
        return words

    def uniform(self, n: int) -> np.ndarray:
        """n deterministic uniforms in [0, 1) (53-bit mantissas)."""
        return (self.bits64(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def uniform_open(self, n: int) -> np.ndarray:
        """n uniforms in the open interval (0, 1) (for inverse-CDF maps)."""
        w = (self.bits64(n) >> np.uint64(11)).astype(np.float64)
        return (w + 0.5) * 2.0 ** -53
