"""Self-contained numerical kernel: log-space arithmetic, special functions,
adaptive G7/K15 Gauss-Kronrod quadrature with QUADPACK's error estimate
(still not a proof), and deterministic splittable random streams.

The quadrature calls its integrand on whole panels: ``f(c, h)`` gets the
centres and half-widths of a batch of panels and returns ln of the
integrand at each panel's 15 Kronrod nodes.  A pointwise integrand maps
itself over ``kronrod_nodes(c, h)``; the cosine likelihood instead builds
its nodes from each panel's centre by angle addition.

Everything here is pure (no global state); a ``RandomStream`` is a value
whose words depend only on its seed and stream id.

Log-space convention: a nonnegative real w is represented by ln(w), with
``LOG_ZERO = -inf`` as the distinguished representation of w = 0.  All
aggregation routines use max-subtraction so that magnitudes up to e**(+-1e4)
never overflow intermediates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ln(0); step densities legitimately produce zero likelihood, so this is a
# first-class value, not a fault.
LOG_ZERO = float("-inf")

LN2 = math.log(2.0)

__all__ = [
    "LOG_ZERO",
    "LN2",
    "log_add",
    "log_sum_exp",
    "norm_cdf",
    "inv_norm_cdf",
    "binet",
    "zeta_series",
    "QuadratureResult",
    "QuadratureError",
    "MAX_INTERVALS",
    "adaptive_quadrature",
    "kronrod_nodes",
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


def log_sum_exp(terms) -> float:
    """ln(sum_i e^{t_i}) of a list or array; empty input -> LOG_ZERO."""
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
_ACK_PHIGH = 1.0 - _ACK_PLOW


# The rational functions and the Halley step are written once, for float64
# arrays here and for floats in the test suite's point-by-point reference:
# numpy's +, -, *, / and sqrt round as Python's float operations do.  Only
# ln, erfc and exp are taken element by element with math, as np.log rounds
# some inputs differently.

def _acklam_tail(q):
    """Acklam's lower-tail rational function of q = sqrt(-2 ln p)."""
    c, d = _ACK_C, _ACK_D
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


def _acklam_central(q):
    """Acklam's central rational function of q = p - 1/2."""
    a, b = _ACK_A, _ACK_B
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def _halley(z, p, erfc, exp):
    """One Halley refinement against Phi(z) = erfc(-z/sqrt 2)/2:
    u = (Phi(z)-p)/phi(z); z <- z - u/(1 + z*u/2)."""
    u = (0.5 * erfc(-z / _SQRT2) - p) * exp(0.5 * z * z + _LOG_SQRT_2PI)
    return z - u / (1.0 + 0.5 * z * u)


def _each(f, x: np.ndarray) -> np.ndarray:
    """The math function f on every element of a float64 array."""
    return np.fromiter(map(f, x.tolist()), np.float64, x.size)


def inv_norm_cdf(p):
    """Inverse standard normal CDF on (0,1), abs error <= 1e-9 on
    [1e-12, 1-1e-12] (in practice near machine precision after refinement),
    element by element over a float64 array (a number is a 0-d one).  Where
    |z| > 37, phi(z) underflows and Acklam's value alone is all float64
    offers.
    """
    p = np.asarray(p, dtype=np.float64)
    bad = ~((p > 0.0) & (p < 1.0))
    if bad.any():
        raise ValueError(f"inv_norm_cdf requires 0 < p < 1, got {p[bad][0]}")
    z = np.empty_like(p)
    low, high = p < _ACK_PLOW, p > _ACK_PHIGH
    mid = ~(low | high)
    z[low] = _acklam_tail(np.sqrt(-2.0 * _each(math.log, p[low])))
    z[high] = -_acklam_tail(np.sqrt(-2.0 * _each(math.log, 1.0 - p[high])))
    z[mid] = _acklam_central(p[mid] - 0.5)
    near = np.abs(z) <= 37.0
    z[near] = _halley(z[near], p[near], lambda v: _each(math.erfc, v),
                      lambda v: _each(math.exp, v))
    return z


# Euler-Maclaurin terms of the Hurwitz zeta function, and where they start
_EM_TERMS = 40
_EM_FROM = 32.0
_EPS = math.ulp(1.0)


# B_2k / (2k)! for k = 1.._EM_TERMS + 1, the Euler-Maclaurin coefficients:
# the exact rationals, each rounded once to the nearest float, written out so
# that no process recomputes them (tests/test_numerics.py rebuilds them with
# the Bernoulli recurrence in exact fractions)
_EM_COEFFICIENTS = np.array((
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
    9.336734257095045e-31, -2.36502241570063e-32, 5.990671762482134e-34,
    -1.5174548844682903e-35, 3.843758125454189e-37, -9.736353072646691e-39,
    2.466247044200681e-40, -6.247076741820743e-42, 1.5824030244644914e-43,
    -4.008273685948936e-45, 1.0153075855569557e-46, -2.5718041582418717e-48,
    6.514456035233815e-50, -1.6501309906896525e-51, 4.179830628539476e-53,
    -1.058763466770291e-54, 2.6818791912607708e-56, -6.793279351107421e-58,
    1.7207577616681404e-59, -4.358730329348894e-61, 1.1040792903684666e-62,
    -2.7966655133781345e-64, 7.084036501679471e-66,
))


# Binet's function at z = 1..19, each exact value rounded once to the nearest
# float (tests/test_numerics.py rebuilds them in mpmath), and the Stirling
# coefficients B_2j / (2j (2j-1)) = (B_2j / (2j)!) (2j-2)!, j = 1..7
_BINET_TABLE = np.array((
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801, 0.0052076559196096404,
    0.004901395948434738, 0.004629153749334028, 0.004385560249232324,
))
_BINET_COEFFICIENTS = _EM_COEFFICIENTS[:7] * [math.factorial(2 * j) for j in range(7)]


def binet(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, bound) of Binet's function beta(z) = ln z! - (z + 1/2) ln z +
    z - ln sqrt(2 pi) at each integer z >= 1 of a float array: below 20
    from _BINET_TABLE, within half an ulp; from 20 on the Stirling series
    sum_(j <= 6) B_2j / (2j (2j-1) z^(2j-1)), whose remainder for real z > 0
    is below the first omitted term (DLMF 5.11(ii)), with that term and 2
    ulps of rounding (each coefficient's two, 1/z^2, Horner and the division)."""
    c, w = _BINET_COEFFICIENTS, 1.0 / (z * z)
    acc = np.full(z.shape, c[5])
    for cj in c[4::-1]:
        acc = acc * w + cj
    series, small = acc / z, z < _BINET_TABLE.size + 1
    table = _BINET_TABLE[np.minimum(z, _BINET_TABLE.size).astype(np.int64) - 1]
    return (np.where(small, table, series),
            np.where(small, 0.5 * _EPS * table, c[6] * w ** 6 / z + 2.0 * _EPS * series))


def zeta_series(coeffs, s0: int, a: float, slack: float = 0.0) -> tuple[float, float]:
    """(ln lower, ln upper) of sum_{N = a, a+1, ...} N^-s0 g(a^2 / N^2), where
    |g(u) - sum_j coeffs[j] u^j| <= slack on 0 < u <= 1: term j is coeffs[j]
    a^(2j) zeta(s0 + 2j, a), and [1] at s0 = 2 is the trigamma tail.  Each
    zeta sums N < 32 directly, the rest by Euler-Maclaurin through B_80,
    whose remainder is at most the first omitted term (x^-s is completely
    monotone); the bound adds it, the slack and the rounding."""
    c = np.asarray(coeffs, dtype=np.float64)
    s = s0 + 2.0 * np.arange(c.size)
    n = max(0, math.ceil(_EM_FROM - a))
    direct = sum(((a / (a + i)) ** s for i in range(n)), np.zeros_like(s)) / a
    z, k = a + n, np.arange(1, _EM_TERMS + 1)[:, None]
    # row k-1 is (s)_(2k-1) / z^2k, k = 1.._EM_TERMS + 1
    r = np.cumprod(np.vstack([s, (s + 2 * k - 1) * (s + 2 * k)]) / (z * z), axis=0)
    b, lead, t = _EM_COEFFICIENTS, 1.0 / (s - 1.0) + 0.5 / z, (a / z) ** (s - 1.0)
    v = direct + t * (lead + b[:-1] @ r[:-1])
    err = t * abs(b[-1]) * r[-1] + _EPS * (s + 4 * _EM_TERMS + n + c.size + 8) \
        * (direct + t * (lead + abs(b[:-1]) @ r[:-1]))
    total = float(np.dot(c, v))
    bound = slack * float(v[0]) + float(np.dot(np.abs(c), err))
    scale = (1 - s0) * math.log(a)
    hi = math.log(total + bound)
    rnd = 4.0 * _EPS * (abs(scale) + abs(hi) + 1.0)
    lo = math.log(total - bound) - rnd if total > bound else LOG_ZERO
    return lo + scale, hi + rnd + scale


# ---------------------------------------------------------------------------
# globally adaptive Gauss-Kronrod quadrature in log space
# ---------------------------------------------------------------------------

class NumericError(ArithmeticError):
    """A broken numeric invariant, such as an inverted bracket or a
    non-finite log value: a fault in the program, not in its input."""


class ConfigError(ValueError):
    """A malformed config, option or dataset: a fault in the input."""


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted, or a panel too narrow to bisect;
    carries the best bracket reached."""

    def __init__(self, message, log_estimate, log_error_bound, evaluations):
        super().__init__(message)
        self.log_estimate = log_estimate
        self.log_error_bound = log_error_bound
        self.evaluations = evaluations

    def __reduce__(self):
        # the default rebuilds from self.args, the message alone, which
        # __init__ rejects: a replicate fork pickles what it raised
        return (type(self), (self.args[0], self.log_estimate,
                             self.log_error_bound, self.evaluations))


@dataclass(frozen=True)
class QuadratureResult:
    """Integral estimate from G7/K15 Gauss-Kronrod with QUADPACK's error
    estimate, still not a proof.

    ``log_estimate`` is ln of the integral of e^f.  ``rel_error_bound`` is
    the error estimate summed over the panels, relative to the integral: it
    bounds the error when every panel resolves its integrand, which is not
    proven.
    """

    log_estimate: float
    rel_error_bound: float
    evaluations: int

    def log_bracket(self) -> tuple[float, float]:
        """[lower, upper] bracket on the log of the integral."""
        r = self.rel_error_bound
        if r >= 1.0:
            return (LOG_ZERO, self.log_estimate + math.log1p(r))
        return (self.log_estimate + math.log1p(-r),
                self.log_estimate + math.log1p(r))


# QUADPACK's qk15: the nonnegative Kronrod nodes of [-1, 1] (those at odd
# indices are the Gauss nodes), their Kronrod weights and the Gauss weights
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# the 15 nodes on [-1, 1] in ascending order, with both weight rows
_NODES = np.array([-x for x in _XGK[:7]] + list(_XGK[::-1]))
_W_KRONROD = np.array(_WGK[:7] + _WGK[::-1])
_W_GAUSS = np.array([0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3],
                     0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0])


def kronrod_nodes(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The (m, 15) Kronrod abscissae c + h xi of the panels with centres c
    and half-widths h, in ascending order along each row: what a pointwise
    integrand evaluates, ``lambda c, h: g(kronrod_nodes(c, h))``."""
    return c[:, None] + h[:, None] * _NODES


def _kronrod_panels(f, lo: np.ndarray, hi: np.ndarray, panels=None):
    """(ln integral, ln error estimate) of e^f on each panel [lo_i, hi_i],
    and the number of abscissae f evaluated: one call f(c, h) on the centres
    and half-widths of every panel or, given a ``panels`` table, of every
    panel not in it, which then holds them too.  Each panel is scaled by its
    own maximum, and its error is QUADPACK's resasc min(1, (200 |K - G| /
    resasc)^1.5), at least 50 eps K."""
    if panels is not None:
        keys = list(zip(lo.tolist(), hi.tolist()))
        new = [i for i, key in enumerate(keys) if key not in panels]
        evals = 0
        if new:
            li, le, evals = _kronrod_panels(f, lo[new], hi[new])
            panels.update(zip([keys[i] for i in new], zip(li.tolist(), le.tolist())))
        li, le = np.array(list(map(panels.__getitem__, keys))).T
        return li, le, evals
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = np.asarray(f(c, h), dtype=float)
    if fx.shape != (c.size, _NODES.size):
        raise ValueError(f"integrand returned shape {fx.shape} for {c.size} panels "
                         f"of {_NODES.size} nodes")
    bad = np.isnan(fx) | (fx == math.inf)
    if bad.any():
        i, k = np.unravel_index(int(bad.argmax()), fx.shape)
        x = kronrod_nodes(c[i:i + 1], h[i:i + 1])[0, k]
        raise NumericError(f"integrand returned non-finite log value {fx[i, k]} at x={x}")
    m = fx.max(axis=1)
    live = m > LOG_ZERO
    e = np.exp(fx - np.where(live, m, 0.0)[:, None])
    k = (e * _W_KRONROD).sum(axis=1)
    g = (e * _W_GAUSS).sum(axis=1)
    asc = (np.abs(e - 0.5 * k[:, None]) * _W_KRONROD).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        shrink = np.minimum(1.0, (200.0 * np.abs(k - g) / asc) ** 1.5)
        err = np.maximum(np.where(asc > 0.0, asc * shrink, 0.0), 50.0 * _EPS * k)
        scale = m + np.log(h)
        return (np.where(live, scale + np.log(k), LOG_ZERO),
                np.where(live, scale + np.log(err), LOG_ZERO), fx.size)


# panels one adaptive_quadrature call may hold, seed panels included
MAX_INTERVALS = 200_000


def adaptive_quadrature(f, a: float, b: float, tol: float = 1e-9, *,
                        breakpoints=(), relative: bool = False,
                        panels=None) -> QuadratureResult:
    """Globally adaptive G7/K15 Gauss-Kronrod rule for integrands given in LOG
    space, refined in rounds.

    ``f(c, h)`` takes the centres c and half-widths h of m panels and
    returns the (m, 15) array of ln of the (nonnegative) integrand at their
    Kronrod nodes ``kronrod_nodes(c, h)``; LOG_ZERO is fine.  A pointwise
    integrand g is ``lambda c, h: g(kronrod_nodes(c, h))``; an integrand
    that shares work among a panel's nodes computes them itself.
    ``breakpoints`` seed the initial panels, e.g. at step-density cell
    boundaries or an integrand's interior mode.  Each round stops if the
    summed error estimate satisfies err <= tol * max(1, I) (or err <= tol *
    I when ``relative`` is set); otherwise it bisects the fewest
    largest-error panels whose errors cover the excess and passes all their
    halves to one call of f.

    ``panels``, a dict owned by the caller, maps (lo, hi) to the panel's
    (ln K, ln error) for this one integrand f: a panel found there is not
    evaluated again, and each panel evaluated is added to it, so quadratures
    over pieces that share panels evaluate each of them once.
    ``evaluations`` counts the abscissae f evaluated, 15 per panel.

    Raises QuadratureError (carrying the best bracket) when the subdivision
    budget MAX_INTERVALS is exhausted or a panel is too narrow to bisect,
    and (carrying none) when the seed panels alone exceed the budget.
    """
    if not a < b:
        raise ValueError(f"requires a < b, got [{a}, {b}]")
    if tol <= 0:
        raise ValueError("tol must be positive")

    pts = np.array(sorted({a, b, *(float(x) for x in breakpoints if a < x < b)}))
    if pts.size - 1 > MAX_INTERVALS:
        raise QuadratureError(f"{pts.size - 1} seed panels exceed the budget of "
                              f"{MAX_INTERVALS} intervals", math.nan, math.inf, 0)
    lo, hi = pts[:-1], pts[1:]
    li, le, evals = _kronrod_panels(f, lo, hi, panels)
    log_tol = math.log(tol)
    while True:
        s_all, e_all = log_sum_exp(li), log_sum_exp(le)
        thresh = log_tol + (s_all if relative else max(0.0, s_all))
        if e_all <= thresh:
            break
        order = np.argsort(-le, kind="stable")
        covered = np.cumsum(np.exp(le[order] - e_all))
        pick = order[:int(np.searchsorted(covered, -math.expm1(thresh - e_all))) + 1]
        pa, pb = lo[pick], hi[pick]
        mid = 0.5 * (pa + pb)
        if lo.size + pick.size > MAX_INTERVALS or not ((pa < mid) & (mid < pb)).all():
            raise QuadratureError(
                f"no convergence within {lo.size} intervals "
                f"(bracket ln I = {s_all} +- e^{e_all})",
                s_all, e_all, evals)
        keep = np.ones(lo.size, dtype=bool)
        keep[pick] = False
        new_lo, new_hi = np.concatenate([pa, mid]), np.concatenate([mid, pb])
        new_li, new_le, new_evals = _kronrod_panels(f, new_lo, new_hi, panels)
        evals += new_evals
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        li, le = np.concatenate([li[keep], new_li]), np.concatenate([le[keep], new_le])

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


def _mix64_np(z: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer (Stafford mix13): full-avalanche 64-bit mixer
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_M2)
    z ^= z >> np.uint64(31)
    return z


def _stream_key(seed: int, stream_id: int) -> np.ndarray:
    """The key of stream (seed, stream_id), as a one-element uint64 array
    (array arithmetic wraps modulo 2^64 without a warning)."""
    k = _mix64_np(np.array([seed & _MASK64, (stream_id & _MASK64) ^ _STREAM_SALT],
                           dtype=np.uint64))
    return _mix64_np(k[:1] + np.uint64(_GOLDEN) * k[1:])


@dataclass(frozen=True)
class RandomStream:
    """Counter-based deterministic random stream (SplitMix64-derived key,
    Stafford-mix13 output).  A value type: word i (i = 1, 2, ...) is the
    mix of key + i * golden, so (seed, stream_id) fully determine every
    output, and distinct stream_ids from one seed give decorrelated streams.
    """

    seed: int
    stream_id: int = 0

    def bits64(self, n: int) -> np.ndarray:
        """The first n raw 64-bit words of the stream."""
        if n < 0:
            raise ValueError("n must be >= 0")
        idx = np.arange(1, n + 1, dtype=np.uint64)
        return _mix64_np(_stream_key(self.seed, self.stream_id) + idx * np.uint64(_GOLDEN))

    def uniform(self, n: int) -> np.ndarray:
        """n deterministic uniforms in [0, 1) (53-bit mantissas)."""
        return (self.bits64(n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def uniform_open(self, n: int) -> np.ndarray:
        """n uniforms in the open interval (0, 1) (for inverse-CDF maps)."""
        w = (self.bits64(n) >> np.uint64(11)).astype(np.float64)
        return (w + 0.5) * 2.0 ** -53
