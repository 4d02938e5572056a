"""Reference code the test suite checks the package against; pytest does not
collect this module, and the package never imports it.

* the closed-form KL and Hellinger divergences of the tilt family, and the
  constant Hellinger distance of every step density to the uniform;
* independent numeric Hellinger and KL integrators, the Hellinger one with
  the subdivision points of each density (step cell boundaries, cosine pdf
  zeros);
* the cosine density as a pointwise object, and the cosine log-likelihood
  on a theta x data matrix, the references for ``cosine.panel_loglik``;
* the inverse normal CDF of one number, the point-by-point reference that
  the data-order fold tests sum;
* the step predictive density, M(data + x) / M(data) from two step states;
* the standard normal log-density, the tilt family's CDF, and the linear
  value of a log-space quadrature result;
* ``on_nodes``, a pointwise integrand in the quadrature's panel protocol;
* the composite 20-node Gauss-Legendre rule for the cosine model's joint
  density, the oracle of its posterior masses and evidence;
* the affinity of a cosine density and the uniform in mpmath, and the
  roots where it crosses 1 - eps^2/2, the oracle of the Hellinger region;
* the cells of each level in Python integers where a float product is one,
  and the step sum in mpmath, the oracle of the step marginal, the mean of
  1/N and the step predictive, with the data sets it is checked on;
* the tilt marginal in mpmath, from the standard library's inverse normal
  CDF, the oracle of ``BarronEngine.gauss_marginal``.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from posterior_lab import numerics
from posterior_lab.cosine import cosine_hellinger_uniform
from posterior_lab.densities import (
    HELLINGER_STEP_UNIFORM,
    StepDensity,
    cosine_normalizer,
)
from posterior_lab.intervals import Bracket
from posterior_lab.numerics import (
    LN2,
    LOG_ZERO,
    log_sum_exp,
    QuadratureResult,
    adaptive_quadrature,
    kronrod_nodes,
    norm_cdf,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def inv_norm_cdf_point(p: float) -> float:
    """numerics.inv_norm_cdf of one number in float arithmetic: Acklam's
    rational functions and one Halley step, which the array code must match
    bit for bit."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"inv_norm_cdf requires 0 < p < 1, got {p}")
    if p < numerics._ACK_PLOW:
        z = numerics._acklam_tail(math.sqrt(-2.0 * math.log(p)))
    elif p > numerics._ACK_PHIGH:
        z = -numerics._acklam_tail(math.sqrt(-2.0 * math.log(1.0 - p)))
    else:
        z = numerics._acklam_central(p - 0.5)
    return z if abs(z) > 37.0 else numerics._halley(z, p, math.erfc, math.exp)


def step_predictive(state, x: float) -> Bracket:
    """The step component's posterior predictive density at x in [0,1): the
    ratio M(data + x) / M(data) of the step sums of the state with x merged
    in and of the state itself, at most 2."""
    part, total = state.merged([x]).step_sum, state.step_sum
    return Bracket(min(2.0, math.exp(part.lower - total.upper)),
                   min(2.0, math.exp(part.upper - total.lower)))


def norm_logpdf(z: float) -> float:
    return -0.5 * z * z - _LOG_SQRT_2PI


def on_nodes(g):
    """The integrand f(c, h) of adaptive_quadrature for a pointwise log
    integrand g: g on the flat array of every panel's Kronrod nodes."""
    def f(c, h):
        x = kronrod_nodes(c, h)
        return np.asarray(g(x.ravel()), dtype=float).reshape(x.shape)

    return f


def estimate(res: QuadratureResult) -> float:
    """The linear value of a quadrature result (which may under/overflow for
    extreme magnitudes -- the log fields are authoritative)."""
    return math.exp(res.log_estimate) if res.log_estimate > LOG_ZERO else 0.0


def abs_error_bound(res: QuadratureResult) -> float:
    """The absolute error estimate of a quadrature result."""
    if res.log_estimate == LOG_ZERO:
        return 0.0
    b = res.log_estimate + math.log(res.rel_error_bound) \
        if res.rel_error_bound > 0 else LOG_ZERO
    return math.exp(b) if b > LOG_ZERO else 0.0


def gauss_exp_cdf(d, x: float) -> float:
    """The CDF of a tilt member d: Phi(PhiInv(x) - sqrt(2 theta))."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0,1), got {x}")
    return norm_cdf(inv_norm_cdf_point(x) - math.sqrt(2.0 * d.theta))


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


def cosine_loglik(theta, data):
    """sum_i ln(1 + cos(theta x_i)) - n ln(1 + sin(theta)/theta) at each theta
    of an array, via the half-angle form 2 cos^2(theta x / 2); LOG_ZERO where
    a point sits on a zero of the pdf.  The thetas go through a theta x data
    matrix a chunk of 2^15 elements at a time, and each row is reduced on
    its own, so a theta's value does not depend on the others."""
    t = np.asarray(theta, dtype=float)
    if (t < 0).any():
        raise ValueError(f"theta must be >= 0, got {t.min()}")
    x = np.asarray(data, dtype=float)
    flat = t.ravel()
    out = x.size * (LN2 - np.log(cosine_normalizer(flat)))
    rows = max(1, (1 << 15) // max(1, x.size))
    with np.errstate(divide="ignore"):
        for i in range(0, flat.size, rows):
            c = np.cos(np.multiply.outer(0.5 * flat[i:i + rows], x))
            out[i:i + rows] += 2.0 * np.log(np.abs(c)).sum(axis=1)
    return out.reshape(t.shape)


def quad_breakpoints(d) -> tuple:
    """Subdivision points of d's pdf on [0,1]: a step density's interior cell
    boundaries j/(2 N^2), a cosine density's zeros at theta x = pi, 3 pi, ...
    plus its half-period points, and none for the smooth densities."""
    if isinstance(d, StepDensity):
        return tuple(np.arange(1, d.n_cells) / d.n_cells)
    if isinstance(d, CosineDensity) and d.theta > 0.0:
        half = math.pi / d.theta
        return tuple(k * half for k in range(1, int(1.0 / half) + 1))
    return ()


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


def _logpdf(d, x: np.ndarray) -> np.ndarray:
    """d's log-density at each x of an array: one call on the whole array,
    or one call per point for the pointwise CosineDensity."""
    if isinstance(d, CosineDensity):
        return np.array([d.logpdf(v) for v in x.tolist()])
    return np.asarray(d.logpdf(x), dtype=float)


def _in_z(z: np.ndarray, logf) -> np.ndarray:
    """ln of an integrand over x in (0,1), moved to z = PhiInv(x)
    coordinates, at each z of an array: ``logf(x, z)`` gets the points with
    0 < Phi(z) < 1 as one array, and every other point is LOG_ZERO."""
    x = np.array([norm_cdf(v) for v in z.tolist()])
    inside = (0.0 < x) & (x < 1.0)
    out = np.full(z.shape, LOG_ZERO)
    out[inside] = logf(x[inside], z[inside])
    return out


def hellinger_numeric(f, g, tol: float = 1e-9) -> float:
    """d_h(f, g) by adaptive quadrature of the affinity integral.

    The integral runs in z = PhiInv(x) coordinates, where the tilt family is
    a smooth exponential and the substitution removes its x -> 1 endpoint
    blow-up; step-density cell boundaries (and cosine pdf zeros) are passed
    as subdivision breakpoints.
    """
    def affinity(x, z):
        lf, lg = _logpdf(f, x), _logpdf(g, x)
        live = (lf > LOG_ZERO) & (lg > LOG_ZERO)
        return np.where(live, 0.5 * (lf + lg) + norm_logpdf(z), LOG_ZERO)

    bps = set()
    for d in (f, g):
        for x in quad_breakpoints(d):
            if 0.0 < x < 1.0:
                bps.add(inv_norm_cdf_point(float(x)))
    res = adaptive_quadrature(on_nodes(lambda z: _in_z(z, affinity)),
                              -_Z_CUTOFF, _Z_CUTOFF, tol, breakpoints=sorted(bps))
    # the upper end of the affinity bracket: near x = 1, x = Phi(z) rounds
    # and the integrand carries rounding of about 1e-12, which the
    # quadrature's error bound covers, so d(f, f) comes out 0
    affinity = min(1.0, math.exp(res.log_bracket()[1]) + _TAIL_SLACK)
    return math.sqrt(max(0.0, 2.0 - 2.0 * affinity))


def kl_numeric(f1, f2, tol: float = 1e-9) -> float:
    """KL(f1, f2) = integral f1 ln(f1 / f2), as the quadratures over z in
    [-9, 9] of its positive part less its negative part, in z = PhiInv(x)
    coordinates."""
    def part(sign):
        def logf(x, z):
            l1 = _logpdf(f1, x)
            diff = sign * (l1 - _logpdf(f2, x))
            out = np.full(x.shape, LOG_ZERO)
            pos = diff > 0.0
            out[pos] = l1[pos] + np.log(diff[pos]) + norm_logpdf(z[pos])
            return out

        return estimate(adaptive_quadrature(on_nodes(lambda z: _in_z(z, logf)),
                                            -9, 9, tol))

    return part(1.0) - part(-1.0)


# ---------------------------------------------------------------------------
# Gauss-Legendre oracle of the cosine joint density
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def gauss_legendre_panels(data, edges) -> np.ndarray:
    """ln of the 20-node Gauss-Legendre rule for the cosine joint density
    under the exponential prior (rate 1) on each panel [edges[j],
    edges[j+1]], the theta x data matrix a chunk of thetas at a time."""
    edges = np.asarray(edges, dtype=float)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    ts = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    logs = []
    for chunk in np.array_split(ts, max(1, ts.size * data.size // (1 << 16))):
        with np.errstate(divide="ignore"):  # log1p(cos) hits -1
            ll = np.log1p(np.cos(np.outer(chunk, data))).sum(axis=1)
        logs.append(ll - data.size * np.log1p(np.sin(chunk) / chunk) - chunk)
    logs = np.concatenate(logs).reshape(mid.size, _GL_NODES.size)
    m = logs.max(axis=1)
    return m + np.log(np.exp(logs - m[:, None]) @ _GL_WEIGHTS * half)


def gauss_legendre_log(data, lo: float, hi: float, panels: int) -> float:
    """ln of the composite 20-node Gauss-Legendre rule for the cosine joint
    density under the exponential prior (rate 1) on [lo, hi], in ``panels``
    equal panels."""
    return log_sum_exp(gauss_legendre_panels(data, np.linspace(lo, hi, panels + 1)))


def mp_affinity(t: float, dps: int = 50):
    """The affinity of f_t and the uniform, 2 sqrt(2) I(t/2) / (t sqrt(c(t)))
    with I the |cos| primitive, in mpmath at ``dps`` digits."""
    with mp.workdps(dps):
        t = mp.mpf(t)
        if t == 0:
            return mp.mpf(1)
        k = mp.floor(t / 2 / mp.pi)
        s = t / 2 - k * mp.pi
        prim = 2 * k + (mp.sin(s) if s <= mp.pi / 2 else 2 - mp.sin(s))
        return 2 * mp.sqrt(2) * prim / (t * mp.sqrt(1 + mp.sin(t) / t))


def mp_crossings(eps: float, top: float, step: float = 2e-4, dps: int = 50) -> list:
    """The roots in (0, top) of aff(t) = 1 - eps^2/2 at ``dps`` digits: the
    sign changes of the float affinity on a grid of the given step, each
    bisected in mpmath until its bracket is below 10^-(dps - 10)."""
    grid = np.arange(0.0, top, step)
    above = cosine_hellinger_uniform(grid) > eps
    roots = []
    with mp.workdps(dps):
        tau = 1 - mp.mpf(eps) ** 2 / 2
        for i in np.flatnonzero(above[1:] != above[:-1]).tolist():
            lo, hi = mp.mpf(float(grid[i])), mp.mpf(float(grid[i + 1]))
            low_side = mp_affinity(lo, dps) < tau
            while hi - lo > mp.mpf(10) ** (10 - dps):
                mid = (lo + hi) / 2
                if (mp_affinity(mid, dps) < tau) == low_side:
                    lo = mid
                else:
                    hi = mid
            roots.append((lo + hi) / 2)
    return roots


def exact_cells(w, x):
    """floor(w x) for integer-valued w and floats x, elementwise over their
    broadcast, as int64.  The floor of the float product is exact where
    that product is not an integer; every element where it is one is redone
    in Python integers from float.as_integer_ratio."""
    w, x = np.broadcast_arrays(np.asarray(w, dtype=np.float64),
                               np.asarray(x, dtype=np.float64))
    f = w * x
    out = np.floor(f).astype(np.int64)
    tie = np.flatnonzero(out == f)
    out.flat[tie] = [int(wi) * p // q for wi, (p, q) in zip(
        w.flat[tie].tolist(), map(float.as_integer_ratio, x.flat[tie].tolist()))]
    return out


def mp_step_log_sum(data, power=0, x=None, dps=20):
    """ln sum_N w_N 2^n (N^2)_k / (2N^2)_k N^-power [times the cell
    predictive at x] in mpmath.  The levels up to L = max(D, K) + 1 (and
    past the cells x may share with a point) take loggamma; beyond, every
    level holds all K points, and the sum is 2^-K zeta(2 + power, L + 1)
    plus an Euler-Maclaurin nsum of the rest.  Its log-ratio sum_{i<K}
    log1p(-i/m) - log1p(-i/(2m)), m = N^2, is the series -sum_p (1 - 2^-p)
    S_p / (p m^p) in the exact power sums S_p = sum_{i<K} i^p, with K + 1
    for the predictive, whose factor 2 (m - K) / (2m - K) is the term i = K
    (loggamma differences lose every digit at the huge N the nsum samples,
    and nsum's default method is far off on such tails)."""
    pts = np.sort(np.asarray(data, dtype=float))
    k_all, n = len(np.unique(pts)), len(pts)
    gap = np.diff(np.unique(pts)).min() if k_all > 1 else 1.0
    last = max(int(1 / math.sqrt(gap)) + 2, k_all) + 1
    if x is not None:
        last = max(last, int(1 / math.sqrt(np.abs(pts - x).min())) + 2)
    with mp.workdps(dps):
        total = mp.mpf(0)
        for level in range(1, last + 1):
            m = level * level
            cells = exact_cells(2 * m, pts)
            k = len(np.unique(cells))
            if k > m:
                continue
            t = mp.exp(mp.loggamma(m + 1) - mp.loggamma(m - k + 1)
                       - mp.loggamma(2 * m + 1) + mp.loggamma(2 * m - k + 1))
            if x is not None:
                t *= 2 if exact_cells(2 * m, [x])[0] in set(cells.tolist()) \
                    else mp.mpf(2 * (m - k)) / (2 * m - k)
            total += t / mp.mpf(level) ** (2 + power)

        kk, sums = k_all + (x is not None), []  # sums[p - 1] = S_p

        def rest(level):
            inv_m, m_p, log_ratio, p = 1 / mp.mpf(level) ** 2, mp.mpf(1), mp.mpf(0), 0
            while True:  # m > kk^2: each term is below 1.5 kk / m of the one before
                p += 1
                m_p *= inv_m  # m^-p
                if len(sums) < p:
                    sums.append(sum(i ** p for i in range(kk)))
                term = (1 - mp.ldexp(1, -p)) * sums[p - 1] * m_p / p
                log_ratio -= term
                if term <= mp.eps * abs(log_ratio):
                    return mp.expm1(log_ratio) / level ** (2 + power)

        tail = mp.zeta(2 + power, last + 1) + mp.nsum(
            rest, [last + 1, mp.inf], method="euler-maclaurin")
        return mp.log(6 / mp.pi**2 * (total + tail / mp.mpf(2) ** k_all)) + n * mp.log(2)


def mp_tilt_log_marginal(data, dps=30):
    """ln (1/Z0) int_0^1 e^(-1/t - n t + sqrt(2 t) S_n) dt in mpmath, with
    S_n the fsum of the standard library's inverse normal CDF of the data,
    not the package's inv_norm_cdf."""
    inv = statistics.NormalDist().inv_cdf
    s_n = math.fsum(inv(float(x)) for x in data)
    with mp.workdps(dps):
        return +(_mp_log_tilt_integral(len(data), mp.mpf(s_n))
                 - _mp_log_tilt_integral(0, mp.mpf(0)))


def _mp_log_tilt_integral(n, s):
    """ln int_0^1 e^(-1/t - n t + sqrt(2 t) s) dt, taken in u = sqrt(t) with
    breakpoints at the peak of the integrand and 3 and 10 peak widths
    (1/sqrt(-h'') there) either side; the peak is found by bisection on
    h' > 0, as h is concave in u."""
    rt2s = mp.sqrt(2) * s

    def h(u):  # the log of the integrand in u, dt = 2u du
        return -1 / u ** 2 - n * u ** 2 + rt2s * u + mp.log(2 * u)

    def dh(u):
        return 2 / u ** 3 - 2 * n * u + rt2s + 1 / u

    lo, hi = mp.mpf("1e-6"), mp.mpf(1)
    if dh(hi) >= 0:
        peak = hi
    else:
        for _ in range(mp.mp.prec):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if dh(mid) > 0 else (lo, mid)
        peak = (lo + hi) / 2
    width = 1 / mp.sqrt(6 / peak ** 4 + 2 * n + 1 / peak ** 2)
    pts = sorted({mp.mpf(0), mp.mpf(1),
                  *(p for k in (-10, -3, 0, 3, 10) if 0 < (p := peak + k * width) < 1)})
    top = h(peak)
    body = mp.quad(lambda u: mp.exp(h(u) - top) if u > 0 else mp.mpf(0), pts)
    return top + mp.log(body)


ORACLE_DATA = {
    "uniform n=100": lambda: [float(x) for x in numerics.RandomStream(1, 0).uniform_open(100)],
    "lattice K=200": lambda: [(i + 0.5) / 200 for i in range(200)],
    # fl(50 * 0.3) = 15, but 0.3 lies below 15/50 and so in cell 14
    "decimal cell boundary": lambda: [0.3, 0.305, 0.9],
}
