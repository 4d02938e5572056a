"""Reference code the test suite checks the package against; pytest does not
collect this module, and the package never imports it.

* the closed-form KL and Hellinger divergences of the tilt family, and the
  constant Hellinger distance of every step density to the uniform;
* independent numeric Hellinger and KL integrators, the Hellinger one with
  the subdivision points of each density (step cell boundaries, cosine pdf
  zeros);
* the cosine density as a pointwise object, the reference for
  ``cosine.cosine_loglik``;
* the inverse normal CDF of one number, the point-by-point reference that
  the data-order fold tests sum;
* the step predictive density, M(data + x) / M(data) from two step states;
* the standard normal log-density, the tilt family's CDF, and the linear
  value of a log-space quadrature result;
* ``on_nodes``, a pointwise integrand in the quadrature's panel protocol;
* the composite 20-node Gauss-Legendre rule for the cosine model's joint
  density, the oracle of its posterior masses and evidence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from posterior_lab import numerics
from posterior_lab.densities import (
    HELLINGER_STEP_UNIFORM,
    StepDensity,
    cosine_normalizer,
)
from posterior_lab.intervals import Bracket
from posterior_lab.numerics import (
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
