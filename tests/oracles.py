"""Reference code the test suite checks the package against; pytest does not
collect this module, and the package never imports it.

* the closed-form KL and Hellinger divergences of the tilt family, and the
  constant Hellinger distance of every step density to the uniform;
* an independent numeric Hellinger integrator, with the subdivision points
  of each density (step cell boundaries, cosine pdf zeros);
* the cosine density as a pointwise object, the reference for
  ``cosine.cosine_loglik``;
* the standard normal log-density, the tilt family's CDF, and the linear
  value of a log-space quadrature result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from posterior_lab.densities import (
    HELLINGER_STEP_UNIFORM,
    StepDensity,
    cosine_normalizer,
)
from posterior_lab.numerics import (
    LOG_ZERO,
    QuadratureResult,
    adaptive_quadrature,
    inv_norm_cdf,
    norm_cdf,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def norm_logpdf(z: float) -> float:
    return -0.5 * z * z - _LOG_SQRT_2PI


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
    return norm_cdf(inv_norm_cdf(x) - math.sqrt(2.0 * d.theta))


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
        for x in quad_breakpoints(d):
            if 0.0 < x < 1.0:
                bps.add(inv_norm_cdf(float(x)))
    res = adaptive_quadrature(np.vectorize(integrand, otypes=[float]),
                              -_Z_CUTOFF, _Z_CUTOFF, tol, breakpoints=sorted(bps))
    # the upper end of the affinity bracket: near x = 1, x = Phi(z) rounds
    # and the integrand carries rounding of about 1e-12, which the
    # quadrature's error bound covers, so d(f, f) comes out 0
    affinity = min(1.0, math.exp(res.log_bracket()[1]) + _TAIL_SLACK)
    return math.sqrt(max(0.0, 2.0 - 2.0 * affinity))
