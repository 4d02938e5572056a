"""Finite-n inconsistency statistics over the exact posterior engine.

All statistics are stated for the likelihood ratio R_n(f) = prod_i
f(x_i)/f_star(x_i).  Internally the engine works with plain likelihoods
(uniform reference); the two normalizations differ by the realized mean
log-likelihood of the truth, which shifts band endpoints and the realized
exact level of the step densities.  The beta-bound statistic is defined in
the uniform reference throughout, which makes its emptiness condition
*identical* (as a predicate) to sup_loglik_f0 / n <= beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .intervals import Bracket
from .numerics import LN2, LOG_ZERO, QuadratureError, log_add
from .barron import BarronEngine, UndefinedPosteriorError

__all__ = [
    "BandSpec",
    "GammaStat",
    "DiagnosticSettings",
    "DiagnosticRecord",
    "gamma_stat",
    "band_posterior_mass",
    "band_prior_exponent",
    "beta_bound_mass",
    "sup_loglik_f0",
    "evidence_lower_flag",
    "evaluate_diagnostics",
    "excursion_count",
    "accumulation_scan",
]

# float tolerance for "the realized exact level equals the queried gamma"
_LEVEL_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class BandSpec:
    """Normalized log-likelihood-ratio band [alpha, beta] (nats per
    observation), 0 < alpha <= beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= self.beta < math.inf):
            raise ValueError(f"need 0 < alpha <= beta, got ({self.alpha}, {self.beta})")

    @property
    def degenerate(self) -> bool:
        return self.alpha == self.beta

    def key(self) -> str:
        return f"{self.alpha:g}_{self.beta:g}"


@dataclass(frozen=True)
class GammaStat:
    """Posterior mass of the exact level set {R_n = e^(gamma n)} plus the
    level the surviving step densities actually realize."""

    mass: Bracket
    realized_level: float
    matched: bool


def sup_loglik_f0(w_n: float, n: int) -> float:
    """sup over the tilt family of the log likelihood: n * max over
    u = sqrt(theta) in [0,1] of (-u^2 + sqrt(2) w_n u).  Piecewise: 0 for
    w_n <= 0; n w_n^2 / 2 while the maximizer is interior; boundary value
    n (sqrt(2) w_n - 1) beyond w_n = sqrt(2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if w_n <= 0.0:
        return 0.0
    if w_n <= math.sqrt(2.0):
        return 0.5 * n * w_n * w_n
    return n * (math.sqrt(2.0) * w_n - 1.0)


def _parabola_upper_set(w: float, c: float):
    """{u in R : -u^2 + sqrt(2) w u >= c} (closed interval or None)."""
    disc = 2.0 * w * w - 4.0 * c
    if disc < 0.0:
        return None
    r = math.sqrt(disc)
    mid = math.sqrt(2.0) * w
    return (0.5 * (mid - r), 0.5 * (mid + r))


def band_u_intervals(w: float, lo: float, hi: float) -> list:
    """{u in [0,1] : lo <= -u^2 + sqrt(2) w u <= hi} as at most two
    u-intervals (boundaries are measure-zero for the quadratures)."""
    outer = _parabola_upper_set(w, lo)
    if outer is None:
        return []
    a, b = max(outer[0], 0.0), min(outer[1], 1.0)
    if not a < b:
        return []
    inner = _parabola_upper_set(w, hi) if hi < math.inf else None
    if inner is None:
        return [(a, b)]
    ia, ib = inner
    segs = []
    if a < min(ia, b):
        segs.append((a, min(ia, b)))
    if max(ib, a) < b:
        segs.append((max(ib, a), b))
    return segs


def gamma_stat(engine: BarronEngine, gamma: float = LN2) -> GammaStat:
    """Posterior mass of {f : R_n(f) = e^(gamma n)}.

    Only step densities can attain an exact exponential level (the theta
    prior is diffuse), and every data-consistent step density attains the
    same one: ln 2 minus the mean truth log-likelihood.  The statistic is
    the consistent-step posterior mass times the indicator that this
    realized level matches the queried gamma; the realized level is
    returned alongside.  At n = 0 the whole family trivially attains
    R_0 = 1, and the statistic is the prior step mass by convention.
    """
    if engine.n == 0:
        return GammaStat(mass=Bracket.point(1.0 - engine.prior.continuous_weight),
                         realized_level=0.0, matched=True)
    realized = LN2 - engine.mean_log_truth
    matched = abs(realized - gamma) <= _LEVEL_MATCH_TOL
    if not matched:
        return GammaStat(mass=Bracket(0.0, 0.0), realized_level=realized,
                         matched=False)
    _, fstep = engine.posterior_split()
    return GammaStat(mass=fstep, realized_level=realized, matched=True)


def band_posterior_mass(engine: BarronEngine, band: BandSpec) -> Bracket:
    """Posterior mass of {f : alpha <= n^-1 ln R_n(f) <= beta}.

    Step part: consistent-step mass times the indicator that the realized
    level falls in the band.  Tilt part: the quadratic in u = sqrt(theta)
    gives at most two theta intervals, integrated by the posterior.
    """
    if engine.n == 0:
        # R_0 is identically 1 and the band excludes 0
        return Bracket(0.0, 0.0)
    cbar = engine.mean_log_truth
    f0, fstep = engine.posterior_split()
    realized = LN2 - cbar
    total = fstep if band.alpha <= realized <= band.beta else Bracket(0.0, 0.0)
    post = engine.posterior_theta()
    for (ua, ub) in band_u_intervals(engine.w_n, band.alpha + cbar, band.beta + cbar):
        im = post.interval_mass(ua * ua, ub * ub)
        total = total + Bracket(f0.lower * im.lower, f0.upper * im.upper)
    return total.clamp01()


def band_prior_exponent(engine: BarronEngine, band: BandSpec) -> float:
    """-n^-1 ln of the PRIOR mass of the (data-dependent) band set
    {f : alpha <= n^-1 ln R_n(f) <= beta}.

    A degenerate band [gamma, gamma] carries zero prior mass on the tilt
    side (diffuse theta prior), so only the step side contributes there.
    Zero total prior mass is signalled as +inf.
    """
    n = engine.n
    if n == 0:
        return math.inf
    cbar = engine.mean_log_truth
    realized = LN2 - cbar
    log_mass = LOG_ZERO
    if band.alpha <= realized <= band.beta:
        sm = engine.step_marginal(with_likelihood=False)
        log_mass = sm.midpoint() + engine.prior.log_step_weight
    if not band.degenerate:
        post = engine.posterior_theta()
        acc = 0.0
        for (ua, ub) in band_u_intervals(engine.w_n, band.alpha + cbar,
                                         band.beta + cbar):
            acc += post.prior_ball_mass(ub * ub).midpoint() - \
                (post.prior_ball_mass(ua * ua).midpoint() if ua > 0.0 else 0.0)
        if acc > 0.0:
            log_mass = log_add(log_mass,
                               math.log(acc) + engine.prior.log_continuous_weight)
    if log_mass == LOG_ZERO:
        return math.inf
    return -log_mass / n


def beta_bound_mass(engine: BarronEngine, beta: float) -> Bracket:
    """Posterior mass of {f : R_n(f) > e^(beta n)} in the uniform reference
    (R_n = plain likelihood).  The step part vanishes exactly when
    beta >= ln 2 (step likelihoods top out at 2^n); the tilt part is empty
    exactly when sup_loglik_f0(W_n, n) / n <= beta -- the same predicate,
    evaluated literally, decides both the mass and the emptiness claim.
    """
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if engine.n == 0:
        return Bracket(0.0, 0.0)
    f0, fstep = engine.posterior_split()
    total = fstep if beta < LN2 else Bracket(0.0, 0.0)
    if sup_loglik_f0(engine.w_n, engine.n) / engine.n > beta:
        segs = band_u_intervals(engine.w_n, beta, math.inf)
        post = engine.posterior_theta()
        for (ua, ub) in segs:
            im = post.interval_mass(ua * ua, ub * ub)
            total = total + Bracket(f0.lower * im.lower, f0.upper * im.upper)
    return total.clamp01()


def evidence_lower_flag(engine: BarronEngine, tau: float = 0.1) -> bool:
    """Whether the certified lower bound of the total evidence (likelihood
    ratio normalization) is at least e^(-tau n)."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    ev = engine.log_evidence()
    ratio_lower = ev.lower - engine.n * engine.mean_log_truth
    return ratio_lower >= -tau * engine.n


# ---------------------------------------------------------------------------
# per-grid-point evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticSettings:
    """Which statistics to evaluate along a trajectory, with parameters."""

    gamma: float = LN2
    bands: tuple[BandSpec, ...] = (BandSpec(0.6, 0.75), BandSpec(0.2, 0.4))
    exponent_bands: tuple[BandSpec, ...] = (BandSpec(LN2, LN2),)
    betas: tuple[float, ...] = (LN2,)
    epsilons: tuple[float, ...] = (0.5, 0.7)
    tau: float = 0.1
    predictive_grid: int = 0  # 0 disables the Kolmogorov summary
    track_mean_inv_level: bool = True


@dataclass
class DiagnosticRecord:
    """All diagnostics at one sample size, with certified enclosures."""

    n: int
    w_n: float = math.nan
    sup_loglik: float = math.nan
    realized_gamma: float = math.nan
    gamma_mass: Bracket | None = None
    mass_f0: Bracket | None = None
    mass_fstep: Bracket | None = None
    band_masses: dict = field(default_factory=dict)
    band_prior_exponents: dict = field(default_factory=dict)
    beta_bound_masses: dict = field(default_factory=dict)
    hellinger_masses: dict = field(default_factory=dict)
    evidence_flag: bool | None = None
    log_evidence_lower: float = math.nan
    log_evidence_upper: float = math.nan
    mean_inv_level: Bracket | None = None
    predictive_ks: float = math.nan
    errors: list = field(default_factory=list)


def evaluate_diagnostics(engine: BarronEngine,
                         settings: DiagnosticSettings) -> DiagnosticRecord:
    """Evaluate every configured statistic; numeric failures are recorded
    per statistic and evaluation continues (flagged gaps, not aborts)."""
    rec = DiagnosticRecord(n=engine.n)
    rec.w_n = engine.w_n
    if engine.n >= 1:
        rec.sup_loglik = sup_loglik_f0(engine.w_n, engine.n)

    def attempt(name, fn):
        try:
            return fn()
        except (QuadratureError, UndefinedPosteriorError) as exc:
            rec.errors.append(f"{name}: {exc}")
            return None

    split = attempt("posterior_split", engine.posterior_split)
    if split is not None:
        rec.mass_f0, rec.mass_fstep = split
    gs = attempt("gamma_stat", lambda: gamma_stat(engine, settings.gamma))
    if gs is not None:
        rec.gamma_mass = gs.mass
        rec.realized_gamma = gs.realized_level
    for band in settings.bands:
        bm = attempt(f"band_mass[{band.key()}]",
                     lambda band=band: band_posterior_mass(engine, band))
        if bm is not None:
            rec.band_masses[band] = bm
    for band in settings.exponent_bands:
        ex = attempt(f"band_prior_exponent[{band.key()}]",
                     lambda band=band: band_prior_exponent(engine, band))
        if ex is not None:
            rec.band_prior_exponents[band] = ex
    for beta in settings.betas:
        bb = attempt(f"beta_bound[{beta:g}]",
                     lambda beta=beta: beta_bound_mass(engine, beta))
        if bb is not None:
            rec.beta_bound_masses[beta] = bb
    for eps in settings.epsilons:
        hm = attempt(f"hellinger_mass[{eps:g}]",
                     lambda eps=eps: engine.hellinger_ball_mass(eps))
        if hm is not None:
            rec.hellinger_masses[eps] = hm
    ev = attempt("evidence", engine.log_evidence)
    if ev is not None:
        shift = engine.n * engine.mean_log_truth
        rec.log_evidence_lower = ev.lower - shift
        rec.log_evidence_upper = ev.upper - shift
        rec.evidence_flag = rec.log_evidence_lower >= -settings.tau * engine.n
    if settings.track_mean_inv_level:
        lp = attempt("posterior_over_n", engine.posterior_over_n)
        if lp is not None:
            rec.mean_inv_level = lp.mean_inv_level
    if settings.predictive_grid:
        ks = attempt("predictive_ks",
                     lambda: engine.predictive_uniform_ks(settings.predictive_grid))
        if ks is not None:
            rec.predictive_ks = ks
    return rec



# ---------------------------------------------------------------------------
# trajectory scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExcursionReport:
    count: int
    ns: tuple


def excursion_count(trajectory, statistic: str, delta: float) -> ExcursionReport:
    """Grid points where the named statistic's certified lower bound exceeds
    delta.  ``trajectory`` must expose ``bracket_series(name) ->
    list[(n, Bracket | None)]`` (see the harness record)."""
    series = trajectory.bracket_series(statistic)
    if not series:
        raise ValueError(f"trajectory has no statistic named {statistic!r}")
    ns = tuple(n for n, br in series if br is not None and br.lower > delta)
    return ExcursionReport(count=len(ns), ns=ns)


@dataclass(frozen=True)
class ScanReport:
    ns: tuple
    count: int
    last_n: int | None


def accumulation_scan(trajectory, gamma: float, tol: float,
                      statistic: str = "band_prior_exponent") -> ScanReport:
    """Grid points where |named exponent series - gamma| <= tol (finite-n
    witnesses of gamma being an accumulation point of the prior exponent)."""
    series = trajectory.value_series(statistic)
    if not series:
        raise ValueError(f"trajectory has no statistic named {statistic!r}")
    ns = tuple(n for n, v in series
               if v is not None and math.isfinite(v) and abs(v - gamma) <= tol)
    return ScanReport(ns=ns, count=len(ns), last_n=ns[-1] if ns else None)
