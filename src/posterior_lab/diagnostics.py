"""Finite-n inconsistency statistics over the exact posterior engine.

All statistics are stated for the likelihood ratio R_n(f) = prod_i
f(x_i)/f_star(x_i).  Internally the engine works with plain likelihoods
(uniform reference); the two normalizations differ by the realized mean
log-likelihood of the truth, which shifts band endpoints and the realized
exact level of the step densities.  The beta-bound statistic is defined in
the uniform reference throughout, which makes its emptiness condition
*identical* (as a predicate) to sup_loglik_f0 / n <= beta.

The exact level, the band and the beta-bound are sets of densities; each
statistic only describes its set (whether it holds the step densities and
which theta intervals of the tilt family) and ``BarronEngine.set_mass``
turns that into a posterior mass.  Each model has one statistic list in
CSV column order (``barron_statistics``, ``cosine_statistics``), and
``evaluate_diagnostics`` writes a row of either engine from its list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from .intervals import Bracket
from .numerics import LN2, LOG_ZERO, QuadratureError, log_add
from .barron import BarronEngine, UndefinedPosteriorError

__all__ = [
    "BandSpec",
    "GammaStat",
    "DiagnosticSettings",
    "gamma_stat",
    "band_posterior_mass",
    "band_prior_exponent",
    "beta_bound_mass",
    "sup_loglik_f0",
    "evidence_lower_flag",
    "barron_statistics",
    "cosine_statistics",
    "evaluate_diagnostics",
    "excursion_count",
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


def _tilt_set(engine: BarronEngine, lo: float, hi: float) -> list:
    """The theta intervals of the tilt members whose mean log-likelihood
    n^-1 ln L_n(f_theta) (uniform reference) lies in [lo, hi]."""
    return [(ua * ua, ub * ub) for ua, ub in band_u_intervals(engine.w_n, lo, hi)]


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
    return GammaStat(mass=engine.set_mass(matched), realized_level=realized,
                     matched=matched)


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
    return engine.set_mass(band.alpha <= LN2 - cbar <= band.beta,
                           _tilt_set(engine, band.alpha + cbar, band.beta + cbar))


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
        for ta, tb in _tilt_set(engine, band.alpha + cbar, band.beta + cbar):
            acc += post.prior_ball_mass(tb).midpoint() - \
                (post.prior_ball_mass(ta).midpoint() if ta > 0.0 else 0.0)
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
    tilt = sup_loglik_f0(engine.w_n, engine.n) / engine.n > beta
    return engine.set_mass(beta < LN2, _tilt_set(engine, beta, math.inf) if tilt else [])


def evidence_lower_flag(engine: BarronEngine, tau: float) -> bool:
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
    track_mean_inv_level: bool = True

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if any(not b >= 0.0 for b in self.betas):
            raise ValueError(f"betas must be >= 0, got {self.betas}")
        if any(not eps > 0.0 for eps in self.epsilons):
            raise ValueError(f"epsilons must be positive, got {self.epsilons}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")


def _ends(stem: str) -> list:
    return [f"{stem}.lower", f"{stem}.upper"]


_pair = attrgetter("lower", "upper")  # a bracket's two column values


def barron_statistics(settings: DiagnosticSettings) -> list:
    """The Barron model's statistics in CSV column order, as (name, columns,
    statistic) entries: ``statistic(engine)`` gives one value per column,
    and the sidecar's errors call a failure of it by ``name``."""

    def gamma(e):
        gs = gamma_stat(e, settings.gamma)
        return (gs.realized_level, *_pair(gs.mass))

    stats = [
        ("w_n", ["w_n", "sup_loglik"],
         lambda e: (e.w_n, sup_loglik_f0(e.w_n, e.n) if e.n >= 1 else math.nan)),
        ("gamma_stat", ["realized_gamma", *_ends("gamma_stat")], gamma),
        ("posterior_split", _ends("mass_f0") + _ends("mass_fstep"),
         lambda e: [v for br in e.posterior_split() for v in _pair(br)]),
        *((f"band_mass[{b.key()}]", _ends(f"band_mass_{b.key()}"),
           lambda e, b=b: _pair(band_posterior_mass(e, b))) for b in settings.bands),
        *((f"band_prior_exponent[{b.key()}]", [f"band_prior_exponent_{b.key()}"],
           lambda e, b=b: (band_prior_exponent(e, b),)) for b in settings.exponent_bands),
        *((f"beta_bound[{v:g}]", _ends(f"beta_bound_mass_{v:g}"),
           lambda e, v=v: _pair(beta_bound_mass(e, v))) for v in settings.betas),
        *((f"hellinger_mass[{v:g}]", _ends(f"hellinger_mass_{v:g}"),
           lambda e, v=v: _pair(e.hellinger_ball_mass(v))) for v in settings.epsilons),
        # log_evidence in the likelihood-ratio normalization, as the flag reads it
        ("evidence", ["evidence_flag", *_ends("log_evidence")],
         lambda e: (float(evidence_lower_flag(e, settings.tau)),
                    *_pair(e.log_evidence().shift(-e.n * e.mean_log_truth)))),
    ]
    if settings.track_mean_inv_level:
        stats.append(("posterior_over_n", _ends("mean_inv_level"),
                      lambda e: _pair(e.posterior_over_n())))
    return stats


def cosine_statistics(settings: DiagnosticSettings, regions) -> list:
    """The cosine model's statistics as barron_statistics lists them, each
    named by its column stem: Hellinger masses, region masses, evidence.
    Each first has the engine solve the whole row in lockstep (once per
    data set), then reads its own query."""
    stats = [(f"hellinger_mass_{v:g}", lambda e, v=v: e.hellinger_mass(v))
             for v in settings.epsilons]
    stats += [(f"region_mass_{lo:g}_{hi:g}", lambda e, lo=lo, hi=hi: e.region_mass(lo, hi))
              for lo, hi in regions]
    stats.append(("log_evidence", lambda e: e.log_evidence()))

    def read(q):
        def statistic(e):
            e.solve_row(settings.epsilons, regions)
            return _pair(q(e))
        return statistic

    return [(stem, _ends(stem), read(q)) for stem, q in stats]


def evaluate_diagnostics(engine, statistics: list) -> tuple[dict, list]:
    """(row, errors): n, then each entry's columns.  A statistic raising
    QuadratureError or UndefinedPosteriorError is NaN in its columns and
    the row goes on; "<name>: <message>" is recorded unless that exception
    was recorded last (a cosine engine raises its first failure again)."""
    row, errors, last = {"n": float(engine.n)}, [], None
    for name, columns, statistic in statistics:
        try:
            values = statistic(engine)
        except (QuadratureError, UndefinedPosteriorError) as exc:
            values = [math.nan] * len(columns)
            if exc is not last:
                errors.append(f"{name}: {exc}")
            last = exc
        row.update(zip(columns, values))
    return row, errors


# ---------------------------------------------------------------------------
# trajectory scans
# ---------------------------------------------------------------------------

def excursion_count(trajectory, statistic: str, delta: float) -> int:
    """Number of grid points where the named statistic's certified lower
    bound exceeds delta.  ``trajectory`` must expose ``bracket_series(name)
    -> list[(n, Bracket | None)]`` (see the harness record)."""
    series = trajectory.bracket_series(statistic)
    if not series:
        raise ValueError(f"trajectory has no statistic named {statistic!r}")
    return sum(1 for _, br in series if br is not None and br.lower > delta)
