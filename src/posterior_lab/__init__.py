"""posterior-lab: an exact numerical laboratory for Bayesian posterior
(in)consistency in density estimation.

The package computes, at finite sample sizes and with certified error
enclosures, the posterior of Barron's two-component mixture prior (a smooth
exponential-tilt family plus oscillatory step families), the classical
inconsistency diagnostics built on exact likelihood-ratio levels and bands,
and a one-parameter cosine model used as a consistent counterpart.
"""

from .numerics import (
    LN2,
    LOG_ZERO,
    ConfigError,
    NumericError,
    QuadratureError,
    QuadratureResult,
    RandomStream,
    adaptive_quadrature,
    inv_norm_cdf,
    log_sum_exp,
)
from .intervals import Bracket, LogBracket
from .densities import (
    GaussExpDensity,
    StepDensity,
    UniformDensity,
    sample_gauss_exp,
    sample_step,
)
from .barron import (
    BarronEngine,
    BarronPriorConfig,
    StepState,
)
from .diagnostics import (
    BandSpec,
    DiagnosticSettings,
    band_posterior_mass,
    band_prior_exponent,
    beta_bound_mass,
    evaluate_diagnostics,
    excursion_count,
    gamma_stat,
    sup_loglik_f0,
)
from .cosine import (
    CosineEngine,
    CosinePriorConfig,
)
from .harness import (
    RunConfig,
    TrajectoryRecord,
    TruthSpec,
    config_hash,
    evaluation_grid,
    ingest_dataset,
    load_trajectory,
    run_replications,
    run_trajectory,
    write_trajectory,
)

__version__ = "0.1.0"
