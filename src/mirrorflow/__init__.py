"""Continuous-time mirror descent dynamics: deterministic and stochastic
integrators with mirror-map geometry, energy diagnostics, executable
convergence bounds, and seeded ensemble experiments."""

from .analysis import (
    EnsembleStats,
    RateFit,
    apt_experiment,
    covariation_check,
    detect_t2,
    ensemble,
    envelope,
    expected_value_bound,
    fit_rate_exponent,
    martingale_envelope_check,
)
from .dynamics import (
    SystemSpec,
    Trajectory,
    averaged_iterate,
    md_bundle,
    nesterov_bundle,
    primal_average_residual,
    simulate,
)
from .maps import EntropicSimplexMap, EuclideanMap, MirrorMap, make_map
from .noise import (
    DiagonalPowerLawNoise,
    NoiseModel,
    NoiseStream,
    ScalarPowerLawNoise,
    StateScaledNoise,
    ZeroNoise,
    make_noise,
)
from .objectives import (
    MinimizerCertificate,
    Objective,
    Rank1Quadratic,
    SumExp,
    make_objective,
    solve_minimizer,
)
from .schedules import (
    PowerLaw,
    RateBundle,
    as_convergence_conditions,
    averaging_weight,
    check_admissible,
    coupled_bundle,
    optimal_amd_exponents,
    optimal_smd_exponent,
)

__version__ = "0.1.0"

__all__ = [
    "EnsembleStats",
    "RateFit",
    "apt_experiment",
    "covariation_check",
    "detect_t2",
    "ensemble",
    "envelope",
    "expected_value_bound",
    "fit_rate_exponent",
    "martingale_envelope_check",
    "SystemSpec",
    "Trajectory",
    "averaged_iterate",
    "md_bundle",
    "nesterov_bundle",
    "primal_average_residual",
    "simulate",
    "EntropicSimplexMap",
    "EuclideanMap",
    "MirrorMap",
    "make_map",
    "DiagonalPowerLawNoise",
    "NoiseModel",
    "NoiseStream",
    "ScalarPowerLawNoise",
    "StateScaledNoise",
    "ZeroNoise",
    "make_noise",
    "MinimizerCertificate",
    "Objective",
    "Rank1Quadratic",
    "SumExp",
    "make_objective",
    "solve_minimizer",
    "PowerLaw",
    "RateBundle",
    "as_convergence_conditions",
    "averaging_weight",
    "check_admissible",
    "coupled_bundle",
    "optimal_amd_exponents",
    "optimal_smd_exponent",
    "__version__",
]
