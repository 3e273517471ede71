"""phasetrack: accuracy limits and estimators for tracking a time-varying
optical phase with coherent light.

The package covers three layers: analytic MSE bounds for stationary Gaussian
phases in shot noise (bounds), steady-state linear-Gaussian covariances for
integrator-chain phase models (lg), and full nonlinear adaptive homodyne
simulations with causal, two-sided, and exponential-window estimators
(simulation). A CLI wraps the lot for batch runs (cli, sweep).
"""

from .bounds import (
    BoundQuery,
    abc_linearized_mse,
    filter_mse_power_law,
    filter_mse_quadrature,
    qcrb_power_law,
    qcrb_quadrature,
    smoother_mse_quadrature,
    tabulated_spectrum,
)
from .errors import NumericalError, ValidationError
from .lg import (
    CovarianceSet,
    LgSystem,
    build_lg_system,
    covariance_set,
    lg_filter_mse,
    lg_smoother_mse,
    retro_covariance,
    riccati_residual,
    scale_covariance,
    smoother_covariance,
    smoother_covariance_closed_form,
    solve_filter_covariance,
    solve_filter_covariance_ode,
)
from .phase_process import (
    PhaseModel,
    autocovariance,
    chain_stages,
    spectrum,
)
from .simulation import (
    HomodyneConfig,
    SimulationRecord,
    default_config,
    mse_statistics,
    run_abc,
    run_abc_linearized_trials,
    run_abc_trials,
    simulate_filter_trials,
    simulate_record,
    windowed_mse,
)
from .sweep import SweepSpec, parse_sweep_spec, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BoundQuery",
    "CovarianceSet",
    "HomodyneConfig",
    "LgSystem",
    "NumericalError",
    "PhaseModel",
    "SimulationRecord",
    "SweepSpec",
    "ValidationError",
    "abc_linearized_mse",
    "autocovariance",
    "build_lg_system",
    "covariance_set",
    "default_config",
    "filter_mse_power_law",
    "filter_mse_quadrature",
    "lg_filter_mse",
    "lg_smoother_mse",
    "mse_statistics",
    "parse_sweep_spec",
    "qcrb_power_law",
    "qcrb_quadrature",
    "retro_covariance",
    "riccati_residual",
    "run_abc",
    "run_abc_linearized_trials",
    "run_abc_trials",
    "run_sweep",
    "scale_covariance",
    "simulate_filter_trials",
    "simulate_record",
    "smoother_covariance",
    "smoother_covariance_closed_form",
    "smoother_mse_quadrature",
    "solve_filter_covariance",
    "solve_filter_covariance_ode",
    "spectrum",
    "tabulated_spectrum",
    "windowed_mse",
]
