"""phasetrack: accuracy limits and estimators for tracking a time-varying
optical phase with coherent light.

The package covers three layers: analytic MSE bounds for stationary Gaussian
phases in shot noise (bounds), steady-state linear-Gaussian covariances for
integrator-chain phase models (lg), and full nonlinear adaptive homodyne
simulations with causal, two-sided, and exponential-window estimators
(simulation). A CLI wraps the lot for batch runs (cli, sweep).

The package exports what the CLI, the sweep and the README use; every other
public name is reached through its layer module.
"""

from .bounds import (
    BoundQuery,
    filter_mse_power_law,
    filter_mse_quadrature,
    qcrb_power_law,
    qcrb_quadrature,
    smoother_mse_quadrature,
    tabulated_spectrum,
)
from .errors import NumericalError, ValidationError
from .lg import (
    build_lg_system,
    lg_filter_mse,
    retro_covariance,
    riccati_residual,
    smoother_covariance,
    smoother_covariance_closed_form,
    solve_filter_covariance,
)
# phasetrack.spectrum stays bound (perfbench reads it) but is not exported
from .phase_process import PhaseModel, spectrum  # noqa: F401
from .simulation import (
    HomodyneConfig,
    SimulationRecord,
    default_config,
    mse_statistics,
    run_abc,
    run_abc_trials,
    simulate_filter_trials,
    simulate_record,
    windowed_mse,
)
from .sweep import SweepSpec, parse_sweep_spec, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BoundQuery",
    "HomodyneConfig",
    "NumericalError",
    "PhaseModel",
    "SimulationRecord",
    "SweepSpec",
    "ValidationError",
    "build_lg_system",
    "default_config",
    "filter_mse_power_law",
    "filter_mse_quadrature",
    "lg_filter_mse",
    "mse_statistics",
    "parse_sweep_spec",
    "qcrb_power_law",
    "qcrb_quadrature",
    "retro_covariance",
    "riccati_residual",
    "run_abc",
    "run_abc_trials",
    "run_sweep",
    "simulate_filter_trials",
    "simulate_record",
    "smoother_covariance",
    "smoother_covariance_closed_form",
    "smoother_mse_quadrature",
    "solve_filter_covariance",
    "tabulated_spectrum",
    "windowed_mse",
]
