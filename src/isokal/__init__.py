"""isokal: initial-state estimation for discrete-time linear systems.

Recover x(0) of x(k+1) = A_{k+1} x(k) from noisy partial observations
y(k) = H_k x(k) + v_k, one update per observation, with a running error
covariance; certify observability through Gramians and classify the
stability of the estimation-error dynamics.
"""

__version__ = "0.1.0"

from .model import (
    ConfigError,
    HorizonError,
    NonFiniteError,
    SystemModel,
    load_model,
    observed_evolution,
    transition,
)
from .estimator import EstimatorState, batch_wls, init, run, step, wls_prefixes
from .observability import (
    ObservabilityReport,
    UnobservableModelError,
    check_observability,
    gramian,
    information_prefixes,
    lambda_min_asymptotics,
)
from .stability import (
    StabilityReport,
    analyze_stability,
    classify,
    exponential_fit,
    gelfand_diagnostic,
    lyapunov_value,
    psi_transition,
)
from .harness import EnsembleStats, monte_carlo, reproduce_example, simulate

__all__ = [
    "__version__",
    "ConfigError", "HorizonError", "NonFiniteError", "SystemModel",
    "load_model", "observed_evolution", "transition",
    "EstimatorState", "batch_wls", "init", "run", "step", "wls_prefixes",
    "ObservabilityReport", "UnobservableModelError", "check_observability",
    "gramian", "information_prefixes", "lambda_min_asymptotics",
    "StabilityReport", "analyze_stability", "classify", "exponential_fit",
    "gelfand_diagnostic", "lyapunov_value", "psi_transition",
    "EnsembleStats", "monte_carlo", "reproduce_example", "simulate",
]
