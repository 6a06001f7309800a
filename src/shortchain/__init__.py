"""Accuracy audits for posterior approximations via short adapted MCMC chains.

Draw many chains i.i.d. from an approximation, push them a few adapted
Metropolis-Hastings iterations toward the target, and read off confidence
intervals whose excluded zeros are lower bounds on the approximation's error
in each audited functional, together with a reliability check on the chains
themselves.

The top level holds the user pipeline: targets, approximations, the run
configuration and its sizing, the run itself, and the interval and
reliability results it reports.  Kernels, step-size adaptation internals and
distribution quantiles stay importable from their own modules.
"""

from .adaptation import (KERNEL_KINDS, SizingPolicy, chain_count,
                         initial_step_size, iteration_count,
                         mean_error_chain_count, target_acceptance,
                         variance_error_chain_count)
from .approximations import (Approximation, approximation_from_sampler,
                             empirical_approximation, kl_optimal_mean_field,
                             mean_field_gaussian_approximation)
from .diagnostics import (ConfidenceInterval, LowerBoundResult,
                          ReliabilityResult, error_lower_bound,
                          log_variance_ratio_ci, mean_difference_ci,
                          quantile_difference_ci, reliability_check,
                          scalar_functional_diagnostics)
from .rng import RandomStream
from .runner import (DiagnosticReport, FunctionalSpec, RunConfig,
                     parse_functional, run_diagnostic)
from .targets import (TargetModel, correlated_gaussian_target,
                      neal_funnel_target, synthetic_logistic_regression_target)

__version__ = "0.1.0"

__all__ = [
    # running an audit
    "RunConfig", "run_diagnostic", "DiagnosticReport", "FunctionalSpec",
    "parse_functional", "KERNEL_KINDS", "RandomStream",
    # sizing
    "SizingPolicy", "chain_count", "iteration_count", "initial_step_size",
    "target_acceptance", "mean_error_chain_count", "variance_error_chain_count",
    # targets
    "TargetModel", "correlated_gaussian_target", "neal_funnel_target",
    "synthetic_logistic_regression_target",
    # approximations
    "Approximation", "approximation_from_sampler", "empirical_approximation",
    "kl_optimal_mean_field", "mean_field_gaussian_approximation",
    # intervals, bounds and reliability
    "ConfidenceInterval", "LowerBoundResult", "ReliabilityResult",
    "error_lower_bound", "mean_difference_ci", "log_variance_ratio_ci",
    "quantile_difference_ci", "scalar_functional_diagnostics",
    "reliability_check",
]
