"""Cross-chain step-size adaptation and ensemble sizing rules.

The ensemble shares one log step size psi.  After every iteration the mean
acceptance rate across chains pulls psi toward the kernel's optimal rate
with a 1/sqrt(t+1) decay, which lets adaptation run through the entire
(short) run instead of needing a separate warmup phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .stats import chi_square_quantile, student_t_quantile

# optimal acceptance rates per kernel family
TARGET_ACCEPTANCE = {
    "rwmh": 0.234,
    "barker": 0.4,
    "mala": 0.574,
    "hmc": 0.651,
}

_STEP_EXPONENT = {"rwmh": 1.0, "mala": 1.0 / 3.0, "barker": 1.0 / 3.0, "hmc": 0.25}

_MAX_CHAINS = 1_000_000


def target_acceptance(kind: str) -> float:
    if kind not in TARGET_ACCEPTANCE:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return TARGET_ACCEPTANCE[kind]


def initial_step_size(kind: str, dimension: int) -> float:
    """Dimension-scaled starting step size 2.4^2 / d^k for kernel family k."""
    if kind not in _STEP_EXPONENT:
        raise ValueError(f"unknown kernel kind {kind!r}")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    return 2.4 ** 2 / dimension ** _STEP_EXPONENT[kind]


def update_log_step_size(psi: float, t: int, mean_acceptance: float,
                         target_rate: float) -> tuple[float, int]:
    """One stochastic-approximation update of the shared log step size.

    Args:
        psi: Current log step size psi^(t).
        t: Zero-based iteration index.
        mean_acceptance: Acceptance probability averaged across chains, in [0, 1].
        target_rate: Optimal acceptance rate for the kernel.

    Returns:
        ``(psi_next, t_next)`` with psi moving by (mean - target)/sqrt(t+1).
    """
    if t < 0:
        raise ValueError(f"iteration index must be >= 0, got {t}")
    if not 0.0 <= mean_acceptance <= 1.0:
        raise ValueError(f"mean_acceptance must lie in [0, 1], got {mean_acceptance}")
    if not 0.0 < target_rate < 1.0:
        raise ValueError(f"target_rate must lie in (0, 1), got {target_rate}")
    return psi + (mean_acceptance - target_rate) / math.sqrt(t + 1.0), t + 1


@dataclass
class AdaptationState:
    """Shared adaptation state: log step size, iteration index, rate history."""
    log_step_size: float
    iteration: int = 0
    acceptance_history: list = field(default_factory=list)

    @property
    def step_size(self) -> float:
        return math.exp(self.log_step_size)

    def update(self, mean_acceptance: float, target_rate: float):
        self.acceptance_history.append(float(mean_acceptance))
        self.log_step_size, self.iteration = update_log_step_size(
            self.log_step_size, self.iteration, mean_acceptance, target_rate)


@dataclass(frozen=True)
class SizingPolicy:
    """Accuracy tolerances that size the ensemble.

    Attributes:
        delta_mean: Half-width budget for the standardized mean interval.
        delta_var: log10 budget for the variance-ratio interval width.
        alpha: Miscoverage level of every interval; also sizes the chain count.
        iteration_coefficient: The constant c in the iteration budget.
        leapfrog_steps: L, used only by the Hamiltonian iteration budget.
    """
    delta_mean: float = 0.1
    delta_var: float = 0.15
    alpha: float = 0.05
    iteration_coefficient: float = 50.0
    leapfrog_steps: int = 10

    def __post_init__(self):
        if self.delta_mean <= 0 or self.delta_var <= 0:
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.iteration_coefficient <= 0:
            raise ValueError("iteration_coefficient must be positive")
        if self.leapfrog_steps < 1:
            raise ValueError("leapfrog_steps must be >= 1")


def _smallest_chain_count(width, budget: float, name: str) -> int:
    """Smallest n in [2, _MAX_CHAINS] with width(n) <= budget.

    Both interval widths shrink monotonically in n, so bisection finds the
    same n as a scan from 2 upward in O(log N) quantile evaluations.
    """
    if width(_MAX_CHAINS) > budget:
        raise ValueError(f"no chain count up to {_MAX_CHAINS} meets {name}={budget}")
    lo, hi = 1, _MAX_CHAINS  # width(hi) <= budget; lo is below every candidate
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if width(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return hi


def mean_error_chain_count(delta_mean: float, alpha: float) -> int:
    """Smallest n with t_{n-1}(1 - alpha/2) / sqrt(n) <= delta_mean."""
    if delta_mean <= 0:
        raise ValueError("delta_mean must be positive")
    return _smallest_chain_count(
        lambda n: student_t_quantile(1.0 - alpha / 2.0, n - 1) / math.sqrt(n),
        delta_mean, "delta_mean")


def variance_error_chain_count(delta_var: float, alpha: float) -> int:
    """Smallest n whose chi-square interval width in log10 is within delta_var."""
    if delta_var <= 0:
        raise ValueError("delta_var must be positive")
    return _smallest_chain_count(
        lambda n: math.log10(chi_square_quantile(1.0 - alpha / 2.0, n - 1)
                             / chi_square_quantile(alpha / 2.0, n - 1)),
        delta_var, "delta_var")


def chain_count(policy: SizingPolicy) -> int:
    """Number of chains N needed for both interval-width budgets."""
    return max(mean_error_chain_count(policy.delta_mean, policy.alpha),
               variance_error_chain_count(policy.delta_var, policy.alpha))


def iteration_count(kind: str, dimension: int, policy: SizingPolicy) -> int:
    """Iteration budget T, scaled by the kernel family's mixing exponent.

    floor(c d^(1/3)) for the first-order kernels and floor(c d^(1/4) / L)
    for Hamiltonian proposals, never below 1.
    """
    if kind not in _STEP_EXPONENT:
        raise ValueError(f"unknown kernel kind {kind!r}")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    c = policy.iteration_coefficient
    if kind == "hmc":
        raw = c * dimension ** 0.25 / policy.leapfrog_steps
    else:
        raw = c * dimension ** (1.0 / 3.0)
    return max(1, math.floor(raw))
