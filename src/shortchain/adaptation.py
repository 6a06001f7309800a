"""Per-kind kernel tuning, cross-chain step-size adaptation and sizing rules.

``KERNEL_TUNING`` is the one table of kernel kinds; ``check_kind`` the one check.
Every number is checked with the ``stats`` helpers.

The ensemble shares one log step size psi.  After every iteration the mean
acceptance rate across chains pulls psi toward the kernel's optimal rate
with a 1/sqrt(t+1) decay, which lets adaptation run through the entire
(short) run instead of needing a separate warmup phase.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from .stats import (checked_alpha, checked_integer, checked_positive,
                    chi_square_quantile, student_t_quantile)


class KernelTuning(NamedTuple):
    """One kernel family's row of ``KERNEL_TUNING``."""
    target_acceptance: float  # optimal mean acceptance rate psi adapts toward
    step_exponent: float  # k in the initial step size 2.4^2 / d^k
    carries_gradient: bool  # a step needs (and the runner caches) grad at x
    sign_uniforms: bool  # a step reads d sign uniforms before its acceptance uniform

    def uniform_count(self, dimension: int) -> int:
        """Uniforms per chain and step: any sign uniforms, then the acceptance one."""
        return dimension + 1 if self.sign_uniforms else 1


KERNEL_TUNING = {
    "rwmh": KernelTuning(0.234, 1.0, False, False),
    "mala": KernelTuning(0.574, 1.0 / 3.0, True, False),
    "barker": KernelTuning(0.4, 1.0 / 3.0, True, True),
    "hmc": KernelTuning(0.651, 0.25, True, False),
}
KERNEL_KINDS = tuple(KERNEL_TUNING)

_MAX_CHAINS = 1_000_000
_MAX_ITERATIONS = 1_000_000
_ITERATION_COEFFICIENT = 50.0  # c in the iteration budget
_LEAPFROG_STEPS = 10  # L, the leapfrog steps of one Hamiltonian proposal
_MAX_DIMENSION = sys.float_info.max  # the largest dimension that becomes a float


def check_kind(kind: str) -> KernelTuning:
    """Returns the kind's row of ``KERNEL_TUNING``; the one check of a kind."""
    if kind not in KERNEL_KINDS:  # a tuple, so an unhashable kind is refused too
        raise ValueError(f"unknown kernel kind {kind!r}, expected one of {KERNEL_KINDS}")
    return KERNEL_TUNING[kind]


def target_acceptance(kind: str) -> float:
    """Optimal mean acceptance rate of kernel family ``kind``."""
    return check_kind(kind).target_acceptance


def initial_step_size(kind: str, dimension: int) -> float:
    """Dimension-scaled starting step size 2.4^2 / d^k for kernel family k."""
    k = check_kind(kind).step_exponent
    dimension = checked_integer("dimension", dimension, 1, _MAX_DIMENSION)
    return 2.4 ** 2 / dimension ** k


@dataclass
class AdaptationState:
    """Shared log step size psi and rate history; the history's length is
    the zero-based index t of the next update."""
    log_step_size: float
    acceptance_history: list = field(default_factory=list)

    @property
    def step_size(self) -> float:
        return math.exp(self.log_step_size)

    def update(self, mean_acceptance: float, target_rate: float):
        """Records the cross-chain mean acceptance and moves psi by
        (mean_acceptance - target_rate) / sqrt(t + 1)."""
        t = len(self.acceptance_history)
        self.acceptance_history.append(float(mean_acceptance))
        self.log_step_size += (mean_acceptance - target_rate) / math.sqrt(t + 1.0)


@dataclass(frozen=True)
class SizingPolicy:
    """Accuracy tolerances that size the chain count N; each field is
    checked by name and stored as a plain float.

    Attributes:
        delta_mean: Half-width budget for the standardized mean interval.
        delta_var: log10 budget for the variance-ratio interval width.
        alpha: Miscoverage level of every interval, in (2**-53, 1); also sizes
            the chain count.
    """
    delta_mean: float = 0.1
    delta_var: float = 0.15
    alpha: float = 0.05

    def __post_init__(self):
        for name in ("delta_mean", "delta_var"):
            object.__setattr__(self, name, checked_positive(name, getattr(self, name)))
        object.__setattr__(self, "alpha", checked_alpha(self.alpha))


def _smallest_chain_count(width, budget: float, name: str) -> int:
    """Smallest n in [2, _MAX_CHAINS] with width(n) <= budget.

    Both interval widths shrink monotonically in n, so bisection finds the
    same n as a scan from 2 upward in O(log N) quantile evaluations.
    """
    if width(_MAX_CHAINS) > budget:
        raise ValueError(f"no chain count up to {_MAX_CHAINS} meets {name}={budget}")
    # n = _MAX_CHAINS meets the budget, so only the counts below it are searched
    return bisect.bisect_left(range(_MAX_CHAINS), True, lo=2,
                              key=lambda n: width(n) <= budget)


def mean_error_chain_count(delta_mean: float, alpha: float) -> int:
    """Smallest n with t_{n-1}(1 - alpha/2) / sqrt(n) <= delta_mean."""
    delta_mean = checked_positive("delta_mean", delta_mean)
    alpha = checked_alpha(alpha)
    return _smallest_chain_count(
        lambda n: student_t_quantile(1.0 - alpha / 2.0, n - 1) / math.sqrt(n),
        delta_mean, "delta_mean")


def variance_error_chain_count(delta_var: float, alpha: float) -> int:
    """Smallest n whose chi-square interval width in log10 is within delta_var."""
    delta_var = checked_positive("delta_var", delta_var)
    alpha = checked_alpha(alpha)
    return _smallest_chain_count(
        lambda n: math.log10(chi_square_quantile(1.0 - alpha / 2.0, n - 1)
                             / chi_square_quantile(alpha / 2.0, n - 1)),
        delta_var, "delta_var")


def chain_count(policy: SizingPolicy) -> int:
    """Number of chains N needed for both interval-width budgets."""
    return max(mean_error_chain_count(policy.delta_mean, policy.alpha),
               variance_error_chain_count(policy.delta_var, policy.alpha))


def iteration_count(kind: str, dimension: int) -> int:
    """Iteration budget T, scaled by the kernel family's mixing exponent.

    floor(c d^(1/3)) for the first-order kernels and floor(c d^(1/4) / L)
    for Hamiltonian proposals, with c = 50 and L = 10, so T >= 50 (>= 5
    under HMC); a ``ValueError`` naming the dimension when T exceeds
    ``_MAX_ITERATIONS``.
    """
    check_kind(kind)
    dimension = checked_integer("dimension", dimension, 1, _MAX_DIMENSION)
    if kind == "hmc":
        raw = _ITERATION_COEFFICIENT * dimension ** 0.25 / _LEAPFROG_STEPS
    else:
        raw = _ITERATION_COEFFICIENT * dimension ** (1.0 / 3.0)
    if not raw < _MAX_ITERATIONS + 1:
        raise ValueError(f"iteration budget overflows {_MAX_ITERATIONS} iterations "
                         f"at dimension {dimension}")
    return math.floor(raw)
