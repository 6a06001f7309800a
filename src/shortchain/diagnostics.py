"""Interval estimates and error lower bounds for approximation functionals.

Each functional F gets a confidence interval for F(final) - F(initial)
built from the final ensemble; when the interval excludes zero, its nearer
endpoint is a conservative lower bound on the approximation's error in F.
The bound direction rests on the assumption that the kernel moves each
functional monotonically toward its value under the target, which the
companion reliability check probes but cannot guarantee.

An interval's critical values (the t quantile, the two chi-square
quantiles, the order-statistic ranks) depend only on the sample size N,
alpha and the quantile level p.  A run builds them once as a
``CriticalValues`` and passes it to every interval as ``critical=``; a
standalone call without it computes the values it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .stats import (binomial_quantile, chi_square_quantile, sample_quantile,
                    student_t_quantile)

MONOTONE_ERROR_CAVEAT = (
    "Bounds assume the chains move every audited functional monotonically "
    "from its value under the approximation toward its value under the "
    "target; if a functional overshoots or oscillates, the reported bound "
    "can be invalid even when the reliability check passes."
)


@dataclass(frozen=True)
class CriticalValues:
    """The critical values of every interval at one (n, alpha).

    Attributes:
        n: Sample size N the values are for.
        alpha: Miscoverage level the values are for.
        t: Student t quantile at 1 - alpha/2 with n - 1 degrees of freedom.
        chi2_lower / chi2_upper: Chi-square quantiles at alpha/2 and
            1 - alpha/2 with n - 1 degrees of freedom.
        ranks: p -> the 1-based order-statistic ranks (l, u) of the
            quantile interval at level p; a p missing here is computed by
            ``quantile_difference_ci`` itself.
    """
    n: int
    alpha: float
    t: float
    chi2_lower: float
    chi2_upper: float
    ranks: dict = field(default_factory=dict)

    @classmethod
    def at(cls, n: int, alpha: float, ranks: Optional[dict] = None) -> "CriticalValues":
        """Computes the t and chi-square values for N = n and ``alpha``."""
        _check_alpha(alpha)
        return cls(n, alpha, _t_value(n, alpha), *_chi2_values(n, alpha), dict(ranks or {}))

    def check(self, n: int, alpha: float):
        """Raises a ``ValueError`` unless these values are for (n, alpha)."""
        if self.n != n or self.alpha != alpha:
            raise ValueError(f"critical values for n={self.n}, alpha={self.alpha} "
                             f"passed to an interval with n={n}, alpha={alpha}")


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval for F(final) - F(initial) at level 1 - alpha."""
    lower: float
    upper: float
    level: float
    functional_tag: str
    degenerate: bool = False

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"interval endpoints out of order: ({self.lower}, {self.upper})")


@dataclass(frozen=True)
class LowerBoundResult:
    """Detected-error verdict for one functional."""
    functional_tag: str
    bound: float
    interval: ConfidenceInterval
    detected: bool


@dataclass
class ReliabilityResult:
    """Squared initial-to-final correlations; high values mean frozen chains."""
    rho2_per_coordinate: np.ndarray
    rho2_max: float
    cutoff: float
    passed: bool
    degenerate_coordinates: list = field(default_factory=list)


def mean_difference_ci(final_values: np.ndarray, initial_mean: float,
                       alpha: float, functional_tag: str = "mean", *,
                       critical: Optional[CriticalValues] = None) -> ConfidenceInterval:
    """Student-t interval for mean(final) - initial_mean.

    Args:
        final_values: (N,) final-iteration values of the coordinate, N >= 2.
        initial_mean: The approximation-side mean.
        alpha: Miscoverage level in (0, 1).
        critical: Precomputed values for (N, alpha), whose ``t`` is used;
            without it the t quantile is computed here.

    A zero-spread sample yields a degenerate point interval, flagged rather
    than raised so callers can surface it.

    Raises:
        ValueError: for N < 2, alpha outside (0, 1), or a ``critical`` for
            another N or alpha.
    """
    x = _as_vector(final_values)
    _check_alpha(alpha)
    n = x.size
    if critical is not None:
        critical.check(n, alpha)
    center = float(x.mean()) - initial_mean
    s = float(x.std(ddof=1))
    if s == 0.0:
        return ConfidenceInterval(center, center, 1.0 - alpha, functional_tag, degenerate=True)
    t = _t_value(n, alpha) if critical is None else critical.t
    half = s / math.sqrt(n) * t
    return ConfidenceInterval(center - half, center + half, 1.0 - alpha, functional_tag)


def log_variance_ratio_ci(final_values: np.ndarray, initial_sd: float,
                          alpha: float, functional_tag: str = "log_variance", *,
                          critical: Optional[CriticalValues] = None) -> ConfidenceInterval:
    """Chi-square interval for log(var(final) / initial_sd^2), natural log.

    Args:
        final_values: (N,) final-iteration values, N >= 2.
        initial_sd: The approximation-side standard deviation, positive.
        alpha: Miscoverage level in (0, 1).
        critical: Precomputed values for (N, alpha), whose chi-square
            quantiles are used; without it they are computed here.

    Raises:
        ValueError: for N < 2, alpha outside (0, 1), a non-positive
            ``initial_sd``, or a ``critical`` for another N or alpha.
    """
    x = _as_vector(final_values)
    _check_alpha(alpha)
    if initial_sd <= 0:
        raise ValueError(f"initial_sd must be positive, got {initial_sd}")
    n = x.size
    if critical is not None:
        critical.check(n, alpha)
    s2 = float(x.var(ddof=1))
    if s2 == 0.0:
        return ConfidenceInterval(float("-inf"), float("-inf"), 1.0 - alpha,
                                  functional_tag, degenerate=True)
    chi2_lower, chi2_upper = (_chi2_values(n, alpha) if critical is None
                              else (critical.chi2_lower, critical.chi2_upper))
    scaled = (n - 1) * s2 / (initial_sd * initial_sd)
    lower = math.log(scaled / chi2_upper)
    upper = math.log(scaled / chi2_lower)
    return ConfidenceInterval(lower, upper, 1.0 - alpha, functional_tag)


def quantile_difference_ci(final_values: np.ndarray, p: float, initial_quantile: float,
                           alpha: float, functional_tag: str = "quantile", *,
                           critical: Optional[CriticalValues] = None) -> ConfidenceInterval:
    """Order-statistic interval for Q_p(final) - initial_quantile.

    Uses the 1-based order statistics X_(l) and X_(u) with
    l = BinomialQuantile(alpha/2; N, p) and u = BinomialQuantile(1 - alpha/2; N, p) + 1,
    taken from ``critical.ranks[p]`` when present and computed here otherwise.

    Raises:
        ValueError: when N is too small for the requested (p, alpha), i.e.
            l < 1 or u > N; widening by clamping would silently change the
            level, so this is an error instead.  Also for a ``critical``
            for another N or alpha.
    """
    x = _as_vector(final_values)
    _check_alpha(alpha)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    n = x.size
    if critical is not None:
        critical.check(n, alpha)
    if critical is not None and p in critical.ranks:
        l, u = critical.ranks[p]
    else:
        l = binomial_quantile(alpha / 2.0, n, p)
        u = binomial_quantile(1.0 - alpha / 2.0, n, p) + 1
    if l < 1 or u > n:
        raise ValueError(
            f"{n} chains are too few for a level {1 - alpha:.3g} interval on the "
            f"p={p} quantile (order statistics {l} and {u} requested); "
            "increase the number of chains or relax alpha")
    xs = np.sort(x)
    return ConfidenceInterval(float(xs[l - 1]) - initial_quantile,
                              float(xs[u - 1]) - initial_quantile,
                              1.0 - alpha, functional_tag)


def error_lower_bound(interval: ConfidenceInterval) -> LowerBoundResult:
    """Turns an interval for the error into a conservative lower bound.

    The bound is min(|lower|, |upper|) when the closed interval excludes
    zero and 0 otherwise; it scales with the interval under any rescaling
    of the underlying coordinate.
    """
    detected = interval.lower > 0.0 or interval.upper < 0.0
    bound = min(abs(interval.lower), abs(interval.upper)) if detected else 0.0
    return LowerBoundResult(interval.functional_tag, bound, interval, detected)


def reliability_check(initial_samples: np.ndarray, final_samples: np.ndarray,
                      cutoff: float = 0.1) -> ReliabilityResult:
    """Checks that chains forgot their initialization coordinate by coordinate.

    Computes the squared Pearson correlation between initial and final values
    of every coordinate across chains, all coordinates at once.  Any
    coordinate at or above ``cutoff`` fails the check, as does a degenerate
    one (constant, or with a non-finite spread, so its correlation is NaN),
    since both mean the final ensemble still remembers where it started.

    Args:
        initial_samples: (N, d) initialization matrix.
        final_samples: (N, d) final-iteration matrix, same shape.
        cutoff: Failure threshold on the squared correlation, in (0, 1).

    Raises:
        ValueError: unless both inputs are (N, d) matrices of one shape
            with N >= 2 (a 1-d vector is refused, not promoted), or when
            the cutoff is outside (0, 1).
    """
    x0 = np.asarray(initial_samples, dtype=float)
    xt = np.asarray(final_samples, dtype=float)
    if x0.shape != xt.shape or x0.ndim != 2 or x0.shape[0] < 2:
        raise ValueError(f"need matching (N, d) matrices with N >= 2, "
                         f"got {x0.shape} and {xt.shape}")
    if not 0.0 < cutoff < 1.0:
        raise ValueError(f"cutoff must lie in (0, 1), got {cutoff}")
    # contiguous copies with one row per coordinate, so each row's mean and
    # dot products reduce in the same order as on a single column (a copy,
    # never a view: the rows are centred in place)
    a = x0.T.copy()
    b = xt.T.copy()
    a -= a.mean(axis=1)[:, None]
    b -= b.mean(axis=1)[:, None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        denom = np.sqrt(np.vecdot(a, a) * np.vecdot(b, b))
        r = np.vecdot(a, b) / denom
    rho2 = np.minimum(r * r, 1.0)
    rho2[(denom == 0.0) | ~np.isfinite(denom)] = np.nan
    degenerate = np.flatnonzero(np.isnan(rho2)).tolist()
    finite = rho2[np.isfinite(rho2)]
    rho2_max = float(finite.max()) if finite.size else float("nan")
    passed = not degenerate and bool(rho2_max < cutoff)
    return ReliabilityResult(rho2, rho2_max, cutoff, passed, degenerate)


def scalar_functional_diagnostics(initial_values: np.ndarray, final_values: np.ndarray,
                                  alpha: float, name: str = "scalar", *,
                                  critical: Optional[CriticalValues] = None
                                  ) -> tuple[LowerBoundResult, LowerBoundResult]:
    """Mean and median error bounds for a scalar functional of the state.

    The initial-side mean and median are estimated from ``initial_values``
    (draws from the approximation; the median is ``stats.sample_quantile``
    at 0.5), so both intervals inherit a little extra noise from that
    estimate.  ``critical`` is passed on to both intervals.

    Returns:
        ``(mean_result, median_result)``.
    """
    v0 = _as_vector(initial_values)
    vt = _as_vector(final_values)
    mean_ci = mean_difference_ci(vt, float(v0.mean()), alpha,
                                 functional_tag=f"scalar_mean({name})", critical=critical)
    median_ci = quantile_difference_ci(vt, 0.5, sample_quantile(v0, 0.5), alpha,
                                       functional_tag=f"scalar_median({name})",
                                       critical=critical)
    return error_lower_bound(mean_ci), error_lower_bound(median_ci)


def _as_vector(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"need a 1-d sample vector with N >= 2, got shape {x.shape}")
    return x


def _t_value(n: int, alpha: float) -> float:
    return student_t_quantile(1.0 - alpha / 2.0, n - 1)


def _chi2_values(n: int, alpha: float) -> tuple[float, float]:
    return (chi_square_quantile(alpha / 2.0, n - 1),
            chi_square_quantile(1.0 - alpha / 2.0, n - 1))


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
