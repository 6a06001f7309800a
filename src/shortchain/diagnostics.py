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

Each interval's endpoint formula lives in one elementwise helper
(``_t_endpoints``, ``_log_variance_endpoints``, ``_quantile_endpoints``,
and ``lower_bounds`` for the bound).  The per-functional functions apply it
to one column; ``column_intervals`` applies it to every audited column of
an ensemble at once, with the same bits, which is how a traced run
diagnoses its checkpoints.
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
    t = _t_value(n, alpha) if critical is None else critical.t
    return _interval(alpha, functional_tag, *_t_endpoints(
        x.mean(keepdims=True), x.var(ddof=1, keepdims=True), initial_mean, n, t))


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

    A zero-spread sample yields the degenerate interval (-inf, -inf).

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
    chi2_lower, chi2_upper = (_chi2_values(n, alpha) if critical is None
                              else (critical.chi2_lower, critical.chi2_upper))
    return _interval(alpha, functional_tag, *_log_variance_endpoints(
        x.var(ddof=1, keepdims=True), initial_sd, n, chi2_lower, chi2_upper))


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
    return _interval(alpha, functional_tag,
                     *_quantile_endpoints(xs[[l - 1]], xs[[u - 1]], initial_quantile))


def error_lower_bound(interval: ConfidenceInterval) -> LowerBoundResult:
    """Turns an interval for the error into a conservative lower bound.

    The bound is min(|lower|, |upper|) when the closed interval excludes
    zero and 0 otherwise; it scales with the interval under any rescaling
    of the underlying coordinate.
    """
    bound, detected = lower_bounds(np.array([interval.lower], dtype=float),
                                   np.array([interval.upper], dtype=float))
    return LowerBoundResult(interval.functional_tag, float(bound[0]), interval,
                            bool(detected[0]))


@dataclass(frozen=True)
class IntervalColumns:
    """Once-per-run constants of ``column_intervals``.

    Functional j reads row ``rows[j]`` of an (R, N) value matrix and is
    compared with ``initial[j]``, its initial-side value.  The functionals
    at ``mean_at`` get the t interval (``initial`` is a mean), those at
    ``log_variance_at`` the chi-square interval (a standard deviation), and
    those at ``quantile_at`` the order-statistic interval (a quantile), with
    0-based order-statistic indices ``lo`` and ``hi`` in ``quantile_at``
    order.
    """
    rows: np.ndarray
    initial: np.ndarray
    mean_at: np.ndarray
    log_variance_at: np.ndarray
    quantile_at: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of(cls, kinds, rows, initial, levels, critical: CriticalValues) -> "IntervalColumns":
        """Builds the columns from one entry per functional.

        Args:
            kinds: "mean", "log_variance" or "quantile" per functional.
            rows: The value-matrix row each functional reads.
            initial: Each functional's initial-side mean, sd or quantile.
            levels: Each functional's quantile level p (ignored elsewhere),
                whose ranks are read from ``critical.ranks``.
        """
        kinds = np.asarray(kinds)
        rows = np.asarray(rows, dtype=np.intp)
        quantile_at = np.flatnonzero(kinds == "quantile")
        ranks = np.array([critical.ranks[levels[j]] for j in quantile_at],
                         dtype=np.intp).reshape(-1, 2)
        return cls(rows, np.asarray(initial, dtype=float),
                   np.flatnonzero(kinds == "mean"), np.flatnonzero(kinds == "log_variance"),
                   quantile_at, ranks[:, 0] - 1, ranks[:, 1] - 1)


def column_intervals(values: np.ndarray, columns: IntervalColumns, critical: CriticalValues
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Every functional's interval from one pass over an (R, N) value matrix.

    ``values`` holds one C-contiguous row per audited variable (an ensemble
    coordinate or a scalar functional's values across chains).  The row
    means and ``ddof=1`` variances are computed once, and the rows the
    quantiles read are sorted together.  A row reduces in the same order as a
    single column does, so every endpoint equals, bit for bit, the one
    ``mean_difference_ci``, ``log_variance_ratio_ci`` or
    ``quantile_difference_ci`` gives on that row with the same ``critical``.

    Returns:
        ``(lower, upper)``, one entry per functional.
    """
    n = values.shape[1]
    critical.check(n, critical.alpha)
    k = columns.rows.size
    lower, upper = np.empty(k), np.empty(k)
    if columns.mean_at.size or columns.log_variance_at.size:
        means = values.mean(axis=1)
        variances = values.var(axis=1, ddof=1)
        at = columns.mean_at
        rows = columns.rows[at]
        lower[at], upper[at], _ = _t_endpoints(
            means[rows], variances[rows], columns.initial[at], n, critical.t)
        at = columns.log_variance_at
        lower[at], upper[at], _ = _log_variance_endpoints(
            variances[columns.rows[at]], columns.initial[at], n,
            critical.chi2_lower, critical.chi2_upper)
    if columns.quantile_at.size:
        at = columns.quantile_at
        ordered = np.sort(values[columns.rows[at]], axis=1)
        take = np.arange(at.size)
        lower[at], upper[at] = _quantile_endpoints(
            ordered[take, columns.lo], ordered[take, columns.hi], columns.initial[at])
    return lower, upper


def lower_bounds(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise ``error_lower_bound``: ``(bound, detected)`` per interval.

    An interval is a detection when it lies wholly above or below zero;
    its bound is then the smaller of |lower| and |upper| (|lower| on a tie
    or a NaN |upper|, as Python's ``min`` picks), and 0 otherwise.
    """
    detected = (lower > 0.0) | (upper < 0.0)
    a, b = np.abs(lower), np.abs(upper)
    return np.where(detected, np.where(b < a, b, a), 0.0), detected


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
    mean_tag, median_tag = scalar_tags(name)
    mean_ci = mean_difference_ci(vt, float(v0.mean()), alpha,
                                 functional_tag=mean_tag, critical=critical)
    median_ci = quantile_difference_ci(vt, 0.5, sample_quantile(v0, 0.5), alpha,
                                       functional_tag=median_tag, critical=critical)
    return error_lower_bound(mean_ci), error_lower_bound(median_ci)


def scalar_tags(name: str) -> tuple[str, str]:
    """The tags of a scalar functional's mean and median results."""
    return f"scalar_mean({name})", f"scalar_median({name})"


def _t_endpoints(mean, variance, initial_mean, n: int, t: float):
    # centre -/+ s / sqrt(n) * t; zero spread gives the point interval at the centre
    center = mean - initial_mean
    half = np.sqrt(variance) / math.sqrt(n) * t
    degenerate = variance == 0.0
    return (np.where(degenerate, center, center - half),
            np.where(degenerate, center, center + half), degenerate)


def _log_variance_endpoints(variance, initial_sd, n: int, chi2_lower: float,
                            chi2_upper: float):
    # log((n - 1) s^2 / sd0^2 / chi2) at both chi-square quantiles; math.log
    # per value, since np.log need not round as libm does
    degenerate = variance == 0.0
    scaled = (n - 1) * variance / (initial_sd * initial_sd)
    lower = np.full(scaled.shape, -math.inf)
    upper = np.full(scaled.shape, -math.inf)
    for j in np.flatnonzero(~degenerate):
        lower[j] = math.log(scaled[j] / chi2_upper)
        upper[j] = math.log(scaled[j] / chi2_lower)
    return lower, upper, degenerate


def _quantile_endpoints(x_lower, x_upper, initial_quantile):
    # the order statistics X_(l) and X_(u), shifted by the initial quantile
    return x_lower - initial_quantile, x_upper - initial_quantile


def _interval(alpha: float, functional_tag: str, lower, upper,
              degenerate=(False,)) -> ConfidenceInterval:
    # one functional's interval from one-element endpoint arrays
    return ConfidenceInterval(float(lower[0]), float(upper[0]), 1.0 - alpha, functional_tag,
                              degenerate=bool(degenerate[0]))


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
