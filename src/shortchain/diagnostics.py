"""Interval estimates and error lower bounds for approximation functionals.

Each functional F gets a confidence interval for F(final) - F(initial)
built from the final ensemble; when the interval excludes zero, its nearer
endpoint is a conservative lower bound on the approximation's error in F.
The bound direction rests on the assumption that the kernel moves each
functional monotonically toward its value under the target, which the
companion reliability check probes but cannot guarantee.

``column_intervals`` is the one implementation of the intervals: it
diagnoses every audited row of a value matrix in one pass, from one
``(kind, row, initial, p)`` entry per functional as a run's audit plan
holds them, and reads its critical values (which depend only on N, alpha
and p) from the cached ``stats`` quantiles; ``lower_bounds`` turns its
endpoints into bounds.  The per-functional functions check their
arguments and make a one-row call into it with a single entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .stats import (binomial_quantile, checked_alpha, checked_fraction, checked_positive,
                    checked_reals, chi_square_quantile, sample_quantile,
                    student_t_quantile)

MONOTONE_ERROR_CAVEAT = (
    "Bounds assume the chains move every audited functional monotonically "
    "from its value under the approximation toward its value under the "
    "target; if a functional overshoots or oscillates, the reported bound "
    "can be invalid even when the reliability check passes."
)


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
                       alpha: float, functional_tag: str = "mean") -> ConfidenceInterval:
    """Student-t interval for mean(final) - initial_mean.

    Args:
        final_values: (N,) final-iteration values of the coordinate, N >= 2.
        initial_mean: The approximation-side mean, a real number; an
            infinite or NaN one gives infinite or NaN endpoints.
        alpha: Miscoverage level in (2**-53, 1).

    A zero-spread sample yields a degenerate point interval, flagged rather
    than raised so callers can surface it.

    Raises:
        ValueError: for N < 2, alpha outside (2**-53, 1), or an
            ``initial_mean`` that is not one integer or float.
    """
    x = _as_vector("final_values", final_values)
    initial_mean = float(checked_reals("initial_mean", initial_mean, ()))
    return _one_row(x, "mean", initial_mean, alpha, functional_tag)


def log_variance_ratio_ci(final_values: np.ndarray, initial_sd: float,
                          alpha: float, functional_tag: str = "log_variance"
                          ) -> ConfidenceInterval:
    """Chi-square interval for log(var(final) / initial_sd^2), natural log.

    Args:
        final_values: (N,) final-iteration values, N >= 2.
        initial_sd: The approximation-side standard deviation, positive.
        alpha: Miscoverage level in (2**-53, 1).

    A zero-spread sample yields the degenerate interval (-inf, -inf).

    Raises:
        ValueError: for N < 2, alpha outside (2**-53, 1), or an ``initial_sd``
            that is not a positive finite number.
    """
    x = _as_vector("final_values", final_values)
    initial_sd = checked_positive("initial_sd", initial_sd)
    return _one_row(x, "log_variance", initial_sd, alpha, functional_tag)


def quantile_difference_ci(final_values: np.ndarray, p: float, initial_quantile: float,
                           alpha: float, functional_tag: str = "quantile"
                           ) -> ConfidenceInterval:
    """Order-statistic interval for Q_p(final) - initial_quantile.

    Uses the 1-based order statistics X_(l) and X_(u) with
    l = BinomialQuantile(alpha/2; N, p) and u = BinomialQuantile(1 - alpha/2; N, p) + 1.

    ``initial_quantile`` is a real number; an infinite or NaN one gives
    infinite or NaN endpoints.

    Raises:
        ValueError: for an ``initial_quantile`` that is not one integer or
            float, or when N is too small for the requested (p, alpha), i.e.
            l < 1 or u > N; widening by clamping would silently change the
            level, so this is an error instead.
    """
    x = _as_vector("final_values", final_values)
    p = checked_fraction("p", p)
    initial_quantile = float(checked_reals("initial_quantile", initial_quantile, ()))
    return _one_row(x, "quantile", initial_quantile, alpha, functional_tag, p)


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


@np.errstate(invalid="ignore", over="ignore")  # a non-finite value: NaN endpoints, no warning
def column_intervals(values: np.ndarray, columns: Sequence[tuple], alpha: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every functional's interval from one pass over an (R, N) value matrix.

    ``values`` holds one row per audited variable (an ensemble coordinate
    or a scalar functional's values across chains).  ``columns`` holds one
    ``(kind, row, initial, p)`` entry per functional, which reads row
    ``row`` and compares with ``initial``, its initial-side value: kind
    "mean" gets the t interval (``initial`` is a mean), "log_variance" the
    chi-square interval (a standard deviation) and "quantile" the
    order-statistic interval (a quantile at level ``p``); ``p`` is ignored
    for the other kinds.  Every interval has level 1 - ``alpha``.

    The row means and ``ddof=1`` variances are computed once, and the rows
    the quantiles read are sorted together.  Each row reduces on its own,
    so its endpoints do not depend on the other rows.  A t or chi-square
    interval is degenerate when its row has zero spread: the t interval is
    then the point at the centre, the chi-square one (-inf, -inf).  An
    order-statistic interval is never degenerate.

    Returns:
        ``(lower, upper, degenerate)``, one entry per functional.

    Raises:
        ValueError: for ``alpha`` outside (2**-53, 1), or a quantile level whose
            order statistics N is too few for.
    """
    n = values.shape[1]
    alpha = checked_alpha(alpha)
    kinds, rows, initial, levels = zip(*columns)
    rows, initial = np.array(rows, dtype=np.intp), np.array(initial, dtype=float)
    groups = {"mean": [], "log_variance": [], "quantile": []}
    for j, kind in enumerate(kinds):
        groups[kind].append(j)
    mean_at, log_variance_at, quantile_at = (np.array(g, dtype=np.intp)
                                             for g in groups.values())
    lower, upper = np.empty(rows.size), np.empty(rows.size)
    degenerate = np.zeros(rows.size, dtype=bool)
    if mean_at.size or log_variance_at.size:
        variances = values.var(axis=1, ddof=1)
    if mean_at.size:
        # centre -/+ s / sqrt(n) * t; zero spread gives the point interval at the centre
        at = mean_at
        variance = variances[rows[at]]
        center = values.mean(axis=1)[rows[at]] - initial[at]
        t = student_t_quantile(1.0 - alpha / 2.0, n - 1)
        half = np.sqrt(variance) / math.sqrt(n) * t
        degenerate[at] = flat = variance == 0.0
        lower[at] = np.where(flat, center, center - half)
        upper[at] = np.where(flat, center, center + half)
    if log_variance_at.size:
        # log((n - 1) s^2 / sd0^2 / chi2) at both chi-square quantiles, -inf at
        # zero spread; math.log per value, since np.log need not round as libm does
        at = log_variance_at
        variance = variances[rows[at]]
        scaled = (n - 1) * variance / (initial[at] * initial[at])
        degenerate[at] = flat = variance == 0.0
        chi2_lower = chi_square_quantile(alpha / 2.0, n - 1)
        chi2_upper = chi_square_quantile(1.0 - alpha / 2.0, n - 1)
        lower[at] = upper[at] = -math.inf
        for j, v in zip(at[~flat].tolist(), scaled[~flat].tolist()):
            lower[j] = math.log(v / chi2_upper)
            upper[j] = math.log(v / chi2_lower)
    if quantile_at.size:
        # the order statistics X_(l) and X_(u), shifted by the initial quantile
        at = quantile_at
        ranks = np.array([_ranks(n, alpha, levels[j]) for j in at.tolist()], dtype=np.intp)
        ordered = np.sort(values[rows[at]], axis=1)
        lower[at], upper[at] = ordered[np.arange(at.size), ranks.T - 1] - initial[at]
    return lower, upper, degenerate


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
        ValueError: unless both inputs are (N, d) matrices of integers or
            floats, of one shape with N >= 2 (a 1-d vector is refused, not
            promoted), or when the cutoff is outside (0, 1).
    """
    x0 = checked_reals("initial_samples", initial_samples, (None, None))
    xt = checked_reals("final_samples", final_samples, (None, None))
    if x0.shape != xt.shape or x0.shape[0] < 2:
        raise ValueError(f"need matching (N, d) matrices with N >= 2, "
                         f"got {x0.shape} and {xt.shape}")
    cutoff = checked_fraction("cutoff", cutoff)
    (rows0, squares0), (rows_t, squares_t) = _centred(x0), _centred(xt)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        denom = np.sqrt(squares0 * squares_t)
        r = np.vecdot(rows0, rows_t) / denom
    rho2 = np.minimum(r * r, 1.0)
    rho2[(denom == 0.0) | ~np.isfinite(denom)] = np.nan
    degenerate = np.flatnonzero(np.isnan(rho2)).tolist()
    finite = rho2[np.isfinite(rho2)]
    rho2_max = float(finite.max()) if finite.size else float("nan")
    passed = not degenerate and bool(rho2_max < cutoff)
    return ReliabilityResult(rho2, rho2_max, cutoff, passed, degenerate)


def scalar_functional_diagnostics(initial_values: np.ndarray, final_values: np.ndarray,
                                  alpha: float, name: str = "scalar"
                                  ) -> tuple[LowerBoundResult, LowerBoundResult]:
    """Mean and median error bounds for a scalar functional of the state.

    The initial-side mean and median are estimated from ``initial_values``
    (draws from the approximation; the median is ``stats.sample_quantile``
    at 0.5), so both intervals inherit a little extra noise from that
    estimate.

    Returns:
        ``(mean_result, median_result)``.
    """
    v0 = _as_vector("initial_values", initial_values)
    vt = _as_vector("final_values", final_values)
    mean_tag, median_tag = scalar_tags(name)
    mean_ci = mean_difference_ci(vt, float(v0.mean()), alpha, functional_tag=mean_tag)
    median_ci = quantile_difference_ci(vt, 0.5, sample_quantile(v0, 0.5), alpha,
                                       functional_tag=median_tag)
    return error_lower_bound(mean_ci), error_lower_bound(median_ci)


def scalar_tags(name: str) -> tuple[str, str]:
    """The tags of a scalar functional's mean and median results."""
    return f"scalar_mean({name})", f"scalar_median({name})"


def _one_row(x: np.ndarray, kind: str, initial: float, alpha: float, functional_tag: str,
             p: Optional[float] = None) -> ConfidenceInterval:
    # the one-row column_intervals call behind each per-functional function
    lower, upper, degenerate = column_intervals(x[None, :], [(kind, 0, initial, p)], alpha)
    return ConfidenceInterval(float(lower[0]), float(upper[0]), 1.0 - alpha, functional_tag,
                              degenerate=bool(degenerate[0]))


def _ranks(n: int, alpha: float, p: float) -> tuple[int, int]:
    # the 1-based order statistics (l, u) of the level 1 - alpha interval on
    # the p quantile of n values, refused when one falls outside 1..n
    l = binomial_quantile(alpha / 2.0, n, p)
    u = binomial_quantile(1.0 - alpha / 2.0, n, p) + 1
    if l < 1 or u > n:
        raise ValueError(
            f"{n} chains are too few for a level {1 - alpha:.3g} interval on the "
            f"p={p} quantile (order statistics {l} and {u} requested); "
            "increase the number of chains or relax alpha")
    return l, u


def _centred(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the (d, N) rows of an (N, d) matrix, each centred on its mean, and each
    # row's dot product with itself; a C-contiguous copy, so each row reduces
    # in the same order as a single column would
    rows = samples.T.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # a mean past the float range
        rows -= rows.mean(axis=1)[:, None]
        return rows, np.vecdot(rows, rows)


def _as_vector(name: str, values) -> np.ndarray:
    x = checked_reals(name, values, (None,))
    if x.size < 2:
        raise ValueError(f"need a 1-d sample vector with N >= 2, got shape {x.shape}")
    return x

