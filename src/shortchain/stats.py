"""Distribution quantiles and sample quantiles for the diagnostics.

Continuous quantiles are delegated to scipy's special-function inversions
(incomplete beta and gamma); the discrete binomial quantile is pinned to the
exact "smallest k with CDF(k) >= q" convention that the order-statistic
intervals require.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as _sps


def student_t_quantile(p: float, df: int) -> float:
    """Quantile of Student's t distribution with ``df`` degrees of freedom.

    Args:
        p: Probability level in (0, 1).
        df: Degrees of freedom, at least 1.

    Returns:
        The value q with P(T <= q) = p.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    return float(_sps.t.ppf(p, df))


def chi_square_quantile(p: float, df: int) -> float:
    """Quantile of the chi-square distribution with ``df`` degrees of freedom."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    return float(_sps.chi2.ppf(p, df))


def binomial_quantile(q: float, n: int, p: float) -> int:
    """Smallest integer k in [0, n] with Binomial(n, p) CDF(k) >= q.

    Args:
        q: Probability level in (0, 1).
        n: Number of trials, at least 1.
        p: Success probability in [0, 1].
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    k = int(_sps.binom.ppf(q, n, p))
    k = min(max(k, 0), n)
    # ppf can be off by one at CDF plateaus; enforce minimality exactly.
    while k > 0 and _sps.binom.cdf(k - 1, n, p) >= q:
        k -= 1
    while k < n and _sps.binom.cdf(k, n, p) < q:
        k += 1
    return k


def sample_quantile(samples: np.ndarray, p: float) -> float:
    """Empirical p-quantile using the lower order statistic X_(ceil(N p)).

    Args:
        samples: (N,) vector; pass one column of an (N, d) ensemble.
        p: Probability level in (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"need a non-empty sample vector, got shape {x.shape}")
    n = x.size
    rank = max(1, math.ceil(n * p))
    return float(np.sort(x)[rank - 1])

