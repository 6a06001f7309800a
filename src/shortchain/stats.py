"""Distribution quantiles and sample quantiles for the diagnostics.

The quantiles call the ``scipy.special`` functions that ``scipy.stats``
wraps, so the package never loads ``scipy.stats`` and its import cost:
Student's t inverts with ``stdtrit`` and the chi-square with
``gammaincinv`` (the bodies of ``t.ppf`` and ``chi2.ppf``, bit for bit).
The discrete binomial quantile is pinned to the exact "smallest k with
CDF(k) >= q" convention that the order-statistic intervals require; it
bisects over k on the CDF ``betaincc(k + 1, n - k, p)``, the regularized
incomplete beta form of the binomial CDF.  All three quantiles are cached:
an interval's critical values depend only on N, alpha and p.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np
from scipy import special


@functools.lru_cache(maxsize=256)
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
    return float(special.stdtrit(df, p))


@functools.lru_cache(maxsize=256)
def chi_square_quantile(p: float, df: int) -> float:
    """Quantile of the chi-square distribution with ``df`` degrees of freedom."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    return float(2 * special.gammaincinv(df / 2, p))


@functools.lru_cache(maxsize=256)
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
    if p == 0.0:
        return 0
    if p == 1.0:
        return n
    # CDF(n) = 1 >= q, so only k < n is searched, where CDF(k) is the
    # regularized incomplete beta I_{1-p}(n - k, k + 1)
    return bisect.bisect_left(range(n), True,
                              key=lambda k: special.betaincc(k + 1, n - k, p) >= q)


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

