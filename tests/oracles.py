"""Independent reference implementations used only by the tests.

Everything in this module is built from math/fractions/numpy/scipy.special
primitives so that it shares no code path with the package under test. The
distribution functions use classic series and continued-fraction evaluations
plus bracketed bisection; the binomial helpers use exact rational arithmetic;
the logistic regression posterior uses the textbook ``logaddexp`` and
``expit`` forms.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.special import expit

_EPS = 1e-15
_MAX_ITER = 500


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    # Lentz's algorithm for the incomplete beta continued fraction.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < 1e-300:
        d = 1e-300
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < 1e-300:
            d = 1e-300
        c = 1.0 + aa / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    return h


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _gamma_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a: float, x: float) -> float:
    # Continued fraction for the upper tail, Lentz form.
    b = x + 1.0 - a
    c = 1e300
    d = 1.0 / b if b != 0 else 1e300
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < 1e-300:
            d = 1e-300
        c = b + an / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if x <= 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cf(a, x)


def t_cdf(x: float, df: int) -> float:
    """Student t CDF via the incomplete beta function."""
    if x == 0.0:
        return 0.5
    tail = 0.5 * reg_inc_beta(0.5 * df, 0.5, df / (df + x * x))
    return 1.0 - tail if x > 0 else tail


def chi2_cdf(x: float, df: int) -> float:
    return reg_lower_gamma(0.5 * df, 0.5 * x)


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _bisect(cdf, p: float, lo: float, hi: float) -> float:
    # Expand the bracket until it straddles p, then bisect to ~1e-13.
    while cdf(lo) > p:
        lo *= 2.0
    while cdf(hi) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def t_quantile(p: float, df: int) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if p == 0.5:
        return 0.0
    return _bisect(lambda x: t_cdf(x, df), p, -2.0, 2.0)


def chi2_quantile(p: float, df: int) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    return _bisect(lambda x: chi2_cdf(x, df), p, 1e-12, float(df) + 1.0)


def normal_quantile(p: float) -> float:
    return _bisect(normal_cdf, p, -2.0, 2.0)


def binom_cdf_exact(k: int, n: int, p: float) -> Fraction:
    """Exact binomial CDF as a rational number (p converted exactly)."""
    pf = Fraction(p)
    qf = 1 - pf
    total = Fraction(0)
    for j in range(0, min(k, n) + 1):
        total += math.comb(n, j) * pf**j * qf ** (n - j)
    return total


def binom_quantile_exact(q: float, n: int, p: float) -> int:
    """Smallest k in [0, n] with CDF(k) >= q, decided in exact arithmetic."""
    qf = Fraction(q)
    for k in range(0, n + 1):
        if binom_cdf_exact(k, n, p) >= qf:
            return k
    return n


def t_density(x: float, df: int) -> float:
    lognorm = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) \
        - 0.5 * math.log(df * math.pi)
    return math.exp(lognorm - 0.5 * (df + 1) * math.log1p(x * x / df))


def mean_error_chain_count_oracle(delta_mean: float, alpha: float) -> int:
    """Minimal n with t_{n-1}(1 - alpha/2)/sqrt(n) <= delta_mean, by scan."""
    n = 2
    while t_quantile(1.0 - 0.5 * alpha, n - 1) / math.sqrt(n) > delta_mean:
        n += 1
    return n


def variance_error_chain_count_oracle(delta_var: float, alpha: float) -> int:
    """Minimal n with log10 chi-square quantile ratio <= delta_var, by scan."""
    n = 2
    while math.log10(chi2_quantile(1.0 - 0.5 * alpha, n - 1)
                     / chi2_quantile(0.5 * alpha, n - 1)) > delta_var:
        n += 1
    return n


def smallest_n_by_scan(width, budget: float) -> int:
    """Smallest n >= 2 with width(n) <= budget, by scanning n = 2, 3, ..."""
    n = 2
    while width(n) > budget:
        n += 1
    return n


def logistic_log_density_oracle(beta, features, labels, prior_sd):
    """Log posterior of logistic regression, y s - log(1 + e^s) per datum."""
    logits = beta @ features.T
    loglik = np.sum(labels * logits - np.logaddexp(0.0, logits), axis=1)
    prior_var = prior_sd * prior_sd
    d = features.shape[1]
    log_prior = (-0.5 * d * np.log(2.0 * np.pi * prior_var)
                 - 0.5 * np.sum(beta * beta, axis=1) / prior_var)
    return loglik + log_prior


def logistic_grad_oracle(beta, features, labels, prior_sd):
    """Gradient of ``logistic_log_density_oracle`` in beta."""
    resid = labels - expit(beta @ features.T)
    return resid @ features - beta / (prior_sd * prior_sd)


def pearson_correlation_squared(a, b) -> float:
    """Squared Pearson correlation of two equal-length vectors, one column at
    a time: the per-coordinate reference for ``reliability_check``.

    Returns NaN when either vector is constant or its spread is not finite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError(f"need two equal-length vectors with N >= 2, got {a.shape} and {b.shape}")
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom == 0.0 or not math.isfinite(denom):
        return float("nan")
    r = float(da @ db) / denom
    return min(r * r, 1.0)
