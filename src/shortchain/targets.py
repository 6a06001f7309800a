"""Target distributions with gradient accounting.

A ``TargetModel`` bundles an unnormalized log density with its gradient and
counts gradient evaluations, one per evaluated point, so that runs can verify
their gradient budget in closed form.  Every target takes a batch of shape
(B, d) only, and the built-in ones evaluate it with vectorised NumPy
operations.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from .adaptation import checked_integer, checked_real
from .rng import RandomStream


class TargetModel:
    """A differentiable (log) target density on R^d.

    Args:
        dimension: Dimension d of the state space.
        log_density: Maps a (B, d) batch to (B,) log densities.
        grad_log_density: Maps a (B, d) batch to (B, d) gradients.
        name: Short label used in reports.

    Both methods accept only a (B, d) array and raise a ``ValueError``
    naming the target for any other shape, so the wrapped callables never
    see anything else.  The runner rejects a target whose log density or
    gradient has the wrong shape at its first use.  The gradient evaluation
    counter increments by the number of points in each
    ``grad_log_density`` call.
    """

    def __init__(self, dimension: int,
                 log_density: Callable[[np.ndarray], np.ndarray],
                 grad_log_density: Callable[[np.ndarray], np.ndarray],
                 name: str = "target"):
        self.dimension = checked_integer("dimension", dimension, 1)
        self.name = name
        self._log_density = log_density
        self._grad_log_density = grad_log_density
        self._n_grad = 0

    def log_density(self, x: np.ndarray):
        return self._log_density(self._batch(x))

    def grad_log_density(self, x: np.ndarray):
        x = self._batch(x)
        self._n_grad += x.shape[0]
        return self._grad_log_density(x)

    def _batch(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dimension:
            raise ValueError(
                f"target {self.name!r} takes a (B, {self.dimension}) batch, "
                f"got shape {x.shape}")
        return x

    @property
    def gradient_evaluations(self) -> int:
        return self._n_grad

    def __repr__(self):
        return f"TargetModel(name={self.name!r}, dimension={self.dimension})"


def checked_output(label: str, value, shape: tuple) -> np.ndarray:
    """Returns a callable's output on a (B, d) batch as a float array.

    Raises when the shape or dtype is not what every later step relies on,
    so a malformed target or scalar functional fails at its first use
    instead of inside a kernel's NumPy.  ``label`` names the callable in
    the message, for example "target log_density".
    """
    out = np.asarray(value)
    if out.shape != shape or out.dtype.kind not in "fiu":
        raise ValueError(
            f"{label} must return a real array of shape {shape} for "
            f"{shape[0]} points, got shape {out.shape} and dtype {out.dtype}")
    return out.astype(float, copy=False)


def _vector(name: str, value, d: int) -> np.ndarray:
    """``value``, a real number or a length-d vector, as a length-d float vector."""
    v = np.asarray(value)
    if v.dtype.kind not in "fiu" or v.shape not in ((), (d,)):
        raise ValueError(f"{name} must be a real number or a vector of length {d}, "
                         f"got {value!r}")
    return np.full(d, v, dtype=float)


def correlated_gaussian_target(dimension: int,
                               mean=0.0,
                               variances=1.0,
                               correlation: float = 0.0,
                               name: str = "gaussian") -> TargetModel:
    """Gaussian target with marginal variances and a common pairwise correlation.

    The covariance is Sigma_ii = variances[i] and
    Sigma_ij = correlation * sigma_i * sigma_j for i != j, which is positive
    definite only for correlation in (-1/(d-1), 1).

    Args:
        dimension: Dimension d >= 1.
        mean: Scalar or length-d mean vector.
        variances: Scalar or length-d vector of positive marginal variances.
        correlation: Common correlation in (-1/(d-1), 1).

    Returns:
        A TargetModel carrying ``mean`` and ``covariance`` attributes.
    """
    d = checked_integer("dimension", dimension, 1)
    mu = _vector("mean", mean, d)
    var = _vector("variances", variances, d)
    if not np.all(np.isfinite(mu)):
        raise ValueError(f"mean must be finite, got {mu}")
    if np.any(var <= 0):
        raise ValueError("variances must be strictly positive")
    if not np.all(np.isfinite(var)):
        raise ValueError(f"variances must be finite, got {var}")
    correlation = checked_real("correlation", correlation)
    lo = -1.0 / (d - 1) if d > 1 else -1.0
    if not lo < correlation < 1.0:
        raise ValueError(
            f"correlation {correlation} is outside (-1/(d-1), 1) = ({lo:.6g}, 1) for d={d}")
    sd = np.sqrt(var)
    cov = correlation * np.outer(sd, sd)
    np.fill_diagonal(cov, var)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance is not positive definite") from exc
    precision = np.linalg.inv(cov)
    precision = 0.5 * (precision + precision.T)
    log_norm = -0.5 * d * np.log(2.0 * np.pi) - np.sum(np.log(np.diag(chol)))

    def log_density(x):
        z = x - mu
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.sum((z @ precision) * z, axis=1)
            far = np.flatnonzero(~np.isfinite(q))
            if far.size:  # past about 1e154; positive at unit scale, so q = inf, never NaN
                scale = np.abs(z[far]).max(axis=1)
                unit = z[far] / scale[:, None]
                q[far] = scale * scale * np.sum((unit @ precision) * unit, axis=1)
        return log_norm - 0.5 * q

    def grad_log_density(x):
        return -(x - mu) @ precision

    model = TargetModel(d, log_density, grad_log_density, name=name)
    model.mean = mu
    model.covariance = cov
    model.precision = precision
    return model


def neal_funnel_target(dimension: int, name: str = "funnel") -> TargetModel:
    """Funnel target: x1 ~ N(0, 1), x_i | x1 ~ N(0, exp(x1)) for i >= 2.

    The second argument of the conditional normal is its variance, so the
    marginal variance of each x_i with i >= 2 is E[exp(x1)] = exp(1/2).
    """
    d = checked_integer("dimension", dimension, 2)

    def log_density(x):
        x1 = x[:, 0]
        rest = x[:, 1:]
        ss = np.sum(rest * rest, axis=1)
        return (-0.5 * np.log(2.0 * np.pi) - 0.5 * x1 * x1
                - 0.5 * (d - 1) * (np.log(2.0 * np.pi) + x1)
                - 0.5 * np.exp(-x1) * ss)

    def grad_log_density(x):
        x1 = x[:, 0]
        rest = x[:, 1:]
        inv_v = np.exp(-x1)
        g = np.empty_like(x)
        g[:, 0] = -x1 - 0.5 * (d - 1) + 0.5 * inv_v * np.sum(rest * rest, axis=1)
        g[:, 1:] = -rest * inv_v[:, None]
        return g

    return TargetModel(d, log_density, grad_log_density, name=name)


def synthetic_logistic_regression_target(n_observations: int,
                                         dimension: int,
                                         prior_sd: float = 1.0,
                                         data_seed: int = 0,
                                         name: str = "logistic") -> TargetModel:
    """Bayesian logistic regression posterior on a synthetic dataset.

    Features z_n are i.i.d. standard normal, the generating coefficient
    vector is drawn from the N(0, prior_sd^2 I) prior, and labels follow
    y_n ~ Bernoulli(sigmoid(z_n . beta)).  The same ``data_seed`` always
    regenerates the identical dataset.  For a batch of B points, each
    log-density or gradient call builds one (B, n_observations) array and
    works on it in place.

    Returns:
        A TargetModel for the posterior over beta, carrying ``features``,
        ``labels`` and ``generating_coefficients`` attributes.
    """
    n_observations = checked_integer("n_observations", n_observations, 1)
    d = checked_integer("dimension", dimension, 1)
    if isinstance(prior_sd, numbers.Real) and not 0 < prior_sd < math.inf:
        raise ValueError(f"prior_sd must be positive and finite, got {prior_sd}")
    prior_sd = checked_real("prior_sd", prior_sd)
    stream = RandomStream(checked_integer("data_seed", data_seed, 0), 0)
    features = stream.standard_normal((n_observations, d))
    beta_true = prior_sd * stream.standard_normal(d)
    labels = (stream.random(n_observations) < expit(features @ beta_true)).astype(float)
    prior_var = prior_sd * prior_sd
    prior_norm = -0.5 * d * np.log(2.0 * np.pi * prior_var)
    # With logits s = F beta, sum_n y_n s_n - s_n / 2 = beta . offset
    offset = labels @ features - 0.5 * features.sum(axis=0)

    def log_density(beta):
        # log p(y | s) = y s - softplus(s) and
        # softplus(s) = s / 2 + |s| / 2 + log1p(e^-|s|), so the (B, n)
        # logits array is the only large temporary and is reused in place
        s = beta @ features.T
        np.abs(s, out=s)
        half_abs = 0.5 * s.sum(axis=1)
        np.negative(s, out=s)
        np.exp(s, out=s)
        np.log1p(s, out=s)
        loglik = beta @ offset - half_abs - s.sum(axis=1)
        log_prior = prior_norm - 0.5 * np.sum(beta * beta, axis=1) / prior_var
        return loglik + log_prior

    def grad_log_density(beta):
        # sum_n (y_n - sigmoid(s_n)) f_n with sigmoid(s) = 1/2 + tanh(s / 2) / 2
        t = (0.5 * beta) @ features.T
        np.tanh(t, out=t)
        return offset - 0.5 * (t @ features) - beta / prior_var

    model = TargetModel(d, log_density, grad_log_density, name=name)
    model.features = features
    model.labels = labels
    model.generating_coefficients = beta_true
    return model
