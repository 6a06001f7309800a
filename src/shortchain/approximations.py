"""Posterior approximations that chains are initialized from.

An ``Approximation`` is anything we can draw i.i.d. points from, together
with its own per-coordinate functionals (means, sds, quantiles).  Those
functionals are the initial side of every reported interval, so they use
closed forms where available and recorded fallbacks otherwise.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri

from .adaptation import checked_integer, checked_real
from .rng import RandomStream
from .stats import sample_quantile


class Approximation:
    """A sampleable distribution with known per-coordinate functionals.

    Args:
        dimension: Dimension d.
        sampler: Maps a RandomStream to one point of shape (d,).
        means: Length-d vector of finite coordinate means.
        sds: Length-d vector of positive, finite coordinate standard deviations.
        covariance: (d, d) finite covariance matrix used to build the preconditioner.
        quantile_fn: Optional ``(coordinate, p) -> float``.  When absent the
            runner falls back to initial-sample order statistics and records
            which path was taken.
    """

    def __init__(self, dimension: int,
                 sampler: Callable[[RandomStream], np.ndarray],
                 means: np.ndarray,
                 sds: np.ndarray,
                 covariance: np.ndarray,
                 quantile_fn: Optional[Callable[[int, float], float]] = None,
                 name: str = "approximation"):
        d = checked_integer("dimension", dimension, 1)
        means = np.asarray(means, dtype=float)
        sds = np.asarray(sds, dtype=float)
        covariance = np.asarray(covariance, dtype=float)
        if means.shape != (d,) or sds.shape != (d,):
            raise ValueError(f"means and sds must have shape ({d},)")
        if covariance.shape != (d, d):
            raise ValueError(f"covariance must have shape ({d}, {d})")
        if not np.isfinite(means).all():
            raise ValueError(f"means must be finite, got {means}")
        if not ((sds > 0) & (sds < np.inf)).all():
            raise ValueError(f"sds must be positive and finite, got {sds}")
        bad = np.argwhere(~np.isfinite(covariance))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"covariance must be finite, got {covariance[i, j]} at ({i}, {j})")
        self.dimension = d
        self.sampler = sampler
        self.means = means
        self.sds = sds
        self.covariance = covariance
        self.quantile_fn = quantile_fn
        self.name = name

    @property
    def has_quantiles(self) -> bool:
        return self.quantile_fn is not None

    def sample(self, stream: RandomStream) -> np.ndarray:
        """One draw of shape (d,); raises a ``ValueError`` naming the
        approximation for a point of another shape or with a non-finite value."""
        return _checked_draws(self.sampler(stream), (self.dimension,), self.name)

    def quantile(self, coordinate: int, p: float) -> float:
        """``quantile_fn``'s value as a float; a non-real or non-finite value
        is refused, naming the coordinate, the level and the approximation."""
        if self.quantile_fn is None:
            raise ValueError(f"{self.name} has no quantile function")
        return checked_real(f"quantile({coordinate},{p:g}) of approximation {self.name!r}",
                            self.quantile_fn(coordinate, p))

    def __repr__(self):
        return f"Approximation(name={self.name!r}, dimension={self.dimension})"


def mean_field_gaussian_approximation(means, sds, name: str = "mean_field") -> Approximation:
    """Independent Gaussian approximation with the given means and sds."""
    means = np.atleast_1d(np.asarray(means, dtype=float))
    sds = np.atleast_1d(np.asarray(sds, dtype=float))
    if means.shape != sds.shape or means.ndim != 1 or means.size == 0:
        raise ValueError(f"means and sds must be equal-length non-empty vectors, "
                         f"got shapes {means.shape} and {sds.shape}")
    d = means.size

    def sampler(stream: RandomStream) -> np.ndarray:
        return means + sds * stream.standard_normal(d)

    def quantile_fn(coordinate: int, p: float) -> float:
        return float(means[coordinate] + sds[coordinate] * ndtri(p))

    with np.errstate(over="ignore"):  # an sd past 1e154 squares to inf, refused by name
        covariance = np.diag(sds * sds)
    lost = np.flatnonzero((sds > 0) & (np.diag(covariance) == 0))
    if lost.size:  # below about 1e-162 the square underflows to 0
        j = int(lost[0])
        raise ValueError(f"sds must square to a positive variance, got {sds[j]:g} "
                         f"in coordinate {j}")
    return Approximation(d, sampler, means, sds, covariance, quantile_fn=quantile_fn, name=name)


def kl_optimal_mean_field(target) -> Approximation:
    """The KL(q || pi)-optimal mean-field Gaussian fit to a Gaussian target.

    For a Gaussian target with covariance Sigma the optimizer matches the
    means and uses coordinate variances 1 / (Sigma^-1)_ii, which understates
    every marginal variance when coordinates are correlated.

    Args:
        target: A TargetModel carrying ``mean`` and ``covariance`` attributes
            (as built by ``correlated_gaussian_target``).
    """
    mean = getattr(target, "mean", None)
    cov = getattr(target, "covariance", None)
    if mean is None or cov is None:
        raise ValueError("kl_optimal_mean_field needs a Gaussian target with "
                         "known mean and covariance")
    precision = getattr(target, "precision", None)
    if precision is None:
        precision = np.linalg.inv(cov)
    variances = 1.0 / np.diag(precision)
    return mean_field_gaussian_approximation(mean, np.sqrt(variances),
                                             name="kl_optimal_mean_field")


def empirical_approximation(samples: np.ndarray, name: str = "empirical") -> Approximation:
    """Approximation backed by an existing sample matrix.

    Functionals are the sample's own statistics, the sampler bootstraps rows,
    and quantiles are lower order statistics.  The covariance uses the N - 1
    denominator with a diagonal fallback when there are too few rows for a
    full-rank estimate.

    Args:
        samples: (N, d) matrix with N >= 2 and no constant column.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"need an (N, d) sample matrix with N >= 2, got shape {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:  # refused before any statistic, which would warn or carry the NaN
        raise ValueError(f"samples must be finite, got {x[bad[0]].tolist()} in row {bad[0]} "
                         "(counting from 0)")
    n, d = x.shape
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by name
        means, sds = x.mean(axis=0), x.std(axis=0, ddof=1)
    wide = np.flatnonzero(~np.isfinite(sds))
    if wide.size:
        j, row = int(wide[0]), int(np.argmax(np.abs(x[:, wide[0]])))
        raise ValueError(f"samples spread too widely in coordinate {j} for a finite variance: "
                         f"{x[row, j]:g} in row {row} (counting from 0)")
    flat = np.flatnonzero(sds * sds == 0)
    if flat.size:
        j = int(flat[0])
        spread = float(np.ptp(x[:, j]))
        if spread > 0:  # the squared deviations underflow to 0
            raise ValueError(f"samples spread too narrowly in coordinate {j} for a positive "
                             f"variance: their range is {spread:g}")
        raise ValueError(f"samples are constant in coordinate {j}; "
                         "an empirical approximation needs spread in every coordinate")
    if n <= d:
        cov = np.diag(sds * sds)
    else:
        cov = np.cov(x, rowvar=False).reshape(d, d)
        loading = 1e-8 * float(np.trace(cov)) / d
        for _ in range(8):
            try:
                np.linalg.cholesky(cov)
                break
            except np.linalg.LinAlgError:
                cov = cov + loading * np.eye(d)
                loading *= 10.0
        else:
            cov = np.diag(sds * sds)

    def sampler(stream: RandomStream) -> np.ndarray:
        return x[int(stream.integers(0, n))]

    def quantile_fn(coordinate: int, p: float) -> float:
        return sample_quantile(x[:, coordinate], p)

    return Approximation(d, sampler, means, sds, cov, quantile_fn=quantile_fn, name=name)


def approximation_from_sampler(sampler: Callable[[RandomStream], np.ndarray],
                               dimension: int,
                               stream: RandomStream,
                               n_draws: int = 100_000,
                               name: str = "sampled") -> Approximation:
    """Estimates an approximation's functionals by Monte Carlo.

    For black-box samplers without closed-form functionals: draws ``n_draws``
    points once, freezes the resulting empirical functionals, and keeps the
    original sampler for chain initialization.
    """
    n_draws = checked_integer("n_draws", n_draws, 2)
    dimension = checked_integer("dimension", dimension, 1)
    draws = [sampler(stream) for _ in range(n_draws)]
    for point in draws:  # a point of another shape is named before np.stack meets it
        if np.shape(point) != (dimension,):
            _checked_draws(point, (dimension,), name)
    draws = _checked_draws(np.stack(draws), (n_draws, dimension), name)
    base = empirical_approximation(draws, name=name)
    return Approximation(dimension, sampler, base.means, base.sds, base.covariance,
                         quantile_fn=base.quantile_fn, name=name)


def _checked_draws(draws, shape: tuple, name: str) -> np.ndarray:
    """``draws`` as floats; a ``ValueError`` naming approximation ``name`` for
    points of another shape than ``shape[-1:]`` or with a non-finite value."""
    x = np.asarray(draws, dtype=float)
    if x.shape != shape:
        raise ValueError(f"sampler returned shape {x.shape[len(shape) - 1:]}, "
                         f"expected {shape[-1:]}")
    if not np.all(np.isfinite(x)):
        points = x.reshape(-1, shape[-1])
        raise ValueError(f"the sampler of approximation {name!r} returned a non-finite "
                         f"point {points[~np.isfinite(points).all(axis=1)][0]}")
    return x
