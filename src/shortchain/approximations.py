"""Posterior approximations that chains are initialized from.

An ``Approximation`` is anything we can draw i.i.d. points from, together
with its own per-coordinate functionals (means, sds, quantiles).  Those
functionals are the initial side of every reported interval, so they use
closed forms where available and recorded fallbacks otherwise.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtri

from .rng import RandomStream
from .stats import (check_entries, check_memory, checked_dimension, checked_integer,
                    checked_real, checked_reals, sample_quantile)


class Approximation:
    """A sampleable distribution with known per-coordinate functionals.

    Args:
        dimension: Dimension d.
        sampler: Maps a RandomStream to one point of shape (d,), which
            ``sample`` copies at once, so it may be one reused array.
        means: Length-d vector of finite coordinate means.
        sds: Length-d vector of positive, finite coordinate standard deviations,
            each between about 1e-162 and 1e154, so that its square, the
            variance every variance bound divides by, is positive and finite.
        covariance: (d, d) finite covariance matrix used to build the preconditioner.
        quantile_fn: Optional ``(coordinate, p) -> float``.  When absent the
            runner falls back to initial-sample order statistics and records
            which path was taken.

    A vector or matrix that breaks its rule is refused, before any draw, with
    a ``ValueError`` naming its first bad entry.  ``means``, ``sds`` and
    ``covariance`` are kept as private read-only copies, so a later edit of
    the caller's arrays changes nothing.  ``sample`` is the one draw path: it
    calls ``sampler`` once a stream and checks every point.
    """

    def __init__(self, dimension: int,
                 sampler: Callable[[RandomStream], np.ndarray],
                 means: np.ndarray,
                 sds: np.ndarray,
                 covariance: np.ndarray,
                 quantile_fn: Optional[Callable[[int, float], float]] = None,
                 name: str = "approximation"):
        d = checked_integer("dimension", dimension, 1)
        means, sds = checked_reals("means", means, (d,)), checked_reals("sds", sds, (d,))
        covariance = checked_reals("covariance", covariance, (d, d))
        check_entries("means", means, np.isfinite(means))
        check_entries("sds", sds, (sds > 0) & (sds < np.inf), "positive and finite")
        with np.errstate(over="ignore"):  # every variance bound divides by it
            variances = sds * sds
        check_entries("sds", sds, (variances > 0) & (variances < np.inf),
                      "positive with a positive, finite square")
        check_entries("covariance", covariance, np.isfinite(covariance))
        self.dimension = d
        self.sampler = sampler
        self.means = _frozen(means)
        self.sds = _frozen(sds)
        self.covariance = _frozen(covariance)
        self.quantile_fn = quantile_fn
        self.name = name

    @property
    def has_quantiles(self) -> bool:
        return self.quantile_fn is not None

    def sample(self, streams: Sequence[RandomStream]) -> np.ndarray:
        """One draw from each stream, in order, as a (len(streams), d) float
        block; raises a ``ValueError`` naming the approximation for a point
        that is not real, of another shape than (d,) or not finite."""
        return _draws(self.sampler, streams, self.dimension, self.name)

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
    """Independent Gaussian approximation with the given means and sds.

    ``means`` and ``sds`` are equal-length vectors held to ``Approximation``'s
    rules, which the sampler and quantiles read from private copies; a
    length d whose (d, d) covariance would not fit in this machine's memory
    is refused, naming the bytes, before it is built.
    """
    means = _frozen(np.atleast_1d(checked_reals("means", means)))
    sds = _frozen(np.atleast_1d(checked_reals("sds", sds)))
    if means.shape != sds.shape or means.ndim != 1 or means.size == 0:
        raise ValueError(f"means and sds must be equal-length non-empty vectors, "
                         f"got shapes {means.shape} and {sds.shape}")
    d = checked_dimension("dimension", means.size)

    def sampler(stream: RandomStream) -> np.ndarray:
        return means + sds * stream.standard_normal(d)

    def quantile_fn(coordinate: int, p: float) -> float:
        return float(means[coordinate] + sds[coordinate] * ndtri(p))

    with np.errstate(over="ignore"):  # Approximation names an sd whose square overflows
        covariance = np.diag(sds * sds)
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

    Functionals are the sample's own statistics, the sampler bootstraps rows
    of a private copy of the sample, and quantiles are its lower order
    statistics.  The covariance uses the N - 1
    denominator with a diagonal fallback when there are too few rows for a
    full-rank estimate.

    Args:
        samples: (N, d) matrix of finite values with N >= 2, no constant
            column and a (d, d) covariance that fits in this machine's memory.
    """
    x = checked_reals("samples", samples)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"need an (N, d) sample matrix with N >= 2, got shape {x.shape}")
    # refused before any statistic, which would warn or carry the NaN
    check_entries("samples", x, np.isfinite(x).all(axis=1))
    n, d = x.shape[0], checked_dimension("dimension", x.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by name
        means, sds = x.mean(axis=0), x.std(axis=0, ddof=1)
    wide = np.flatnonzero(~np.isfinite(sds))
    if wide.size:
        j, row = int(wide[0]), int(np.argmax(np.abs(x[:, wide[0]])))
        raise ValueError(f"samples spread too widely in coordinate {j} for a finite variance: "
                         f"{x[row, j]:g} in row {row} (counting from 0)")
    # a constant column's sd need not be 0: its mean may round
    spread = np.ptp(x, axis=0)
    flat = np.flatnonzero((spread == 0) | (sds * sds == 0))
    if flat.size:
        j = int(flat[0])
        if spread[j] > 0:  # the squared deviations underflow to 0
            raise ValueError(f"samples spread too narrowly in coordinate {j} for a positive "
                             f"variance: their range is {spread[j]:g}")
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
    x = _frozen(x)

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

    For black-box samplers without closed-form functionals: the empirical
    approximation of ``n_draws`` points drawn once, with ``sampler`` kept for
    chain initialization.  ``dimension`` is held to
    ``stats.checked_dimension`` first, and two (n_draws, dimension) blocks
    to ``check_memory``: at its peak the call holds the drawn block and one
    temporary of that size, which ``x.std`` or ``np.cov`` makes.
    """
    n_draws = checked_integer("n_draws", n_draws, 2)
    dimension = checked_dimension("dimension", dimension)
    check_memory(f"n_draws {n_draws} with dimension {dimension}", (n_draws, dimension), 2)
    approx = empirical_approximation(_draws(sampler, [stream] * n_draws, dimension, name), name)
    approx.sampler = sampler
    return approx


def _draws(sampler, streams, d: int, name: str) -> np.ndarray:
    """``Approximation.sample``'s (n, d) block, each point copied into its row
    as it is drawn, checked alone only when not a (d,) float array, and all
    checked finite at the end; a ``ValueError`` names approximation ``name``
    for a point that is not real, of another shape than (d,) or not finite."""
    x = np.empty((len(streams), d))
    for row, stream in zip(x, streams):
        point = sampler(stream)
        if type(point) is not np.ndarray or point.shape != (d,) or point.dtype != float:
            point = checked_reals(f"the draws of approximation {name!r}", point, (d,))
        row[:] = point
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"the sampler of approximation {name!r} returned a non-finite "
                         f"point {x[~finite][0]}")
    return x


def _frozen(values: np.ndarray) -> np.ndarray:
    """A read-only copy of ``values``, which no later edit of the caller's
    array reaches."""
    values = values.copy()
    values.flags.writeable = False
    return values
