"""Metropolis-Hastings transition kernels sharing one fixed preconditioner.

Four proposal families are provided: random-walk, Langevin (MALA), the
skew-symmetric Barker proposal, and Hamiltonian dynamics with a leapfrog
integrator.  Each asymmetric proposal is paired with its exact forward and
reverse log densities so the Metropolis-Hastings correction leaves any target
invariant; non-finite densities or gradients at the proposed point reject
the move instead of aborting the run.

Every proposal and step operates on batches of shape (B, d).  The
randomness of a step is drawn by the caller and passed in, as a normal and
a uniform block, so a kernel never touches a random stream.  MALA, Barker
and HMC carry the gradient at the current state between steps, so a step
evaluates it only along its proposal: once, or L times for L leapfrog steps.
Barker's sigmoid and softplus are written with NumPy's vectorised tanh, exp
and log1p, so they cannot overflow and map infinite and NaN inputs to the
same values as their textbook forms.

The module needs only NumPy: the preconditioner's inverse Cholesky factor
comes from ``np.linalg.inv``, so no audit loads ``scipy.linalg``.  For a
diagonal factor, which every mean-field approximation gives, the inverse is
exactly the reciprocal of each diagonal entry.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .adaptation import _LEAPFROG_STEPS, check_kind
from .stats import checked_integer, checked_positive, checked_reals

_LOG_2PI = math.log(2.0 * math.pi)


def _quiet():
    # proposals may legitimately wander into overflow territory; the
    # acceptance rule maps the resulting non-finite values to rejections
    return np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")


class Preconditioner:
    """A fixed symmetric positive definite matrix G with Cholesky factor C.

    G is taken from the approximation's covariance once per run and never
    adapted; only the scalar step size changes during a run.

    Args:
        matrix: (d, d) symmetric positive definite matrix.
    """

    def __init__(self, matrix: np.ndarray):
        G = checked_reals("preconditioner matrix", matrix, (None, None))
        if G.shape[0] != G.shape[1]:
            raise ValueError(f"preconditioner must be square, got shape {G.shape}")
        if not np.allclose(G, G.T, rtol=1e-10, atol=1e-12):
            raise ValueError("preconditioner must be symmetric")
        G = 0.5 * (G + G.T)
        try:
            C = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise ValueError("preconditioner must be positive definite; "
                             "got a matrix whose Cholesky factorization failed") from exc
        self.matrix = G
        self.cholesky = C
        self.inverse_cholesky = np.linalg.inv(C)
        self.log_det_cholesky = float(np.sum(np.log(np.diag(C))))


def _rwmh_core(x, eps, step_size, pre):
    # symmetric, so its forward and reverse densities cancel and are not computed
    return x + math.sqrt(step_size) * (eps @ pre.cholesky.T)


def _mala_core(x, grad_x, eps, step_size, pre, grad_fn):
    G = pre.matrix
    # normalizing constant of N(., step_size * G)
    const = -0.5 * x.shape[1] * (_LOG_2PI + math.log(step_size)) - pre.log_det_cholesky
    forward_mean = x + 0.5 * step_size * (grad_x @ G)
    y = forward_mean + math.sqrt(step_size) * (eps @ pre.cholesky.T)
    logq_fwd = const - 0.5 * np.sum(eps * eps, axis=1)
    grad_y = grad_fn(y)
    reverse_mean = y + 0.5 * step_size * (grad_y @ G)
    v = ((x - reverse_mean) @ pre.inverse_cholesky.T) / math.sqrt(step_size)
    logq_rev = const - 0.5 * np.sum(v * v, axis=1)
    return y, logq_fwd, logq_rev, grad_y


def _softplus(u):
    """log(1 + e^u) as max(u, 0) + log1p(e^-|u|), which cannot overflow."""
    out = np.abs(u)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(u, 0.0)
    return out


def _sigmoid(u):
    """1 / (1 + e^-u) as 1/2 + tanh(u / 2) / 2, which cannot overflow."""
    out = 0.5 * u
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def _barker_log_normal(z, tau):
    """log 2 + log N(z_i; 0, tau^2) per coordinate: the Gaussian part of a
    Barker increment's log density, even in z, so the forward and reverse
    densities of one step share it."""
    return math.log(2.0) + (-0.5 * (_LOG_2PI + 2.0 * np.log(tau)) - 0.5 * (z / tau) ** 2)


def _barker_increment_log_density(z, c, log_normal):
    """Log density of one whitened Barker increment vector z.

    The increment is drawn coordinate-wise as z_i = b_i w_i with
    w_i ~ N(0, tau_i^2) and P(b_i = +1) = sigmoid(w_i c_i), giving density
    2 N(z_i; 0, tau_i^2) sigmoid(z_i c_i) per coordinate; ``log_normal`` is
    ``_barker_log_normal(z, tau)``.
    """
    return np.sum(log_normal - _softplus(-z * c), axis=-1)


def _barker_core(x, grad_x, eps, sign_uniforms, step_size, pre, grad_fn):
    # Unit whitened noise scaled by sqrt(h); the map through C^T then gives
    # the i-th coordinate of y - x scale sqrt(h G_ii) when G is diagonal,
    # matching the sqrt(h) C convention of the other kernels.
    tau = math.sqrt(step_size)
    w = eps * tau
    c_x = grad_x @ pre.cholesky.T
    z = np.where(sign_uniforms < _sigmoid(w * c_x), w, -w)
    y = x + z @ pre.cholesky
    log_normal = _barker_log_normal(z, tau)
    logq_fwd = _barker_increment_log_density(z, c_x, log_normal) - pre.log_det_cholesky
    grad_y = grad_fn(y)
    c_y = grad_y @ pre.cholesky.T
    logq_rev = _barker_increment_log_density(-z, c_y, log_normal) - pre.log_det_cholesky
    return y, logq_fwd, logq_rev, grad_y


def leapfrog(position, momentum, grad, step_size: float, n_steps: int,
             pre: Preconditioner, grad_fn: Callable):
    """Leapfrog integration of Hamiltonian dynamics with mass matrix G^-1.

    Each step is a half kick, a full drift through G, and a half kick; the
    integrator is time reversible, starts from the caller's gradient and
    makes exactly ``n_steps`` gradient evaluations.

    Args:
        position: (B, d) positions.
        momentum: (B, d) momenta.
        grad: (B, d) gradient of the log target at ``position``.
        step_size: Leapfrog step size h > 0.
        n_steps: Number of leapfrog steps L >= 1.
        pre: Preconditioner supplying G.
        grad_fn: Gradient of the log target.

    Returns:
        ``(position, momentum, grad)`` after ``n_steps`` steps.
    """
    n_steps = checked_integer("n_steps", n_steps, 1)
    x, eta, g = position, momentum, grad
    G = pre.matrix
    with _quiet():
        for _ in range(n_steps):
            eta = eta + 0.5 * step_size * g
            x = x + step_size * (eta @ G)
            g = grad_fn(x)
            eta = eta + 0.5 * step_size * g
    return x, eta, g


def _kinetic_energy(eta, pre):
    return 0.5 * np.sum((eta @ pre.matrix) * eta, axis=1)


def _hmc_core(x, logpi_x, grad_x, xi, step_size, n_steps, pre, log_density_fn, grad_fn):
    eta0 = xi @ pre.inverse_cholesky  # momentum ~ N(0, G^-1)
    h_start = -logpi_x + _kinetic_energy(eta0, pre)
    y, eta, grad_y = leapfrog(x, eta0, grad_x, step_size, n_steps, pre, grad_fn)
    logpi_y = log_density_fn(y)
    h_end = -logpi_y + _kinetic_energy(eta, pre)
    return y, h_start, h_end, logpi_y, grad_y


def step_batch(kind: str, x, logpi_x, grad_x, eps, uniforms,
               step_size: float, pre: Preconditioner, target,
               n_leapfrog: int = _LEAPFROG_STEPS):
    """Advances a batch of chains one MH step with pre-drawn randomness.

    Args:
        kind: Kernel kind, one of ``adaptation.KERNEL_KINDS``.
        x: (B, d) current states.
        logpi_x: (B,) current log densities.
        grad_x: (B, d) gradients at x carried by MALA, Barker and HMC, else
            None; a step given None evaluates them.
        eps: (B, d) standard normal draws.  ``logpi_x``, a given ``grad_x``
            and ``eps`` of another shape raise a ``ValueError`` naming them,
            before any target evaluation.
        uniforms: (B, k) uniforms, k = ``check_kind(kind).uniform_count(d)``:
            Barker's d sign uniforms, then every kind's acceptance uniform;
            a block of another shape raises a ``ValueError``.
        step_size: Current step size h > 0.
        pre: Preconditioner.
        target: TargetModel (its gradient counter tracks the budget).
        n_leapfrog: Leapfrog steps for HMC; a run takes the default, L = 10.

    Returns:
        ``(new_x, new_logpi, new_grad, alpha)``; ``new_grad`` is the
        gradient at ``new_x`` under a gradient kernel, else None.
    """
    tuning = check_kind(kind)
    step_size = checked_positive("step_size", step_size)
    n, d = x.shape
    for name, value, shape in (("logpi_x", logpi_x, (n,)), ("grad_x", grad_x, (n, d)),
                               ("eps", eps, (n, d))):
        if np.shape(value) != shape and not (name == "grad_x" and value is None):
            raise ValueError(f"{name} must have shape {shape}, got {np.shape(value)}")
    shape = (n, tuning.uniform_count(d))
    if np.shape(uniforms) != shape:
        raise ValueError(f"uniforms must have shape {shape} under kernel {kind!r}, "
                         f"got {np.shape(uniforms)}")
    with _quiet():
        grad_y = None
        if tuning.carries_gradient and grad_x is None:
            grad_x = target.grad_log_density(x)
        if kind == "hmc":
            y, h_start, h_end, logpi_y, grad_y = _hmc_core(
                x, logpi_x, grad_x, eps, step_size, n_leapfrog, pre,
                target.log_density, target.grad_log_density)
            log_ratio = h_start - h_end
        else:
            if kind == "rwmh":
                y = _rwmh_core(x, eps, step_size, pre)
            elif kind == "mala":
                y, logq_fwd, logq_rev, grad_y = _mala_core(
                    x, grad_x, eps, step_size, pre, target.grad_log_density)
            else:
                y, logq_fwd, logq_rev, grad_y = _barker_core(
                    x, grad_x, eps, uniforms[:, :-1], step_size, pre,
                    target.grad_log_density)
            logpi_y = target.log_density(y)
            log_ratio = logpi_y - logpi_x
            if kind != "rwmh":
                log_ratio = log_ratio + (logq_rev - logq_fwd)

        alpha = np.exp(np.minimum(log_ratio, 0.0))
        alpha = np.where(np.isnan(alpha), 0.0, alpha)
        # a proposal with any non-finite coordinate is never a valid move
        alpha = np.where(np.all(np.isfinite(y), axis=1), alpha, 0.0)
        accept = uniforms[:, -1] < alpha

        new_x = np.where(accept[:, None], y, x)
        new_logpi = np.where(accept, logpi_y, logpi_x)
        new_grad = None
        if grad_y is not None:
            new_grad = np.where(accept[:, None], grad_y, grad_x)
    return new_x, new_logpi, new_grad, alpha
