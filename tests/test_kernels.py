"""Transition kernels: proposal laws, MH corrections, and invariance.

Proposal densities are checked against independent routes (scipy's
multivariate normal, numerical quadrature); invariance is checked by
moment matching and by counting probability flow across a threshold in
both directions from stationary starts.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.special import expit

from shortchain import KERNEL_KINDS, RandomStream, correlated_gaussian_target
from shortchain.adaptation import check_kind
from shortchain.kernels import (
    Preconditioner,
    _barker_core,
    _barker_increment_log_density,
    _barker_log_normal,
    _hmc_core,
    _kinetic_energy,
    _mala_core,
    _rwmh_core,
    _sigmoid,
    _softplus,
    leapfrog,
    step_batch,
)
from shortchain.targets import TargetModel


def flat_target(dimension, level=0.0):
    """Improper target with log density ``level`` everywhere."""
    return TargetModel(
        dimension=dimension,
        log_density=lambda x: np.full(x.shape[0], level),
        grad_log_density=np.zeros_like,
        name="flat")


def box_target(dimension, half_width=1.0):
    """Uniform on a box; -inf outside, gradient zero everywhere."""
    return TargetModel(
        dimension=dimension,
        log_density=lambda x: np.where(np.all(np.abs(x) < half_width, axis=1), 0.0, -np.inf),
        grad_log_density=np.zeros_like,
        name="box")


def uniform_block(sign_u, accept_u):
    """The (B, k) ``uniforms`` block of ``step_batch``: Barker's sign
    uniforms, when given, then each chain's acceptance uniform."""
    return accept_u[:, None] if sign_u is None else np.column_stack([sign_u, accept_u])


def uphill_barker_increments(n, step_size, pre, gradient, stream):
    """Barker increments from the origin of a constant-gradient 1-d target.

    Draws each proposal's noise in the order a one-chain step consumes it
    (one normal, then a sign uniform and an acceptance uniform), so the n
    increments come from the same numbers as n successive steps would use.
    """
    draws = [(stream.standard_normal(1), stream.random(2)) for _ in range(n)]
    eps = np.array([e for e, _ in draws])
    sign_u = np.array([u[:1] for _, u in draws])
    x = np.zeros((n, 1))
    grad_fn = lambda p: np.full_like(p, gradient)
    y, _, _, _ = _barker_core(x, grad_fn(x), eps, sign_u, step_size, pre, grad_fn)
    return y[:, 0]


class TestPreconditioner:
    def test_identity(self):
        pre = Preconditioner(np.eye(3))
        assert np.array_equal(pre.matrix, np.eye(3))
        assert np.array_equal(pre.cholesky, np.eye(3))
        assert np.array_equal(pre.inverse_cholesky, np.eye(3))
        assert pre.log_det_cholesky == 0.0

    def test_cholesky_reconstructs_matrix(self):
        G = np.array([[2.0, 0.6, 0.1], [0.6, 1.5, -0.2], [0.1, -0.2, 0.8]])
        pre = Preconditioner(G)
        assert np.allclose(pre.cholesky @ pre.cholesky.T, G, atol=1e-10)
        assert np.allclose(pre.inverse_cholesky @ pre.cholesky, np.eye(3), atol=1e-10)
        sign, logdet = np.linalg.slogdet(G)
        assert pre.log_det_cholesky == pytest.approx(0.5 * logdet, rel=1e-10)

    @given(st.lists(st.floats(min_value=1e-150, max_value=1e150), min_size=1, max_size=40))
    def test_diagonal_inverse_cholesky_equals_triangular_solve(self, diagonal):
        # every mean-field approximation gives a diagonal factor, whose
        # inverse must keep the triangular solve's bits
        pre = Preconditioner(np.diag(diagonal))
        expected = solve_triangular(pre.cholesky, np.eye(len(diagonal)), lower=True)
        assert np.array_equal(pre.inverse_cholesky, expected)

    def test_full_inverse_cholesky_matches_triangular_solve(self):
        stream = RandomStream(4, 0)
        a = stream.standard_normal((12, 12))
        pre = Preconditioner(a @ a.T + 0.5 * np.eye(12))
        expected = solve_triangular(pre.cholesky, np.eye(12), lower=True)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(pre.inverse_cholesky - expected)) <= 1e-14 * scale
        assert np.allclose(pre.cholesky @ pre.inverse_cholesky, np.eye(12),
                           rtol=0.0, atol=1e-13)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Preconditioner(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            Preconditioner(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Preconditioner(np.ones((2, 3)))


class TestRandomWalkProposal:
    def test_small_step_stays_close(self):
        pre = Preconditioner(np.eye(4))
        x = np.ones((1, 4))
        y = _rwmh_core(x, RandomStream(1, 0).standard_normal((1, 4)), 1e-12, pre)
        assert np.max(np.abs(y - x)) < 1e-5

    def test_proposal_covariance(self):
        G = np.array([[2.0, 0.6], [0.6, 1.0]])
        pre = Preconditioner(G)
        h = 0.7
        stream = RandomStream(2, 0)
        x = np.array([0.5, -0.5])
        n = 20_000
        y = _rwmh_core(np.tile(x, (n, 1)), stream.standard_normal((n, 2)), h, pre)
        incs = y - x
        assert np.allclose(incs.mean(axis=0), 0.0, atol=0.03)
        assert np.allclose(np.cov(incs, rowvar=False), h * G, atol=0.06)

    def test_forward_equals_reverse(self):
        # the proposal is symmetric, so its forward and reverse densities
        # cancel and alpha is min(1, pi(y) / pi(x)) bit for bit
        target = correlated_gaussian_target(2, variances=[1.5, 0.4], correlation=0.6)
        pre = Preconditioner(np.array([[1.5, -0.4], [-0.4, 0.9]]))
        h = 0.3
        stream = RandomStream(3, 0)
        x = stream.standard_normal((50, 2))
        logpi_x = target.log_density(x)
        eps = stream.standard_normal((50, 2))
        _, _, _, alpha = step_batch("rwmh", x, logpi_x, None, eps, stream.random((50, 1)),
                                    h, pre, target)
        y = _rwmh_core(x, eps, h, pre)
        assert np.array_equal(alpha, np.exp(np.minimum(target.log_density(y) - logpi_x, 0)))
        assert 0.0 < alpha.min() < 1.0 == alpha.max()

    def test_density_matches_scipy(self):
        # the random-walk proposal is MALA's with the drift at zero, so
        # MALA's densities on a zero gradient are N(x, h G)'s at y and back
        G = np.array([[1.5, -0.4], [-0.4, 0.9]])
        pre = Preconditioner(G)
        h = 0.3
        x = np.array([[0.2, 1.0]])
        eps = RandomStream(3, 0).standard_normal((1, 2))
        y = _rwmh_core(x, eps, h, pre)
        y_mala, logq_fwd, logq_rev, _ = _mala_core(x, np.zeros_like(x), eps, h, pre,
                                                   np.zeros_like)
        assert np.array_equal(y_mala, y)
        fwd = sps.multivariate_normal(mean=x[0], cov=h * G).logpdf(y[0])
        rev = sps.multivariate_normal(mean=y[0], cov=h * G).logpdf(x[0])
        assert logq_fwd[0] == pytest.approx(fwd, rel=1e-10)
        assert logq_rev[0] == pytest.approx(rev, rel=1e-10)


class TestLangevinProposal:
    def test_flat_target_matches_random_walk(self):
        # With a zero gradient the drift vanishes and the two kernels are
        # the same proposal; the state sequences should agree exactly.
        target = flat_target(3)
        pre = Preconditioner(np.array([[1.2, 0.2, 0.0],
                                       [0.2, 0.8, 0.1],
                                       [0.0, 0.1, 1.0]]))
        x_r = x_m = np.zeros((1, 3))
        logpi_r = logpi_m = np.zeros(1)
        grad_m = None
        stream = RandomStream(4, 0)
        for _ in range(200):
            eps = stream.standard_normal((1, 3))
            accept_u = stream.random(1)
            x_r, logpi_r, _, _ = step_batch("rwmh", x_r, logpi_r, None, eps,
                                            accept_u[:, None], 0.6, pre, target)
            x_m, logpi_m, grad_m, _ = step_batch("mala", x_m, logpi_m, grad_m, eps,
                                                 accept_u[:, None], 0.6, pre, target)
            assert np.array_equal(x_r, x_m)

    def test_drift_formula(self):
        # Standard normal target: grad(x) = -x, so the proposal mean is
        # x (1 - h/2) with G = I.
        target = correlated_gaussian_target(1)
        pre = Preconditioner(np.eye(1))
        h = 0.25
        x = np.array([[2.0]])
        eps = RandomStream(5, 0).standard_normal((1, 1))
        grad = target.grad_log_density
        y, _, _, _ = _mala_core(x, grad(x), eps, h, pre, grad)
        expected = x * (1.0 - 0.5 * h) + math.sqrt(h) * eps
        assert y == pytest.approx(expected, rel=1e-14)

    def test_densities_match_scipy_with_full_preconditioner(self):
        target = correlated_gaussian_target(2, variances=[3.0, 0.5], correlation=0.4)
        G = np.array([[2.0, 0.7], [0.7, 1.1]])
        pre = Preconditioner(G)
        h = 0.35
        x = np.array([[0.8, -1.2]])
        grad = target.grad_log_density
        eps = RandomStream(6, 0).standard_normal((1, 2))
        y, fwd, rev, _ = _mala_core(x, grad(x), eps, h, pre, grad)
        fwd_mean = x[0] + 0.5 * h * (G @ grad(x)[0])
        rev_mean = y[0] + 0.5 * h * (G @ grad(y)[0])
        expected_fwd = sps.multivariate_normal(mean=fwd_mean, cov=h * G).logpdf(y[0])
        expected_rev = sps.multivariate_normal(mean=rev_mean, cov=h * G).logpdf(x[0])
        assert fwd[0] == pytest.approx(expected_fwd, rel=1e-10)
        assert rev[0] == pytest.approx(expected_rev, rel=1e-10)

    def test_reverse_density_uses_fresh_gradient(self):
        # If the reverse density reused grad(x) instead of grad(y) the two
        # would coincide for this asymmetric target; assert they differ.
        target = correlated_gaussian_target(1, variances=[0.2])
        pre = Preconditioner(np.eye(1))
        x = np.array([[1.5]])
        grad = target.grad_log_density
        eps = RandomStream(7, 0).standard_normal((1, 1))
        _, fwd, rev, _ = _mala_core(x, grad(x), eps, 0.5, pre, grad)
        assert fwd[0] != rev[0]


class TestBarkerProposal:
    def test_zero_gradient_is_symmetric(self):
        target = flat_target(3)
        pre = Preconditioner(np.array([[1.0, 0.3, 0.0],
                                       [0.3, 2.0, 0.1],
                                       [0.0, 0.1, 0.7]]))
        stream = RandomStream(8, 0)
        eps = stream.standard_normal((1, 3))
        sign_u = stream.random((1, 3))
        x = np.zeros((1, 3))
        grad = target.grad_log_density
        _, fwd, rev, _ = _barker_core(x, grad(x), eps, sign_u, 0.4, pre, grad)
        assert fwd[0] == rev[0]

    def test_increment_density_normalizes(self):
        # The one-coordinate proposal density 2 mu_tau(z) sigmoid(z c) must
        # integrate to one for any tau > 0 and any c.
        stream = RandomStream(9, 0)
        for _ in range(10):
            tau = 0.2 + 2.0 * float(stream.random())
            c = float(3.0 * stream.standard_normal(1)[0])
            mass, err = quad(
                lambda z: math.exp(float(_barker_increment_log_density(
                    np.array([z]), np.array([c]), _barker_log_normal(np.array([z]), tau)))),
                -12 * tau, 12 * tau, limit=200)
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_increment_distribution_matches_quadrature_oracle(self):
        # Constant-gradient target with a non-unit preconditioner entry; the
        # x-space increment u = y - x must follow 2 N(u; 0, h G) sigmoid(u a).
        # This pins the scale sqrt(h G), not sqrt(h) G.
        a, G, h = 0.9, 4.0, 0.49
        pre = Preconditioner(np.array([[G]]))
        incs = np.sort(uphill_barker_increments(30_000, h, pre, a, RandomStream(7, 0)))
        tau2 = h * G
        grid = np.linspace(-6 * math.sqrt(tau2), 6 * math.sqrt(tau2), 20_001)
        dens = (2.0 * np.exp(-0.5 * grid**2 / tau2) / math.sqrt(2 * math.pi * tau2)
                / (1.0 + np.exp(-grid * a)))
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        oracle = np.interp(incs, grid, cdf)
        empirical = (np.arange(incs.size) + 0.5) / incs.size
        assert np.max(np.abs(empirical - oracle)) < 0.02

    def test_gradient_pushes_uphill(self):
        # Strong positive gradient makes positive increments much likelier.
        incs = uphill_barker_increments(500, 0.5, Preconditioner(np.eye(1)), 50.0,
                                        RandomStream(10, 0))
        assert np.mean(incs > 0) > 0.95


class TestBarkerSoftplusSigmoid:
    # 0, +-800 (where e^u overflows), +-inf, nan, tiny values and a fine grid
    GRID = np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0, 745.0, -745.0,
         np.inf, -np.inf, np.nan],
        np.linspace(-60.0, 60.0, 24_001)])

    def assert_matches(self, got, want):
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_array_equal(got[~finite], want[~finite])
        assert np.max(np.abs(got[finite] - want[finite])) <= 1e-15

    def test_softplus_matches_logaddexp(self):
        with np.errstate(invalid="ignore", over="ignore"):
            self.assert_matches(_softplus(self.GRID), np.logaddexp(0.0, self.GRID))

    def test_sigmoid_matches_expit(self):
        with np.errstate(invalid="ignore", over="ignore"):
            self.assert_matches(_sigmoid(self.GRID), expit(self.GRID))


class TestHamiltonianProposal:
    def test_leapfrog_reversibility(self):
        target = correlated_gaussian_target(2, variances=[2.0, 0.5], correlation=0.3)
        pre = Preconditioner(np.array([[1.3, 0.4], [0.4, 0.9]]))
        x = np.array([[0.7, -0.4]])
        eta = np.array([[0.5, 1.1]])
        grad = target.grad_log_density
        y, eta_end, g_end = leapfrog(x, eta, grad(x), 0.2, 8, pre, grad)
        x_back, eta_back, g_back = leapfrog(y, -eta_end, g_end, 0.2, 8, pre, grad)
        assert np.allclose(x_back, x, atol=1e-10)
        assert np.allclose(-eta_back, eta, atol=1e-10)
        # the returned gradient is the one at the returned position
        assert np.array_equal(g_end, grad(y))
        assert np.array_equal(g_back, grad(x_back))

    def test_energy_error_is_second_order(self):
        # Halving the step size at fixed integration time should shrink the
        # Hamiltonian error by about 4.
        target = correlated_gaussian_target(2, variances=[2.0, 0.5], correlation=0.3)
        pre = Preconditioner(np.array([[1.3, 0.4], [0.4, 0.9]]))
        x = np.array([[0.7, -0.4]])
        eta = np.array([[0.5, 1.1]])

        def energy(pos, mom):
            return float(-target.log_density(pos)[0] + _kinetic_energy(mom, pre)[0])

        h0 = energy(x, eta)
        errors = []
        for h, L in ((0.2, 8), (0.1, 16), (0.05, 32)):
            y, eta_end, _ = leapfrog(x, eta, target.grad_log_density(x), h, L, pre,
                                     target.grad_log_density)
            errors.append(abs(energy(y, eta_end) - h0))
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=1.0)
        assert errors[1] / errors[2] == pytest.approx(4.0, abs=1.0)

    def test_single_step_flat_target(self):
        # L = 1 on a flat target reduces to y = x + h (xi C^-1) G = x + h xi C^T.
        target = flat_target(2)
        G = np.array([[2.0, 0.5], [0.5, 1.5]])
        pre = Preconditioner(G)
        h = 0.3
        x = np.array([[1.0, -2.0]])
        xi = RandomStream(11, 0).standard_normal((1, 2))
        y, h_start, h_end, _, _ = _hmc_core(
            x, target.log_density(x), target.grad_log_density(x), xi, h, 1, pre,
            target.log_density, target.grad_log_density)
        expected = x + h * (xi @ pre.cholesky.T)
        assert np.allclose(y, expected, atol=1e-12)
        assert h_start[0] == pytest.approx(h_end[0], abs=1e-12)

    def test_gradient_evaluation_budget(self):
        # a step given no gradient evaluates it at x, then once per leapfrog step
        target = correlated_gaussian_target(3)
        pre = Preconditioner(np.eye(3))
        stream = RandomStream(12, 0)
        x = np.zeros((1, 3))
        logpi = target.log_density(x)
        before = target.gradient_evaluations
        step_batch("hmc", x, logpi, None, stream.standard_normal((1, 3)),
                   stream.random((1, 1)), 0.1, pre, target, n_leapfrog=7)
        assert target.gradient_evaluations - before == 8

    def test_momentum_covariance_is_inverse_preconditioner(self):
        G = np.array([[4.0, 1.0], [1.0, 2.0]])
        pre = Preconditioner(G)
        stream = RandomStream(13, 0)
        etas = np.stack([stream.standard_normal(2) @ pre.inverse_cholesky
                         for _ in range(40_000)])
        assert np.allclose(np.cov(etas, rowvar=False), np.linalg.inv(G), atol=0.02)

    def test_leapfrog_rejects_zero_steps(self):
        pre = Preconditioner(np.eye(1))
        with pytest.raises(ValueError):
            leapfrog(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), 0.1, 0, pre,
                     lambda x: x)


class TestAcceptanceProbability:
    # rwmh's forward and reverse densities cancel, so on a constant-density
    # target the acceptance probability is exp(level - logpi_x) capped at 1.
    def rwmh_alpha(self, level, logpi_x, seed):
        stream = RandomStream(seed, 0)
        eps = stream.standard_normal((1, 2))
        _, _, _, alpha = step_batch("rwmh", np.zeros((1, 2)), np.array([logpi_x]), None,
                                    eps, stream.random((1, 1)), 0.5,
                                    Preconditioner(np.eye(2)), flat_target(2, level))
        return alpha[0]

    def test_symmetric_equal_density_accepts(self):
        assert self.rwmh_alpha(-1.0, -1.0, seed=14) == 1.0

    def test_half_probability_at_log_two_drop(self):
        alpha = self.rwmh_alpha(-math.log(2.0), 0.0, seed=15)
        assert alpha == pytest.approx(0.5, rel=1e-12)

    def test_langevin_ratio_hand_computed(self):
        # Standard normal target, G = 1, h = 0.25, forced pair x -> y.
        target = correlated_gaussian_target(1)
        pre = Preconditioner(np.eye(1))
        h, x, y = 0.25, 0.3, 0.5

        def norm_logpdf(v, mean, var):
            return -0.5 * (math.log(2 * math.pi * var) + (v - mean) ** 2 / var)

        logq_fwd = norm_logpdf(y, x * (1 - h / 2), h)
        logq_rev = norm_logpdf(x, y * (1 - h / 2), h)
        expected = min(1.0, math.exp(
            (-0.5 * y * y) - (-0.5 * x * x) + logq_rev - logq_fwd))

        # Reconstruct the same pair through the kernel: eps solves
        # y = x (1 - h/2) + sqrt(h) eps.  A zero acceptance uniform accepts
        # any move with positive probability, so the new state is y.
        eps = np.array([[(y - x * (1 - h / 2)) / math.sqrt(h)]])
        xb = np.array([[x]])
        new_x, _, _, alpha = step_batch("mala", xb, target.log_density(xb), None, eps,
                                        np.zeros((1, 1)), h, pre, target)
        assert new_x[0, 0] == pytest.approx(y, rel=1e-14)
        # Both sides carry the same Gaussian normalizer, so compare directly.
        assert alpha[0] == pytest.approx(expected, rel=1e-10)

    def test_realized_langevin_pair(self):
        target = correlated_gaussian_target(1, variances=[0.7])
        pre = Preconditioner(np.eye(1))
        h = 0.4
        x = np.array([[1.1]])
        logpi_x = target.log_density(x)
        eps = RandomStream(16, 0).standard_normal((1, 1))
        # a zero acceptance uniform makes the new state the proposal y
        y, logpi_y, _, alpha = step_batch("mala", x, logpi_x, None, eps,
                                          np.zeros((1, 1)), h, pre, target)
        fwd_mean = (x + 0.5 * h * target.grad_log_density(x)).item()
        rev_mean = (y + 0.5 * h * target.grad_log_density(y)).item()
        fwd = sps.norm(loc=fwd_mean, scale=math.sqrt(h)).logpdf(y.item())
        rev = sps.norm(loc=rev_mean, scale=math.sqrt(h)).logpdf(x.item())
        expected = min(1.0, math.exp(logpi_y.item() - logpi_x.item() + rev - fwd))
        assert alpha[0] == pytest.approx(expected, rel=1e-10)

    def test_nan_ratio_rejects(self):
        stream = RandomStream(17, 0)
        _, _, _, alpha = step_batch("rwmh", np.zeros((1, 1)), np.array([-np.inf]), None,
                                    stream.standard_normal((1, 1)),
                                    stream.random((1, 1)), 0.5, Preconditioner(np.eye(1)),
                                    flat_target(1, -np.inf))
        assert alpha[0] == 0.0


class TestMHStep:
    def test_flat_target_always_moves(self):
        target = flat_target(2)
        pre = Preconditioner(np.eye(2))
        stream = RandomStream(18, 0)
        x = np.zeros((1, 2))
        for kind in KERNEL_KINDS:
            eps = stream.standard_normal((1, 2))
            sign_u = stream.random((1, 2)) if kind == "barker" else None
            accept_u = stream.random(1)
            new, _, _, alpha = step_batch(kind, x, np.zeros(1), None, eps,
                                          uniform_block(sign_u, accept_u),
                                          0.5, pre, target, n_leapfrog=2)
            assert alpha[0] == 1.0
            assert not np.array_equal(new, x)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_long_run_invariance_one_dimensional(self, kind):
        # 10^4 steps on a standard normal from a stationary start; the
        # empirical moments stay near (0, 1).
        target = correlated_gaussian_target(1)
        pre = Preconditioner(np.eye(1))
        stream = RandomStream(19, 0)
        h = 0.9 if kind != "hmc" else 0.5
        x = stream.standard_normal((1, 1))
        logpi = target.log_density(x)
        grad = None
        states = np.empty(10_000)
        for t in range(states.size):
            eps = stream.standard_normal((1, 1))
            sign_u = stream.random((1, 1)) if kind == "barker" else None
            accept_u = stream.random(1)
            x, logpi, grad, _ = step_batch(kind, x, logpi, grad, eps,
                                           uniform_block(sign_u, accept_u),
                                           h, pre, target, n_leapfrog=3)
            states[t] = x[0, 0]
        assert abs(states.mean()) < 0.05
        assert states.var() == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("kind", ["rwmh", "mala"])
    def test_detailed_balance_flow(self, kind):
        # From 2000 stationary chains, flow across x = 0 must balance:
        # |n(a->b) - n(b->a)| within 4 sqrt(total)  under reversibility.
        target = correlated_gaussian_target(1)
        pre = Preconditioner(np.eye(1))
        stream = RandomStream(42, 0)
        B, T, h = 2000, 100, 0.8
        x = stream.standard_normal((B, 1))
        logpi = target.log_density(x)
        grad = None
        n_ab = n_ba = 0
        for _ in range(T):
            eps = stream.standard_normal((B, 1))
            su = stream.random((B, 1)) if kind == "barker" else None
            au = stream.random(B)
            nx, nlogpi, grad, _ = step_batch(kind, x, logpi, grad, eps,
                                             uniform_block(su, au), h, pre, target)
            n_ab += int(np.sum((x[:, 0] < 0) & (nx[:, 0] >= 0)))
            n_ba += int(np.sum((x[:, 0] >= 0) & (nx[:, 0] < 0)))
            x, logpi = nx, nlogpi
        assert abs(n_ab - n_ba) <= 4.0 * math.sqrt(n_ab + n_ba)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_hard_boundary_rejects_cleanly(self, kind):
        # Huge steps on a box target: proposals landing outside get alpha 0
        # and the chain never leaves the box or produces NaN.
        target = box_target(2)
        pre = Preconditioner(np.eye(2))
        stream = RandomStream(21, 0)
        x = np.zeros((1, 2))
        logpi = target.log_density(x)
        grad = None
        moved = 0
        h = 1.5 if kind == "hmc" else 25.0
        for _ in range(200):
            eps = stream.standard_normal((1, 2))
            sign_u = stream.random((1, 2)) if kind == "barker" else None
            accept_u = stream.random(1)
            new, logpi, grad, alpha = step_batch(kind, x, logpi, grad, eps,
                                                 uniform_block(sign_u, accept_u),
                                                 h, pre, target, n_leapfrog=2)
            assert 0.0 <= alpha[0] <= 1.0
            assert np.all(np.isfinite(new))
            assert np.all(np.abs(new) < 1.0)
            moved += int(not np.array_equal(new, x))
            x = new
        assert moved > 0

    # one chain at the origin with zero noise: arguments up to the step size
    STILL = (np.zeros((1, 1)), np.zeros(1), None, np.zeros((1, 1)), np.zeros((1, 1)))

    def test_step_size_validation(self):
        target = flat_target(1)
        pre = Preconditioner(np.eye(1))
        with pytest.raises(ValueError):
            step_batch("rwmh", *self.STILL, 0.0, pre, target)
        with pytest.raises(ValueError):
            step_batch("rwmh", *self.STILL, math.inf, pre, target)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_uniforms_of_another_width_refused(self, kind):
        # d = 2: Barker reads two sign uniforms and an acceptance uniform,
        # every other kind the acceptance uniform alone
        width = 3 if kind == "barker" else 1
        target = flat_target(2)
        for bad in ((1, width - 1), (1, width + 1), (2, width), (width,)):
            with pytest.raises(ValueError, match=re.escape(
                    f"uniforms must have shape (1, {width}) under kernel {kind!r}, "
                    f"got {bad}")):
                step_batch(kind, np.zeros((1, 2)), np.zeros(1), None, np.zeros((1, 2)),
                           np.zeros(bad), 0.5, Preconditioner(np.eye(2)), target)
        assert target.gradient_evaluations == 0

    @pytest.mark.parametrize("kind", list(KERNEL_KINDS))
    def test_state_of_the_wrong_shape_refused(self, kind):
        # NumPy broadcast a (1,) logpi_x or a (1, d) grad_x over the batch
        # and ended a (B, d + 1) eps in a matmul or broadcast error
        target = flat_target(2)
        uniforms = np.full((4, check_kind(kind).uniform_count(2)), 0.5)
        # no gradient is given, so a late check would come after its evaluation
        state = {"logpi_x": np.zeros(4), "grad_x": None, "eps": np.zeros((4, 2))}
        for name, bad, wanted in (("logpi_x", (1,), (4,)), ("logpi_x", (4, 1), (4,)),
                                  ("grad_x", (1, 2), (4, 2)), ("eps", (4, 3), (4, 2))):
            args = dict(state, **{name: np.zeros(bad)})
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must have shape {wanted}, got {bad}")):
                step_batch(kind, np.zeros((4, 2)), args["logpi_x"], args["grad_x"],
                           args["eps"], uniforms, 0.5, Preconditioner(np.eye(2)), target)
        assert target.gradient_evaluations == 0

    @pytest.mark.parametrize("kind", ["mala", "barker", "hmc"])
    def test_gradient_of_the_wrong_shape_is_named(self, kind):
        # a step given no gradient evaluates it and checks its shape first
        base = correlated_gaussian_target(2)
        target = TargetModel(2, base.log_density,
                             lambda x: base.grad_log_density(x).sum(axis=1))
        uniforms = np.full((4, check_kind(kind).uniform_count(2)), 0.5)
        with pytest.raises(ValueError, match=re.escape(
                "target grad_log_density must have shape (4, 2), got shape (4,)")):
            step_batch(kind, np.zeros((4, 2)), np.zeros(4), None, np.zeros((4, 2)),
                       uniforms, 0.5, Preconditioner(np.eye(2)), target)

    @pytest.mark.parametrize("kind", ["mala", "barker", "hmc"])
    def test_carried_gradient_is_the_gradient_at_the_new_state(self, kind):
        # chains that accept carry the proposal's gradient and chains that
        # reject keep theirs; either way it is the gradient at the returned
        # state, bit for bit, and a step evaluates gradients only along its
        # proposal: once, or once per leapfrog step
        target = correlated_gaussian_target(3, variances=[2.0, 1.0, 0.5], correlation=0.4)
        pre = Preconditioner(np.eye(3))
        stream = RandomStream(31, 0)
        B, L = 50, 3
        per_step = B * (L if kind == "hmc" else 1)
        x = stream.standard_normal((B, 3))
        logpi = target.log_density(x)
        grad = target.grad_log_density(x)
        accepted = rejected = 0
        for _ in range(6):
            eps = stream.standard_normal((B, 3))
            uniforms = stream.random((B, check_kind(kind).uniform_count(3)))
            before = target.gradient_evaluations
            new_x, logpi, grad, _ = step_batch(kind, x, logpi, grad, eps, uniforms, 1.0,
                                               pre, target, n_leapfrog=L)
            assert target.gradient_evaluations - before == per_step
            assert np.array_equal(grad, target.grad_log_density(new_x))
            moved = np.any(new_x != x, axis=1)
            accepted += int(moved.sum())
            rejected += int((~moved).sum())
            x = new_x
        assert accepted > 0 and rejected > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            step_batch("gibbs", *self.STILL, 0.1, Preconditioner(np.eye(1)),
                       flat_target(1))


class TestStepBatchMoments:
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_two_dimensional_invariance(self, kind):
        # Stationary start on a correlated Gaussian, a few batched steps,
        # then compare first and second moments against the target.
        target = correlated_gaussian_target(2, variances=[2.0, 1.0], correlation=0.5)
        pre = Preconditioner(target.covariance)
        stream = RandomStream(23, 0)
        B, T = 4000, 5
        h = {"rwmh": 1.0, "mala": 0.8, "barker": 0.8, "hmc": 0.4}[kind]
        z = stream.standard_normal((B, 2))
        x = z @ np.linalg.cholesky(target.covariance).T
        logpi = target.log_density(x)
        grad = None
        for _ in range(T):
            eps = stream.standard_normal((B, 2))
            su = stream.random((B, 2)) if kind == "barker" else None
            au = stream.random(B)
            x, logpi, grad, _ = step_batch(kind, x, logpi, grad, eps, uniform_block(su, au),
                                           h, pre, target, n_leapfrog=3)
        se_mean = np.sqrt(np.diag(target.covariance) / B)
        assert np.all(np.abs(x.mean(axis=0)) < 4.0 * se_mean)
        sample_cov = np.cov(x, rowvar=False)
        # Var of a covariance entry is O(sigma^4 / B); 4 sigma margins.
        assert np.allclose(sample_cov, target.covariance,
                           atol=4.0 * 2.0**2 / math.sqrt(B))
