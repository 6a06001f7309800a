"""Built-in target models: densities, gradients, and counters.

Gradients are validated against central finite differences of the log
density, and distributional facts against direct Monte Carlo from each
model's generative form.
"""

import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from shortchain import (
    RandomStream,
    correlated_gaussian_target,
    neal_funnel_target,
    synthetic_logistic_regression_target,
)
from shortchain import targets
from shortchain.targets import TargetModel

from oracles import logistic_grad_oracle, logistic_log_density_oracle


def finite_difference_gradient(log_density, x, eps=1e-5):
    """Central-difference gradient of a log density at one (d,) point.

    The 2d perturbed points x + eps e_i and x - eps e_i are evaluated as
    one (2d, d) batch.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    step = eps * np.eye(d)
    values = log_density(np.concatenate([x + step, x - step]))
    return (values[:d] - values[d:]) / (2.0 * eps)


def assert_gradient_matches(target, points, rel=1e-4):
    for x in points:
        exact = target.grad_log_density(x[None, :])[0]
        approx = finite_difference_gradient(target.log_density, x)
        scale = np.maximum(np.abs(exact), 1.0)
        assert np.all(np.abs(exact - approx) <= rel * scale), (
            f"gradient mismatch at {x}: {exact} vs {approx}")


class TestCorrelatedGaussian:
    def test_gradient_zero_at_mean(self):
        target = correlated_gaussian_target(2)
        assert np.allclose(target.grad_log_density(np.zeros((1, 2))), 0.0)

    def test_heterogeneous_config_constructs(self):
        target = correlated_gaussian_target(
            30, variances=[10.0] + [1.0] * 29, correlation=0.7)
        assert target.dimension == 30
        assert target.covariance[0, 0] == pytest.approx(10.0)
        assert target.covariance[0, 1] == pytest.approx(0.7 * math.sqrt(10.0))
        assert np.isfinite(target.log_density(np.zeros((1, 30)))[0])

    def test_gradient_matches_finite_differences(self):
        target = correlated_gaussian_target(
            5, mean=[1.0, -2.0, 0.0, 0.5, 3.0],
            variances=[4.0, 1.0, 0.25, 2.0, 1.0], correlation=0.4)
        points = RandomStream(0, 0).standard_normal((100, 5)) * 2.0
        assert_gradient_matches(target, points)

    def test_log_density_matches_multivariate_normal(self):
        target = correlated_gaussian_target(
            3, mean=[1.0, 0.0, -1.0], variances=[2.0, 1.0, 0.5], correlation=0.3)
        oracle = sps.multivariate_normal(mean=target.mean, cov=target.covariance)
        for x in RandomStream(5, 0).standard_normal((20, 1, 3)):
            assert target.log_density(x)[0] == pytest.approx(oracle.logpdf(x[0]), rel=1e-10)

    def test_batch_evaluation_matches_single(self):
        target = correlated_gaussian_target(4, correlation=0.2)
        xs = RandomStream(1, 0).standard_normal((7, 4))
        batch = target.log_density(xs)
        singles = np.array([target.log_density(x[None, :])[0] for x in xs])
        assert np.allclose(batch, singles, rtol=1e-12)
        gbatch = target.grad_log_density(xs)
        gsingles = np.array([target.grad_log_density(x[None, :])[0] for x in xs])
        assert np.allclose(gbatch, gsingles, rtol=1e-12)

    def test_invalid_correlation_rejected(self):
        with pytest.raises(ValueError):
            correlated_gaussian_target(3, correlation=1.0)
        with pytest.raises(ValueError):
            correlated_gaussian_target(3, correlation=-0.6)

    @pytest.mark.parametrize("name, value, rule", [
        ("mean", math.nan, "finite"), ("mean", math.inf, "finite"),
        ("mean", -math.inf, "finite"), ("variances", math.nan, "positive and finite"),
        ("variances", math.inf, "positive and finite")])
    def test_non_finite_parameter_is_named(self, name, value, rule):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be {rule}, got {value} at coordinate 1")):
            correlated_gaussian_target(3, **{name: [1.0, value, 1.0]})

    @pytest.mark.parametrize("value", [0.0, -1.0, -math.inf])
    def test_non_positive_variance_is_refused(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"variances must be positive and finite, got {value} at coordinate 1")):
            correlated_gaussian_target(3, variances=[1.0, value, 1.0])

    @pytest.mark.parametrize("factory", [
        correlated_gaussian_target,
        lambda d: synthetic_logistic_regression_target(3, d)], ids=["gaussian", "logistic"])
    @pytest.mark.parametrize("d", [10**6, 2**70])
    def test_dimension_whose_matrix_exceeds_memory_is_refused(self, factory, d):
        # before anything is allocated; the Gaussian target asked NumPy for
        # 7.28 TiB at 10**6, and both met "Maximum allowed dimension exceeded"
        # at 2**70
        with pytest.raises(ValueError, match=rf"^dimension {d} needs {8 * d * d:,} bytes "
                                             rf"for one \({d}, {d}\) matrix, more than"):
            factory(d)

    def test_far_point_has_zero_density_without_a_warning(self):
        # past about 1e154 the quadratic form overflows; q is +inf whatever
        # the signs of its terms, and every other row keeps its bits
        target = correlated_gaussian_target(2, correlation=0.3)
        x = np.array([[1e200, 0.0], [0.0, 0.0], [1e200, 1e199], [1e308, -1e308],
                      [0.3, -1.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = target.log_density(x)
        assert got[[0, 2, 3]].tolist() == [-math.inf] * 3
        near = target.log_density(x[[1, 4]])
        assert got[[1, 4]].tobytes() == near.tobytes()

    def test_gradient_counter(self):
        target = correlated_gaussian_target(3)
        assert target.gradient_evaluations == 0
        target.grad_log_density(np.zeros((1, 3)))
        assert target.gradient_evaluations == 1
        target.grad_log_density(np.zeros((10, 3)))
        assert target.gradient_evaluations == 11


class TestNealFunnel:
    def test_conditional_mode_gradient(self):
        target = neal_funnel_target(6)
        grad = target.grad_log_density(np.zeros((1, 6)))
        assert np.allclose(grad[0, 1:], 0.0)

    def test_variance_matches_generative_monte_carlo(self):
        # Draw x1 ~ N(0,1), x_i | x1 ~ N(0, e^{x1}); Var(X_i) should be
        # E[e^{x1}] = e^{1/2}.
        stream = RandomStream(123, 0)
        n = 400_000
        x1 = stream.standard_normal(n)
        xi = np.exp(0.5 * x1) * stream.standard_normal(n)
        mc_var = xi.var()
        assert mc_var == pytest.approx(math.exp(0.5), abs=0.03)

        target = neal_funnel_target(3)
        # The same scale appears in the density: for fixed x1 the x_i slice
        # is Gaussian with variance e^{x1}.
        x1v = 0.7
        base = np.array([[x1v, 0.0, 0.0]])
        bumped = np.array([[x1v, 1.3, 0.0]])
        delta = target.log_density(bumped)[0] - target.log_density(base)[0]
        assert delta == pytest.approx(-0.5 * 1.3**2 / math.exp(x1v), rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        target = neal_funnel_target(4)
        points = RandomStream(7, 0).standard_normal((100, 4))
        points[:, 0] *= 0.8
        assert_gradient_matches(target, points)

    def test_requires_dimension_two(self):
        with pytest.raises(ValueError):
            neal_funnel_target(1)


class TestSyntheticLogisticRegression:
    def test_zero_coefficients_log_likelihood(self):
        # At beta = 0 every Bernoulli likelihood is 1/2 regardless of label,
        # so the data term is n log(1/2); the remainder is the prior at 0.
        n, d, sd = 40, 3, 1.5
        target = synthetic_logistic_regression_target(n, d, prior_sd=sd)
        prior_at_zero = -0.5 * d * math.log(2.0 * math.pi * sd * sd)
        assert target.log_density(np.zeros((1, d)))[0] == pytest.approx(
            n * math.log(0.5) + prior_at_zero, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        target = synthetic_logistic_regression_target(25, 4, prior_sd=2.0)
        points = RandomStream(3, 0).standard_normal((100, 4))
        assert_gradient_matches(target, points)

    def test_same_seed_reproduces_dataset(self):
        a = synthetic_logistic_regression_target(30, 3, data_seed=5)
        b = synthetic_logistic_regression_target(30, 3, data_seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        x = np.array([[0.1, -0.2, 0.3]])
        assert a.log_density(x)[0] == b.log_density(x)[0]

    def test_different_seed_changes_dataset(self):
        a = synthetic_logistic_regression_target(30, 3, data_seed=5)
        b = synthetic_logistic_regression_target(30, 3, data_seed=6)
        assert not np.array_equal(a.labels, b.labels) or not np.array_equal(
            a.features, b.features)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_prior_sd_is_named(self, value):
        with pytest.raises(ValueError, match=rf"^prior_sd must be finite, got {value}$"):
            synthetic_logistic_regression_target(50, 3, prior_sd=value)

    def test_labels_are_binary(self):
        target = synthetic_logistic_regression_target(50, 2)
        assert set(np.unique(target.labels)) <= {0.0, 1.0}

    @pytest.mark.parametrize("n, d", [(1_000_000, 10_000), (2**70, 1)])
    def test_feature_matrix_that_exceeds_memory_is_refused(self, monkeypatch, n, d):
        # the (n, d) features ended in NumPy's _ArrayMemoryError; the refusal
        # comes before the data stream, so nothing is allocated
        def unreachable(*args):
            raise AssertionError("drew the dataset")

        monkeypatch.setattr(targets, "RandomStream", unreachable)
        with pytest.raises(ValueError, match=rf"^n_observations {n} with dimension {d} needs "
                                             rf"{8 * n * d:,} bytes for one \({n}, {d}\) "
                                             r"matrix, more than the [\d,]+ bytes of this "
                                             r"machine's memory$"):
            synthetic_logistic_regression_target(n, d)


class TestLogisticMatchesTextbookForms:
    # The target evaluates y s - log(1 + e^s) and its gradient through a
    # precomputed offset, |s|, log1p and tanh; the oracle keeps the textbook
    # logaddexp and expit forms.  At scale 100 the logits pass +-1000,
    # where e^s overflows.
    @pytest.fixture(scope="class")
    def target(self):
        return synthetic_logistic_regression_target(2000, 20, prior_sd=1.5, data_seed=3)

    def oracle(self, target, beta):
        args = (beta, target.features, target.labels, 1.5)
        return logistic_log_density_oracle(*args), logistic_grad_oracle(*args)

    @pytest.mark.parametrize("scale", [0.1, 3.0, 100.0])
    def test_log_density_and_gradient_match_oracle(self, target, scale):
        beta = scale * RandomStream(11, 0).standard_normal((40, 20))
        if scale == 100.0:
            assert np.max(np.abs(beta @ target.features.T)) > 1000.0
        want_ld, want_grad = self.oracle(target, beta)
        got_ld = target.log_density(beta)
        assert np.all(np.abs(got_ld - want_ld) <= 1e-13 * np.abs(want_ld))
        # absolute error against each gradient's largest coordinate magnitude
        magnitude = np.maximum(1.0, np.max(np.abs(want_grad), axis=1, keepdims=True))
        got_grad = target.grad_log_density(beta)
        assert np.all(np.abs(got_grad - want_grad) <= 1e-12 * magnitude)

    def test_non_finite_coefficients_never_give_a_finite_log_density(self, target):
        beta = 0.3 * RandomStream(13, 0).standard_normal((6, 20))
        beta[0, 4] = np.inf
        beta[1, 4] = -np.inf
        beta[2, 4] = np.nan
        beta[3, [2, 7]] = [np.inf, -np.inf]
        with np.errstate(invalid="ignore"):
            got = target.log_density(beta)
        assert not np.any(np.isfinite(got[:4]))
        assert not np.any(got[:4] == np.inf)
        want, _ = self.oracle(target, beta[4:])
        assert np.all(np.abs(got[4:] - want) <= 1e-13 * np.abs(want))


class TestGradientCounterContract:
    def test_counter_counts_points_not_calls(self):
        target = neal_funnel_target(3)
        target.grad_log_density(np.zeros((17, 3)))
        target.grad_log_density(np.zeros((1, 3)))
        assert target.gradient_evaluations == 18

    def test_log_density_does_not_count(self):
        target = correlated_gaussian_target(2)
        target.log_density(np.zeros((5, 2)))
        assert target.gradient_evaluations == 0


class TestBatchShapeContract:
    # Targets take (B, d) batches only; anything else is refused at the
    # TargetModel boundary with the target's name and both shapes, before
    # the wrapped callable or the gradient counter sees it.
    TARGETS = {
        "gaussian": lambda: correlated_gaussian_target(3, correlation=0.2),
        "funnel": lambda: neal_funnel_target(3),
        "logistic": lambda: synthetic_logistic_regression_target(30, 3),
    }

    @pytest.mark.parametrize("method", ["log_density", "grad_log_density"])
    @pytest.mark.parametrize("name", sorted(TARGETS))
    @pytest.mark.parametrize("shape", [(3,), (2, 4)], ids=["point", "wrong_width"])
    def test_other_shapes_are_rejected(self, name, method, shape):
        target = self.TARGETS[name]()
        expected = re.escape(f"the batch of target '{name}' must have shape (any, 3), "
                             f"got shape {shape}")
        with pytest.raises(ValueError, match=expected):
            getattr(target, method)(np.zeros(shape))
        assert target.gradient_evaluations == 0

    def test_custom_callables_only_see_batches(self):
        seen = []

        def log_density(x):
            seen.append(x.shape)
            return np.zeros(x.shape[0])

        target = TargetModel(2, log_density, lambda x: np.zeros_like(x), name="flat")
        with pytest.raises(ValueError, match=r"^the batch of target 'flat' must have shape "
                                             r"\(any, 2\), got shape \(2,\)$"):
            target.log_density(np.zeros(2))
        target.log_density([[0.0, 1.0]])
        assert seen == [(1, 2)]
