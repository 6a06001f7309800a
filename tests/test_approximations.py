"""Approximation constructors: sampling, functionals, and edge cases."""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from shortchain import (
    Approximation,
    RandomStream,
    approximation_from_sampler,
    correlated_gaussian_target,
    empirical_approximation,
    kl_optimal_mean_field,
    mean_field_gaussian_approximation,
)
from shortchain.stats import sample_quantile

from oracles import normal_quantile


class TestMeanFieldGaussian:
    def test_median_equals_mean(self):
        approx = mean_field_gaussian_approximation([1.0, -3.0], [2.0, 0.5])
        assert approx.quantile(0, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert approx.quantile(1, 0.5) == pytest.approx(-3.0, abs=1e-12)

    def test_quantiles_match_bisection_oracle(self):
        approx = mean_field_gaussian_approximation([2.0], [3.0])
        for p in (0.025, 0.1, 0.5, 0.9, 0.975):
            expected = 2.0 + 3.0 * normal_quantile(p)
            assert approx.quantile(0, p) == pytest.approx(expected, abs=1e-9)

    def test_covariance_is_diagonal(self):
        approx = mean_field_gaussian_approximation([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        assert np.allclose(approx.covariance, np.diag([1.0, 4.0, 9.0]))

    def test_sampler_moments(self):
        approx = mean_field_gaussian_approximation([5.0, -1.0], [0.5, 2.0])
        stream = RandomStream(11, 0)
        draws = np.stack([approx.sample(stream) for _ in range(20_000)])
        assert np.allclose(draws.mean(axis=0), [5.0, -1.0], atol=0.05)
        assert np.allclose(draws.std(axis=0), [0.5, 2.0], atol=0.05)

    def test_rejects_non_positive_sd(self):
        with pytest.raises(ValueError, match="^sds must be positive and finite"):
            mean_field_gaussian_approximation([0.0], [0.0])
        with pytest.raises(ValueError, match="^sds must be positive and finite"):
            mean_field_gaussian_approximation([0.0, 1.0], [1.0, -2.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            mean_field_gaussian_approximation([0.0, 1.0], [1.0])

    @pytest.mark.parametrize("sd", [1e-163, 1e-170])
    def test_sd_whose_square_underflows_is_refused_by_name(self, sd):
        # positive, but its variance rounds to 0, which no preconditioner takes
        with pytest.raises(ValueError, match=re.escape(
                f"sds must square to a positive variance, got {sd:g} in coordinate 1")):
            mean_field_gaussian_approximation([0.0, 0.0], [1.0, sd])

    def test_subnormal_variance_is_kept(self):
        approx = mean_field_gaussian_approximation([0.0, 0.0], [1.0, 1e-160])
        assert approx.covariance[1, 1] > 0.0


class TestKLOptimalMeanField:
    def test_independent_target_recovers_marginals(self):
        target = correlated_gaussian_target(3, variances=[4.0, 1.0, 0.25],
                                            correlation=0.0)
        approx = kl_optimal_mean_field(target)
        assert np.allclose(approx.sds**2, [4.0, 1.0, 0.25], rtol=1e-12)

    def test_equicorrelated_closed_form(self):
        # For unit variances and equicorrelation rho the fitted variance is
        # 1 / (Sigma^-1)_ii = (1 - rho)(1 + (d-1) rho) / (1 + (d-2) rho).
        d, rho = 30, 0.7
        target = correlated_gaussian_target(d, correlation=rho)
        approx = kl_optimal_mean_field(target)
        expected = (1.0 - rho) * (1.0 + (d - 1) * rho) / (1.0 + (d - 2) * rho)
        assert expected == pytest.approx(0.31019417475728155, rel=1e-12)
        assert np.allclose(approx.sds**2, expected, rtol=1e-10)
        # a target without a precision matrix is fitted from its inverted covariance
        bare = SimpleNamespace(mean=target.mean, covariance=target.covariance)
        assert np.allclose(kl_optimal_mean_field(bare).sds**2, expected, rtol=1e-10)

    def test_underestimates_marginal_variance(self):
        d, rho = 30, 0.7
        target = correlated_gaussian_target(d, correlation=rho)
        approx = kl_optimal_mean_field(target)
        marginal = np.diag(target.covariance)
        assert np.all(approx.sds**2 < marginal)
        # log10 understatement in variance for the unit coordinates.
        ratio = marginal[1] / approx.sds[1] ** 2
        assert math.log10(ratio) == pytest.approx(0.5084, abs=5e-4)

    def test_matches_grid_search_kl_minimum(self):
        # Direct check at d = 2: scan diagonal fits and minimize
        # KL(q || pi) for Gaussians, using the closed form
        #   0.5 (tr(S^-1 D) + m' S^-1 m - d + ln det S - ln det D).
        rho = 0.6
        target = correlated_gaussian_target(2, correlation=rho)
        cov = target.covariance
        prec = np.linalg.inv(cov)
        _, logdet_cov = np.linalg.slogdet(cov)

        def kl(v):
            diag = np.diag([v, v])
            return 0.5 * (np.trace(prec @ diag) - 2.0 + logdet_cov
                          - math.log(v) - math.log(v))

        grid = np.linspace(0.1, 1.5, 2801)
        best = grid[int(np.argmin([kl(v) for v in grid]))]
        approx = kl_optimal_mean_field(target)
        assert approx.sds[0] ** 2 == pytest.approx(best, abs=5e-4)

    def test_rejects_target_without_moments(self):
        class Opaque:
            dimension = 2
        with pytest.raises(ValueError):
            kl_optimal_mean_field(Opaque())


class TestEmpirical:
    def test_rejects_constant_column(self):
        x = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        with pytest.raises(ValueError, match="coordinate 1"):
            empirical_approximation(x)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            empirical_approximation(np.ones((1, 3)))

    @pytest.mark.parametrize("value", [1e200, 1e160, -1e160])
    def test_overflowing_spread_names_the_coordinate_and_row(self, value):
        # finite, but its square overflows: refused before any statistic warns
        x = RandomStream(4, 0).standard_normal((30, 2))
        x[5, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"samples spread too widely in coordinate 1 for a finite variance: "
                    f"{value:g} in row 5 (counting from 0)")):
                empirical_approximation(x)

    def test_underflowing_spread_is_named_not_called_constant(self):
        # no two entries of column 0 are equal, yet their squared deviations
        # underflow to 0
        x = RandomStream(4, 0).standard_normal((50, 2))
        x[:, 0] *= 1e-170
        assert np.unique(x[:, 0]).size == 50
        with pytest.raises(ValueError, match=re.escape(
                "samples spread too narrowly in coordinate 0 for a positive variance: "
                f"their range is {np.ptp(x[:, 0]):g}")):
            empirical_approximation(x)

    def test_large_sample_covariance(self):
        stream = RandomStream(2, 0)
        x = stream.standard_normal((50_000, 3))
        approx = empirical_approximation(x)
        assert np.allclose(approx.covariance, np.eye(3), atol=0.05)
        assert np.allclose(approx.means, 0.0, atol=0.05)

    def test_quantiles_are_sample_order_statistics(self):
        stream = RandomStream(3, 0)
        x = stream.standard_normal((101, 2)) * 2.0 + 1.0
        approx = empirical_approximation(x)
        for p in (0.05, 0.25, 0.5, 0.95):
            for j in (0, 1):
                assert approx.quantile(j, p) == sample_quantile(x[:, j], p)

    def test_few_rows_fall_back_to_diagonal(self):
        stream = RandomStream(4, 0)
        x = stream.standard_normal((4, 6))
        approx = empirical_approximation(x)
        sds = x.std(axis=0, ddof=1)
        assert np.allclose(approx.covariance, np.diag(sds * sds))

    def test_rank_deficient_covariance_regularized(self):
        # Duplicate column pair makes the covariance singular; the
        # constructor must still hand back something Cholesky-factorable.
        stream = RandomStream(5, 0)
        base = stream.standard_normal((200, 2))
        x = np.column_stack([base[:, 0], base[:, 0] + 1e-13 * base[:, 1], base[:, 1]])
        approx = empirical_approximation(x)
        np.linalg.cholesky(approx.covariance)

    def test_sampler_bootstraps_rows(self):
        x = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        approx = empirical_approximation(x)
        stream = RandomStream(6, 0)
        rows = {tuple(approx.sample(stream)) for _ in range(100)}
        assert rows <= {(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)}
        assert len(rows) == 3

    def test_one_dimensional_input_promoted(self):
        approx = empirical_approximation(np.array([1.0, 2.0, 3.0, 4.0]))
        assert approx.dimension == 1


class TestFromSampler:
    def test_estimates_functionals_from_draws(self):
        def sampler(stream):
            return np.array([4.0, 0.0]) + np.array([1.0, 3.0]) * stream.standard_normal(2)

        approx = approximation_from_sampler(sampler, 2, RandomStream(7, 0),
                                            n_draws=40_000)
        assert np.allclose(approx.means, [4.0, 0.0], atol=0.05)
        assert np.allclose(approx.sds, [1.0, 3.0], atol=0.05)
        assert approx.has_quantiles
        # The original sampler is kept, not a bootstrap of the draws.
        stream = RandomStream(8, 0)
        fresh = np.stack([approx.sample(stream) for _ in range(5000)])
        assert fresh.std(axis=0)[1] == pytest.approx(3.0, abs=0.15)

    def test_rejects_tiny_draw_count(self):
        with pytest.raises(ValueError):
            approximation_from_sampler(lambda s: np.zeros(1), 1,
                                       RandomStream(0, 0), n_draws=1)


class TestSampledDrawsChecked:
    # the draws are checked with Approximation.sample's messages
    def test_wrong_point_shape_names_both_shapes(self):
        # the second sampler's points vary in shape, which np.stack would refuse
        for sampler in (lambda s: s.standard_normal(3),
                        lambda s: s.standard_normal(2 if s.random() < 0.5 else 3)):
            with pytest.raises(ValueError,
                               match=r"^sampler returned shape \(3,\), expected \(2,\)$"):
                approximation_from_sampler(sampler, 2, RandomStream(0, 0), n_draws=50)

    def test_non_finite_draw_names_the_sampler_without_warnings(self):
        def sampler(stream):
            x = stream.standard_normal(2)
            return x if x[0] < 1.0 else np.array([x[0], np.nan])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the sampler of approximation 'vi' "
                                                 r"returned a non-finite point \[.* nan\]$"):
                approximation_from_sampler(sampler, 2, RandomStream(0, 0), n_draws=50,
                                           name="vi")


class TestApproximationValidation:
    def test_sampler_shape_checked(self):
        approx = mean_field_gaussian_approximation([0.0, 0.0], [1.0, 1.0])
        approx.sampler = lambda stream: np.zeros(3)
        with pytest.raises(ValueError):
            approx.sample(RandomStream(0, 0))

    def test_non_finite_sample_names_the_approximation(self):
        approx = mean_field_gaussian_approximation([0.0, 0.0], [1.0, 1.0], name="vi_fit")
        approx.sampler = lambda stream: np.array([0.0, np.nan])
        with pytest.raises(ValueError, match=r"sampler of approximation 'vi_fit' "
                                             r"returned a non-finite point"):
            approx.sample(RandomStream(0, 0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_means_are_named(self, value):
        with pytest.raises(ValueError, match=r"^means must be finite"):
            mean_field_gaussian_approximation([0.0, value], [1.0, 1.0])

    @pytest.mark.parametrize("means, sds, covariance, message", [
        ([0.0], [1.0, 1.0], np.eye(2), r"means and sds must have shape \(2,\)"),
        ([0.0, 0.0], [[1.0, 1.0]], np.eye(2), r"means and sds must have shape \(2,\)"),
        ([0.0, 0.0], [1.0, 1.0], np.eye(3), r"covariance must have shape \(2, 2\)"),
        ([0.0, 0.0], [1.0, 1.0], np.ones(2), r"covariance must have shape \(2, 2\)")])
    def test_functional_shapes_are_checked(self, means, sds, covariance, message):
        with pytest.raises(ValueError, match=message):
            Approximation(2, lambda stream: np.zeros(2), means, sds, covariance)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_covariance_is_named(self, value):
        # refused before the preconditioner, which would call a NaN
        # asymmetric and would precondition every step with an infinity
        with pytest.raises(ValueError, match=re.escape(
                f"covariance must be finite, got {value} at (0, 1)")):
            Approximation(2, lambda stream: np.zeros(2), np.zeros(2), np.ones(2),
                          [[1.0, value], [value, 1.0]])

    @pytest.mark.parametrize("value, problem", [
        (math.nan, "must be finite, got nan"), (-math.inf, "must be finite, got -inf"),
        ("3", "must be a real number, got '3'")])
    def test_quantile_value_is_checked(self, value, problem):
        approx = mean_field_gaussian_approximation([0.0], [1.0], name="vi_fit")
        approx.quantile_fn = lambda coordinate, p: value
        with pytest.raises(ValueError, match=re.escape(
                f"quantile(0,0.25) of approximation 'vi_fit' {problem}")):
            approx.quantile(0, 0.25)

    def test_quantile_without_fn_raises(self):
        approx = mean_field_gaussian_approximation([0.0], [1.0])
        approx.quantile_fn = None
        with pytest.raises(ValueError):
            approx.quantile(0, 0.5)
