"""Approximation constructors: sampling, functionals, and edge cases."""

import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from shortchain import (
    Approximation,
    RandomStream,
    RunConfig,
    approximation_from_sampler,
    correlated_gaussian_target,
    empirical_approximation,
    kl_optimal_mean_field,
    mean_field_gaussian_approximation,
    run_diagnostic,
)
from shortchain import stats
from shortchain.rng import chain_streams
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
        draws = approx.sample([stream] * 20_000)
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
                f"sds must be positive with a positive, finite square, got {sd:g} "
                "at coordinate 1")):
            mean_field_gaussian_approximation([0.0, 0.0], [1.0, sd])

    def test_subnormal_variance_is_kept(self):
        approx = mean_field_gaussian_approximation([0.0, 0.0], [1.0, 1e-160])
        assert approx.covariance[1, 1] > 0.0

    def test_dimension_whose_covariance_exceeds_memory_is_refused(self):
        # refused before np.diag asks for 8 TB
        with pytest.raises(ValueError, match=r"^dimension 1000000 needs 8,000,000,000,000 "
                                             r"bytes for one \(1000000, 1000000\) matrix"):
            mean_field_gaussian_approximation(np.zeros(10**6), np.ones(10**6))


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
        # 1,000 rows of 0.1 have an sd of 1.4e-15, since their mean rounds
        for column in (np.full(10, 3.0), np.full(1000, 0.1)):
            x = np.column_stack([np.arange(float(column.size)), column])
            with pytest.raises(ValueError, match="^samples are constant in coordinate 1;"):
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

    def test_dimension_whose_covariance_exceeds_memory_is_refused(self):
        samples = np.random.default_rng(0).normal(size=(2, 10**6))
        with pytest.raises(ValueError, match=r"^dimension 1000000 needs 8,000,000,000,000 "):
            empirical_approximation(samples)

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
        rows = {tuple(row) for row in approx.sample([stream] * 100)}
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
        fresh = approx.sample([stream] * 5000)
        assert fresh.std(axis=0)[1] == pytest.approx(3.0, abs=0.15)

    def test_rejects_tiny_draw_count(self):
        with pytest.raises(ValueError):
            approximation_from_sampler(lambda s: np.zeros(1), 1,
                                       RandomStream(0, 0), n_draws=1)


def reusing_sampler():
    """A sampler that fills and returns one array on every call."""
    buffer = np.empty(2)

    def sampler(stream):
        buffer[:] = stream.standard_normal(2)
        return buffer

    return sampler


class TestOneDrawBlock:
    def test_a_sampler_may_reuse_its_output_array(self):
        approx = Approximation(2, reusing_sampler(), np.zeros(2), np.ones(2), np.eye(2))
        assert np.unique(approx.sample(chain_streams(1, 5)), axis=0).shape == (5, 2)
        sampled = approximation_from_sampler(reusing_sampler(), 2, RandomStream(0, 0),
                                             n_draws=1000)
        assert np.allclose(sampled.sds, 1.0, atol=0.1)

    def test_no_streams_give_an_empty_block(self):
        approx = mean_field_gaussian_approximation([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert approx.sample([]).shape == (0, 3)

    def test_sampled_draws_need_little_more_than_their_block(self):
        # the (n_draws, 2) block itself is 16 bytes a draw
        n_draws, stream = 20_000, RandomStream(0, 0)
        tracemalloc.start()
        try:
            approximation_from_sampler(lambda s: s.standard_normal(2), 2, stream,
                                       n_draws=n_draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * n_draws

    def test_sampled_approximation_is_the_empirical_one_of_its_draws(self, monkeypatch):
        built = []
        init = Approximation.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def sampler(stream):
            return np.array([4.0, 0.0]) + np.array([1.0, 3.0]) * stream.standard_normal(2)

        monkeypatch.setattr(Approximation, "__init__", counted)
        approx = approximation_from_sampler(sampler, 2, RandomStream(7, 0), n_draws=500)
        assert built == [approx]
        assert approx.sampler is sampler
        draws = np.array([sampler(s) for s in [RandomStream(7, 0)] * 500])
        empirical = empirical_approximation(draws)
        for name in ("means", "sds", "covariance"):
            assert np.array_equal(getattr(approx, name), getattr(empirical, name))
        for p in (0.05, 0.5, 0.95):
            assert approx.quantile(1, p) == empirical.quantile(1, p)


class TestPrivateCopies:
    # an approximation keeps what it checked: a later edit of the caller's
    # arrays moves neither its draws nor its functionals
    def assert_unchanged_by(self, approx, edit):
        def seen():
            streams = [RandomStream(3, 0)] * 4
            return (approx.sample(streams), [approx.quantile(j, 0.3) for j in (0, 1)],
                    approx.means.copy(), approx.sds.copy())

        before = seen()
        edit()
        for old, new in zip(before, seen()):
            assert np.array_equal(old, new)

    def test_empirical_sample(self):
        x = RandomStream(1, 0).standard_normal((50, 2))
        approx = empirical_approximation(x)
        self.assert_unchanged_by(approx, lambda: x.fill(7.0))

    def test_mean_field_vectors(self):
        means, sds = np.zeros(2), np.ones(2)
        approx = mean_field_gaussian_approximation(means, sds)

        def edit():
            means[:] = 100.0
            sds[:] = 5.0

        self.assert_unchanged_by(approx, edit)

    def test_approximation_functionals(self):
        means, sds = np.zeros(2), np.ones(2)
        approx = Approximation(2, lambda s: s.standard_normal(2), means, sds, np.eye(2),
                               quantile_fn=lambda j, p: 0.0)
        self.assert_unchanged_by(approx, lambda: (means.fill(100.0), sds.fill(5.0)))

    def test_covariance_edit_leaves_the_report(self):
        # the run preconditions with the approximation's covariance, so an
        # edit of the caller's matrix after construction must not reach it
        cov = np.eye(2)
        approx = Approximation(2, lambda s: s.standard_normal(2), np.zeros(2), np.ones(2), cov)
        target = correlated_gaussian_target(2, correlation=0.5)
        config = RunConfig(kernel="mala", seed=4, n_chains=30, n_iterations=5)
        before = run_diagnostic(config, target, approx).to_json_dict()
        cov[0, 0] = 4.0
        assert run_diagnostic(config, target, approx).to_json_dict() == before
        assert approx.covariance[0, 0] == 1.0

    @pytest.mark.parametrize("name", ["means", "sds", "covariance"])
    def test_functionals_are_read_only(self, name):
        approx = mean_field_gaussian_approximation([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            getattr(approx, name)[0] = 2.0


class TestSampledDrawsChecked:
    # the draws are checked with Approximation.sample's messages
    def test_wrong_point_shape_names_both_shapes(self):
        # the second sampler's points vary in shape, which np.stack would refuse
        for sampler in (lambda s: s.standard_normal(3),
                        lambda s: s.standard_normal(2 if s.random() < 0.5 else 3)):
            with pytest.raises(ValueError,
                               match=r"^the draws of approximation 'sampled' must have "
                                     r"shape \(2,\), got shape \(3,\)$"):
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


class TestSampledDrawsBounded:
    # refused before the first draw: n_draws=10**13 at d=2 drew on towards
    # 160 TB, and d=10**6 drew all its points before the empirical fit refused it
    @pytest.mark.parametrize("n_draws, dimension, message", [
        (10**13, 2, "n_draws 10000000000000 with dimension 2 needs 320,000,000,000,000 bytes "
                    "for 2 (10000000000000, 2) matrices, "),
        (100_000, 10**6, "dimension 1000000 needs 8,000,000,000,000 bytes "),
        (2, 2**70, f"dimension {2**70} needs {8 * 4**70:,} bytes "),
    ], ids=["draws", "dimension", "huge-dimension"])
    def test_too_large_is_refused_before_any_draw(self, n_draws, dimension, message):
        def unreachable(stream):
            raise AssertionError("the sampler was called")

        with pytest.raises(ValueError, match="^" + re.escape(message)):
            approximation_from_sampler(unreachable, dimension, RandomStream(0, 0),
                                       n_draws=n_draws)

    @pytest.mark.parametrize("memory, refused", [(32_000, False), (31_999, True)])
    def test_two_blocks_are_counted(self, memory, refused, monkeypatch):
        # 1,000 draws at d=2: the drawn block and one temporary of its size,
        # 16,000 bytes each
        monkeypatch.setattr(stats.os, "sysconf", lambda name: {
            "SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}[name])
        draw = lambda stream: stream.standard_normal(2)  # noqa: E731
        if refused:
            with pytest.raises(ValueError, match=r"^n_draws 1000 with dimension 2 needs 32,000 "
                                                 r"bytes for 2 \(1000, 2\) matrices, more "
                                                 r"than the 31,999 bytes"):
                approximation_from_sampler(draw, 2, RandomStream(0, 0), n_draws=1000)
        else:
            approx = approximation_from_sampler(draw, 2, RandomStream(0, 0), n_draws=1000)
            assert approx.dimension == 2


class TestApproximationValidation:
    def test_sampler_shape_checked(self):
        approx = mean_field_gaussian_approximation([0.0, 0.0], [1.0, 1.0])
        approx.sampler = lambda stream: np.zeros(3)
        with pytest.raises(ValueError):
            approx.sample([RandomStream(0, 0)])

    def test_non_finite_sample_names_the_approximation(self):
        approx = mean_field_gaussian_approximation([0.0, 0.0], [1.0, 1.0], name="vi_fit")
        approx.sampler = lambda stream: np.array([0.0, np.nan])
        with pytest.raises(ValueError, match=r"sampler of approximation 'vi_fit' "
                                             r"returned a non-finite point"):
            approx.sample([RandomStream(0, 0)])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_means_are_named(self, value):
        with pytest.raises(ValueError, match=r"^means must be finite"):
            mean_field_gaussian_approximation([0.0, value], [1.0, 1.0])

    @pytest.mark.parametrize("means, sds, covariance, message", [
        ([0.0], [1.0, 1.0], np.eye(2), r"means must have shape \(2,\), got shape \(1,\)"),
        ([0.0, 0.0], [[1.0, 1.0]], np.eye(2), r"sds must have shape \(2,\), got shape \(1, 2\)"),
        ([0.0, 0.0], [1.0, 1.0], np.eye(3), r"covariance must have shape \(2, 2\)"),
        ([0.0, 0.0], [1.0, 1.0], np.ones(2), r"covariance must have shape \(2, 2\)")])
    def test_functional_shapes_are_checked(self, means, sds, covariance, message):
        with pytest.raises(ValueError, match=message):
            Approximation(2, lambda stream: np.zeros(2), means, sds, covariance)

    @pytest.mark.parametrize("sd", [1e200, 1e-170])
    def test_sd_whose_square_is_not_a_positive_finite_variance_is_refused(self, sd):
        # every variance bound divides by sd0 squared: its overflow ended in a
        # bare "math domain error", its underflow in an infinite bound
        with pytest.raises(ValueError, match=re.escape(
                f"sds must be positive with a positive, finite square, got {sd:g} "
                "at coordinate 0")):
            Approximation(2, lambda stream: np.zeros(2), np.zeros(2), [sd, 1.0], np.eye(2))

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


class TestNonRealArrays:
    # an array of anything but integers and floats is refused by name and
    # dtype; a float conversion would warn on complex values, keeping the
    # real parts, and read bools as 0 and 1
    @pytest.mark.parametrize("dtype", [complex, bool])
    @pytest.mark.parametrize("name", ["means", "sds", "covariance"])
    def test_approximation_functionals(self, name, dtype):
        arrays = {"means": np.zeros(2), "sds": np.ones(2), "covariance": np.eye(2)}
        arrays[name] = arrays[name].astype(dtype)
        with pytest.raises(ValueError, match=rf"^{name} must hold integers or floats, "
                                             rf"got dtype {np.dtype(dtype)}$"):
            Approximation(2, lambda stream: np.zeros(2), **arrays)

    @pytest.mark.parametrize("name", ["means", "sds"])
    def test_mean_field_gaussian(self, name):
        arrays = {"means": [0.0, 1.0], "sds": [1.0, 2.0]}
        arrays[name] = np.array(arrays[name]) + 1j
        with pytest.raises(ValueError, match=rf"^{name} must hold integers or floats, "
                                             r"got dtype complex128$"):
            mean_field_gaussian_approximation(**arrays)

    @pytest.mark.parametrize("dtype", [complex, bool])
    def test_empirical_samples(self, dtype):
        samples = np.random.default_rng(0).normal(size=(30, 2)).astype(dtype)
        with pytest.raises(ValueError, match=rf"^samples must hold integers or floats, "
                                             rf"got dtype {np.dtype(dtype)}$"):
            empirical_approximation(samples)

    def test_sampled_point(self):
        approx = mean_field_gaussian_approximation([0.0, 0.0], [1.0, 1.0], name="vi_fit")
        approx.sampler = lambda stream: stream.standard_normal(2) + 1j
        with pytest.raises(ValueError, match=r"^the draws of approximation 'vi_fit' must "
                                             r"hold integers or floats, got dtype complex128$"):
            approx.sample([RandomStream(0, 0)])

    def test_sampler_draws(self):
        with pytest.raises(ValueError, match=r"^the draws of approximation 'vi' must "
                                             r"hold integers or floats, got dtype complex128$"):
            approximation_from_sampler(lambda stream: stream.standard_normal(2) + 1j, 2,
                                       RandomStream(0, 0), n_draws=50, name="vi")
