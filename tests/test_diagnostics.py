"""Interval constructors, error lower bounds, and the reliability check.

Coverage properties are exercised by direct simulation with fixed seeds:
each rep draws a fresh final-iteration sample from a known distribution, so
the interval code is tested against the ground truth it claims to cover.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from shortchain import (
    ConfidenceInterval,
    RandomStream,
    error_lower_bound,
    log_variance_ratio_ci,
    mean_difference_ci,
    quantile_difference_ci,
    reliability_check,
    scalar_functional_diagnostics,
)

from shortchain import stats
from shortchain.diagnostics import column_intervals, lower_bounds
from shortchain.stats import binomial_quantile

from oracles import (
    binom_cdf_exact,
    chi2_quantile,
    pearson_correlation_squared,
    t_quantile,
)


class TestMeanDifferenceCI:
    def test_two_point_sample_frozen_endpoints(self):
        # n = 2, values {-1, 1}: center 0, s = sqrt(2), half-width
        # sqrt(2)/sqrt(2) t_{0.975,1} = 12.7062...
        ci = mean_difference_ci(np.array([-1.0, 1.0]), 0.0, 0.05)
        assert ci.upper == pytest.approx(12.706204736174659, rel=1e-8)
        assert ci.lower == pytest.approx(-12.706204736174659, rel=1e-8)
        assert ci.level == 0.95
        assert not ci.degenerate

    def test_matches_hand_formula(self):
        stream = RandomStream(1, 0)
        x = 2.0 + 0.7 * stream.standard_normal(40)
        ci = mean_difference_ci(x, 1.5, 0.1)
        s = x.std(ddof=1)
        half = s / math.sqrt(40) * t_quantile(0.95, 39)
        center = x.mean() - 1.5
        assert ci.lower == pytest.approx(center - half, rel=1e-9)
        assert ci.upper == pytest.approx(center + half, rel=1e-9)

    def test_constant_sample_degenerates_to_point(self):
        ci = mean_difference_ci(np.full(10, 3.0), 1.0, 0.05)
        assert ci.lower == ci.upper == 2.0
        assert ci.degenerate

    def test_shift_in_initial_mean_translates_interval(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        a = mean_difference_ci(x, 0.0, 0.05)
        b = mean_difference_ci(x, 5.0, 0.05)
        assert b.lower == pytest.approx(a.lower - 5.0, rel=1e-12)
        assert b.upper == pytest.approx(a.upper - 5.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_difference_ci(np.array([1.0]), 0.0, 0.05)
        with pytest.raises(ValueError):
            mean_difference_ci(np.array([1.0, 2.0]), 0.0, 1.5)

    def test_coverage_near_nominal(self):
        # 400 reps of N = 50 draws from N(mu, 1); the interval should cover
        # mu - mu0 about 95% of the time.
        stream = RandomStream(100, 0)
        mu, mu0 = 0.8, 0.3
        hits = 0
        reps = 400
        for _ in range(reps):
            x = mu + stream.standard_normal(50)
            ci = mean_difference_ci(x, mu0, 0.05)
            hits += int(ci.lower <= mu - mu0 <= ci.upper)
        assert 0.91 <= hits / reps <= 0.985


class TestLogVarianceRatioCI:
    def test_matches_hand_formula(self):
        stream = RandomStream(2, 0)
        x = 1.3 * stream.standard_normal(30)
        sd0 = 0.9
        ci = log_variance_ratio_ci(x, sd0, 0.05)
        scaled = 29 * x.var(ddof=1) / sd0**2
        assert ci.lower == pytest.approx(
            math.log(scaled / chi2_quantile(0.975, 29)), rel=1e-9)
        assert ci.upper == pytest.approx(
            math.log(scaled / chi2_quantile(0.025, 29)), rel=1e-9)

    def test_natural_log_scale(self):
        # Scaling the sample by e shifts both endpoints by exactly 2.
        stream = RandomStream(3, 0)
        x = stream.standard_normal(25)
        a = log_variance_ratio_ci(x, 1.0, 0.05)
        b = log_variance_ratio_ci(math.e * x, 1.0, 0.05)
        assert b.lower - a.lower == pytest.approx(2.0, rel=1e-9)
        assert b.upper - a.upper == pytest.approx(2.0, rel=1e-9)

    def test_ordering(self):
        stream = RandomStream(4, 0)
        x = stream.standard_normal(12)
        ci = log_variance_ratio_ci(x, 2.0, 0.05)
        assert ci.lower < ci.upper

    def test_zero_spread_degenerates(self):
        ci = log_variance_ratio_ci(np.full(8, 1.0), 1.0, 0.05)
        assert ci.lower == float("-inf")
        assert ci.upper == float("-inf")
        assert ci.degenerate

    def test_validation(self):
        with pytest.raises(ValueError):
            log_variance_ratio_ci(np.array([1.0, 2.0]), 0.0, 0.05)
        with pytest.raises(ValueError):
            log_variance_ratio_ci(np.array([1.0, 2.0]), -1.0, 0.05)

    @pytest.mark.parametrize("initial_sd, problem", [
        (math.nan, "must be finite, got nan"), (math.inf, "must be finite, got inf"),
        ("1", "must be a real number, got '1'"), (True, "must be a real number, got True")])
    def test_initial_sd_is_named(self, initial_sd, problem):
        with pytest.raises(ValueError, match=re.escape(f"initial_sd {problem}")):
            log_variance_ratio_ci(np.array([1.0, 2.0, 4.0]), initial_sd, 0.05)

    def test_coverage_near_nominal(self):
        stream = RandomStream(101, 0)
        sigma, sd0 = 1.7, 1.2
        true_log_ratio = math.log(sigma**2 / sd0**2)
        hits = 0
        reps = 400
        for _ in range(reps):
            x = sigma * stream.standard_normal(50)
            ci = log_variance_ratio_ci(x, sd0, 0.05)
            hits += int(ci.lower <= true_log_ratio <= ci.upper)
        assert 0.91 <= hits / reps <= 0.985


class TestQuantileDifferenceCI:
    def test_median_order_statistics_large_ensembles(self):
        # The interval must be [X_(174), X_(213)] at N = 386 and
        # [X_(174), X_(214)] at N = 387 for the median at alpha = 0.05.
        for n, lo_idx, hi_idx in ((386, 174, 213), (387, 174, 214)):
            x = np.arange(1.0, n + 1.0)
            ci = quantile_difference_ci(x, 0.5, 0.0, 0.05)
            assert ci.lower == float(lo_idx)
            assert ci.upper == float(hi_idx)

    def test_interval_uses_sorted_values(self):
        stream = RandomStream(5, 0)
        x = stream.standard_normal(386)
        ci = quantile_difference_ci(x, 0.5, 0.25, 0.05)
        xs = np.sort(x)
        assert ci.lower == xs[173] - 0.25
        assert ci.upper == xs[212] - 0.25

    def test_exact_interval_coverage(self):
        # Coverage of [X_(l), X_(u)) for the true quantile equals
        # P(l <= Bin(N, p) <= u - 1), computable in exact rationals.
        n, p = 387, 0.5
        cov = float(binom_cdf_exact(213, n, p) - binom_cdf_exact(173, n, p))
        assert cov == pytest.approx(0.95812, abs=5e-5)
        assert 0.95 <= cov <= 0.97

    def test_too_few_chains_raises(self):
        with pytest.raises(ValueError, match="too few"):
            quantile_difference_ci(np.arange(10.0), 0.01, 0.0, 0.05)

    def test_extreme_quantile_needs_many_chains(self):
        x = np.arange(1000.0)
        ci = quantile_difference_ci(x, 0.01, 0.0, 0.05)
        assert ci.lower < ci.upper

    def test_validation(self):
        with pytest.raises(ValueError):
            quantile_difference_ci(np.arange(100.0), 0.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            quantile_difference_ci(np.arange(100.0), 0.5, 0.0, 0.0)

    def test_coverage_near_nominal(self):
        stream = RandomStream(102, 0)
        hits = 0
        reps = 400
        for _ in range(reps):
            x = 2.0 * stream.standard_normal(387) + 1.0
            ci = quantile_difference_ci(x, 0.5, 0.0, 0.05)
            hits += int(ci.lower <= 1.0 <= ci.upper)
        assert 0.92 <= hits / reps <= 0.985


class TestErrorLowerBound:
    def test_interval_containing_zero_gives_zero(self):
        res = error_lower_bound(ConfidenceInterval(-1.0, 2.0, 0.95, "mean(0)"))
        assert res.bound == 0.0
        assert not res.detected

    def test_positive_interval(self):
        res = error_lower_bound(ConfidenceInterval(1.0, 3.0, 0.95, "mean(0)"))
        assert res.bound == 1.0
        assert res.detected

    def test_negative_interval(self):
        res = error_lower_bound(ConfidenceInterval(-3.0, -2.0, 0.95, "mean(0)"))
        assert res.bound == 2.0
        assert res.detected

    def test_zero_endpoint_counts_as_containing(self):
        # Closed containment: an endpoint exactly at zero is not a detection.
        assert not error_lower_bound(ConfidenceInterval(0.0, 2.0, 0.95, "m")).detected
        assert not error_lower_bound(ConfidenceInterval(-2.0, 0.0, 0.95, "m")).detected

    def test_tag_carried_through(self):
        res = error_lower_bound(ConfidenceInterval(1.0, 2.0, 0.95, "quantile(3,0.5)"))
        assert res.functional_tag == "quantile(3,0.5)"
        assert res.interval.lower == 1.0

    @given(st.floats(min_value=-50.0, max_value=50.0),
           st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.01, max_value=100.0))
    def test_scale_equivariance_and_dominance(self, lower, width, scale):
        ci = ConfidenceInterval(lower, lower + width, 0.95, "m")
        res = error_lower_bound(ci)
        assert res.bound <= min(abs(ci.lower), abs(ci.upper)) + 1e-12
        assert res.detected == (not ci.lower <= 0.0 <= ci.upper)
        scaled = error_lower_bound(ConfidenceInterval(
            scale * ci.lower, scale * ci.upper, 0.95, "m"))
        assert scaled.bound == pytest.approx(scale * res.bound, rel=1e-9, abs=1e-12)


class TestReliabilityCheck:
    def test_frozen_chains_fail(self):
        stream = RandomStream(6, 0)
        x0 = stream.standard_normal((200, 3))
        res = reliability_check(x0, x0.copy())
        assert not res.passed
        assert res.rho2_max == pytest.approx(1.0)

    def test_independent_ensembles_pass(self):
        stream = RandomStream(7, 0)
        x0 = stream.standard_normal((386, 4))
        xt = stream.standard_normal((386, 4))
        res = reliability_check(x0, xt)
        assert res.passed
        assert res.rho2_max < 0.1
        assert res.degenerate_coordinates == []

    def test_constant_coordinate_is_degenerate_failure(self):
        stream = RandomStream(8, 0)
        x0 = stream.standard_normal((100, 2))
        xt = stream.standard_normal((100, 2))
        xt[:, 1] = 4.2
        res = reliability_check(x0, xt)
        assert not res.passed
        assert res.degenerate_coordinates == [1]

    def test_mean_past_the_float_range_is_degenerate_without_warnings(self):
        # 30 values near 1e308 sum to infinity, so the centred column is
        # not finite: a degenerate coordinate, and NumPy stays quiet
        stream = RandomStream(10, 0)
        x0 = stream.standard_normal((30, 2))
        x0[:, 0] += 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = reliability_check(x0, stream.standard_normal((30, 2)))
        assert not res.passed
        assert res.degenerate_coordinates == [0]
        assert res.rho2_max == res.rho2_per_coordinate[1] < 1.0

    def test_cutoff_honored(self):
        stream = RandomStream(9, 0)
        x0 = stream.standard_normal((2000, 1))
        noise = stream.standard_normal((2000, 1))
        xt = 0.55 * x0 + noise  # rho^2 about 0.23
        strict = reliability_check(x0, xt, cutoff=0.1)
        lax = reliability_check(x0, xt, cutoff=0.5)
        assert not strict.passed
        assert lax.passed
        assert strict.rho2_max == lax.rho2_max

    def test_validation(self):
        with pytest.raises(ValueError):
            reliability_check(np.zeros((5, 2)), np.zeros((6, 2)))
        with pytest.raises(ValueError):
            reliability_check(np.zeros((5, 2)), np.zeros((5, 2)), cutoff=1.0)

    def test_matches_per_column_oracle_exactly(self):
        # every column at once must give each column's own bits, NaN for
        # the degenerate ones included
        stream = RandomStream(0, 0)
        x0 = stream.standard_normal((60, 9))
        xt = 0.3 * x0 + stream.standard_normal((60, 9))
        xt[:, 1] = 4.0          # constant final column
        x0[:, 2] = -1.0         # constant initial column
        xt[5, 3] = np.inf
        x0[7, 4] = -np.inf
        xt[2, 5] = np.nan
        x0[:, 6] *= 1e200       # spreads whose product overflows
        xt[:, 6] *= 1e200
        x0[:, 7] = xt[:, 7]     # perfectly correlated
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.array([pearson_correlation_squared(x0[:, i], xt[:, i])
                                 for i in range(9)])
            res = reliability_check(x0, xt)
        assert np.array_equal(res.rho2_per_coordinate, expected, equal_nan=True)
        assert res.degenerate_coordinates == [1, 2, 3, 4, 5, 6]
        assert res.degenerate_coordinates == [i for i in range(9) if math.isnan(expected[i])]
        assert all(type(i) is int for i in res.degenerate_coordinates)
        assert res.rho2_max == float(np.max(expected[np.isfinite(expected)]))
        assert not res.passed

    @given(st.lists(st.sampled_from([0.0, 1.0, -2.5, 3e-3, 7.0, 1e154, -1e300,
                                     math.inf, -math.inf, math.nan]),
                    min_size=12, max_size=12),
           st.integers(0, 10_000))
    def test_matches_per_column_oracle_on_drawn_edge_values(self, edges, seed):
        stream = RandomStream(seed, 0)
        x0 = stream.standard_normal((6, 4))
        xt = stream.standard_normal((6, 4))
        cells = [(r, c) for r in range(6) for c in range(4)]
        for k, value in enumerate(edges):
            r, c = cells[(seed + 5 * k) % len(cells)]
            (x0 if k % 2 else xt)[r, c] = value
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.array([pearson_correlation_squared(x0[:, i], xt[:, i])
                                 for i in range(4)])
            res = reliability_check(x0, xt)
        assert np.array_equal(res.rho2_per_coordinate, expected, equal_nan=True)
        assert res.degenerate_coordinates == [i for i in range(4) if math.isnan(expected[i])]

    def test_inputs_are_not_modified(self):
        stream = RandomStream(11, 0)
        x0 = stream.standard_normal((30, 1))
        xt = stream.standard_normal((30, 1))
        before = (x0.copy(), xt.copy())
        reliability_check(x0, xt)
        assert np.array_equal(x0, before[0]) and np.array_equal(xt, before[1])

    def test_one_dimensional_inputs_rejected(self):
        stream = RandomStream(10, 0)
        a = stream.standard_normal(50)
        b = stream.standard_normal(50)
        with pytest.raises(ValueError, match=r"^initial_samples must have shape \(any, any\), "
                                             r"got shape \(50,\)$"):
            reliability_check(a, b)
        with pytest.raises(ValueError, match=r"^final_samples must have shape \(any, any\), "
                                             r"got shape \(50,\)$"):
            reliability_check(a[:, None], b)


class TestCriticalValues:
    QUANTILES = (stats.student_t_quantile, stats.chi_square_quantile, stats.binomial_quantile)

    def sample(self):
        return 1.0 + 2.0 * RandomStream(21, 0).standard_normal(40)

    def intervals(self, x):
        return (mean_difference_ci(x, 0.3, 0.05), log_variance_ratio_ci(x, 1.5, 0.05),
                quantile_difference_ci(x, 0.5, 0.2, 0.05),
                scalar_functional_diagnostics(x[::-1], x, 0.05))

    def test_precomputed_values_give_the_same_intervals(self):
        # a cold cache and a warm one give the same intervals, bit for bit
        x = self.sample()
        for quantile in self.QUANTILES:
            quantile.cache_clear()
        cold = self.intervals(x)
        misses = [quantile.cache_info().misses for quantile in self.QUANTILES]
        assert cold == self.intervals(x)
        assert [quantile.cache_info().misses for quantile in self.QUANTILES] == misses

    def test_values_match_oracles(self):
        x = self.sample()
        s, n = x.std(ddof=1), x.size
        ci = mean_difference_ci(x, 0.3, 0.05)
        assert ci.upper - ci.lower == pytest.approx(
            2 * s / math.sqrt(n) * t_quantile(0.975, n - 1), rel=1e-9)
        ci = log_variance_ratio_ci(x, 1.5, 0.05)
        scaled = (n - 1) * s * s / 1.5 ** 2
        assert ci.lower == pytest.approx(math.log(scaled / chi2_quantile(0.975, n - 1)),
                                         rel=1e-9)
        assert ci.upper == pytest.approx(math.log(scaled / chi2_quantile(0.025, n - 1)),
                                         rel=1e-9)

    def test_quantile_ranks_are_read_from_critical(self):
        # the order statistics at binomial_quantile's ranks, shifted by the initial side
        x = self.sample()
        lo, hi = binomial_quantile(0.025, 40, 0.5), binomial_quantile(0.975, 40, 0.5) + 1
        ci = quantile_difference_ci(x, 0.5, 0.2, 0.05)
        assert (ci.lower, ci.upper) == (np.sort(x)[lo - 1] - 0.2, np.sort(x)[hi - 1] - 0.2)


class TestUnitIntervalSettings:
    @pytest.mark.parametrize("call, name", [
        # column_intervals computes the critical values, so it checks alpha
        (lambda v: column_intervals(np.arange(40.0)[None, :], [("mean", 0, 0.0, None)], v),
         "alpha"),
        (lambda v: mean_difference_ci(np.arange(40.0), 0.0, v), "alpha"),
        (lambda v: log_variance_ratio_ci(np.arange(40.0), 1.0, v), "alpha"),
        (lambda v: quantile_difference_ci(np.arange(40.0), 0.5, 0.0, v), "alpha"),
        (lambda v: quantile_difference_ci(np.arange(40.0), v, 0.0, 0.05), "p"),
        (lambda v: reliability_check(np.eye(3), np.eye(3), cutoff=v), "cutoff"),
    ], ids=["critical", "mean", "log_variance", "quantile_alpha", "quantile_p", "cutoff"])
    @pytest.mark.parametrize("value", [0.0, 1.0, 1.5, -0.5])
    def test_one_message_names_the_setting(self, call, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1\), got {value}$"):
            call(value)


class TestAlphaTooSmall:
    def test_level_whose_upper_quantile_rounds_to_one_is_named(self):
        # 1 - alpha/2 == 1.0, which the t quantile refused as "p must lie in (0, 1)"
        with pytest.raises(ValueError, match=r"^alpha must exceed 2\*\*-53 .*got 1e-17$"):
            mean_difference_ci(np.arange(40.0), 0.0, 1e-17)

    def test_smallest_level_above_the_limit_gives_finite_endpoints(self):
        ci = mean_difference_ci(np.arange(40.0), 0.0, 2**-52)
        assert math.isfinite(ci.lower) and math.isfinite(ci.upper) and ci.level < 1.0


class TestBoundValidity:
    def test_mean_bound_rarely_exceeds_true_error(self):
        # Direct simulation of the guarantee: the reported bound must sit at
        # or below the true |error| in at least 1 - alpha of reps (small
        # slack for simulation noise).
        stream = RandomStream(103, 0)
        reps, n, alpha = 500, 50, 0.05
        mu0 = 0.3
        valid = 0
        for r in range(reps):
            mu_true = 0.3 + 0.8 * float(stream.standard_normal(1)[0])
            x = mu_true + stream.standard_normal(n)
            res = error_lower_bound(mean_difference_ci(x, mu0, alpha))
            valid += int(res.bound <= abs(mu_true - mu0) + 1e-12)
        assert valid / reps >= 1.0 - alpha - 0.02

    def test_variance_bound_rarely_exceeds_true_error(self):
        stream = RandomStream(104, 0)
        reps, n, alpha = 500, 50, 0.05
        sd0 = 1.0
        valid = 0
        for r in range(reps):
            sigma = math.exp(0.4 * float(stream.standard_normal(1)[0]))
            x = sigma * stream.standard_normal(n)
            res = error_lower_bound(log_variance_ratio_ci(x, sd0, alpha))
            true_error = abs(math.log(sigma**2 / sd0**2))
            valid += int(res.bound <= true_error + 1e-12)
        assert valid / reps >= 1.0 - alpha - 0.02


class TestScalarFunctionalDiagnostics:
    def test_null_rarely_detects(self):
        # The initial-side functionals are estimates, so give them a much
        # larger sample than the final side; the residual detection rate is
        # then governed by the intervals alone.
        stream = RandomStream(105, 0)
        reps = 300
        clean = 0
        v0 = stream.standard_normal(50_000)
        for _ in range(reps):
            vt = stream.standard_normal(400)
            mean_res, median_res = scalar_functional_diagnostics(v0, vt, 0.05)
            clean += int(mean_res.bound == 0.0 and median_res.bound == 0.0)
        # Two simultaneous 95% checks; both clean in at least ~90% of reps.
        assert clean / reps >= 0.88

    def test_large_shift_detected(self):
        stream = RandomStream(106, 0)
        v0 = stream.standard_normal(400)
        vt = 10.0 + stream.standard_normal(400)
        mean_res, median_res = scalar_functional_diagnostics(v0, vt, 0.05)
        assert mean_res.detected and mean_res.bound > 5.0
        assert median_res.detected and median_res.bound > 5.0

    def test_tags_carry_name(self):
        stream = RandomStream(107, 0)
        mean_res, median_res = scalar_functional_diagnostics(
            stream.standard_normal(100), stream.standard_normal(100), 0.05,
            name="log_density")
        assert mean_res.functional_tag == "scalar_mean(log_density)"
        assert median_res.functional_tag == "scalar_median(log_density)"

    def test_constant_final_degenerates(self):
        stream = RandomStream(108, 0)
        v0 = stream.standard_normal(100)
        vt = np.full(100, 2.0)
        mean_res, _ = scalar_functional_diagnostics(v0, vt, 0.05)
        assert mean_res.interval.degenerate


def _bits(x) -> str:
    # NaN, -0.0 and every other float told apart
    return float(x).hex()


class TestColumnIntervals:
    LEVELS = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    # NumPy sums in pairwise blocks of 128 and iterates in buffers of 8192
    # elements; the example reduces rows and strided columns past both
    @example(seed=2024, n=20_000, alpha=0.05, special="none")
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400),
           alpha=st.sampled_from([0.05, 0.1, 0.3, 0.6]),
           special=st.sampled_from(["none", "constant", "-0.0", "signed_zero",
                                    "nan", "inf", "-inf"]))
    def test_equal_the_per_functional_functions_bit_for_bit(self, seed, n, alpha, special):
        rng = np.random.default_rng(seed)
        k = 4
        ensemble = (rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3, 3, k)
                    + rng.uniform(-5, 5, k))
        # row 1 sits above zero, so its quantile intervals detect, and a NaN
        # or inf among its largest values lands in an upper endpoint
        ensemble[:, 1] = 1.0 + np.abs(ensemble[:, 1])
        if special == "constant":
            ensemble[:, 1] = 2.5
        elif special == "-0.0":
            ensemble[:, 1] = -0.0
        elif special == "signed_zero":
            ensemble[:, 1] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        elif special != "none":
            ensemble[rng.integers(n, size=max(1, n // 4)), 1] = float(special)
        levels = [p for p in self.LEVELS
                  if binomial_quantile(alpha / 2.0, n, p) >= 1
                  and binomial_quantile(1.0 - alpha / 2.0, n, p) + 1 <= n]
        # every row gets a mean, a log-variance and each feasible quantile
        # interval; row 1's initial values include 0.0, so a zero-spread
        # row meets -0.0 - 0.0
        entries = []
        for row in range(k):
            mu0 = 0.0 if row == 1 else float(rng.uniform(-5, 5))
            entries.append(("mean", row, mu0, None))
            entries.append(("log_variance", row, float(10.0 ** rng.uniform(-2, 2)), None))
            for p in levels:
                entries.append(("quantile", row, 0.0 if row == 1 else float(rng.normal()), p))
        lower, upper, degenerate = column_intervals(ensemble.T.copy(), entries, alpha)
        bound, detected = lower_bounds(lower, upper)
        for j, (kind, row, init, p) in enumerate(entries):
            x = ensemble[:, row]
            if kind == "mean":
                ci = mean_difference_ci(x, init, alpha)
            elif kind == "log_variance":
                ci = log_variance_ratio_ci(x, init, alpha)
            else:
                ci = quantile_difference_ci(x, p, init, alpha)
            res = error_lower_bound(ci)
            assert (_bits(lower[j]), _bits(upper[j])) == (_bits(ci.lower), _bits(ci.upper))
            assert bool(degenerate[j]) == ci.degenerate
            assert (_bits(bound[j]), bool(detected[j])) == (_bits(res.bound), res.detected)

    def test_bound_takes_lower_when_upper_is_nan(self):
        # Python's min(|lower|, nan) keeps |lower|; np.minimum would give nan
        bound, detected = lower_bounds(np.array([2.0, -3.0]), np.array([np.nan, np.nan]))
        assert bound[0] == 2.0 and detected[0]
        assert bound[1] == 0.0 and not detected[1]
        ci = ConfidenceInterval(2.0, float("nan"), 0.95, "q")
        assert error_lower_bound(ci).bound == 2.0
