"""Quantile functions, the shared argument checks, the correlation oracle, and random streams.

Every derived expectation below is checked against the independent
reference implementations in oracles.py (series/continued-fraction CDFs
with bisection, exact rational binomial enumeration), so the package and
the tests never share a numerical code path.  The one exception is
TestScipyStatsIdentity, which pins the quantiles bit for bit to the
``scipy.stats`` routines the package used before it stopped loading that
module.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy import stats as sps

import oracles
from oracles import pearson_correlation_squared
from shortchain import (RandomStream, RunConfig, TargetModel, correlated_gaussian_target,
                        log_variance_ratio_ci, mean_difference_ci,
                        mean_field_gaussian_approximation, quantile_difference_ci,
                        reliability_check, run_diagnostic, scalar_functional_diagnostics)
from shortchain.kernels import Preconditioner, leapfrog, step_batch
from shortchain.rng import _philox_keys, chain_streams
from shortchain.stats import (
    binomial_quantile,
    checked_real,
    checked_reals,
    chi_square_quantile,
    sample_quantile,
    student_t_quantile,
)


def _valid_call(function):
    """``function`` and keyword arguments that it accepts."""
    pre, x = Preconditioner(np.eye(2)), np.zeros((2, 2))
    return {
        "student_t_quantile": (student_t_quantile, dict(p=0.975, df=3)),
        "chi_square_quantile": (chi_square_quantile, dict(p=0.975, df=3)),
        "binomial_quantile": (binomial_quantile, dict(q=0.975, n=10, p=0.3)),
        "sample_quantile": (sample_quantile, dict(samples=np.arange(5.0), p=0.5)),
        "leapfrog": (leapfrog, dict(position=x, momentum=x, grad=x, step_size=0.1,
                                    n_steps=3, pre=pre, grad_fn=lambda y: -y)),
        "step_batch": (step_batch, dict(kind="rwmh", x=x, logpi_x=np.zeros(2), grad_x=None,
                                        eps=x, uniforms=np.full((2, 1), 0.5),
                                        step_size=0.5, pre=pre,
                                        target=correlated_gaussian_target(2))),
    }[function]


# (function, argument, the argument's valid count as a float, or None for a real)
_CHECKED_ARGUMENTS = [("student_t_quantile", "p", None), ("student_t_quantile", "df", 3.0),
                      ("chi_square_quantile", "p", None), ("chi_square_quantile", "df", 3.0),
                      ("binomial_quantile", "q", None), ("binomial_quantile", "n", 10.0),
                      ("binomial_quantile", "p", None), ("sample_quantile", "p", None),
                      ("leapfrog", "n_steps", 3.0), ("step_batch", "step_size", None)]


@pytest.mark.parametrize("function, argument, bad", [
    (function, argument, bad) for function, argument, float_count in _CHECKED_ARGUMENTS
    for bad in (True, "a", float_count) if bad is not None])
def test_shared_checks_refuse_a_bool_a_string_and_a_float_count(function, argument, bad):
    # each argument is checked by the stats helper of its kind, naming it; the
    # valid call goes first, so a cached quantile at the equal int cannot
    # answer for the float count
    fn, kwargs = _valid_call(function)
    fn(**kwargs)
    kind = "an integer" if isinstance(kwargs[argument], int) else "a real number"
    message = f"^{argument} must be {kind}, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        fn(**{**kwargs, argument: bad})


def _run_with(log_density=None, scalar=None):
    # a d=2 rwmh run whose target log density or scalar functional's output
    # goes through the given function
    base = correlated_gaussian_target(2)
    target = TargetModel(2, lambda x: (log_density or np.asarray)(base.log_density(x)),
                         base.grad_log_density)
    cfg = RunConfig(kernel="rwmh", seed=0, n_chains=40, n_iterations=2,
                    functionals=["scalar(f)"],
                    scalar_functions={"f": lambda x: (scalar or np.asarray)(x[:, 0])})
    run_diagnostic(cfg, target, mean_field_gaussian_approximation(np.zeros(2), np.ones(2)))


_VALUES, _SAMPLES = np.linspace(-1.0, 1.0, 40), np.arange(12.0).reshape(6, 2) % 5

# entry point -> (the name it refuses an array by, a call that passes it one
# array spoiled by the given function)
_ARRAY_ENTRY_POINTS = {
    "TargetModel.log_density": ("the batch of target 'gaussian'", lambda bad:
                                correlated_gaussian_target(2).log_density(bad(_SAMPLES))),
    "TargetModel.grad_log_density": ("the batch of target 'gaussian'", lambda bad:
                                     correlated_gaussian_target(2).grad_log_density(
                                         bad(_SAMPLES))),
    "mean_difference_ci": ("final_values", lambda bad:
                           mean_difference_ci(bad(_VALUES), 0.0, 0.05)),
    "log_variance_ratio_ci": ("final_values", lambda bad:
                              log_variance_ratio_ci(bad(_VALUES), 1.0, 0.05)),
    "quantile_difference_ci": ("final_values", lambda bad:
                               quantile_difference_ci(bad(_VALUES), 0.5, 0.0, 0.05)),
    "scalar_functional_diagnostics-initial": ("initial_values", lambda bad:
                                              scalar_functional_diagnostics(
                                                  bad(_VALUES), _VALUES, 0.05)),
    "scalar_functional_diagnostics-final": ("final_values", lambda bad:
                                            scalar_functional_diagnostics(
                                                _VALUES, bad(_VALUES), 0.05)),
    "reliability_check-initial": ("initial_samples", lambda bad:
                                  reliability_check(bad(_SAMPLES), _SAMPLES)),
    "reliability_check-final": ("final_samples", lambda bad:
                                reliability_check(_SAMPLES, bad(_SAMPLES))),
    "Preconditioner": ("preconditioner matrix", lambda bad: Preconditioner(bad(np.eye(2)))),
    "run-log_density": ("target log_density", lambda bad: _run_with(log_density=bad)),
    "run-scalar": ("scalar function 'f'", lambda bad: _run_with(scalar=bad)),
}


@pytest.mark.parametrize("dtype", [complex, bool, str])
@pytest.mark.parametrize("entry", sorted(_ARRAY_ENTRY_POINTS))
def test_array_entry_points_refuse_complex_bool_and_string_arrays(entry, dtype):
    # a float conversion would warn on complex values and keep their real
    # parts, read bools as 0 and 1, and parse strings as numbers
    name, call = _ARRAY_ENTRY_POINTS[entry]
    call(lambda array: array)  # the unspoiled array passes
    spoiled = np.zeros(1).astype(dtype).dtype
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must hold integers or floats, "
                                         rf"got dtype {re.escape(str(spoiled))}"):
        call(lambda array: np.asarray(array).astype(dtype))


class TestIntegersPastInt64:
    # NumPy holds a Python int past its integer types as an object; the array
    # check reads it as checked_real does: as its float, or as inf with its
    # sign past the float range
    @pytest.mark.parametrize("value, expected", [
        pytest.param(2**70, float(2**70), id="2**70"),
        pytest.param(10**400, math.inf, id="10**400"),
        pytest.param(-10**400, -math.inf, id="-10**400"),
        pytest.param([1, 2**70, -10**400], [1.0, float(2**70), -math.inf], id="list"),
        pytest.param([[1.5, 10**400], [-(2**70), 3]], [[1.5, math.inf], [-float(2**70), 3.0]],
                     id="matrix")])
    def test_read_as_their_floats(self, value, expected):
        array = checked_reals("x", value)
        assert array.dtype == float and array.tolist() == expected

    def test_the_scalar_check_reads_them_alike(self):
        assert checked_real("x", 2**70) == float(2**70)
        for value, shown in ((10**400, "inf"), (-10**400, "-inf")):
            with pytest.raises(ValueError, match=f"^x must be finite, got {shown}$"):
                checked_real("x", value)

    @pytest.mark.parametrize("value", [[True, 2**70], ["a", 2**70], [None, 2**70], [1j, 2**70]],
                             ids=["bool", "str", "None", "complex"])
    def test_beside_a_non_real_the_array_is_refused(self, value):
        with pytest.raises(ValueError, match="^x must hold integers or floats, got dtype object$"):
            checked_reals("x", value)


class TestStudentTQuantile:
    def test_median_is_zero(self):
        assert student_t_quantile(0.5, 7) == pytest.approx(0.0, abs=1e-12)

    def test_matches_cauchy_closed_form(self):
        # df=1 is Cauchy: quantile = tan(pi (p - 1/2)).
        for p in (0.6, 0.8, 0.975, 0.999):
            assert student_t_quantile(p, 1) == pytest.approx(
                math.tan(math.pi * (p - 0.5)), rel=1e-8)

    def test_p975_df1_frozen(self):
        assert student_t_quantile(0.975, 1) == pytest.approx(12.7062047364, rel=1e-9)

    def test_matches_bisection_oracle_large_df(self):
        assert student_t_quantile(0.975, 385) == pytest.approx(
            oracles.t_quantile(0.975, 385), abs=1e-8)
        assert student_t_quantile(0.975, 385) == pytest.approx(1.96614481, rel=1e-8)

    def test_matches_bisection_oracle_assorted(self):
        for p, df in ((0.1, 3), (0.42, 11), (0.9, 2), (0.99, 60)):
            assert student_t_quantile(p, df) == pytest.approx(
                oracles.t_quantile(p, df), abs=1e-8)

    @given(st.floats(0.01, 0.99), st.integers(1, 50))
    def test_symmetry(self, p, df):
        total = student_t_quantile(p, df) + student_t_quantile(1.0 - p, df)
        assert abs(total) < 1e-10

    def test_monotone_in_p(self):
        qs = [student_t_quantile(p, 9) for p in np.linspace(0.05, 0.95, 19)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("p,df", [(0.0, 5), (1.0, 5), (-0.1, 5), (0.5, 0)])
    def test_domain_errors(self, p, df):
        with pytest.raises(ValueError):
            student_t_quantile(p, df)


class TestChiSquareQuantile:
    def test_df2_closed_form(self):
        # df=2 is Exponential(1/2): quantile = -2 ln(1 - p).
        for p in (0.3, 0.5, 0.9, 0.975):
            assert chi_square_quantile(p, 2) == pytest.approx(
                -2.0 * math.log1p(-p), rel=1e-9)

    def test_median_df2_frozen(self):
        assert chi_square_quantile(0.5, 2) == pytest.approx(1.3862943611, rel=1e-9)

    def test_matches_incomplete_gamma_oracle(self):
        assert chi_square_quantile(0.975, 9) == pytest.approx(
            oracles.chi2_quantile(0.975, 9), abs=1e-8)
        assert chi_square_quantile(0.975, 9) == pytest.approx(19.0227678, rel=1e-8)
        for p, df in ((0.025, 9), (0.6, 1), (0.99, 386)):
            assert chi_square_quantile(p, df) == pytest.approx(
                oracles.chi2_quantile(p, df), rel=1e-8)

    def test_small_p_approaches_zero(self):
        assert 0.0 <= chi_square_quantile(1e-12, 4) < 1e-5

    def test_monotone_in_p(self):
        qs = [chi_square_quantile(p, 5) for p in np.linspace(0.05, 0.95, 19)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi_square_quantile(0.0, 3)
        with pytest.raises(ValueError):
            chi_square_quantile(0.5, -1)


class TestBinomialQuantile:
    def test_enumerated_pmf_example(self):
        # n=4, p=1/2: pmf {1,4,6,4,1}/16, CDF(1)=0.3125 < 0.5 <= CDF(2)=0.6875.
        assert binomial_quantile(0.5, 4, 0.5) == 2

    def test_upper_tail_example(self):
        # CDF(3) = 0.9375 < 0.99 so the 0.99 quantile is 4.
        assert binomial_quantile(0.99, 4, 0.5) == 4

    def test_point_mass_at_zero(self):
        for q in (0.001, 0.5, 0.999):
            assert binomial_quantile(q, 12, 0.0) == 0

    def test_point_mass_at_n(self):
        assert binomial_quantile(0.7, 12, 1.0) == 12

    def test_order_statistic_indices_for_median(self):
        # The order-statistic pair used by median intervals at N=386 and 387.
        assert binomial_quantile(0.025, 386, 0.5) == 174
        assert binomial_quantile(0.975, 386, 0.5) + 1 == 213
        assert binomial_quantile(0.025, 387, 0.5) == 174
        assert binomial_quantile(0.975, 387, 0.5) + 1 == 214
        assert binomial_quantile(0.025, 386, 0.5) == oracles.binom_quantile_exact(0.025, 386, 0.5)
        assert binomial_quantile(0.975, 386, 0.5) == oracles.binom_quantile_exact(0.975, 386, 0.5)

    @given(st.floats(0.001, 0.999), st.integers(1, 50),
           st.floats(0.05, 0.95))
    def test_minimality_against_exact_enumeration(self, q, n, p):
        # Defining property: CDF(k-1) < q <= CDF(k), in exact arithmetic.
        # Skip draws sitting within float noise of a CDF step.
        qf = Fraction(q)
        near_tie = any(abs(oracles.binom_cdf_exact(j, n, p) - qf) < Fraction(1, 10**9)
                       for j in range(n + 1))
        assume(not near_tie)
        k = binomial_quantile(q, n, p)
        assert 0 <= k <= n
        assert oracles.binom_cdf_exact(k, n, p) >= qf
        if k > 0:
            assert oracles.binom_cdf_exact(k - 1, n, p) < qf

    def test_monotone_in_q(self):
        ks = [binomial_quantile(q, 30, 0.4) for q in np.linspace(0.01, 0.99, 25)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_quantile(0.0, 10, 0.5)
        with pytest.raises(ValueError):
            binomial_quantile(0.5, 10, 1.5)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            binomial_quantile(0.5, 0, 0.5)


def scipy_stats_binomial_quantile(q, n, p):
    """The ``binom.ppf`` guess and ``binom.cdf`` corrections that
    ``binomial_quantile`` replaced, run on broadcast arrays of (q, n, p)."""
    q, n, p = np.broadcast_arrays(q, n, p)
    k = np.clip(sps.binom.ppf(q, n, p).astype(int), 0, n)
    while (down := (k > 0) & (sps.binom.cdf(k - 1, n, p) >= q)).any():
        k = k - down
    while (up := (k < n) & (sps.binom.cdf(k, n, p) < q)).any():
        k = k + up
    return k


LEVELS = (0.005, 0.025, 0.05, 0.1, 0.5, 0.9, 0.95, 0.975, 0.995)
# alpha / 2 and 1 - alpha / 2 at alpha = 0.01, 0.05 and 0.1: the levels the
# order-statistic ranks use
TAIL_LEVELS = (0.005, 0.025, 0.05, 0.95, 0.975, 0.995)


class TestScipyStatsIdentity:
    DFS = np.r_[np.arange(1, 301), 384, 385, 386, 1000, 5000, 20000]

    @pytest.mark.parametrize("level", LEVELS)
    def test_t_quantile_equals_t_ppf(self, level):
        expected = sps.t.ppf(level, self.DFS)
        assert [student_t_quantile(level, int(df)) for df in self.DFS] == expected.tolist()

    @pytest.mark.parametrize("level", LEVELS)
    def test_chi_square_quantile_equals_chi2_ppf(self, level):
        expected = sps.chi2.ppf(level, self.DFS)
        assert [chi_square_quantile(level, int(df)) for df in self.DFS] == expected.tolist()

    @pytest.mark.parametrize("levels, ns, ps", [
        (TAIL_LEVELS, np.r_[np.arange(1, 121), 385, 386, 387, 1000, 5000],
         np.linspace(0.01, 0.99, 41)),
        ((1e-12, 0.005, 0.5, 0.995, 1 - 1e-12), (1, 2, 3, 97, 386, 100000),
         (0.0, 5e-324, 1e-300, 1e-12, 1 - 1e-12, np.nextafter(1.0, 0.0), 1.0)),
    ], ids=["grid", "extreme_p"])
    def test_binomial_quantile_equals_scipy_stats_search(self, levels, ns, ps):
        q, n, p = (a.ravel() for a in np.meshgrid(levels, ns, ps, indexing="ij"))
        expected = scipy_stats_binomial_quantile(q, n, p)
        got = [binomial_quantile(float(a), int(b), float(c)) for a, b, c in zip(q, n, p)]
        assert got == expected.tolist()

    def test_exact_oracle_agreement_is_kept(self):
        agreed = 0
        for q in LEVELS:
            for n in range(1, 21):
                for p in (0.1, 0.25, 0.5, 0.7, 0.9):
                    exact = oracles.binom_quantile_exact(q, n, p)
                    if scipy_stats_binomial_quantile(q, n, p) == exact:
                        agreed += 1
                        assert binomial_quantile(q, n, p) == exact
        assert agreed > 800

    def test_exact_tie_at_the_median_takes_the_lower_rank(self):
        # for odd n and p = 1/2, CDF((n - 1) / 2) is exactly 1/2; binom.cdf
        # rounds it below 1/2 at some n (n = 35 among them), betaincc does not
        for n in range(1, 602, 2):
            assert binomial_quantile(0.5, n, 0.5) == (n - 1) // 2


class TestSampleQuantile:
    def test_even_count_median(self):
        assert sample_quantile(np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.0

    def test_upper_limit_is_maximum(self):
        vals = np.array([0.4, -1.0, 2.5, 0.9])
        assert sample_quantile(vals, 0.999999) == 2.5

    def test_single_sample(self):
        assert sample_quantile(np.array([5.0]), 0.37) == 5.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, math.nan])
    def test_level_outside_unit_interval_rejected(self, p):
        message = "p must be finite, got nan" if math.isnan(p) else r"p must lie in \(0, 1\)"
        with pytest.raises(ValueError, match=message):
            sample_quantile(np.array([1.0, 2.0]), p)

    def test_matrix_input_rejected(self):
        # callers pass one column; a matrix is not silently reduced
        mat = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        with pytest.raises(ValueError, match=r"^samples must have shape \(any,\), "
                                             r"got shape \(3, 2\)$"):
            sample_quantile(mat, 0.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
           st.floats(0.01, 0.999))
    def test_matches_order_statistic_oracle(self, values, p):
        expected = sorted(values)[max(1, math.ceil(len(values) * p)) - 1]
        assert sample_quantile(np.array(values), p) == expected


class TestPearsonCorrelationSquared:
    # the per-column oracle that reliability_check is compared against
    def test_identical_vectors(self):
        a = np.array([0.3, -1.2, 4.0, 2.2])
        assert pearson_correlation_squared(a, a) == pytest.approx(1.0)

    def test_negated_vectors(self):
        a = np.array([0.3, -1.2, 4.0, 2.2])
        assert pearson_correlation_squared(a, -a) == pytest.approx(1.0)

    def test_affine_invariance(self):
        s = RandomStream(8, 0)
        a = s.standard_normal(50)
        b = 0.4 * a + s.standard_normal(50)
        r2 = pearson_correlation_squared(a, b)
        assert pearson_correlation_squared(3.0 * a - 7.0, 0.5 * b + 2.0) == pytest.approx(r2)

    def test_independent_vectors_small(self):
        s = RandomStream(12, 0)
        r2 = pearson_correlation_squared(s.standard_normal(386), s.standard_normal(386))
        assert r2 < 0.05

    def test_constant_vector_degenerate(self):
        r2 = pearson_correlation_squared(np.ones(10), np.arange(10.0))
        assert math.isnan(r2)

    def test_bounded_by_one(self):
        s = RandomStream(3, 1)
        for _ in range(20):
            a = s.standard_normal(8)
            b = s.standard_normal(8)
            assert 0.0 <= pearson_correlation_squared(a, b) <= 1.0


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(42, 3).standard_normal(16)
        b = RandomStream(42, 3).standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomStream(42, 0).standard_normal(16)
        b = RandomStream(42, 1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = RandomStream(1, 0).standard_normal(16)
        b = RandomStream(2, 0).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_batched_normals_equal_sequential(self):
        # Batch draws must consume the stream exactly like repeated singles,
        # otherwise ensemble and single-chain code paths would diverge.
        batched = RandomStream(7, 2).standard_normal(12)
        s = RandomStream(7, 2)
        singles = np.array([s.standard_normal(1)[0] for _ in range(12)])
        assert np.array_equal(batched, singles)

    def test_batched_uniforms_equal_sequential(self):
        batched = RandomStream(7, 2).random(9)
        s = RandomStream(7, 2)
        singles = np.array([s.random() for _ in range(9)])
        assert np.array_equal(batched, singles)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomStream(-1, 0)
        with pytest.raises(ValueError):
            RandomStream(1, -2)


class TestChainStreams:
    # one-word seeds, seeds of 2-4 words, and seeds longer than the 4-word
    # pool, whose extra words are mixed in after it
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 - 1, 2**128, 2**200 + 17]
    # 1,000,000 is the largest chain index that n_chains allows
    INDICES = [1, 2, 97, 999_999, 1_000_000]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keys_are_numpys_seed_sequence_state(self, seed):
        keys = _philox_keys(seed, np.array(self.INDICES))
        assert keys.dtype == np.uint64 and keys.shape == (len(self.INDICES), 2)
        for key, i in zip(keys, self.INDICES):
            want = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64)
            assert key.tolist() == want.tolist()

    @pytest.mark.parametrize("seed", [0, 31, 2**64 + 3])
    def test_streams_draw_what_their_seed_sequence_draws(self, seed):
        streams = chain_streams(seed, 97)
        assert len(streams) == 97
        for j, stream in enumerate(streams):
            assert (stream.seed, stream.stream_index) == (seed, j + 1)
            generator = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(seed, spawn_key=(j + 1,))))
            assert np.array_equal(stream.standard_normal(3), generator.standard_normal(3))
            assert np.array_equal(stream.random(4), generator.random(4))
            assert stream.integers(0, 10**6) == generator.integers(0, 10**6)
