"""Step-size adaptation updates and ensemble sizing rules."""

import math
import re
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shortchain import (
    KERNEL_KINDS,
    RunConfig,
    SizingPolicy,
    chain_count,
    correlated_gaussian_target,
    initial_step_size,
    iteration_count,
    mean_error_chain_count,
    mean_field_gaussian_approximation,
    run_diagnostic,
    target_acceptance,
    variance_error_chain_count,
)
from shortchain.adaptation import _MAX_CHAINS, AdaptationState, KERNEL_TUNING, check_kind
from shortchain.kernels import Preconditioner, step_batch

from shortchain.stats import chi_square_quantile, student_t_quantile

from oracles import (mean_error_chain_count_oracle, smallest_n_by_scan,
                     variance_error_chain_count_oracle)


class TestTargetAcceptance:
    def test_known_rates(self):
        assert target_acceptance("rwmh") == 0.234
        assert target_acceptance("barker") == 0.4
        assert target_acceptance("mala") == 0.574
        assert target_acceptance("hmc") == 0.651

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            target_acceptance("slice")


class TestInitialStepSize:
    def test_random_walk_scales_inverse_dimension(self):
        assert initial_step_size("rwmh", 10) == pytest.approx(0.576, rel=1e-12)

    def test_langevin_scales_cube_root(self):
        assert initial_step_size("mala", 27) == pytest.approx(2.4**2 / 3.0, rel=1e-12)

    def test_hamiltonian_scales_fourth_root(self):
        assert initial_step_size("hmc", 16) == pytest.approx(2.88, rel=1e-12)

    def test_barker_formula(self):
        assert initial_step_size("barker", 30) == pytest.approx(
            2.4**2 / 30.0 ** (1.0 / 3.0), rel=1e-12)

    def test_dimension_one_is_family_independent(self):
        for kind in ("rwmh", "mala", "barker", "hmc"):
            assert initial_step_size(kind, 1) == pytest.approx(5.76, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            initial_step_size("rwmh", 0)
        with pytest.raises(ValueError):
            initial_step_size("nuts", 5)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_dimension_beyond_the_float_range_is_named(self, kind):
        with pytest.raises(ValueError, match=r"^dimension must be at most 1\.79\d*e\+308, "
                                             r"got 10{400}$"):
            initial_step_size(kind, 10 ** 400)

    def test_largest_float_dimension_is_allowed(self):
        assert initial_step_size("rwmh", int(sys.float_info.max)) > 0.0


def state_at(t, psi):
    """An AdaptationState whose next update is the zero-based iteration t."""
    return AdaptationState(log_step_size=psi, acceptance_history=[0.5] * t)


class TestLogStepSizeUpdate:
    def test_on_target_rate_leaves_step_unchanged(self):
        state = state_at(4, 0.3)
        state.update(0.4, 0.4)
        assert state.log_step_size == 0.3
        assert len(state.acceptance_history) == 5

    def test_first_iteration_full_gain(self):
        state = state_at(0, 0.0)
        state.update(0.826, 0.4)
        assert state.log_step_size == pytest.approx(0.426, rel=1e-12)
        assert state.acceptance_history == [0.826]

    def test_decay_schedule(self):
        # At t = 3 the gain is 1/sqrt(4) = 1/2.
        state = state_at(3, 1.0)
        state.update(0.174, 0.574)
        assert state.log_step_size == pytest.approx(1.0 - 0.4 / 2.0, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=-5.0, max_value=5.0))
    def test_update_magnitude_bounded_by_gain(self, rate, t, psi):
        state = state_at(t, psi)
        state.update(rate, 0.4)
        assert abs(state.log_step_size - psi) <= 1.0 / math.sqrt(t + 1.0) + 1e-12

    def test_state_wrapper_tracks_history(self):
        state = AdaptationState(log_step_size=math.log(0.5))
        assert state.step_size == pytest.approx(0.5)
        state.update(0.9, 0.4)
        state.update(0.1, 0.4)
        assert state.acceptance_history == [0.9, 0.1]
        expected = math.log(0.5) + 0.5 + (-0.3) / math.sqrt(2.0)
        assert state.log_step_size == pytest.approx(expected, rel=1e-12)


def run_with_kind(kind):
    target = correlated_gaussian_target(2)
    approx = mean_field_gaussian_approximation(np.zeros(2), np.ones(2))
    run_diagnostic(RunConfig(kernel=kind, seed=0, n_chains=10, n_iterations=2),
                   target, approx)


def step_with_kind(kind):
    x = np.zeros((3, 2))
    step_batch(kind, x, np.zeros(3), None, np.zeros((3, 2)), np.zeros((3, 1)),
               0.5, Preconditioner(np.eye(2)), correlated_gaussian_target(2))


KIND_ENTRY_POINTS = {
    "run_diagnostic": run_with_kind,
    "step_batch": step_with_kind,
    "target_acceptance": target_acceptance,
    "initial_step_size": lambda kind: initial_step_size(kind, 3),
    "iteration_count": lambda kind: iteration_count(kind, 3),
}


class TestKernelTuning:
    def test_kinds_are_the_table_keys(self):
        assert KERNEL_KINDS == ("rwmh", "mala", "barker", "hmc")
        assert KERNEL_KINDS == tuple(KERNEL_TUNING)

    def test_gradient_carrying_kinds(self):
        carries = [kind for kind in KERNEL_KINDS if check_kind(kind).carries_gradient]
        assert carries == ["mala", "barker", "hmc"]

    def test_uniform_counts(self):
        # d sign uniforms for Barker alone, then one acceptance uniform for every kind
        assert [check_kind(kind).sign_uniforms for kind in KERNEL_KINDS] == [
            False, False, True, False]
        assert [check_kind(kind).uniform_count(5) for kind in KERNEL_KINDS] == [1, 1, 6, 1]

    @pytest.mark.parametrize("entry", sorted(KIND_ENTRY_POINTS))
    def test_unknown_kind_raises_one_message(self, entry):
        with pytest.raises(ValueError) as info:
            KIND_ENTRY_POINTS[entry]("slice")
        assert str(info.value) == ("unknown kernel kind 'slice', expected one of "
                                   "('rwmh', 'mala', 'barker', 'hmc')")


class TestChainCount:
    def test_default_policy_counts(self):
        policy = SizingPolicy()
        assert mean_error_chain_count(policy.delta_mean, policy.alpha) == 387
        assert variance_error_chain_count(policy.delta_var, policy.alpha) == 260
        assert chain_count(policy) == 387

    def test_matches_independent_scan(self):
        assert mean_error_chain_count(0.1, 0.05) == mean_error_chain_count_oracle(0.1, 0.05)
        assert variance_error_chain_count(0.15, 0.05) == variance_error_chain_count_oracle(0.15, 0.05)

    def test_loose_tolerances_need_two_chains(self):
        assert mean_error_chain_count(100.0, 0.05) == 2
        assert variance_error_chain_count(100.0, 0.05) == 2

    def test_tighter_tolerance_needs_more_chains(self):
        assert mean_error_chain_count(0.05, 0.05) > mean_error_chain_count(0.1, 0.05)
        assert variance_error_chain_count(0.1, 0.05) > variance_error_chain_count(0.15, 0.05)

    def test_smaller_alpha_needs_more_chains(self):
        assert mean_error_chain_count(0.1, 0.01) > mean_error_chain_count(0.1, 0.05)

    def test_validation(self):
        with pytest.raises(ValueError, match="delta_mean must be positive"):
            mean_error_chain_count(0.0, 0.05)
        with pytest.raises(ValueError, match="delta_var must be positive"):
            variance_error_chain_count(-1.0, 0.05)
        # a budget is checked as SizingPolicy checks it, with the shared wording
        for count, name in ((mean_error_chain_count, "delta_mean"),
                            (variance_error_chain_count, "delta_var")):
            for budget, problem in ((True, "must be a real number, got True"),
                                    (math.inf, "must be finite, got inf"),
                                    ("x", "must be a real number, got 'x'")):
                with pytest.raises(ValueError, match=f"^{name} {problem}$"):
                    count(budget, 0.05)

    def test_bisection_matches_linear_scan(self):
        # The search must return exactly the n a scan from 2 upward finds,
        # with the package's own quantile functions as the widths.
        alphas = (0.01, 0.05, 0.1)
        mean_scan = {}
        var_scan = {}
        for alpha in alphas:
            for delta in (0.05, 0.1, 0.2, 0.3):
                mean_scan[delta, alpha] = smallest_n_by_scan(
                    lambda n: student_t_quantile(1.0 - alpha / 2.0, n - 1) / math.sqrt(n),
                    delta)
                assert mean_error_chain_count(delta, alpha) == mean_scan[delta, alpha]
            for delta in (0.1, 0.15, 0.3):
                var_scan[delta, alpha] = smallest_n_by_scan(
                    lambda n: math.log10(chi_square_quantile(1.0 - alpha / 2.0, n - 1)
                                         / chi_square_quantile(alpha / 2.0, n - 1)),
                    delta)
                assert variance_error_chain_count(delta, alpha) == var_scan[delta, alpha]
        for (dm, alpha), n_mean in mean_scan.items():
            for (dv, a), n_var in var_scan.items():
                if a == alpha:
                    policy = SizingPolicy(delta_mean=dm, delta_var=dv, alpha=alpha)
                    assert chain_count(policy) == max(n_mean, n_var)

    def test_budget_met_at_either_end_of_the_search(self):
        # the first n whose width is within budget, at n = 2 and at the
        # limit itself; one ulp tighter moves past each end
        def width(n):
            return student_t_quantile(0.975, n - 1) / math.sqrt(n)

        at_two, at_limit = width(2), width(_MAX_CHAINS)
        assert mean_error_chain_count(at_two, 0.05) == 2
        assert mean_error_chain_count(math.nextafter(at_two, 0.0), 0.05) == 3
        assert mean_error_chain_count(at_limit, 0.05) == _MAX_CHAINS
        with pytest.raises(ValueError, match=rf"^no chain count up to {_MAX_CHAINS} meets "):
            mean_error_chain_count(math.nextafter(at_limit, 0.0), 0.05)

    def test_unreachable_budget_raises(self):
        with pytest.raises(ValueError,
                           match=r"^no chain count up to 1000000 meets delta_mean=1e-06$"):
            mean_error_chain_count(1e-6, 0.05)
        with pytest.raises(ValueError,
                           match=r"^no chain count up to 1000000 meets delta_var=1e-06$"):
            variance_error_chain_count(1e-6, 0.05)


class TestIterationCount:
    def test_first_order_kernels_cube_root(self):
        assert iteration_count("barker", 30) == 155
        assert iteration_count("rwmh", 10) == 107
        assert iteration_count("mala", 20) == 135
        assert iteration_count("barker", 5) == 85

    def test_hamiltonian_divides_by_leapfrog_steps(self):
        assert iteration_count("hmc", 16) == 10

    def test_dimension_one(self):
        assert iteration_count("rwmh", 1) == 50
        assert iteration_count("hmc", 1) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            iteration_count("rwmh", 0)
        with pytest.raises(ValueError):
            iteration_count("gibbs", 5)

    @pytest.mark.parametrize("kind", ["rwmh", "hmc"])
    def test_overflowing_budget_raises(self, kind):
        # an integer beyond the float range is refused by name, not with an
        # OverflowError from d ** (1/3)
        with pytest.raises(ValueError, match=r"^dimension must be at most 1\.79\d*e\+308, "
                                             r"got 10{400}$"):
            iteration_count(kind, 10 ** 400)

    @pytest.mark.parametrize("kind, scale", [("rwmh", 1), ("hmc", 1), ("mala", 30)])
    def test_budget_above_a_million_raises(self, kind, scale):
        # a float dimension, but a run of 10^9 iterations would never end
        dimension = scale * 10 ** 24
        with pytest.raises(ValueError, match=rf"^iteration budget overflows 1000000 "
                                             rf"iterations at dimension {dimension}$"):
            iteration_count(kind, dimension)

    def test_budget_of_exactly_a_million_is_allowed(self):
        # 50 (1.6e21)^(1/4) / 10 = 10^6 exactly
        assert iteration_count("hmc", 16 * 10 ** 20) == 1_000_000
        with pytest.raises(ValueError, match=f"at dimension {17 * 10 ** 20}$"):
            iteration_count("hmc", 17 * 10 ** 20)


class TestChainCountAlpha:
    # the public counts take a raw alpha and refuse it by name, as SizingPolicy does
    @pytest.mark.parametrize("count", [mean_error_chain_count, variance_error_chain_count])
    @pytest.mark.parametrize("alpha, message", [
        (1.5, r"alpha must lie in \(0, 1\), got 1.5"),
        (-0.5, r"alpha must lie in \(0, 1\), got -0.5"),
        (math.nan, "alpha must be finite, got nan"),
        (True, "alpha must be a real number, got True"),
        (1e-17, r"alpha must exceed 2\*\*-53 \(about 1.1e-16\), .*, got 1e-17"),
    ])
    def test_alpha_outside_the_unit_interval_refused(self, count, alpha, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            count(0.1, alpha)


class TestSizingPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SizingPolicy(delta_mean=0.0)
        with pytest.raises(ValueError):
            SizingPolicy(delta_var=-0.1)
        with pytest.raises(ValueError):
            SizingPolicy(alpha=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["delta_mean", "delta_var", "alpha"])
    def test_non_finite_field_is_named(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
            SizingPolicy(**{name: value})

    @pytest.mark.parametrize("alpha", [1e-17, 2**-53, 5e-324])
    def test_alpha_too_small_for_its_interval_is_named(self, alpha):
        # 1 - alpha/2 rounds to 1, which chain_count refused only as
        # "p must lie in (0, 1), got 1.0", after a run with the chains
        # override had taken all its steps
        with pytest.raises(ValueError, match="^" + re.escape(
                f"alpha must exceed 2**-53 (about 1.1e-16), so that 1 - alpha/2 is "
                f"below 1, got {alpha}") + "$"):
            SizingPolicy(alpha=alpha)

    def test_smallest_alpha_above_the_limit_is_kept(self):
        policy = SizingPolicy(alpha=2**-52)
        assert policy.alpha == 2**-52 and 1.0 - policy.alpha / 2.0 < 1.0
        assert 2 <= chain_count(policy) < _MAX_CHAINS

    def test_defaults(self):
        policy = SizingPolicy()
        assert policy.delta_mean == 0.1
        assert policy.delta_var == 0.15
        assert policy.alpha == 0.05
        assert [f.name for f in fields(SizingPolicy)] == ["delta_mean", "delta_var", "alpha"]
