"""End-to-end runs: determinism, budgets, traces, and failure modes."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from shortchain import (
    Approximation,
    RandomStream,
    RunConfig,
    SizingPolicy,
    correlated_gaussian_target,
    default_functionals,
    mean_field_gaussian_approximation,
    parse_functional,
    run_diagnostic,
)
from shortchain import runner, stats
from shortchain.kernels import step_batch
from shortchain.runner import FunctionalSpec
from shortchain.targets import TargetModel


def small_setup(dimension=2, correlation=0.3):
    target = correlated_gaussian_target(dimension, correlation=correlation)
    approx = mean_field_gaussian_approximation(
        np.zeros(dimension), np.ones(dimension))
    return target, approx


def _bits(x) -> str:
    # NaN, -0.0 and every other float told apart
    return float(x).hex()


def report_bytes(report):
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True,
                      allow_nan=False)


class TestParseFunctional:
    def test_known_forms(self):
        assert parse_functional("mean(3)") == FunctionalSpec("mean", coordinate=3)
        assert parse_functional("variance(0)") == FunctionalSpec("variance", coordinate=0)
        spec = parse_functional(" quantile( 2 , 0.25 ) ")
        assert spec.kind == "quantile" and spec.coordinate == 2 and spec.p == 0.25
        assert parse_functional("scalar(target_log_density)").name == "target_log_density"

    def test_tags(self):
        assert parse_functional("mean(1)").tag == "mean(1)"
        assert parse_functional("variance(1)").tag == "log_variance(1)"
        assert parse_functional("quantile(0,0.5)").tag == "quantile(0,0.5)"
        assert parse_functional("scalar(f)").tag == "scalar(f)"

    def test_rejects_malformed(self):
        for bad in ("median(1)", "mean", "quantile(1)", "scalar()", "mean(1,2)x"):
            with pytest.raises(ValueError):
                parse_functional(bad)

    def test_default_functionals(self):
        specs = default_functionals(3)
        assert [s.tag for s in specs] == [
            "mean(0)", "mean(1)", "mean(2)",
            "log_variance(0)", "log_variance(1)", "log_variance(2)"]


class TestDeterminism:
    def test_repeat_runs_are_identical(self):
        target, approx = small_setup()
        cfg = RunConfig(kernel="barker", seed=11, n_chains=60, n_iterations=15)
        a = run_diagnostic(cfg, target, approx)
        b = run_diagnostic(cfg, target, approx)
        assert report_bytes(a) == report_bytes(b)

    def test_different_seeds_differ(self):
        target, approx = small_setup()
        a = run_diagnostic(RunConfig(kernel="rwmh", seed=1, n_chains=40,
                                     n_iterations=10), target, approx)
        b = run_diagnostic(RunConfig(kernel="rwmh", seed=2, n_chains=40,
                                     n_iterations=10), target, approx)
        assert report_bytes(a) != report_bytes(b)

    def test_tracing_is_pure_bookkeeping(self):
        target, approx = small_setup()
        plain = RunConfig(kernel="rwmh", seed=7, n_chains=50, n_iterations=20)
        traced = RunConfig(kernel="rwmh", seed=7, n_chains=50, n_iterations=20,
                           trace_every=5)
        da = run_diagnostic(plain, target, approx).to_json_dict()
        db = run_diagnostic(traced, target, approx).to_json_dict()
        assert db["traces"] is not None
        da.pop("traces")
        db.pop("traces")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


class TestDrawOrder:
    @pytest.mark.parametrize("kind", ["rwmh", "mala", "barker", "hmc"])
    def test_step_noise_is_each_chains_canonical_draws(self, kind, monkeypatch):
        # Chain j owns RandomStream(seed, j + 1): after its initial draw it
        # takes standard_normal(d), then random(d + 1) for Barker or one
        # random() otherwise.  97 chains is not a multiple of any block size.
        n, d, seed = 97, 5, 31
        target, approx = small_setup(d)
        seen = []

        def spy(kind, x, logpi, grad, eps, sign_u, accept_u, *rest):
            seen.append((eps.copy(), None if sign_u is None else sign_u.copy(),
                         accept_u.copy()))
            return step_batch(kind, x, logpi, grad, eps, sign_u, accept_u, *rest)

        monkeypatch.setattr(runner, "step_batch", spy)
        run_diagnostic(RunConfig(kernel=kind, seed=seed, n_chains=n, n_iterations=1,
                                 sizing=SizingPolicy(leapfrog_steps=2)), target, approx)
        (eps, sign_u, accept_u), = seen
        assert (sign_u is not None) == (kind == "barker")
        for j in range(n):
            stream = RandomStream(seed, j + 1)
            approx.sample(stream)
            assert np.array_equal(eps[j], stream.standard_normal(d))
            if kind == "barker":
                u = stream.random(d + 1)
                assert np.array_equal(sign_u[j], u[:d])
                assert accept_u[j] == u[d]
            else:
                assert accept_u[j] == stream.random()


class TestTraces:
    def test_checkpoint_schedule(self):
        target, approx = small_setup(1)
        cfg = RunConfig(kernel="rwmh", seed=3, n_chains=40, n_iterations=23,
                        trace_every=10, functionals=["mean(0)"])
        report = run_diagnostic(cfg, target, approx)
        assert [row.iteration for row in report.traces] == [0, 10, 20, 23]

    def test_every_iteration_gives_t_plus_one_rows(self):
        target, approx = small_setup(1)
        cfg = RunConfig(kernel="rwmh", seed=4, n_chains=40, n_iterations=50,
                        trace_every=1, functionals=["mean(0)"])
        report = run_diagnostic(cfg, target, approx)
        assert len(report.traces) == 51

    def test_initial_row_remembers_everything(self):
        target, approx = small_setup(1)
        cfg = RunConfig(kernel="rwmh", seed=5, n_chains=60, n_iterations=10,
                        trace_every=5)
        report = run_diagnostic(cfg, target, approx)
        assert report.traces[0].iteration == 0
        assert report.traces[0].rho2_max == pytest.approx(1.0)

    def test_final_row_matches_report(self):
        target, approx = small_setup(2)
        cfg = RunConfig(kernel="barker", seed=6, n_chains=80, n_iterations=20,
                        trace_every=7)
        report = run_diagnostic(cfg, target, approx)
        last = report.traces[-1]
        assert last.iteration == 20
        assert last.rho2_max == report.reliability.rho2_max
        for fr in report.functionals:
            assert last.bounds[fr.tag] == fr.result.bound

    @pytest.mark.parametrize("kind", ["rwmh", "mala", "barker", "hmc"])
    def test_every_row_equals_the_run_stopped_there(self, kind):
        # a checkpoint is diagnosed column-wise, the final ensemble one
        # functional at a time; row t must carry the very bits of a run
        # whose last iteration is t
        # a biased, mis-scaled approximation, so most bounds are detections
        target = correlated_gaussian_target(3, correlation=0.3)
        approx = mean_field_gaussian_approximation([1.5, -1.0, 0.5], [0.4, 2.5, 0.6])
        base = Approximation(3, approx.sampler, approx.means, approx.sds,
                             approx.covariance, quantile_fn=None, name="no_q")
        functionals = ["mean(0)", "variance(1)", "quantile(2,0.1)", "quantile(0,0.5)",
                       "quantile(2,0.9)", "scalar(target_log_density)", "scalar(r)"]
        scalar_functions = {"r": lambda x: np.sum(x * x, axis=1)}
        for approximation in (approx, base):
            def run(n_iterations, trace_every):
                return run_diagnostic(RunConfig(
                    kernel=kind, seed=11, n_chains=70, n_iterations=n_iterations,
                    trace_every=trace_every, functionals=functionals,
                    scalar_functions=scalar_functions), target, approximation)
            traced = run(6, 1)
            assert [row.iteration for row in traced.traces] == list(range(7))
            for row in traced.traces[1:]:
                stopped = run(row.iteration, 0)
                bounds = {fr.tag: fr.result.bound for fr in stopped.functionals}
                assert len(bounds) == 9
                assert {tag: _bits(v) for tag, v in row.bounds.items()} == \
                    {tag: _bits(v) for tag, v in bounds.items()}
                assert _bits(row.rho2_max) == _bits(stopped.reliability.rho2_max)

    def test_initial_side_values_computed_once_per_run(self, monkeypatch):
        # without a quantile function the initial quantile is an order
        # statistic of x0; tracing must not recompute it at each checkpoint
        calls = []
        real = runner.sample_quantile

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "sample_quantile", counted)
        target, approx = small_setup(2)
        no_q = Approximation(2, approx.sampler, approx.means, approx.sds,
                             approx.covariance, quantile_fn=None, name="no_q")
        counts, reports = [], []
        for trace_every in (0, 1):
            cfg = RunConfig(kernel="rwmh", seed=12, n_chains=60, n_iterations=8,
                            trace_every=trace_every,
                            functionals=["quantile(0,0.5)", "quantile(1,0.1)",
                                         "scalar(target_log_density)"])
            report = run_diagnostic(cfg, target, no_q)
            counts.append(len(calls))
            calls.clear()
            report.traces = None
            reports.append(report_bytes(report))
        assert counts == [3, 3]  # two quantiles and one scalar median
        assert reports[1] == reports[0]

    def test_each_checkpoint_diagnosed_once(self, monkeypatch):
        # 10 iterations traced every one: 11 checkpoints, the last one shared
        # with the final report; the scalar functional meets x0 once
        calls = {"reliability": 0, "f": 0}
        check = runner.reliability_check

        def counted_check(*args, **kwargs):
            calls["reliability"] += 1
            return check(*args, **kwargs)

        def f(x):
            calls["f"] += 1
            return np.sum(x, axis=1)

        monkeypatch.setattr(runner, "reliability_check", counted_check)
        target, approx = small_setup(2)
        cfg = RunConfig(kernel="rwmh", seed=7, n_chains=40, n_iterations=10,
                        trace_every=1, functionals=["scalar(f)"],
                        scalar_functions={"f": f})
        report = run_diagnostic(cfg, target, approx)
        assert len(report.traces) == 11
        assert calls == {"reliability": 11, "f": 12}

    def test_memory_of_initialization_decays(self):
        target, approx = small_setup(1, correlation=0.0)
        cfg = RunConfig(kernel="rwmh", seed=3, n_chains=200, n_iterations=50,
                        trace_every=5, functionals=["mean(0)"])
        report = run_diagnostic(cfg, target, approx)
        values = [row.rho2_max for row in report.traces]
        assert values[0] == pytest.approx(1.0)
        assert values[-1] < 0.1
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 0.05


class TestCriticalValuesOncePerRun:
    def test_traced_run_inverts_no_more_distributions_than_untraced(self, monkeypatch):
        # fixed N and T, so sizing inverts nothing; every t/chi2 inversion
        # comes from the intervals, which all share one (N, alpha)
        calls = []
        real = stats.special

        def counted(name):
            def inversion(*args):
                calls.append(name)
                return getattr(real, name)(*args)
            return inversion

        monkeypatch.setattr(stats, "special", SimpleNamespace(
            stdtrit=counted("stdtrit"), gammaincinv=counted("gammaincinv"),
            betaincc=real.betaincc))
        target, approx = small_setup(2)
        counts, reports = [], []
        for trace_every in (0, 1):
            cfg = RunConfig(kernel="rwmh", seed=9, n_chains=40, n_iterations=10,
                            trace_every=trace_every,
                            functionals=["mean(0)", "variance(1)", "quantile(0,0.5)",
                                         "scalar(target_log_density)"])
            report = run_diagnostic(cfg, target, approx)
            counts.append(len(calls))
            calls.clear()
            report.traces = None
            reports.append(report_bytes(report))
        assert counts[0] == 3  # one t and two chi-square quantiles
        assert counts[1] <= counts[0]
        assert reports[1] == reports[0]


class TestGradientBudget:
    def test_random_walk_needs_no_gradients(self):
        target, approx = small_setup()
        report = run_diagnostic(RunConfig(kernel="rwmh", seed=8, n_chains=30,
                                          n_iterations=12), target, approx)
        assert report.gradient_budget.initialization == 0
        assert report.gradient_budget.iterations == 0
        assert report.gradient_budget.total == 0

    @pytest.mark.parametrize("kind", ["mala", "barker"])
    def test_first_order_kernels_one_gradient_per_step(self, kind):
        target, approx = small_setup()
        n, t = 30, 12
        target.reset_gradient_count()
        report = run_diagnostic(RunConfig(kernel=kind, seed=8, n_chains=n,
                                          n_iterations=t), target, approx)
        assert report.gradient_budget.initialization == n
        assert report.gradient_budget.iterations == n * t
        assert target.gradient_evaluations == n + n * t

    def test_hamiltonian_budget_counts_leapfrog(self):
        target, approx = small_setup()
        n, t, leap = 30, 6, 3
        target.reset_gradient_count()
        report = run_diagnostic(
            RunConfig(kernel="hmc", seed=8, n_chains=n, n_iterations=t,
                      sizing=SizingPolicy(leapfrog_steps=leap)), target, approx)
        assert report.gradient_budget.initialization == 0
        assert report.gradient_budget.iterations == n * t * (leap + 1)
        assert target.gradient_evaluations == n * t * (leap + 1)

    def test_budget_unaffected_by_prior_counter_state(self):
        target, approx = small_setup()
        target.grad_log_density(np.zeros((7, 2)))  # stale counts
        report = run_diagnostic(RunConfig(kernel="mala", seed=9, n_chains=20,
                                          n_iterations=5), target, approx)
        assert report.gradient_budget.initialization == 20
        assert report.gradient_budget.iterations == 100


class TestConfigValidation:
    def test_unknown_kernel(self):
        target, approx = small_setup()
        with pytest.raises(ValueError, match="kernel"):
            run_diagnostic(RunConfig(kernel="nuts", seed=0), target, approx)

    def test_dimension_mismatch(self):
        target = correlated_gaussian_target(3)
        approx = mean_field_gaussian_approximation([0.0], [1.0])
        with pytest.raises(ValueError, match="dimension"):
            run_diagnostic(RunConfig(kernel="rwmh", seed=0), target, approx)

    def test_out_of_range_coordinate(self):
        target, approx = small_setup(2)
        cfg = RunConfig(kernel="rwmh", seed=0, n_chains=10, n_iterations=2,
                        functionals=["mean(5)"])
        with pytest.raises(ValueError, match="out of range"):
            run_diagnostic(cfg, target, approx)

    def test_empty_functionals(self):
        target, approx = small_setup()
        cfg = RunConfig(kernel="rwmh", seed=0, n_chains=10, n_iterations=2,
                        functionals=[])
        with pytest.raises(ValueError, match="empty"):
            run_diagnostic(cfg, target, approx)

    def test_bad_scalars_and_ranges(self):
        target, approx = small_setup()
        for cfg in (
            RunConfig(kernel="rwmh", seed=0, n_chains=1, n_iterations=2),
            RunConfig(kernel="rwmh", seed=0, n_chains=10, n_iterations=0),
            RunConfig(kernel="rwmh", seed=0, n_chains=10, n_iterations=2, trace_every=-1),
            RunConfig(kernel="rwmh", seed=0, n_chains=10, n_iterations=2,
                      step_size_scale=0.0),
        ):
            with pytest.raises(ValueError):
                run_diagnostic(cfg, target, approx)
        with pytest.raises(ValueError, match="alpha"):
            SizingPolicy(alpha=0.0)

    def test_infeasible_quantile_fails_before_any_work(self):
        target, approx = small_setup()
        target.reset_gradient_count()
        cfg = RunConfig(kernel="mala", seed=0, n_chains=50, n_iterations=5,
                        functionals=["quantile(0,0.001)"])
        with pytest.raises(ValueError, match="too few"):
            run_diagnostic(cfg, target, approx)
        assert target.gradient_evaluations == 0

    def test_unknown_scalar_name_lists_known(self):
        target, approx = small_setup()
        cfg = RunConfig(kernel="rwmh", seed=0, n_chains=30, n_iterations=2,
                        functionals=["scalar(nope)"])
        with pytest.raises(ValueError, match="target_log_density"):
            run_diagnostic(cfg, target, approx)

    def test_bad_reliability_cutoff_fails_before_any_work(self):
        target, approx = small_setup()
        for cutoff in (1.5, 0.0):
            cfg = RunConfig(kernel="mala", seed=0, n_chains=40, n_iterations=2000,
                            reliability_cutoff=cutoff)
            with pytest.raises(ValueError, match=r"reliability_cutoff .*\(0, 1\)"):
                run_diagnostic(cfg, target, approx)
        assert target.gradient_evaluations == 0


class TestScalarFunctionShapes:
    # A custom scalar functional must map the (N, d) ensemble to (N,) real
    # values; a bad one is refused on the initial ensemble, before any step.
    @pytest.mark.parametrize("fn, got", [
        (lambda x: x[:, :2], r"\(40, 2\)"),
        (lambda x: 1.0, r"\(\)"),
        (lambda x: np.sum(x, axis=1).astype(complex), r"\(40,\) and dtype complex128"),
    ], ids=["columns", "float", "complex"])
    def test_bad_output_is_rejected_before_any_step(self, monkeypatch, fn, got):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped before checking the scalar functional")

        monkeypatch.setattr(runner, "step_batch", no_step)
        target, approx = small_setup(3)
        cfg = RunConfig(kernel="rwmh", seed=0, n_chains=40, n_iterations=3,
                        functionals=["mean(0)", "scalar(f)"], scalar_functions={"f": fn})
        with pytest.raises(ValueError, match=r"scalar function 'f' must return a real "
                                             r"array of shape \(40,\).*got shape " + got):
            run_diagnostic(cfg, target, approx)


class TestTargetOutputShapes:
    # 40 chains on a d=3 Gaussian whose callables are bent out of shape; the
    # run must refuse them at initialization, naming the callable at fault.
    def run(self, kind, log_density=None, grad_log_density=None):
        base = correlated_gaussian_target(3)
        target = TargetModel(3, log_density or base.log_density,
                             grad_log_density or base.grad_log_density)
        approx = mean_field_gaussian_approximation(np.zeros(3), np.ones(3))
        return run_diagnostic(RunConfig(kernel=kind, seed=0, n_chains=40,
                                        n_iterations=2), target, approx)

    @pytest.mark.parametrize("kind", ["rwmh", "mala", "barker", "hmc"])
    def test_one_float_for_a_batch_is_rejected(self, kind):
        gauss = correlated_gaussian_target(3).log_density
        with pytest.raises(ValueError, match=r"log_density .*shape \(40,\).*got shape \(\)"):
            self.run(kind, log_density=lambda x: float(gauss(x)[0]))

    def test_column_of_log_densities_is_rejected(self):
        gauss = correlated_gaussian_target(3).log_density
        with pytest.raises(ValueError, match=r"log_density .*got shape \(40, 1\)"):
            self.run("rwmh", log_density=lambda x: gauss(x)[:, None])

    def test_complex_log_density_is_rejected(self):
        gauss = correlated_gaussian_target(3).log_density
        with pytest.raises(ValueError, match=r"log_density .*dtype complex128"):
            self.run("rwmh", log_density=lambda x: gauss(x).astype(complex))

    # MALA and Barker check the initial gradient; HMC, which computes none
    # at initialization, checks the first one of each leapfrog trajectory
    @pytest.mark.parametrize("kind", ["mala", "barker", "hmc"])
    def test_wrong_gradient_shape_is_rejected(self, kind):
        grad = correlated_gaussian_target(3).grad_log_density
        with pytest.raises(ValueError, match=r"grad_log_density .*shape \(40, 3\).*got shape \(40,\)"):
            self.run(kind, grad_log_density=lambda x: grad(x).sum(axis=1))

    def test_well_shaped_integer_log_density_runs(self):
        report = self.run("rwmh", log_density=lambda x: np.zeros(x.shape[0], dtype=int))
        assert report.n_chains == 40


class TestIncompatibleSupport:
    def box_target(self):
        def log_density(x):
            return np.where(np.all(np.abs(x) < 1.0, axis=1), 0.0, -np.inf)

        return TargetModel(dimension=1, log_density=log_density,
                           grad_log_density=np.zeros_like, name="box")

    def test_mostly_disjoint_support_aborts(self):
        target = self.box_target()
        approx = mean_field_gaussian_approximation([10.0], [0.1])
        cfg = RunConfig(kernel="rwmh", seed=1, n_chains=40, n_iterations=5)
        with pytest.raises(RuntimeError, match="non-finite"):
            run_diagnostic(cfg, target, approx)

    def test_few_bad_starts_run_with_caveat(self):
        # N(0.9, 0.05) rarely exceeds 1, so a handful of chains start at
        # -inf; the run proceeds but says so.
        target = self.box_target()
        approx = mean_field_gaussian_approximation([0.9], [0.05])
        cfg = RunConfig(kernel="rwmh", seed=12, n_chains=200, n_iterations=20)
        report = run_diagnostic(cfg, target, approx)
        assert "non-finite" in report.caveats
        assert report.reliability.rho2_max is not None

    def test_monotone_assumption_always_stated(self):
        target, approx = small_setup()
        report = run_diagnostic(RunConfig(kernel="rwmh", seed=1, n_chains=20,
                                          n_iterations=3), target, approx)
        assert "monotonically" in report.caveats


class TestNonFiniteStart:
    # a start that no kernel can move from is refused before the first
    # step, naming the callable at fault
    def test_sampler_non_finite_point_is_refused(self):
        target, approx = small_setup(2)
        sample = approx.sampler
        approx.sampler = lambda stream: sample(stream) * np.array([1.0, np.inf])
        with pytest.raises(ValueError, match=r"sampler of approximation 'mean_field' "
                                             r"returned a non-finite point"):
            run_diagnostic(RunConfig(kernel="rwmh", seed=0, n_chains=40, n_iterations=2),
                           target, approx)

    @pytest.mark.parametrize("kind", ["mala", "barker"])
    def test_non_finite_gradient_at_finite_density_is_refused(self, kind):
        base = correlated_gaussian_target(2)

        def grad(x):
            g = base.grad_log_density(x)
            g[5, 1] = np.nan
            return g

        target = TargetModel(2, base.log_density, grad)
        _, approx = small_setup(2)
        with pytest.raises(ValueError, match=r"target grad_log_density is not finite at 1 "
                                             r"of 40 starting points .*chain 5"):
            run_diagnostic(RunConfig(kernel=kind, seed=0, n_chains=40, n_iterations=2),
                           target, approx)

    @pytest.mark.parametrize("kind", ["mala", "barker"])
    def test_non_finite_gradient_at_non_finite_density_is_tolerated(self, kind):
        # outside the box both the density and its gradient are undefined;
        # those few chains keep the caveat rather than stopping the run
        def log_density(x):
            return np.where(np.all(np.abs(x) < 1.0, axis=1), 0.0, -np.inf)

        def grad(x):
            inside = np.all(np.abs(x) < 1.0, axis=1)
            return np.where(inside[:, None], 0.0, np.nan) * np.ones_like(x)

        target = TargetModel(1, log_density, grad, name="box")
        approx = mean_field_gaussian_approximation([0.9], [0.05])
        report = run_diagnostic(RunConfig(kind, seed=12, n_chains=200, n_iterations=5),
                                target, approx)
        assert "non-finite" in report.caveats


class TestFrozenChains:
    def test_tiny_step_scale_fails_reliability(self):
        target, approx = small_setup(2)
        cfg = RunConfig(kernel="barker", seed=2, n_chains=100, n_iterations=10,
                        step_size_scale=1e-8)
        report = run_diagnostic(cfg, target, approx)
        assert not report.reliability.passed
        assert report.reliability.rho2_max > 0.1
        assert "FAILED" in report.caveats

    def test_scale_is_recorded(self):
        target, approx = small_setup(2)
        cfg = RunConfig(kernel="rwmh", seed=2, n_chains=20, n_iterations=3,
                        step_size_scale=0.5)
        report = run_diagnostic(cfg, target, approx)
        assert report.step_size_scale == 0.5
        assert report.initial_step_size == pytest.approx(0.5 * 2.4**2 / 2.0)


class TestOverridesAndSizing:
    def test_overrides_reflected_in_report(self):
        target, approx = small_setup()
        cfg = RunConfig(kernel="rwmh", seed=1, n_chains=17, n_iterations=9)
        report = run_diagnostic(cfg, target, approx)
        assert report.n_chains == 17
        assert report.n_iterations == 9
        assert len(report.acceptance_history) == 9

    @pytest.mark.parametrize("field, value", [("n_chains", 10**9),
                                              ("n_iterations", 10**12)])
    def test_override_above_the_limit_is_refused_before_allocating(self, monkeypatch,
                                                                 field, value):
        # the per-chain streams are the run's first allocation of size N
        def unreachable(*args):
            raise AssertionError("the run allocated per-chain state")

        monkeypatch.setattr(runner, "RandomStream", unreachable)
        target, approx = small_setup()
        cfg = RunConfig(kernel="rwmh", seed=1, **{"n_chains": 40, "n_iterations": 5,
                                                  field: value})
        with pytest.raises(ValueError,
                           match=rf"^{field} must be at most 1000000, got {value}$"):
            run_diagnostic(cfg, target, approx)

    def test_interval_alpha_must_match_sizing_alpha(self):
        # sizing.alpha is the one miscoverage level, also with a fixed N
        target, approx = small_setup()
        report = run_diagnostic(RunConfig(kernel="rwmh", seed=0, n_chains=700,
                                          n_iterations=2,
                                          sizing=SizingPolicy(alpha=0.01)),
                                target, approx)
        assert report.alpha == 0.01
        assert all(fr.result.interval.level == 0.99 for fr in report.functionals)

    def test_sized_defaults_used_without_overrides(self):
        target, approx = small_setup(2)
        cfg = RunConfig(kernel="rwmh", seed=1,
                        sizing=SizingPolicy(delta_mean=1.0, delta_var=2.0,
                                            iteration_coefficient=2.0))
        report = run_diagnostic(cfg, target, approx)
        # loose tolerances size a tiny ensemble: N from the interval scans,
        # T = floor(2 * 2^(1/3)).
        assert report.n_chains == 7
        assert report.n_iterations == 2

    def test_acceptance_history_tracks_adaptation(self):
        target, approx = small_setup(1)
        cfg = RunConfig(kernel="rwmh", seed=13, n_chains=50, n_iterations=30)
        report = run_diagnostic(cfg, target, approx)
        assert all(0.0 <= a <= 1.0 for a in report.acceptance_history)
        assert report.final_step_size != report.initial_step_size


class TestFunctionalResults:
    def test_normalized_mean_bound_is_in_initial_sd_units(self):
        target = correlated_gaussian_target(1, mean=[3.0])
        approx = mean_field_gaussian_approximation([0.0], [0.5])
        cfg = RunConfig(kernel="mala", seed=3, n_chains=120, n_iterations=40,
                        functionals=["mean(0)"])
        report = run_diagnostic(cfg, target, approx)
        fr = report.functionals[0]
        assert fr.result.detected
        assert fr.normalized["bound_relative"] == pytest.approx(
            fr.result.bound / 0.5, rel=1e-12)

    def test_normalized_variance_bound_is_log10(self):
        target = correlated_gaussian_target(1, variances=[4.0])
        approx = mean_field_gaussian_approximation([0.0], [1.0])
        cfg = RunConfig(kernel="mala", seed=3, n_chains=120, n_iterations=40,
                        functionals=["variance(0)"])
        report = run_diagnostic(cfg, target, approx)
        fr = report.functionals[0]
        assert fr.result.detected
        assert fr.normalized["bound_2log10"] == pytest.approx(
            fr.result.bound / math.log(10.0), rel=1e-12)

    def test_quantile_side_from_approximation_when_available(self):
        target, approx = small_setup(1)
        cfg = RunConfig(kernel="rwmh", seed=4, n_chains=120, n_iterations=10,
                        functionals=["quantile(0,0.5)"])
        report = run_diagnostic(cfg, target, approx)
        fr = report.functionals[0]
        assert fr.initial_side == "approximation"
        assert fr.initial_value == pytest.approx(0.0, abs=1e-12)

    def test_quantile_side_falls_back_to_initial_samples(self):
        target, _ = small_setup(1)
        base = mean_field_gaussian_approximation([0.0], [1.0])
        no_q = Approximation(1, base.sampler, base.means, base.sds,
                             base.covariance, quantile_fn=None, name="no_q")
        cfg = RunConfig(kernel="rwmh", seed=4, n_chains=120, n_iterations=10,
                        functionals=["quantile(0,0.5)"])
        report = run_diagnostic(cfg, target, no_q)
        fr = report.functionals[0]
        assert fr.initial_side == "initial_samples"

    def test_custom_scalar_function(self):
        target, approx = small_setup(2)
        cfg = RunConfig(
            kernel="rwmh", seed=5, n_chains=80, n_iterations=10,
            functionals=["scalar(radius)"],
            scalar_functions={"radius": lambda x: np.sqrt(np.sum(x * x, axis=1))})
        report = run_diagnostic(cfg, target, approx)
        tags = [fr.tag for fr in report.functionals]
        assert tags == ["scalar_mean(radius)", "scalar_median(radius)"]
        assert all(fr.initial_side == "initial_samples" for fr in report.functionals)

    def test_builtin_log_density_scalar(self):
        target, approx = small_setup(2)
        cfg = RunConfig(kernel="rwmh", seed=5, n_chains=80, n_iterations=10,
                        functionals=["scalar(target_log_density)"])
        report = run_diagnostic(cfg, target, approx)
        assert len(report.functionals) == 2

    @pytest.mark.parametrize("trace_every", [0, 1])
    def test_builtin_log_density_scalar_reads_the_runs_logpi(self, trace_every):
        # the run evaluates N(1 + T) points and the built-in scalar adds none,
        # yet it reports what re-evaluating the log density would give
        base, approx = small_setup(3)
        points = []

        def log_density(x):
            points.append(len(x))
            return base.log_density(x)

        target = TargetModel(3, log_density, base.grad_log_density)
        cfg = RunConfig(kernel="rwmh", seed=5, n_chains=40, n_iterations=10,
                        trace_every=trace_every,
                        functionals=["scalar(target_log_density)", "scalar(again)"],
                        scalar_functions={"again": base.log_density})
        report = run_diagnostic(cfg, target, approx)
        assert sum(points) == 40 * (1 + 10)
        builtin, again = report.functionals[:2], report.functionals[2:]
        for a, b in zip(builtin, again):
            assert a.result.interval.lower == b.result.interval.lower
            assert a.result.interval.upper == b.result.interval.upper
            assert a.initial_value == b.initial_value

    def test_exact_null_detects_nothing_for_most_seeds(self):
        # Approximation equals the target: across a few seeds the two
        # per-coordinate checks should almost always stay silent.
        target, approx = small_setup(1, correlation=0.0)
        detections = 0
        for seed in range(5):
            cfg = RunConfig(kernel="rwmh", seed=seed, n_chains=387,
                            n_iterations=15)
            report = run_diagnostic(cfg, target, approx)
            detections += sum(int(fr.result.detected) for fr in report.functionals)
        assert detections <= 2


class TestReportSerialization:
    def test_json_round_trip(self):
        target, approx = small_setup()
        cfg = RunConfig(kernel="barker", seed=21, n_chains=50, n_iterations=10,
                        trace_every=5)
        report = run_diagnostic(cfg, target, approx)
        text = report_bytes(report)
        parsed = json.loads(text)
        assert parsed["kernel"] == "barker"
        assert parsed["chains"] == 50
        assert len(parsed["functionals"]) == 4
        assert parsed["traces"][0]["t"] == 0
        assert "wall_time" not in text

    def test_non_finite_values_serialize_as_strings(self):
        # A constant-coordinate approximation is impossible (sds > 0), so
        # force degeneracy through a target the chains cannot leave.
        def log_density(x):
            return np.where(np.all(np.abs(x) < 1e-9, axis=1), 0.0, -np.inf)

        target = TargetModel(dimension=1, log_density=log_density,
                             grad_log_density=np.zeros_like, name="spike")
        approx = mean_field_gaussian_approximation([0.0], [1e-12])
        cfg = RunConfig(kernel="rwmh", seed=2, n_chains=30, n_iterations=5)
        report = run_diagnostic(cfg, target, approx)
        text = report_bytes(report)
        json.loads(text)  # allow_nan=False would have raised on raw NaN/inf
