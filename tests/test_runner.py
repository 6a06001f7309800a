"""End-to-end runs: determinism, budgets, traces, and failure modes."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from shortchain import (
    Approximation,
    RandomStream,
    RunConfig,
    SizingPolicy,
    correlated_gaussian_target,
    empirical_approximation,
    kl_optimal_mean_field,
    mean_field_gaussian_approximation,
    neal_funnel_target,
    parse_functional,
    run_diagnostic,
    synthetic_logistic_regression_target,
)
from shortchain import rng, runner, stats
from shortchain.diagnostics import column_intervals
from shortchain.kernels import step_batch
from shortchain.rng import ChainCalls, StepNoise
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

    @pytest.mark.parametrize("text, got", [("mean(x)", "'x'"), ("variance(1.5)", "'1.5'"),
                                           ("quantile(a,0.5)", "'a,0.5'"),
                                           ("quantile(0,half)", "'0,half'")])
    def test_non_integer_coordinate_names_the_functional(self, text, got):
        with pytest.raises(ValueError, match=rf"functional '{re.escape(text)}' needs an "
                                             rf"integer coordinate.*, got {got}"):
            parse_functional(text)

    @pytest.mark.parametrize("text", ["mean(*)", "variance( * )"])
    def test_wildcard_expands_only_in_a_list(self, text):
        with pytest.raises(ValueError, match="expand only in a functionals list"):
            parse_functional(text)

    @pytest.mark.parametrize("text", ["quantile(*)", "quantile( * )", "quantile(1)"])
    def test_quantile_without_a_level_needs_one(self, text):
        # quantile has no wildcard, so quantile(*) lacks its level like quantile(1)
        message = rf"quantile functional needs \(coordinate, p\): '{re.escape(text)}'"
        with pytest.raises(ValueError, match=message):
            parse_functional(text)
        target, approx = small_setup(2)
        with pytest.raises(ValueError, match=message):
            run_diagnostic(RunConfig(kernel="rwmh", seed=0, n_chains=40, n_iterations=1,
                                     functionals=["mean(*)", text]), target, approx)


class TestFunctionalsList:
    # RunConfig.functionals and a config file share one grammar: wildcards
    # expand, and every bad entry fails before any work, naming the functional
    def test_wildcards_give_the_default_report(self):
        target, approx = small_setup(3)
        reports = [report_bytes(run_diagnostic(RunConfig(
            kernel="barker", seed=8, n_chains=50, n_iterations=6, trace_every=2,
            functionals=functionals), target, approx))
            for functionals in (None, ["mean(*)", "variance(*)"], [" mean (*)", "variance(*)"],
                                ("mean(*)", "variance(\t*)"), ["\tmean ( * )\n", "variance(*)"])]
        # the wildcards take the grammar's whitespace, tabs included
        assert reports[1:] == reports[:1] * 4

    def test_none_audits_every_mean_then_every_variance(self):
        target, approx = small_setup(3)
        report = run_diagnostic(RunConfig(kernel="rwmh", seed=0, n_chains=40,
                                          n_iterations=1), target, approx)
        assert [f.tag for f in report.functionals] == [
            "mean(0)", "mean(1)", "mean(2)",
            "log_variance(0)", "log_variance(1)", "log_variance(2)"]

    @pytest.mark.parametrize("functional, tag", [
        ("quantile(0,2)", "quantile(0,2)"), ("quantile(0,nan)", "quantile(0,nan)"),
        ("quantile(0,0)", "quantile(0,0)"), ("quantile(0,1)", "quantile(0,1)"),
        ("quantile(1,-0.25)", "quantile(1,-0.25)"), ("quantile(1,inf)", "quantile(1,inf)")])
    def test_bad_quantile_level_fails_before_any_work(self, functional, tag):
        target, approx = small_setup()
        cfg = RunConfig(kernel="mala", seed=0, n_chains=400, n_iterations=5,
                        functionals=["mean(0)", functional])
        with pytest.raises(ValueError, match=rf"functional {re.escape(tag)} needs a "
                                             r"quantile level p in \(0, 1\)"):
            run_diagnostic(cfg, target, approx)
        assert target.gradient_evaluations == 0

    @pytest.mark.parametrize("functionals, tag", [
        (["mean(*)", "mean(0)"], "mean(0)"),
        (["variance(1)", "variance(*)"], "log_variance(1)"),
        (["quantile(0,0.5)", "quantile( 0 , 0.50 )"], "quantile(0,0.5)"),
        (["scalar(target_log_density)"] * 2, "scalar(target_log_density)"),
        (["mean(1)", "mean(\t1 )"], "mean(1)")])
    def test_duplicate_tag_fails_before_any_work(self, functionals, tag):
        # the trace rows are keyed by tag, so a duplicate would report one
        # more bound than its trace rows hold
        target, approx = small_setup()
        cfg = RunConfig(kernel="mala", seed=0, n_chains=40, n_iterations=5,
                        trace_every=1, functionals=functionals)
        with pytest.raises(ValueError, match=rf"functional {re.escape(tag)} is listed "
                                             "more than once"):
            run_diagnostic(cfg, target, approx)
        assert target.gradient_evaluations == 0


    def test_distinct_levels_with_one_tag_are_both_named(self):
        # both levels print as quantile(0,0.123457), so their trace rows
        # would collide; the error says the levels differ
        target, approx = small_setup()
        cfg = RunConfig(kernel="mala", seed=0, n_chains=400, n_iterations=5,
                        functionals=["quantile(0,0.1234567)", "quantile(0,0.1234568)"])
        with pytest.raises(ValueError, match=re.escape(
                "quantile levels 0.1234567 and 0.1234568 differ but both print as "
                "quantile(0,0.123457)")):
            run_diagnostic(cfg, target, approx)
        assert target.gradient_evaluations == 0

    @pytest.mark.parametrize("spec, problem", [
        (FunctionalSpec("median", coordinate=0), "has unknown kind 'median'"),
        (FunctionalSpec("mean"), "needs an integer coordinate, got None"),
        (FunctionalSpec("mean", coordinate=True), "needs an integer coordinate, got True"),
        (FunctionalSpec("variance", coordinate=1.5), "needs an integer coordinate, got 1.5"),
        (FunctionalSpec("quantile", p=0.5), "needs an integer coordinate, got None"),
        (FunctionalSpec("quantile", coordinate=0), "needs a real quantile level p, got None"),
        (FunctionalSpec("quantile", coordinate=0, p="0.5"),
         "needs a real quantile level p, got '0.5'"),
        (FunctionalSpec("quantile", coordinate=0, p=True),
         "needs a real quantile level p, got True"),
        (FunctionalSpec("scalar"), "needs a name"),
        (FunctionalSpec("scalar", name=""), "needs a name")])
    def test_malformed_spec_fails_before_any_work(self, spec, problem):
        # a FunctionalSpec item is refused for not being a string, before
        # any of its fields, malformed as ``problem`` says, is read
        target, approx = small_setup()
        functionals = ["mean(0)", spec]
        cfg = RunConfig(kernel="mala", seed=0, n_chains=400, n_iterations=5,
                        functionals=functionals)
        with pytest.raises(ValueError) as refused:
            run_diagnostic(cfg, target, approx)
        message = str(refused.value)
        assert message == f"functionals must be a list of strings, got {functionals!r}"
        assert problem not in message
        assert target.gradient_evaluations == 0

    @pytest.mark.parametrize("spec, text, problem", [
        (FunctionalSpec("mean", coordinate=np.int64(1)), "mean(1)", None),
        (FunctionalSpec("quantile", coordinate=np.int64(0), p=np.float64(0.5)),
         "quantile(0,0.5)", None),
        (FunctionalSpec("scalar", coordinate=1, p=0.3, name="target_log_density"), None,
         "sets coordinate, which a scalar functional does not use"),
        (FunctionalSpec("mean", coordinate=0, p=0.7), None,
         "sets p, which a mean functional does not use"),
        (FunctionalSpec("variance", coordinate=0, name="f"), None,
         "sets name, which a variance functional does not use")])
    def test_spec_is_stored_as_its_string_would_be(self, spec, text, problem):
        # a spec reaches a run only as its string, and the report stores the
        # parsed spec with plain numbers; the item itself is refused before
        # any work, and a spec with ``problem`` has no string at all
        target, approx = small_setup()
        settings = dict(kernel="mala", seed=0, n_chains=400, n_iterations=5)
        with pytest.raises(ValueError, match=re.escape(
                f"functionals must be a list of strings, got {[spec]!r}")):
            run_diagnostic(RunConfig(**settings, functionals=[spec]), target, approx)
        assert target.gradient_evaluations == 0
        if text is None:  # no string sets a field that ``problem`` names
            return
        stored = run_diagnostic(RunConfig(**settings, functionals=[text]),
                                target, approx).functionals[0].spec
        assert stored == spec == parse_functional(text)
        assert type(stored.coordinate) is int
        assert stored.p is None or type(stored.p) is float

    def test_bare_string_is_refused(self):
        # a string would be read one character at a time
        target, approx = small_setup()
        cfg = RunConfig(kernel="mala", seed=0, n_chains=40, n_iterations=5,
                        functionals="mean(0)")
        with pytest.raises(ValueError, match=re.escape(
                "functionals must be a list of strings, got 'mean(0)'")):
            run_diagnostic(cfg, target, approx)
        assert target.gradient_evaluations == 0

    @pytest.mark.parametrize("functionals", [
        [FunctionalSpec("mean", coordinate=0)], 5, {"mean(0)": 1}, ["mean(0)", 1],
        ["mean(0)", None], ("mean(0)", b"mean(1)")])
    def test_non_string_list_is_refused(self, functionals):
        target, approx = small_setup()
        cfg = RunConfig(kernel="mala", seed=0, n_chains=40, n_iterations=5,
                        functionals=functionals)
        with pytest.raises(ValueError, match=re.escape(
                f"functionals must be a list of strings, got {functionals!r}")):
            run_diagnostic(cfg, target, approx)
        assert target.gradient_evaluations == 0

class TestFinalIntervalsMatchColumnPass:
    # the final ensemble is diagnosed one functional at a time, a checkpoint
    # by column_intervals; on the final value rows both must give the same
    # bits, traced or not
    @pytest.mark.parametrize("trace_every", [0, 1])
    @pytest.mark.parametrize("kind", ["rwmh", "mala", "barker", "hmc"])
    def test_every_endpoint_equals_the_column_pass(self, kind, trace_every, monkeypatch):
        rows = []
        real = runner._value_rows

        def recorded(*args):
            rows.append(real(*args))
            return rows[-1]

        monkeypatch.setattr(runner, "_value_rows", recorded)
        target = correlated_gaussian_target(3, correlation=0.3)
        approx = mean_field_gaussian_approximation([1.5, -1.0, 0.5], [0.4, 2.5, 0.6])
        no_q = Approximation(3, approx.sampler, approx.means, approx.sds,
                             approx.covariance, quantile_fn=None, name="no_q")
        functionals = ["mean(*)", "variance(*)", "quantile(2,0.1)", "quantile(0,0.5)",
                       "scalar(target_log_density)", "scalar(r)"]
        scalar_rows = {"target_log_density": 3, "r": 4}
        for approximation in (approx, no_q):
            rows.clear()
            report = run_diagnostic(RunConfig(
                kernel=kind, seed=13, n_chains=70, n_iterations=6, trace_every=trace_every,
                functionals=functionals,
                scalar_functions={"r": lambda x: np.sum(x * x, axis=1)}), target, approximation)
            assert len(rows) == (7 if trace_every else 1)
            columns = []  # (interval kind, row, initial-side value, level)
            for f in report.functionals:
                i, p = f.spec.coordinate, f.spec.p
                if f.spec.kind == "mean":
                    columns.append(("mean", i, approximation.means[i], None))
                elif f.spec.kind == "variance":
                    columns.append(("log_variance", i, approximation.sds[i], None))
                elif f.spec.kind == "quantile":
                    columns.append(("quantile", i, f.initial_value, p))
                elif f.tag.startswith("scalar_mean"):
                    columns.append(("mean", scalar_rows[f.spec.name], f.initial_value, None))
                else:
                    columns.append(("quantile", scalar_rows[f.spec.name], f.initial_value, 0.5))
            lower, upper, _ = column_intervals(rows[-1], columns, report.alpha)
            assert len(report.functionals) == 12
            assert [(_bits(f.result.interval.lower), _bits(f.result.interval.upper))
                    for f in report.functionals] == \
                [(_bits(lo), _bits(hi)) for lo, hi in zip(lower, upper)]


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


# (n_chains, the noise the run draws it with) at d = 3: N = 40 is below the
# bulk decode's size rule and N = 120 above it
SIDES = [pytest.param(40, ChainCalls, id="per-chain"), pytest.param(120, StepNoise, id="decoded")]


class TestNoiseFill:
    # every iteration refills the noise through the module's _fill_noise, so
    # a wrapper set there sees each call and changes nothing
    @pytest.mark.parametrize("n, noise_type", SIDES)
    @pytest.mark.parametrize("kind", ["rwmh", "mala", "barker", "hmc"])
    def test_a_wrapper_sees_every_iteration(self, kind, n, noise_type, monkeypatch):
        target, approx = small_setup(3)
        cfg = RunConfig(kernel=kind, seed=5, n_chains=n, n_iterations=7, trace_every=3,
                        functionals=["mean(*)", "quantile(1,0.5)", "scalar(target_log_density)"])
        plain = run_diagnostic(cfg, target, approx).to_json_dict()
        calls = []
        fill = runner._fill_noise

        def wrapped(noise):
            calls.append((len(noise), type(noise)))
            return fill(noise)

        monkeypatch.setattr(runner, "_fill_noise", wrapped)
        assert run_diagnostic(cfg, target, approx).to_json_dict() == plain
        assert calls == [(n, noise_type)] * 7

    @pytest.mark.parametrize("fault", ["probe", "ki-early", "ki-late"])
    @pytest.mark.parametrize("kind", ["rwmh", "barker"])
    def test_a_failed_table_probe_draws_chain_by_chain(self, kind, fault, monkeypatch):
        # the decoder's tables are read once a process; when their probe
        # fails, or a layer's ki is neither of the two values its neighbour
        # checks allow, every run draws through the per-chain calls, with
        # the same bits
        target, approx = small_setup(3)
        cfg = RunConfig(kernel=kind, seed=5, n_chains=120, n_iterations=7)
        plain = run_diagnostic(cfg, target, approx).to_json_dict()
        seen = []
        fill, normal_of_words = runner._fill_noise, rng._normal_of_words
        monkeypatch.setattr(runner, "_fill_noise", lambda noise: (seen.append(type(noise)),
                                                                  fill(noise)))
        if fault == "probe":
            monkeypatch.setattr(rng, "_probe", lambda tables, spare: False)
        else:  # layer 100 leaves the fast path 2 magnitudes early or late
            ki = int(rng._ziggurat().ki[100])
            moved = range(ki - 2, ki) if fault == "ki-early" else range(ki, ki + 2)

            def moved_ki(generator, words):
                value, read = normal_of_words(generator, words)
                if words[0] & 0xFF == 100 and (words[0] >> 9) & (2**52 - 1) in moved:
                    read = 2 if fault == "ki-early" else 1
                return value, read

            monkeypatch.setattr(rng, "_normal_of_words", moved_ki)
        rng._ziggurat.cache_clear()
        try:
            assert run_diagnostic(cfg, target, approx).to_json_dict() == plain
        finally:
            monkeypatch.undo()
            rng._ziggurat.cache_clear()
        assert seen == [ChainCalls] * 7


class TestInitialDraw:
    # x0 is drawn by one Approximation.sample call over the run's N streams,
    # so a wrapper set on the class sees it and changes nothing
    @pytest.mark.parametrize("n, noise_type", SIDES)
    @pytest.mark.parametrize("kind", ["rwmh", "mala", "barker", "hmc"])
    def test_a_wrapper_sees_one_call_with_every_stream(self, kind, n, noise_type,
                                                       monkeypatch):
        target, approx = small_setup(3)
        cfg = RunConfig(kernel=kind, seed=5, n_chains=n, n_iterations=7, trace_every=3,
                        functionals=["mean(*)", "quantile(1,0.5)", "scalar(target_log_density)"])
        plain = run_diagnostic(cfg, target, approx).to_json_dict()
        calls = []
        sample = Approximation.sample

        def wrapped(self, streams):
            calls.append(len(streams))
            return sample(self, streams)

        monkeypatch.setattr(Approximation, "sample", wrapped)
        assert run_diagnostic(cfg, target, approx).to_json_dict() == plain
        assert calls == [n]


class TestNonFiniteScalarValues:
    def test_infinite_values_give_nan_endpoints_without_warnings(self):
        # +inf on the chains with x_0 > 1: the mean interval has no finite
        # endpoint, which the report writes as "NaN", and NumPy stays quiet
        target, approx = small_setup()
        cfg = RunConfig(kernel="rwmh", seed=3, n_chains=60, n_iterations=4, trace_every=2,
                        functionals=["scalar(f)"],
                        scalar_functions={"f": lambda x: np.where(x[:, 0] > 1.0, np.inf,
                                                                  x[:, 0])})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_diagnostic(cfg, target, approx).to_json_dict()
        mean, median = report["functionals"]
        assert mean["tag"] == "scalar_mean(f)"
        assert mean["lower"] == mean["upper"] == "NaN"
        assert math.isfinite(median["lower"]) and math.isfinite(median["upper"])
        assert [row["bounds"]["scalar_mean(f)"] for row in report["traces"]] == [0.0] * 3


class TestDrawOrder:
    # (d, noise the run draws it with, start): d = 5 is on the bulk decode's
    # side of its size rule for every kernel at 101 chains and d = 21 on the
    # per-chain side; an empirical start draws x0 through integers(0, n),
    # which leaves half a word buffered
    @pytest.mark.parametrize("d, noise_type, start", [
        pytest.param(5, StepNoise, "mean_field", id="decoded"),
        pytest.param(21, ChainCalls, "mean_field", id="per-chain"),
        pytest.param(5, StepNoise, "empirical", id="decoded-empirical")])
    @pytest.mark.parametrize("kind", ["rwmh", "mala", "barker", "hmc"])
    def test_step_noise_is_each_chains_canonical_draws(self, kind, d, noise_type, start,
                                                       monkeypatch):
        # Chain j owns RandomStream(seed, j + 1): after its initial draw it
        # takes standard_normal(d), then random(d + 1) for Barker or one
        # random() otherwise, at every step.  101 chains is not a multiple of
        # any block size, and 60 steps cross a refill of the decoded words.
        n, seed, steps = 101, 31, 60
        target, approx = small_setup(d)
        if start == "empirical":
            approx = empirical_approximation(RandomStream(3, 0).standard_normal((50, d)))
        seen, kinds, refills = [], [], []

        def spy(kind, x, logpi, grad, eps, uniforms, *rest):
            seen.append((eps.copy(), uniforms.copy()))
            return step_batch(kind, x, logpi, grad, eps, uniforms, *rest)

        fill, refill = runner._fill_noise, StepNoise._refill
        monkeypatch.setattr(runner, "step_batch", spy)
        monkeypatch.setattr(runner, "_fill_noise", lambda noise: (kinds.append(type(noise)),
                                                                  fill(noise)))
        monkeypatch.setattr(StepNoise, "_refill", lambda self: (refills.append(1),
                                                                refill(self)))
        run_diagnostic(RunConfig(kernel=kind, seed=seed, n_chains=n, n_iterations=steps),
                       target, approx)
        assert kinds == [noise_type] * steps
        assert len(refills) >= (2 if noise_type is StepNoise else 0)
        # as wide as the kernel reads: d sign uniforms for Barker, then the
        # acceptance uniform
        k = d + 1 if kind == "barker" else 1
        assert all(u.shape == (n, k) for _, u in seen)
        for j in range(n):
            stream = RandomStream(seed, j + 1)
            approx.sample([stream])
            for eps, uniforms in seen:
                assert np.array_equal(eps[j], stream.standard_normal(d))
                assert np.array_equal(uniforms[j], stream.random(k))


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
    def test_traced_run_inverts_no_more_distributions_than_untraced(self):
        # fixed N and T, so sizing inverts nothing; every interval of a run
        # shares one (N, alpha), so once the untraced run has filled the
        # quantile caches its traced twin misses none
        quantiles = (stats.student_t_quantile, stats.chi_square_quantile,
                     stats.binomial_quantile)
        for q in quantiles:
            q.cache_clear()
        target, approx = small_setup(2)
        misses, reports = [], []
        for trace_every in (0, 1):
            cfg = RunConfig(kernel="rwmh", seed=9, n_chains=40, n_iterations=10,
                            trace_every=trace_every,
                            functionals=["mean(0)", "variance(1)", "quantile(0,0.5)",
                                         "scalar(target_log_density)"])
            before = [q.cache_info() for q in quantiles]
            report = run_diagnostic(cfg, target, approx)
            misses.append([q.cache_info().misses - b.misses for q, b in zip(quantiles, before)])
            hits = [q.cache_info().hits - b.hits for q, b in zip(quantiles, before)]
            report.traces = None
            reports.append(report_bytes(report))
        # one t and two chi-square quantiles, and the two ranks at p = 0.5
        assert misses == [[1, 2, 2], [0, 0, 0]]
        assert all(hits)  # every quantile was read, from the cache
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
        before = target.gradient_evaluations
        report = run_diagnostic(RunConfig(kernel=kind, seed=8, n_chains=n,
                                          n_iterations=t), target, approx)
        assert report.gradient_budget.initialization == n
        assert report.gradient_budget.iterations == n * t
        assert target.gradient_evaluations - before == n + n * t

    def test_hamiltonian_budget_counts_leapfrog(self):
        target, approx = small_setup()
        n, t, leap = 30, 6, 10  # every run takes L = 10 leapfrog steps
        before = target.gradient_evaluations
        report = run_diagnostic(
            RunConfig(kernel="hmc", seed=8, n_chains=n, n_iterations=t), target, approx)
        assert report.to_json_dict()["leapfrog_steps"] == leap
        # one gradient per chain at x0, then L per trajectory: each starts
        # from the gradient the previous step carried
        assert report.gradient_budget.initialization == n
        assert report.gradient_budget.iterations == n * t * leap
        assert target.gradient_evaluations - before == n + n * t * leap

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
        before = target.gradient_evaluations
        # a scalar's median ranks are infeasible at alpha = 0.05 with 5 chains
        for functional, n_chains in (("quantile(0,0.001)", 50),
                                     ("scalar(target_log_density)", 5)):
            cfg = RunConfig(kernel="mala", seed=0, n_chains=n_chains, n_iterations=5,
                            functionals=[functional])
            with pytest.raises(ValueError, match="too few"):
                run_diagnostic(cfg, target, approx)
        assert target.gradient_evaluations == before

    def test_unknown_scalar_name_lists_known(self):
        target, approx = small_setup()
        cfg = RunConfig(kernel="rwmh", seed=0, n_chains=30, n_iterations=2,
                        functionals=["scalar(nope)"])
        with pytest.raises(ValueError, match="target_log_density"):
            run_diagnostic(cfg, target, approx)

    @pytest.mark.parametrize("kernel, dimension, scale, h0", [
        ("rwmh", 30, 5e-324, 0.0), ("barker", 20, 1e308, math.inf)],
        ids=["underflow", "overflow"])
    def test_initial_step_size_out_of_range_is_refused_before_any_draw(
            self, monkeypatch, kernel, dimension, scale, h0):
        # a finite positive scale can still take 2.4^2 / d^k * scale to 0 or
        # inf; the run names the scale before it builds a stream
        def no_stream(*args, **kwargs):
            raise AssertionError("built a stream before checking the step size")

        monkeypatch.setattr(runner, "chain_streams", no_stream)
        target = neal_funnel_target(dimension)
        approx = mean_field_gaussian_approximation(np.zeros(dimension), np.ones(dimension))
        with pytest.raises(ValueError, match=re.escape(
                f"step_size_scale {scale} takes the initial step size to {h0}; "
                "it must stay positive and finite")):
            run_diagnostic(RunConfig(kernel=kernel, seed=1, step_size_scale=scale),
                           target, approx)

    def test_non_real_start_is_refused(self):
        target = neal_funnel_target(20)
        approx = mean_field_gaussian_approximation(np.zeros(20), np.ones(20), name="vi_fit")
        approx.sampler = lambda stream: stream.standard_normal(20) + 1j
        with pytest.raises(ValueError, match=r"^the draws of approximation 'vi_fit' must "
                                             r"hold integers or floats, got dtype complex128$"):
            run_diagnostic(RunConfig(kernel="barker", seed=1, n_chains=50, n_iterations=3),
                           target, approx)


SMALL_RUN = dict(kernel="rwmh", seed=1, n_chains=40, n_iterations=5)


class TestSettingsAreCheckedByName:
    # each value is refused by the object that owns it, naming the field,
    # before the run draws its first chain
    @pytest.mark.parametrize("make, message", [
        (lambda: RunConfig(**{**SMALL_RUN, "seed": 1.5}),
         "seed must be an integer, got 1.5"),
        (lambda: RunConfig(**{**SMALL_RUN, "seed": True}),
         "seed must be an integer, got True"),
        (lambda: RunConfig(**{**SMALL_RUN, "n_chains": 40.5}),
         "n_chains must be an integer, got 40.5"),
        (lambda: RunConfig(**{**SMALL_RUN, "n_iterations": 2.5}),
         "n_iterations must be an integer, got 2.5"),
        (lambda: RunConfig(**SMALL_RUN, trace_every=1.5),
         "trace_every must be an integer, got 1.5"),
        (lambda: RunConfig(**SMALL_RUN, step_size_scale="1"),
         "step_size_scale must be a real number, got '1'"),
        (lambda: RunConfig(**SMALL_RUN, functionals=["scalar(f)"],
                           scalar_functions={"f": 3}),
         "scalar_functions['f'] must be callable, got 3"),
        (lambda: RunConfig(**SMALL_RUN, scalar_functions=[("f", np.sum)]),
         "scalar_functions must be a dict, got [('f'"),
        (lambda: RunConfig(**SMALL_RUN, functionals=["scalar(g)"],
                           scalar_functions={1: np.sum}),
         "scalar_functions keys must be strings, got 1"),
        (lambda: RunConfig(**SMALL_RUN, sizing={"alpha": 0.1}),
         "sizing must be a SizingPolicy, got {'alpha': 0.1}"),
        (lambda: correlated_gaussian_target(2.5), "dimension must be an integer, got 2.5"),
        (lambda: correlated_gaussian_target(-1), "dimension must be >= 1, got -1"),
        (lambda: synthetic_logistic_regression_target(10, -2),
         "dimension must be >= 1, got -2"),
        (lambda: synthetic_logistic_regression_target(10, 2, data_seed=-1),
         "data_seed must be >= 0, got -1"),
        (lambda: SizingPolicy(delta_mean=-1), "delta_mean must be positive, got -1.0"),
        (lambda: RandomStream(1.5, 1), "seed must be an integer, got 1.5"),
        (lambda: mean_field_gaussian_approximation([], []),
         "means and sds must be equal-length non-empty vectors")],
        ids=["seed-float", "seed-bool", "n_chains", "n_iterations", "trace_every",
             "step_size_scale", "scalar_functions", "scalar_functions-list",
             "scalar_functions-key", "sizing",
             "gaussian-dimension-float", "gaussian-dimension-negative",
             "logistic-dimension", "data_seed", "delta_mean", "stream-seed",
             "empty-mean-field"])
    def test_refused_naming_the_field(self, monkeypatch, make, message):
        def unreachable(*args):
            raise AssertionError("the run drew a chain")

        monkeypatch.setattr(runner, "chain_streams", unreachable)
        target, approx = small_setup()
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            made = make()
            if isinstance(made, RunConfig):
                run_diagnostic(made, target, approx)
        assert target.gradient_evaluations == 0

    def test_numpy_integers_report_as_plain_ones(self):
        target, approx = small_setup()
        plain = run_diagnostic(RunConfig(**SMALL_RUN), target, approx)
        numpy = run_diagnostic(RunConfig(**{**SMALL_RUN, "seed": np.int64(1),
                                            "n_chains": np.int64(40)}), target, approx)
        assert report_bytes(numpy) == report_bytes(plain)


class TestScalarFunctionShapes:
    # A custom scalar functional must map the (N, d) ensemble to (N,) real
    # values; a bad one is refused on the initial ensemble, before any step.
    @pytest.mark.parametrize("fn, message", [
        (lambda x: x[:, :2], r"must have shape \(40,\), got shape \(40, 2\)"),
        (lambda x: 1.0, r"must have shape \(40,\), got shape \(\)"),
        (lambda x: np.sum(x, axis=1).astype(complex),
         r"must hold integers or floats, got dtype complex128"),
    ], ids=["columns", "float", "complex"])
    def test_bad_output_is_rejected_before_any_step(self, monkeypatch, fn, message):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped before checking the scalar functional")

        monkeypatch.setattr(runner, "step_batch", no_step)
        target, approx = small_setup(3)
        cfg = RunConfig(kernel="rwmh", seed=0, n_chains=40, n_iterations=3,
                        functionals=["mean(0)", "scalar(f)"], scalar_functions={"f": fn})
        with pytest.raises(ValueError, match=r"^scalar function 'f' " + message + "$"):
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

    # every gradient kernel checks the gradient on the initial batch, so a
    # bad shape is refused before the first step
    @pytest.mark.parametrize("kind", ["mala", "barker", "hmc"])
    def test_wrong_gradient_shape_is_rejected(self, kind, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped before checking the gradient")

        monkeypatch.setattr(runner, "step_batch", no_step)
        grad = correlated_gaussian_target(3).grad_log_density
        with pytest.raises(ValueError, match=r"grad_log_density .*shape \(40, 3\).*got shape \(40,\)"):
            self.run(kind, grad_log_density=lambda x: grad(x).sum(axis=1))

    def test_well_shaped_integer_log_density_runs(self):
        report = self.run("rwmh", log_density=lambda x: np.zeros(x.shape[0], dtype=int))
        assert report.n_chains == 40


class TestEveryTargetOutputIsChecked:
    # 40 chains on a d=2 Gaussian whose callable turns out of shape after x0;
    # checked only at x0, it ended mid-run in a NumPy broadcast or matmul error
    def run(self, kind, log_density=None, grad_log_density=None):
        target, approx = small_setup()
        bent = TargetModel(2, log_density or target.log_density,
                           grad_log_density or target.grad_log_density)
        return run_diagnostic(RunConfig(kernel=kind, seed=0, n_chains=40, n_iterations=3),
                              bent, approx)

    @staticmethod
    def after_x0(fn, bend):
        calls = []

        def bent(x):
            calls.append(len(x))
            return fn(x) if len(calls) == 1 else bend(fn(x))

        return bent

    @pytest.mark.parametrize("kind", ["rwmh", "barker"])
    def test_log_density_column_after_x0_is_refused(self, kind):
        gauss = correlated_gaussian_target(2, correlation=0.3).log_density
        with pytest.raises(ValueError, match=re.escape(
                "target log_density must have shape (40,), got shape (40, 1)")):
            self.run(kind, log_density=self.after_x0(gauss, lambda v: v[:, None]))

    @pytest.mark.parametrize("kind", ["mala", "barker", "hmc"])
    def test_gradient_sum_after_x0_is_refused(self, kind):
        grad = correlated_gaussian_target(2, correlation=0.3).grad_log_density
        with pytest.raises(ValueError, match=re.escape(
                "target grad_log_density must have shape (40, 2), got shape (40,)")):
            self.run(kind, grad_log_density=self.after_x0(grad, lambda g: g.sum(axis=1)))


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

    @pytest.mark.parametrize("kind", ["rwmh", "mala"])
    @pytest.mark.parametrize("target, means", [
        (lambda: neal_funnel_target(3), [-800.0, 0.0, 0.0]),  # e^-x1 overflows
        (lambda: synthetic_logistic_regression_target(50, 3),
         [1e300, 0.0, 0.0]),  # beta * beta overflows
    ], ids=["funnel", "logistic"])
    def test_far_start_is_refused_without_a_numpy_warning(self, kind, target, means):
        approx = mean_field_gaussian_approximation(means, [1.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="^40 of 40 chains started at "
                                                   "non-finite log density"):
                run_diagnostic(RunConfig(kind, seed=0, n_chains=40, n_iterations=3),
                               target(), approx)

    @pytest.mark.parametrize("kind", ["mala", "barker", "hmc"])
    def test_a_few_far_starts_run_without_a_numpy_warning(self, kind):
        # below x1 = -709.78 the funnel's log density and gradient overflow;
        # about one start in six lands there, too few to stop the run
        approx = mean_field_gaussian_approximation([-705.0, 0.0, 0.0], [5.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_diagnostic(RunConfig(kind, seed=0, n_chains=40, n_iterations=3),
                                    neal_funnel_target(3), approx)
        assert "chains started at non-finite log density" in report.caveats

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

    def test_non_finite_approximation_quantile_is_refused(self):
        # a NaN initial side would report NaN endpoints and detected=False
        target, approx = small_setup(2)
        approx.quantile_fn = lambda coordinate, p: math.nan
        with pytest.raises(ValueError, match=re.escape(
                "quantile(0,0.5) of approximation 'mean_field' must be finite, got nan")):
            run_diagnostic(RunConfig(kernel="mala", seed=0, n_chains=40, n_iterations=2,
                                     functionals=["mean(0)", "quantile(0,0.5)"]),
                           target, approx)
        assert target.gradient_evaluations == 40  # the starts' gradients only

    @pytest.mark.parametrize("kind", ["mala", "barker", "hmc"])
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

    def test_ensemble_whose_mean_overflows_is_refused(self, monkeypatch):
        # 30 finite draws near 1e308 sum past the float range: no interval
        # or reliability check could be taken, so the start names the coordinate
        def no_step(*args, **kwargs):
            raise AssertionError("stepped from an ensemble whose mean overflows")

        monkeypatch.setattr(runner, "step_batch", no_step)
        target = correlated_gaussian_target(3, mean=[0.0, 1e308, 1e308])
        approx = kl_optimal_mean_field(target)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the initial ensemble's mean overflows "
                                                 r"at coordinate 1: its 30 draws reach 1e\+308"):
                run_diagnostic(RunConfig(kernel="rwmh", seed=0, n_chains=30, n_iterations=3),
                               target, approx)
        assert target.gradient_evaluations == 0

    @pytest.mark.parametrize("kind", ["mala", "barker", "hmc"])
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
        # every run fails the check at reliability_check's one cutoff
        assert report.reliability.cutoff == 0.1
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

        monkeypatch.setattr(runner, "chain_streams", unreachable)
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
                        sizing=SizingPolicy(delta_mean=1.0, delta_var=2.0))
        report = run_diagnostic(cfg, target, approx)
        # loose tolerances size a tiny ensemble: N from the interval scans,
        # T = floor(50 * 2^(1/3)).
        assert report.n_chains == 7
        assert report.n_iterations == 62

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
