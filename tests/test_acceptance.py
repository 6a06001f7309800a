"""Acceptance checks for the audit pipeline, one test per criterion.

Each test exercises the shipped configuration end to end (mostly through
the CLI) and records a PASS/FAIL line that pytest prints in its summary.
Tolerances and runtime limits are asserted, not just reported.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from shortchain import (
    RandomStream,
    RunConfig,
    correlated_gaussian_target,
    mean_field_gaussian_approximation,
    run_diagnostic,
)
from shortchain.cli import EXIT_OK, EXIT_UNRELIABLE, load_config, main
from shortchain.diagnostics import (
    log_variance_ratio_ci,
    mean_difference_ci,
    quantile_difference_ci,
)
from shortchain.kernels import Preconditioner, step_batch

from oracles import mean_error_chain_count_oracle, variance_error_chain_count_oracle

PRESETS = Path(__file__).resolve().parent.parent / "presets"

TARGET_RATES = {"rwmh": 0.234, "mala": 0.574, "barker": 0.4, "hmc": 0.651}


def run_cli(config_path, out_dir, command="run", extra_args=()):
    rc = main([command, "--config", str(config_path), "--out", str(out_dir),
               *extra_args])
    report = json.loads((Path(out_dir) / "report.json").read_text())
    return rc, report


def derive_config(preset_name, out_path, updates=None, override_updates=None):
    cfg = load_config(PRESETS / preset_name)
    if updates:
        cfg.update(updates)
    if override_updates:
        cfg.setdefault("overrides", {}).update(override_updates)
    out_path.write_text(json.dumps(cfg, indent=2))
    return out_path


def equicorrelated_mean_field_variance(d, rho):
    """Per-coordinate variance of the divergence-optimal diagonal fit, for a
    unit-variance equicorrelated Gaussian."""
    return (1.0 - rho) * (1.0 + (d - 1) * rho) / (1.0 + (d - 2) * rho)


class TestCriterion1Sizing:
    def test_chain_count_reproduction(self, acceptance, capsys):
        start = time.perf_counter()
        rc = main(["sizing", "--kernel", "barker", "--dimension", "30"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        n = int([line for line in out.splitlines()
                 if line.startswith("chains N")][0].split()[-1])
        oracle_n = max(mean_error_chain_count_oracle(0.1, 0.05),
                       variance_error_chain_count_oracle(0.15, 0.05))
        passed = (rc == EXIT_OK and abs(n - 386) <= 2 and n == oracle_n
                  and elapsed < 1.0)
        acceptance(1, passed,
                   f"sized N={n} (386 +/- 2 allowed, independent scan {oracle_n}), "
                   f"{elapsed:.2f}s")
        assert rc == EXIT_OK
        assert abs(n - 386) <= 2
        assert n == oracle_n
        assert elapsed < 1.0


class TestCriterion2CorrelatedGaussian:
    def test_variance_errors_found_means_clean(self, acceptance, tmp_path):
        start = time.perf_counter()
        rho = 0.7
        worst = {"det": 1.0, "mean_ok": 1.0, "rho2": 0.0, "frac": math.inf}
        details = []
        for preset, d in (("gaussian_correlated_d30.json", 30),
                          ("gaussian_correlated_d10.json", 10)):
            out = tmp_path / f"d{d}"
            rc, rep = run_cli(PRESETS / preset, out)
            assert rc == EXIT_OK
            true_err = -math.log10(equicorrelated_mean_field_variance(d, rho))
            var_frs = [f for f in rep["functionals"] if f["kind"] == "variance"]
            mean_frs = [f for f in rep["functionals"] if f["kind"] == "mean"]
            det = sum(f["bound"] > 0 for f in var_frs) / len(var_frs)
            mean_ok = sum(f["bound_relative"] <= 0.15 for f in mean_frs) / len(mean_frs)
            frac = (sum(f["bound_2log10"] for f in var_frs) / len(var_frs)) / true_err
            rho2 = rep["reliability"]["rho2_max"]
            worst["det"] = min(worst["det"], det)
            worst["mean_ok"] = min(worst["mean_ok"], mean_ok)
            worst["rho2"] = max(worst["rho2"], rho2)
            worst["frac"] = min(worst["frac"], frac)
            details.append(f"d={d}: var detected {det:.0%}, mean ok {mean_ok:.0%}, "
                           f"rho2_max {rho2:.3f}, B_var/true {frac:.2f}")
        elapsed = time.perf_counter() - start
        passed = (worst["det"] >= 0.9 and worst["mean_ok"] >= 0.9
                  and worst["rho2"] < 0.1 and worst["frac"] >= 0.40
                  and elapsed < 120.0)
        acceptance(2, passed, "; ".join(details) + f"; {elapsed:.1f}s")
        assert worst["det"] >= 0.9
        assert worst["mean_ok"] >= 0.9
        assert worst["rho2"] < 0.1
        assert worst["frac"] >= 0.40
        assert elapsed < 120.0


class TestCriterion3Funnel:
    def test_funnel_variance_understatement_found(self, acceptance, tmp_path):
        start = time.perf_counter()
        rc, rep = run_cli(PRESETS / "funnel_d20.json", tmp_path / "out")
        elapsed = time.perf_counter() - start
        assert rc == EXIT_OK
        # coordinates 1..19 have true variance e^(1/2) against the unit
        # approximation; coordinate 0 is exactly standard normal
        var_frs = [f for f in rep["functionals"]
                   if f["kind"] == "variance" and f["coordinate"] >= 1]
        det = sum(f["bound"] > 0 for f in var_frs) / len(var_frs)
        rho2 = rep["reliability"]["rho2_max"]
        passed = det >= 0.8 and rho2 < 0.1 and elapsed < 120.0
        acceptance(3, passed,
                   f"detected {det:.0%} of 19 wide coordinates, "
                   f"rho2_max {rho2:.3f}, {elapsed:.1f}s")
        assert det >= 0.8
        assert rho2 < 0.1
        assert elapsed < 120.0


class TestCriterion4NullCalibration:
    def test_false_detection_rate_at_most_alpha(self, acceptance):
        start = time.perf_counter()
        target = correlated_gaussian_target(5)
        approx = mean_field_gaussian_approximation(np.zeros(5), np.ones(5))
        reps, base_seed = 500, 1000
        counts = {}
        for r in range(reps):
            rep = run_diagnostic(
                RunConfig(kernel="barker", seed=base_seed + r,
                          n_chains=386, n_iterations=85),
                target, approx)
            for fr in rep.functionals:
                counts[fr.tag] = counts.get(fr.tag, 0) + int(fr.result.detected)
        elapsed = time.perf_counter() - start
        rates = {tag: c / reps for tag, c in counts.items()}
        worst_tag = max(rates, key=rates.get)
        passed = (len(rates) == 10 and max(rates.values()) <= 0.07
                  and elapsed < 600.0)
        acceptance(4, passed,
                   f"max false-detection rate {rates[worst_tag]:.3f} "
                   f"({worst_tag}) over {reps} reps, limit 0.07, {elapsed:.0f}s")
        assert len(rates) == 10
        assert max(rates.values()) <= 0.07, rates
        assert elapsed < 600.0


class TestCriterion5Coverage:
    def test_interval_coverage_near_nominal(self, acceptance):
        start = time.perf_counter()
        stream = RandomStream(501, 0)
        n, reps = 387, 2000
        mu, sigma, mu0, sd0 = 1.0, 1.5, 0.4, 1.1
        true_mean_diff = mu - mu0
        true_log_ratio = math.log(sigma**2 / sd0**2)
        hits = {"mean": 0, "log_variance": 0, "median": 0}
        for _ in range(reps):
            x = mu + sigma * stream.standard_normal(n)
            ci = mean_difference_ci(x, mu0, 0.05)
            hits["mean"] += int(ci.lower <= true_mean_diff <= ci.upper)
            ci = log_variance_ratio_ci(x, sd0, 0.05)
            hits["log_variance"] += int(ci.lower <= true_log_ratio <= ci.upper)
            # the normal median equals its mean, so the known truth is the same
            ci = quantile_difference_ci(x, 0.5, mu0, 0.05)
            hits["median"] += int(ci.lower <= true_mean_diff <= ci.upper)
        elapsed = time.perf_counter() - start
        coverage = {k: v / reps for k, v in hits.items()}
        passed = (all(0.93 <= c <= 0.97 for c in coverage.values())
                  and elapsed < 300.0)
        acceptance(5, passed,
                   "coverage " + ", ".join(f"{k} {v:.3f}" for k, v in coverage.items())
                   + f" over {reps} reps (0.95 +/- 0.02), {elapsed:.0f}s")
        for kind, c in coverage.items():
            assert 0.93 <= c <= 0.97, (kind, c)
        assert elapsed < 300.0


class TestCriterion6KernelInvariance:
    def test_stationary_moments_preserved(self, acceptance):
        target = correlated_gaussian_target(2, variances=[2.0, 1.0], correlation=0.5)
        pre = Preconditioner(target.covariance)
        chol = np.linalg.cholesky(target.covariance)
        true_var = np.diag(target.covariance)
        step_sizes = {"rwmh": 1.0, "mala": 0.8, "barker": 0.8, "hmc": 0.4}
        n_chains, n_steps = 2000, 5
        worst = 0.0
        details = []
        for kind, h in step_sizes.items():
            stream = RandomStream(601, 0)
            x = stream.standard_normal((n_chains, 2)) @ chol.T
            logpi = target.log_density(x)
            grad = None
            for _ in range(n_steps):
                eps = stream.standard_normal((n_chains, 2))
                sign_u = stream.random((n_chains, 2)) if kind == "barker" else None
                accept_u = stream.random(n_chains)
                uniforms = (accept_u[:, None] if sign_u is None
                            else np.column_stack([sign_u, accept_u]))
                x, logpi, grad, _ = step_batch(kind, x, logpi, grad, eps, uniforms,
                                               h, pre, target, n_leapfrog=3)
            z_mean = np.abs(x.mean(axis=0)) / np.sqrt(true_var / n_chains)
            z_var = (np.abs(x.var(axis=0, ddof=1) - true_var)
                     / (true_var * math.sqrt(2.0 / (n_chains - 1))))
            kind_worst = max(z_mean.max(), z_var.max())
            worst = max(worst, kind_worst)
            details.append(f"{kind} {kind_worst:.2f}")
        passed = worst < 3.0
        acceptance(6, passed,
                   f"worst moment deviation {worst:.2f} standard errors "
                   f"(limit 3); per kernel: " + ", ".join(details))
        assert worst < 3.0


class TestCriterion7AdaptationTargeting:
    def test_acceptance_rates_reach_each_target(self, acceptance):
        target = correlated_gaussian_target(1)
        approx = mean_field_gaussian_approximation([0.0], [1.0])
        devs = {}
        for kind, a_star in TARGET_RATES.items():
            rep = run_diagnostic(
                RunConfig(kernel=kind, seed=700, n_chains=100, n_iterations=200),
                target, approx)
            trail = rep.acceptance_history[-40:]
            devs[kind] = abs(sum(trail) / len(trail) - a_star)
        worst = max(devs.values())
        passed = worst <= 0.1
        acceptance(7, passed,
                   "trailing acceptance deviation " +
                   ", ".join(f"{k} {v:.3f}" for k, v in devs.items()) +
                   " (limit 0.1)")
        assert worst <= 0.1, devs


class TestCriterion8ReliabilityPower:
    def test_frozen_chains_always_flagged(self, acceptance, tmp_path):
        cfg_path = tmp_path / "frozen.json"
        cfg_path.write_text(json.dumps({
            "target": {"kind": "gaussian_correlated", "dimension": 2,
                       "correlation": 0.3},
            "approximation": {"kind": "mean_field_gaussian"},
            "kernel": "barker",
            "seed": 0,
            "overrides": {"chains": 50, "iterations": 10,
                          "step_size_scale": 1e-8},
        }))
        runs, flagged = 50, 0
        min_rho2 = math.inf
        for r in range(runs):
            out = tmp_path / f"run{r}"
            rc, rep = run_cli(cfg_path, out, extra_args=("--seed", str(r)))
            rho2 = rep["reliability"]["rho2_max"]
            min_rho2 = min(min_rho2, rho2)
            flagged += int(rc == EXIT_UNRELIABLE and rho2 > 0.1)
        passed = flagged == runs
        acceptance(8, passed,
                   f"{flagged}/{runs} frozen runs exited 2 with rho2_max > 0.1 "
                   f"(min rho2_max {min_rho2:.3f})")
        assert flagged == runs


class TestCriterion9IterationBudgetPlateau:
    def test_variance_bound_stable_when_run_twice_as_long(self, acceptance, tmp_path):
        # The shipped d=30 configuration, traced out to 2T; the bound for the
        # heterogeneous coordinate must move less than 20% between T and 2T.
        cfg = derive_config("gaussian_correlated_d30.json",
                            tmp_path / "doubled.json",
                            updates={"trace_every": 155,
                                     "functionals": ["variance(0)"]},
                            override_updates={"iterations": 310})
        out = tmp_path / "out"
        rc, rep = run_cli(cfg, out, command="trace")
        assert rc == EXIT_OK
        rows = [line.split(",") for line in
                (out / "traces.csv").read_text().strip().splitlines()[1:]]
        bounds = {int(r[0]): float(r[2]) for r in rows if r[1] == "log_variance(0)"}
        b_t, b_2t = bounds[155], bounds[310]
        rel_change = abs(b_t - b_2t) / b_2t
        passed = rel_change <= 0.2
        acceptance(9, passed,
                   f"B_var(T)={b_t:.4f}, B_var(2T)={b_2t:.4f}, "
                   f"relative change {rel_change:.3f} (limit 0.2)")
        assert rel_change <= 0.2


class TestCriterion10Determinism:
    def test_reports_are_byte_identical(self, acceptance, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        rc_a, _ = run_cli(PRESETS / "gaussian_correlated_d30.json", a)
        rc_b, _ = run_cli(PRESETS / "gaussian_correlated_d30.json", b)
        bytes_a = (a / "report.json").read_bytes()
        bytes_b = (b / "report.json").read_bytes()
        passed = rc_a == rc_b == EXIT_OK and bytes_a == bytes_b
        acceptance(10, passed,
                   f"two identical runs wrote {len(bytes_a)} identical bytes"
                   if bytes_a == bytes_b else "reports differ")
        assert rc_a == EXIT_OK and rc_b == EXIT_OK
        assert bytes_a == bytes_b
