"""Command line entry points: run, trace, sizing.

Configs are flat JSON documents validated against a closed schema (unknown
keys are errors), so a typo fails fast instead of silently running a
different experiment.  Exit codes: 0 on success, 1 on any error, 2 when the
run completed and wrote its outputs but the reliability check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .adaptation import (KERNEL_KINDS, SizingPolicy, chain_count,
                         initial_step_size, iteration_count,
                         mean_error_chain_count, target_acceptance,
                         variance_error_chain_count)
from .approximations import (Approximation, empirical_approximation,
                             kl_optimal_mean_field,
                             mean_field_gaussian_approximation)
from .runner import DiagnosticReport, RunConfig, run_diagnostic
from .targets import (TargetModel, correlated_gaussian_target,
                      neal_funnel_target, synthetic_logistic_regression_target)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNRELIABLE = 2


class ConfigError(ValueError):
    """A configuration problem the user can fix."""


def _check_keys(obj: dict, allowed: set, required: set, context: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {sorted(unknown)}; "
                          f"allowed keys: {sorted(allowed)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing required key(s) in {context}: {sorted(missing)}")


def _number(obj, key, context, default=None, positive=False):
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing {context}.{key}")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{context}.{key} must be a number, got {v!r}")
    if positive and v <= 0:
        raise ConfigError(f"{context}.{key} must be positive, got {v}")
    return float(v)


def _integer(obj, key, context, default=None, minimum=None):
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing {context}.{key}")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{context}.{key} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{context}.{key} must be >= {minimum}, got {v}")
    return v


def _vector(obj, key, context, dimension, default=None):
    if key not in obj:
        if default is None:
            raise ConfigError(f"missing {context}.{key}")
        return np.full(dimension, float(default))
    v = obj[key]
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return np.full(dimension, float(v))
    if isinstance(v, list) and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                                   for x in v):
        if len(v) != dimension:
            raise ConfigError(f"{context}.{key} must have length {dimension}, got {len(v)}")
        return np.asarray(v, dtype=float)
    raise ConfigError(f"{context}.{key} must be a number or a list of numbers")


def load_config(path) -> dict:
    """Parses a JSON config, reporting syntax errors with line context."""
    text = Path(path).read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return cfg


def build_target(cfg: dict) -> TargetModel:
    _check_keys(cfg, {"kind", "dimension", "correlation", "variances", "mean",
                      "observations", "prior_sd", "data_seed"},
                {"kind"}, "target")
    kind = cfg["kind"]
    if kind == "gaussian_correlated":
        _check_keys(cfg, {"kind", "dimension", "correlation", "variances", "mean"},
                    {"kind", "dimension"}, "target")
        d = _integer(cfg, "dimension", "target", minimum=1)
        return correlated_gaussian_target(
            d,
            mean=_vector(cfg, "mean", "target", d, default=0.0),
            variances=_vector(cfg, "variances", "target", d, default=1.0),
            correlation=_number(cfg, "correlation", "target", default=0.0))
    if kind == "funnel":
        _check_keys(cfg, {"kind", "dimension"}, {"kind", "dimension"}, "target")
        return neal_funnel_target(_integer(cfg, "dimension", "target", minimum=2))
    if kind == "logistic_synthetic":
        _check_keys(cfg, {"kind", "dimension", "observations", "prior_sd", "data_seed"},
                    {"kind", "dimension", "observations"}, "target")
        return synthetic_logistic_regression_target(
            n_observations=_integer(cfg, "observations", "target", minimum=1),
            dimension=_integer(cfg, "dimension", "target", minimum=1),
            prior_sd=_number(cfg, "prior_sd", "target", default=1.0, positive=True),
            data_seed=_integer(cfg, "data_seed", "target", default=0, minimum=0))
    raise ConfigError(f"unknown target.kind {kind!r}; expected gaussian_correlated, "
                      "funnel or logistic_synthetic")


def build_approximation(cfg: dict, target: TargetModel) -> Approximation:
    _check_keys(cfg, {"kind", "means", "sds", "samples_path"}, {"kind"}, "approximation")
    kind = cfg["kind"]
    d = target.dimension
    if kind == "mean_field_gaussian":
        _check_keys(cfg, {"kind", "means", "sds"}, {"kind"}, "approximation")
        return mean_field_gaussian_approximation(
            _vector(cfg, "means", "approximation", d, default=0.0),
            _vector(cfg, "sds", "approximation", d, default=1.0))
    if kind == "kl_optimal_mean_field":
        _check_keys(cfg, {"kind"}, {"kind"}, "approximation")
        try:
            return kl_optimal_mean_field(target)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "empirical":
        _check_keys(cfg, {"kind", "samples_path"}, {"kind", "samples_path"}, "approximation")
        path = Path(cfg["samples_path"])
        if not path.exists():
            raise ConfigError(f"approximation.samples_path does not exist: {path}")
        samples = np.load(path) if path.suffix == ".npy" else np.loadtxt(path, delimiter=",")
        try:
            return empirical_approximation(samples)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown approximation.kind {kind!r}; expected "
                      "mean_field_gaussian, kl_optimal_mean_field or empirical")


_TOP_KEYS = {"target", "approximation", "kernel", "seed", "alpha", "delta_mean",
             "delta_var", "iteration_coefficient", "leapfrog_steps", "functionals",
             "trace_every", "reliability_cutoff", "overrides"}
_OVERRIDE_KEYS = {"chains", "iterations", "step_size_scale"}


def build_run(cfg: dict, seed_override=None, force_trace=False):
    """Validates the whole config and builds (run_config, target, approximation)."""
    _check_keys(cfg, _TOP_KEYS, {"target", "approximation", "kernel", "seed"}, "config")
    if cfg["kernel"] not in KERNEL_KINDS:
        raise ConfigError(f"config.kernel must be one of {list(KERNEL_KINDS)}, "
                          f"got {cfg['kernel']!r}")
    target = build_target(cfg["target"])
    approximation = build_approximation(cfg["approximation"], target)

    # an absent key takes its SizingPolicy or RunConfig field default, its one home
    policy = SizingPolicy(
        delta_mean=_number(cfg, "delta_mean", "config",
                           default=SizingPolicy.delta_mean, positive=True),
        delta_var=_number(cfg, "delta_var", "config",
                          default=SizingPolicy.delta_var, positive=True),
        alpha=_number(cfg, "alpha", "config", default=SizingPolicy.alpha),
        iteration_coefficient=_number(cfg, "iteration_coefficient", "config",
                                      default=SizingPolicy.iteration_coefficient,
                                      positive=True),
        leapfrog_steps=_integer(cfg, "leapfrog_steps", "config",
                                default=SizingPolicy.leapfrog_steps, minimum=1))

    overrides = cfg.get("overrides", {})
    _check_keys(overrides, _OVERRIDE_KEYS, set(), "config.overrides")
    n_chains = _integer(overrides, "chains", "config.overrides", default=0, minimum=2) or None
    n_iters = _integer(overrides, "iterations", "config.overrides", default=0, minimum=1) or None
    step_scale = _number(overrides, "step_size_scale", "config.overrides",
                         default=RunConfig.step_size_scale, positive=True)

    # the runner parses the list and expands its wildcards, as for RunConfig
    functionals = cfg.get("functionals")
    if "functionals" in cfg and not (isinstance(functionals, list)
                                     and all(isinstance(s, str) for s in functionals)):
        raise ConfigError("functionals must be a list of strings")

    trace_every = _integer(cfg, "trace_every", "config",
                           default=RunConfig.trace_every, minimum=0)
    if force_trace and trace_every < 1:
        trace_every = 1

    seed = _integer(cfg, "seed", "config", minimum=0)
    if seed_override is not None:
        seed = seed_override

    run_config = RunConfig(
        kernel=cfg["kernel"],
        seed=seed,
        sizing=policy,
        functionals=functionals,
        n_chains=n_chains,
        n_iterations=n_iters,
        step_size_scale=step_scale,
        trace_every=trace_every,
        reliability_cutoff=_number(cfg, "reliability_cutoff", "config",
                                   default=RunConfig.reliability_cutoff))
    return run_config, target, approximation


def _fmt(v) -> str:
    """Locale-independent CSV cell."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return repr(v)
    return str(v)


def write_outputs(report: DiagnosticReport, out_dir, traces: bool) -> dict:
    """Writes report.json plus the CSV views; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    report_path = out / "report.json"
    report_path.write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True,
                                      allow_nan=False) + "\n")
    paths["report"] = report_path

    bounds_path = out / "bounds.csv"
    lines = ["functional_tag,bound,lower,upper,detected"]
    for f in report.functionals:
        ci = f.result.interval
        lines.append(",".join([f.result.functional_tag, _fmt(f.result.bound),
                               _fmt(ci.lower), _fmt(ci.upper), _fmt(f.result.detected)]))
    bounds_path.write_text("\n".join(lines) + "\n")
    paths["bounds"] = bounds_path

    rel_path = out / "reliability.csv"
    lines = ["coordinate,rho2"]
    for i, v in enumerate(report.reliability.rho2_per_coordinate):
        lines.append(f"{i},{_fmt(float(v))}")
    rel_path.write_text("\n".join(lines) + "\n")
    paths["reliability"] = rel_path

    if traces and report.traces is not None:
        trace_path = out / "traces.csv"
        lines = ["t,functional_tag,bound,rho2_max"]
        for row in report.traces:
            t, rho2_max = str(row.iteration), _fmt(row.rho2_max)
            for tag in sorted(row.bounds):
                lines.append(",".join([t, tag, _fmt(row.bounds[tag]), rho2_max]))
        trace_path.write_text("\n".join(lines) + "\n")
        paths["traces"] = trace_path
    return paths


def cmd_run(args, force_trace=False) -> int:
    cfg = load_config(args.config)
    run_config, target, approximation = build_run(
        cfg, seed_override=args.seed, force_trace=force_trace)
    report = run_diagnostic(run_config, target, approximation)
    paths = write_outputs(report, args.out, traces=force_trace)
    detected = sum(1 for f in report.functionals if f.result.detected)
    print(f"kernel={report.kernel} chains={report.n_chains} "
          f"iterations={report.n_iterations} seed={report.seed}")
    print(f"detected errors in {detected} of {len(report.functionals)} functionals; "
          f"reliability {'PASSED' if report.reliability.passed else 'FAILED'} "
          f"(rho2_max={report.reliability.rho2_max:.4f}, "
          f"cutoff={report.reliability.cutoff})")
    print(f"wall time {report.wall_time:.2f}s; wrote {', '.join(str(p) for p in paths.values())}")
    if not report.reliability.passed:
        print("warning: chains still remember their initialization; "
              "a clean verdict here is not trustworthy", file=sys.stderr)
        return EXIT_UNRELIABLE
    return EXIT_OK


def cmd_trace(args) -> int:
    return cmd_run(args, force_trace=True)


def cmd_sizing(args) -> int:
    policy = SizingPolicy(delta_mean=args.delta_mean, delta_var=args.delta_var,
                          alpha=args.alpha, iteration_coefficient=args.c,
                          leapfrog_steps=args.leapfrog_steps)
    n_mean = mean_error_chain_count(policy.delta_mean, policy.alpha)
    n_var = variance_error_chain_count(policy.delta_var, policy.alpha)
    n = chain_count(policy)
    t = iteration_count(args.kernel, args.dimension, policy)
    h0 = initial_step_size(args.kernel, args.dimension)
    print(f"kernel              {args.kernel}")
    print(f"dimension           {args.dimension}")
    print(f"chains (mean rule)  {n_mean}")
    print(f"chains (var rule)   {n_var}")
    print(f"chains N            {n}")
    print(f"iterations T        {t}")
    print(f"initial step size   {h0:.6g}")
    print(f"target acceptance   {target_acceptance(args.kernel)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortchain",
        description="Audit a posterior approximation with short adapted MCMC chains")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")

    p_run = sub.add_parser("run", help="run the audit and write report.json plus CSVs")
    add_io(p_run)
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser("trace", help="run with per-checkpoint traces.csv")
    add_io(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_sizing = sub.add_parser("sizing", help="print the sized N, T and step size")
    p_sizing.add_argument("--kernel", required=True, choices=list(KERNEL_KINDS))
    p_sizing.add_argument("--dimension", required=True, type=int)
    p_sizing.add_argument("--alpha", type=float, default=SizingPolicy.alpha)
    p_sizing.add_argument("--delta-mean", dest="delta_mean", type=float,
                          default=SizingPolicy.delta_mean)
    p_sizing.add_argument("--delta-var", dest="delta_var", type=float,
                          default=SizingPolicy.delta_var)
    p_sizing.add_argument("--c", dest="c", type=float,
                          default=SizingPolicy.iteration_coefficient)
    p_sizing.add_argument("--leapfrog-steps", dest="leapfrog_steps", type=int,
                          default=SizingPolicy.leapfrog_steps)
    p_sizing.set_defaults(func=cmd_sizing)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
