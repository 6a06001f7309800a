"""Command line entry points: run, trace, sizing.

Configs are flat JSON documents whose keys are checked against a closed
schema (unknown keys are errors), so a typo fails fast instead of silently
running a different experiment.  Each value is checked, by name, by the
object that owns it.  Exit codes: 0 on success, 1 on any error, 2 when the
run completed and wrote its outputs but the reliability check failed.
"""

from __future__ import annotations

import argparse
import re
import json
import sys
from dataclasses import fields
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
from .stats import checked_dimension
from .targets import (TargetModel, _vector, correlated_gaussian_target,
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


def _unique_keys(pairs) -> dict:
    """``json``'s object hook: refuses a key repeated within one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"key {key!r} appears more than once in one object")
        obj[key] = value
    return obj


def load_config(path) -> dict:
    """Parses a JSON config; a syntax error names its line, a repeated key the key."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        cfg = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return cfg


# section -> kind -> (required keys, optional keys) besides "kind"; a
# target's keys are its factory's arguments, with "observations" for
# n_observations
_KIND_KEYS = {
    "target": {
        "gaussian_correlated": ({"dimension"}, {"correlation", "variances", "mean"}),
        "funnel": ({"dimension"}, set()),
        "logistic_synthetic": ({"dimension", "observations"}, {"prior_sd", "data_seed"}),
    },
    "approximation": {
        "mean_field_gaussian": (set(), {"means", "sds"}),
        "kl_optimal_mean_field": (set(), set()),
        "empirical": ({"samples_path"}, set()),
    },
}
# every key that some kind of the section allows
_EVERY_KEY = {section: {"kind"}.union(*(r | o for r, o in kinds.values()))
              for section, kinds in _KIND_KEYS.items()}


def _checked_kind(cfg: dict, section: str) -> str:
    """Checks ``cfg``'s keys against every kind's of ``section``, then
    against its own kind's, and returns the kind."""
    _check_keys(cfg, _EVERY_KEY[section], {"kind"}, section)
    kinds = _KIND_KEYS[section]
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        *others, last = kinds
        raise ConfigError(f"unknown {section}.kind {kind!r}; expected "
                          f"{', '.join(others)} or {last}")
    required, optional = kinds[kind]
    _check_keys(cfg, {"kind"} | required | optional, {"kind"} | required, section)
    return kind


def build_target(cfg: dict) -> TargetModel:
    kind = _checked_kind(cfg, "target")
    args = dict(cfg)
    del args["kind"]
    if kind == "gaussian_correlated":
        return correlated_gaussian_target(**args)
    if kind == "funnel":
        return neal_funnel_target(**args)
    args["n_observations"] = args.pop("observations")
    return synthetic_logistic_regression_target(**args)


def build_approximation(cfg: dict, target: TargetModel) -> Approximation:
    kind = _checked_kind(cfg, "approximation")
    # every approximation holds a (d, d) covariance, built from the target's d
    d = checked_dimension("target.dimension", target.dimension)
    if kind == "mean_field_gaussian":
        return mean_field_gaussian_approximation(_vector("means", cfg.get("means", 0.0), d),
                                                 _vector("sds", cfg.get("sds", 1.0), d))
    if kind == "kl_optimal_mean_field":
        return kl_optimal_mean_field(target)
    path = cfg["samples_path"]
    if not isinstance(path, str):
        raise ConfigError(f"approximation.samples_path must be a string, got {path!r}")
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"approximation.samples_path does not exist: {path}")
    # a file with no line outside "#" comments would make NumPy warn, or fail on a .npy
    if not any(line.split(b"#", 1)[0].strip() for line in path.read_bytes().splitlines()):
        raise ConfigError(f"approximation.samples_path holds no samples: {path}")
    try:
        samples = (np.load(path) if path.suffix == ".npy"
                   else np.loadtxt(path, delimiter=",", ndmin=2))
    except ValueError as exc:  # a pickle, a header row, ragged rows or bytes that are not UTF-8
        # NumPy's advice (allow_pickle, usecols) does not apply to a config
        reason = ("it holds pickled objects, which are never loaded" if "pickle" in str(exc)
                  else str(exc).split("; ")[0])
        raise ConfigError(f"approximation.samples_path cannot be read: {path}: {reason}") from exc
    if not isinstance(samples, np.ndarray):  # np.load opens an .npz archive whatever its name
        samples.close()
        raise ConfigError(f"approximation.samples_path holds an .npz archive, not one array: "
                          f"{path}")
    return empirical_approximation(samples)


_SIZING_KEYS = tuple(f.name for f in fields(SizingPolicy))  # top-level keys, by field
_TOP_KEYS = {"target", "approximation", "kernel", "seed", "functionals", "trace_every",
             "overrides", *_SIZING_KEYS}
_OVERRIDE_KEYS = {"chains", "iterations", "step_size_scale"}


def build_run(cfg: dict, seed_override=None, force_trace=False):
    """Checks the config's keys and layout and builds (run_config, target,
    approximation).

    The values go unchanged to the objects that own them, which check each
    one by name: the target and approximation factories and ``SizingPolicy``
    here, and the run its own settings (kernel, seed, functionals, overrides,
    ``trace_every``) when it starts, before any chain is drawn.  An absent
    key takes its field default.
    """
    _check_keys(cfg, _TOP_KEYS, {"target", "approximation", "kernel", "seed"}, "config")
    target = build_target(cfg["target"])
    approximation = build_approximation(cfg["approximation"], target)
    policy = SizingPolicy(**{key: cfg[key] for key in _SIZING_KEYS if key in cfg})

    overrides = cfg.get("overrides", {})
    _check_keys(overrides, _OVERRIDE_KEYS, set(), "config.overrides")

    # trace records every iteration unless the config sets a period; any
    # other value goes to the run, which checks it
    trace_every = cfg.get("trace_every", RunConfig.trace_every)
    if force_trace and trace_every == 0 and type(trace_every) is int:
        trace_every = 1

    run_config = RunConfig(
        kernel=cfg["kernel"],
        seed=cfg["seed"] if seed_override is None else seed_override,
        sizing=policy,
        functionals=cfg.get("functionals"),
        n_chains=overrides.get("chains"),
        n_iterations=overrides.get("iterations"),
        step_size_scale=overrides.get("step_size_scale", RunConfig.step_size_scale),
        trace_every=trace_every)
    return run_config, target, approximation


_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted only when it holds a comma, quote or
    newline: the bytes of ``csv.writer``'s minimal quoting, which costs about
    three times as much per row as the f-strings below."""
    return '"' + text.replace('"', '""') + '"' if _CSV_SPECIAL.search(text) else text


def write_outputs(report: DiagnosticReport, out_dir, traces: bool) -> dict:
    """Writes report.json and its CSV views, each row printed from the report's
    JSON values (so "NaN" and "Infinity" as there) with each tag a quoted field
    when it holds a comma; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = report.to_json_dict()
    files = {
        "report": ("report.json",
                   [json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)]),
        "bounds": ("bounds.csv", ["functional_tag,bound,lower,upper,detected"] + [
            f"{_csv_field(f['tag'])},{f['bound']},{f['lower']},{f['upper']},"
            f"{json.dumps(f['detected'])}" for f in doc["functionals"]]),
        "reliability": ("reliability.csv", ["coordinate,rho2"] + [
            f"{i},{v}" for i, v in enumerate(doc["reliability"]["rho2"])]),
    }
    if traces and doc["traces"] is not None:
        lines = ["t,functional_tag,bound,rho2_max"]
        for row in doc["traces"]:
            t, rho2_max = f"{row['t']},", f",{row['rho2_max']}"
            lines += [f"{t}{_csv_field(tag)},{bound}{rho2_max}"
                      for tag, bound in row["bounds"].items()]
        files["traces"] = ("traces.csv", lines)
    paths = {}
    for key, (name, lines) in files.items():
        paths[key] = out / name
        paths[key].write_text("\n".join(lines) + "\n")
    return paths


def cmd_run(args, force_trace=False) -> int:
    existing = next(p for p in (Path(args.out), *Path(args.out).parents) if p.exists())
    if not existing.is_dir():  # refused before the run, whose outputs could not be written
        raise ConfigError(f"--out must name a directory, but {existing} is a file")
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
                          alpha=args.alpha)
    n_mean = mean_error_chain_count(policy.delta_mean, policy.alpha)
    n_var = variance_error_chain_count(policy.delta_var, policy.alpha)
    n = chain_count(policy)
    t = iteration_count(args.kernel, args.dimension)
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
