"""End-to-end audit runs: initialize, adapt, step, diagnose, report.

A run draws N chains i.i.d. from the approximation, advances them T adapted
MH iterations toward the target, and turns the final ensemble into
per-functional error lower bounds plus a reliability verdict.  Results are
reproducible bit for bit from (config, target, approximation): every chain
owns its RNG stream, the whole ensemble moves in one batched step per
iteration, and cross-chain reductions use exact summation.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .adaptation import (_MAX_CHAINS, _MAX_ITERATIONS, AdaptationState,
                         SizingPolicy, chain_count, check_kind,
                         initial_step_size, iteration_count)
from .approximations import Approximation
from .diagnostics import (MONOTONE_ERROR_CAVEAT, CentredRows, ConfidenceInterval,
                          CriticalValues, IntervalColumns, LowerBoundResult,
                          ReliabilityResult, column_intervals,
                          error_lower_bound, log_variance_ratio_ci,
                          lower_bounds, mean_difference_ci,
                          quantile_difference_ci, reliability_check,
                          scalar_functional_diagnostics, scalar_tags)
from .kernels import Preconditioner, step_batch
from .rng import RandomStream
from .stats import binomial_quantile, sample_quantile
from .targets import TargetModel, checked_output

_FUNCTIONAL_RE = re.compile(
    r"^\s*(mean|variance|quantile|scalar)\s*\(\s*([^)]*?)\s*\)\s*$")

BUILTIN_SCALAR_FUNCTIONS = ("target_log_density",)


@dataclass(frozen=True)
class FunctionalSpec:
    """One audited functional: a coordinate mean/variance/quantile or a scalar map."""
    kind: str
    coordinate: Optional[int] = None
    p: Optional[float] = None
    name: Optional[str] = None

    @property
    def tag(self) -> str:
        if self.kind == "mean":
            return f"mean({self.coordinate})"
        if self.kind == "variance":
            return f"log_variance({self.coordinate})"
        if self.kind == "quantile":
            return f"quantile({self.coordinate},{self.p:g})"
        return f"scalar({self.name})"


def parse_functional(text: str) -> FunctionalSpec:
    """Parses 'mean(i)', 'variance(i)', 'quantile(i,p)' or 'scalar(name)'."""
    m = _FUNCTIONAL_RE.match(text)
    if not m:
        raise ValueError(
            f"unrecognized functional {text!r}; expected mean(i), variance(i), "
            "quantile(i,p) or scalar(name)")
    kind, args = m.group(1), m.group(2)
    if kind == "scalar":
        if not args:
            raise ValueError(f"scalar functional needs a name: {text!r}")
        return FunctionalSpec("scalar", name=args)
    if kind == "quantile":
        parts = [a.strip() for a in args.split(",")]
        if len(parts) != 2:
            raise ValueError(f"quantile functional needs (coordinate, p): {text!r}")
        return FunctionalSpec("quantile", coordinate=int(parts[0]), p=float(parts[1]))
    return FunctionalSpec(kind, coordinate=int(args))


def default_functionals(dimension: int) -> list[FunctionalSpec]:
    """Means and variances of every coordinate."""
    specs = [FunctionalSpec("mean", coordinate=i) for i in range(dimension)]
    specs += [FunctionalSpec("variance", coordinate=i) for i in range(dimension)]
    return specs


@dataclass
class RunConfig:
    """Everything a run needs besides the target and the approximation.

    Attributes:
        kernel: One of ``KERNEL_KINDS``: "rwmh", "mala", "barker", "hmc".
        seed: Ensemble seed; with the config it fully determines the report.
        sizing: Tolerances behind the automatic N and T choices; its
            ``alpha`` is also the miscoverage level of every interval.
        functionals: Strings or FunctionalSpec items; None audits every
            coordinate's mean and variance.
        n_chains / n_iterations: Overrides for the sized N and T, each at
            most 1,000,000 like the sized values.
        step_size_scale: Multiplier on the initial step size (diagnostic
            tool; near-zero values freeze the chains on purpose).
        trace_every: Record bounds and reliability every trace_every
            iterations (0 disables tracing).
        reliability_cutoff: Failure threshold for the reliability check,
            in (0, 1).
        scalar_functions: Extra name -> callable scalar functionals; the
            callable maps an (N, d) batch to (N,) real values, which the
            run checks on the initial ensemble.
    """
    kernel: str
    seed: int
    sizing: SizingPolicy = field(default_factory=SizingPolicy)
    functionals: Optional[Sequence] = None
    n_chains: Optional[int] = None
    n_iterations: Optional[int] = None
    step_size_scale: float = 1.0
    trace_every: int = 0
    reliability_cutoff: float = 0.1
    scalar_functions: Optional[dict] = None


@dataclass
class GradientBudget:
    initialization: int
    iterations: int

    @property
    def total(self) -> int:
        return self.initialization + self.iterations


@dataclass
class FunctionalResult:
    """Bound, interval and bookkeeping for one audited functional."""
    spec: FunctionalSpec
    result: LowerBoundResult
    initial_side: str
    initial_value: float
    normalized: dict = field(default_factory=dict)

    @property
    def tag(self) -> str:
        return self.result.functional_tag


@dataclass
class TraceRow:
    iteration: int
    rho2_max: float
    bounds: dict


@dataclass
class DiagnosticReport:
    """Full outcome of one audit run."""
    kernel: str
    dimension: int
    n_chains: int
    n_iterations: int
    alpha: float
    seed: int
    leapfrog_steps: int
    initial_step_size: float
    final_step_size: float
    step_size_scale: float
    target_acceptance_rate: float
    acceptance_history: list
    functionals: list
    reliability: ReliabilityResult
    gradient_budget: GradientBudget
    caveats: str
    wall_time: float
    traces: Optional[list] = None

    def to_json_dict(self) -> dict:
        """JSON-ready dict; excludes wall time so identical (config, seed)
        runs serialize to identical bytes."""
        return {
            "kernel": self.kernel,
            "dimension": self.dimension,
            "chains": self.n_chains,
            "iterations": self.n_iterations,
            "alpha": self.alpha,
            "seed": self.seed,
            "leapfrog_steps": self.leapfrog_steps,
            "step_size": {
                "initial": _jnum(self.initial_step_size),
                "final": _jnum(self.final_step_size),
                "scale": _jnum(self.step_size_scale),
            },
            "target_acceptance": self.target_acceptance_rate,
            "acceptance_history": [_jnum(a) for a in self.acceptance_history],
            "functionals": [_functional_json(f) for f in self.functionals],
            "reliability": {
                "rho2": [_jnum(v) for v in self.reliability.rho2_per_coordinate],
                "rho2_max": _jnum(self.reliability.rho2_max),
                "cutoff": self.reliability.cutoff,
                "passed": self.reliability.passed,
                "degenerate_coordinates": list(self.reliability.degenerate_coordinates),
            },
            "gradient_evaluations": {
                "initialization": self.gradient_budget.initialization,
                "iterations": self.gradient_budget.iterations,
                "total": self.gradient_budget.total,
            },
            "caveats": self.caveats,
            "traces": None if self.traces is None else [
                {"t": row.iteration, "rho2_max": _jnum(row.rho2_max),
                 "bounds": {k: _jnum(v) for k, v in sorted(row.bounds.items())}}
                for row in self.traces
            ],
        }


def _jnum(x):
    # JSON has no NaN/inf; keep them as unambiguous strings
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return x


def _functional_json(f: FunctionalResult) -> dict:
    ci = f.result.interval
    out = {
        "tag": f.result.functional_tag,
        "kind": f.spec.kind,
        "bound": _jnum(f.result.bound),
        "detected": f.result.detected,
        "lower": _jnum(ci.lower),
        "upper": _jnum(ci.upper),
        "level": ci.level,
        "degenerate": ci.degenerate,
        "initial_side": f.initial_side,
        "initial_value": _jnum(f.initial_value),
    }
    if f.spec.coordinate is not None:
        out["coordinate"] = f.spec.coordinate
    if f.spec.p is not None:
        out["p"] = f.spec.p
    if f.spec.name is not None:
        out["name"] = f.spec.name
    for key, val in sorted(f.normalized.items()):
        out[key] = _jnum(val)
    return out


def run_diagnostic(config: RunConfig, target: TargetModel,
                   approximation: Approximation) -> DiagnosticReport:
    """Runs the full audit and returns its report.

    Raises:
        ValueError: for invalid configuration (bad kernel, out-of-range
            coordinates, infeasible quantile levels for the sized N, a
            reliability cutoff outside (0, 1), ...) or a target or scalar
            functional whose outputs on the initial batch have the wrong
            shape, an approximation that samples a non-finite start, or,
            under MALA and Barker, a non-finite gradient at a start whose
            log density is finite.
        RuntimeError: when more than half the chains start at non-finite
            log density, which means the approximation and target are too
            incompatible for the audit to say anything useful.
    """
    start_time = time.perf_counter()
    kind = config.kernel
    tuning = check_kind(kind)
    if target.dimension != approximation.dimension:
        raise ValueError(f"target dimension {target.dimension} does not match "
                         f"approximation dimension {approximation.dimension}")
    if config.trace_every < 0:
        raise ValueError(f"trace_every must be >= 0, got {config.trace_every}")
    if config.step_size_scale <= 0 or not math.isfinite(config.step_size_scale):
        raise ValueError(f"step_size_scale must be positive, got {config.step_size_scale}")
    if not 0.0 < config.reliability_cutoff < 1.0:
        raise ValueError(f"reliability_cutoff must lie in (0, 1), "
                         f"got {config.reliability_cutoff}")

    d = target.dimension
    policy = config.sizing
    alpha = policy.alpha
    n_chains = config.n_chains if config.n_chains is not None else chain_count(policy)
    n_iters = (config.n_iterations if config.n_iterations is not None
               else iteration_count(kind, d, policy))
    if n_chains < 2:
        raise ValueError(f"need at least 2 chains, got {n_chains}")
    if n_iters < 1:
        raise ValueError(f"need at least 1 iteration, got {n_iters}")
    # the sized values stay within these limits; overrides are held to them too
    if n_chains > _MAX_CHAINS:
        raise ValueError(f"n_chains must be at most {_MAX_CHAINS}, got {n_chains}")
    if n_iters > _MAX_ITERATIONS:
        raise ValueError(f"n_iterations must be at most {_MAX_ITERATIONS}, got {n_iters}")

    specs = _resolve_specs(config, d)
    scalar_fns = _resolve_scalar_functions(specs, config)
    # every interval of the run shares N and alpha, so its critical values
    # are computed here once rather than at each checkpoint
    critical = CriticalValues.at(n_chains, alpha, _quantile_ranks(specs, n_chains, alpha))

    pre = Preconditioner(approximation.covariance)
    # chain j owns stream index j + 1 (see RandomStream)
    streams = [RandomStream(config.seed, j + 1) for j in range(n_chains)]

    # initialization phase: i.i.d. draws, each from its chain's own stream
    x0 = np.stack([approximation.sample(streams[j]) for j in range(n_chains)])
    grad_base = target.gradient_evaluations
    logpi = checked_output("target log_density", target.log_density(x0), (n_chains,))
    n_bad = int(np.sum(~np.isfinite(logpi)))
    if n_bad * 2 > n_chains:
        raise RuntimeError(
            f"{n_bad} of {n_chains} chains started at non-finite log density; "
            "the approximation puts most of its mass where the target has none, "
            "so the audit cannot run. Check the approximation (or its support) "
            "against the target before retrying.")
    grad_cached = None
    if tuning.carries_gradient:
        grad_cached = checked_output("target grad_log_density",
                                     target.grad_log_density(x0), (n_chains, d))
        bad_grad = np.flatnonzero(np.isfinite(logpi)
                                  & ~np.isfinite(grad_cached).all(axis=1))
        if bad_grad.size:
            raise ValueError(
                f"target grad_log_density is not finite at {bad_grad.size} of "
                f"{n_chains} starting points where the log density is finite "
                f"(first at chain {bad_grad[0]}); a gradient kernel cannot move them")
    init_grads = target.gradient_evaluations - grad_base
    # each scalar functional's initial values, computed once and reused at
    # every checkpoint: name -> (callable, (N,) values at x0); the built-in
    # target_log_density has no callable and reads the run's own logpi
    scalars = {name: (fn, logpi if fn is None else checked_output(
                   f"scalar function {name!r}", fn(x0), (n_chains,)))
               for name, fn in scalar_fns.items()}
    # the other initial-side values that depend on x0, also computed once
    initial = _initial_values(specs, approximation, x0, scalars)
    initial_rows = CentredRows.of(x0)

    h0 = initial_step_size(kind, d) * config.step_size_scale
    adapt = AdaptationState(log_step_size=math.log(h0))
    a_star = tuning.target_acceptance

    checkpoints = _checkpoint_iterations(config.trace_every, n_iters)
    trace_rows: Optional[list] = [] if checkpoints else None
    if checkpoints:
        # checkpoints before the last diagnose every functional column-wise
        columns, tags = _interval_columns(specs, approximation, initial, scalars, critical)

    def record(iteration, states, logpi_states):
        reliability = reliability_check(x0, states, cutoff=config.reliability_cutoff,
                                        initial=initial_rows)
        values = _value_rows(states, _scalar_values(scalars, states, logpi_states))
        lower, upper = column_intervals(values, columns, critical)
        bounds, _ = lower_bounds(lower, upper)
        trace_rows.append(TraceRow(iteration, reliability.rho2_max,
                                   dict(zip(tags, bounds.tolist()))))

    if 0 in checkpoints:
        record(0, x0, logpi)

    # per-iteration noise buffers, refilled in place; see _gather_noise
    eps = np.empty((n_chains, d))
    uniforms = np.empty((n_chains, d + 1))
    sign_u = uniforms[:, :d] if kind == "barker" else None
    accept_u = uniforms[:, d]
    fillers = _noise_fillers(kind, streams, eps, uniforms)
    x = x0
    for t in range(n_iters):
        _gather_noise(fillers)
        x, logpi, grad_cached, alphas = step_batch(
            kind, x, logpi, grad_cached, eps, sign_u, accept_u, adapt.step_size,
            pre, target, policy.leapfrog_steps)
        adapt.update(math.fsum(alphas.tolist()) / n_chains, a_star)
        # the last checkpoint, n_iters, reuses the final diagnostics below
        if (t + 1) in checkpoints and t + 1 < n_iters:
            record(t + 1, x, logpi)

    iter_grads = target.gradient_evaluations - grad_base - init_grads

    reliability = reliability_check(x0, x, cutoff=config.reliability_cutoff,
                                    initial=initial_rows)
    functionals = _functional_results(specs, x, _scalar_values(scalars, x, logpi),
                                      approximation, critical, scalars, initial)
    if n_iters in checkpoints:
        trace_rows.append(TraceRow(n_iters, reliability.rho2_max,
                                   {r.tag: r.result.bound for r in functionals}))

    caveats = MONOTONE_ERROR_CAVEAT
    if n_bad:
        caveats += (f" {n_bad} of {n_chains} chains started at non-finite log "
                    "density and may have contributed nothing but their "
                    "initialization values.")
    if not reliability.passed:
        caveats += (" The reliability check FAILED: the final ensemble still "
                    "remembers its initialization, so undetected errors may "
                    "simply not have surfaced yet. Increase the iteration "
                    "budget or switch kernels before trusting a clean verdict.")

    return DiagnosticReport(
        kernel=kind,
        dimension=d,
        n_chains=n_chains,
        n_iterations=n_iters,
        alpha=alpha,
        seed=config.seed,
        leapfrog_steps=policy.leapfrog_steps,
        initial_step_size=h0,
        final_step_size=adapt.step_size,
        step_size_scale=config.step_size_scale,
        target_acceptance_rate=a_star,
        acceptance_history=list(adapt.acceptance_history),
        functionals=functionals,
        reliability=reliability,
        gradient_budget=GradientBudget(init_grads, iter_grads),
        caveats=caveats,
        wall_time=time.perf_counter() - start_time,
        traces=trace_rows,
    )


def _resolve_specs(config: RunConfig, dimension: int) -> list[FunctionalSpec]:
    if config.functionals is None:
        return default_functionals(dimension)
    specs = []
    for item in config.functionals:
        spec = item if isinstance(item, FunctionalSpec) else parse_functional(str(item))
        if spec.coordinate is not None and not 0 <= spec.coordinate < dimension:
            raise ValueError(f"functional {spec.tag} is out of range for dimension {dimension}")
        specs.append(spec)
    if not specs:
        raise ValueError("functionals list is empty")
    return specs


def _resolve_scalar_functions(specs, config: RunConfig) -> dict:
    fns = {}
    for spec in specs:
        if spec.kind != "scalar":
            continue
        custom = config.scalar_functions or {}
        if spec.name in custom:
            fns[spec.name] = custom[spec.name]
        elif spec.name == "target_log_density":
            fns[spec.name] = None  # the run's logpi, never re-evaluated
        else:
            known = sorted(set(custom) | set(BUILTIN_SCALAR_FUNCTIONS))
            raise ValueError(f"unknown scalar functional {spec.name!r}; known: {known}")
    return fns


def _quantile_ranks(specs, n_chains: int, alpha: float) -> dict:
    """p -> order-statistic ranks (l, u) for every quantile level the run
    audits; raises when N is too few for one of them."""
    levels = [(spec.p, spec.tag) for spec in specs if spec.kind == "quantile"]
    if any(spec.kind == "scalar" for spec in specs):
        levels.append((0.5, "scalar median"))
    ranks = {}
    for p, tag in levels:
        lo = binomial_quantile(alpha / 2.0, n_chains, p)
        hi = binomial_quantile(1.0 - alpha / 2.0, n_chains, p) + 1
        if lo < 1 or hi > n_chains:
            raise ValueError(
                f"{n_chains} chains are too few for a level {1 - alpha:.3g} interval "
                f"on {tag}; increase chains or relax alpha")
        ranks[p] = (lo, hi)
    return ranks


def _checkpoint_iterations(trace_every: int, n_iters: int) -> set:
    if trace_every < 1:
        return set()
    ts = set(range(0, n_iters + 1, trace_every))
    ts.add(0)
    ts.add(n_iters)
    return ts


def _noise_fillers(kind: str, streams, eps: np.ndarray, uniforms: np.ndarray) -> list:
    """Each chain's (standard_normal, random, eps row, uniforms row), built
    once per run for ``_gather_noise``.

    The rows are views, so refilling them refills ``eps`` and ``uniforms``.
    For Barker chain j's uniforms row is ``uniforms[j]`` (d sign uniforms,
    then the acceptance uniform); for every other kernel it is
    ``uniforms[j, d:]``, the acceptance uniform alone.
    """
    d = eps.shape[1]
    rows = uniforms if kind == "barker" else uniforms[:, d:]
    return [(s.generator.standard_normal, s.generator.random, e, u)
            for s, e, u in zip(streams, eps, rows)]


def _gather_noise(fillers):
    """Fills one iteration's noise, each chain drawing from its own generator.

    Chain j draws ``standard_normal(d)`` into its eps row, then ``random``
    into its uniforms row (see ``_noise_fillers``).  Writing through ``out=``
    consumes each stream exactly as the allocating calls would.
    """
    for normal, uniform, e, u in fillers:
        normal(out=e)
        uniform(out=u)


def _initial_values(specs, approximation: Approximation, x0, scalars: dict) -> dict:
    """spec -> its x0-dependent initial-side values, computed once per run.

    A quantile spec maps to (side, quantile): the approximation's own
    quantile when it has a quantile function, else the initial-sample one.
    A scalar spec maps to the (mean, median) of its initial values.
    """
    initial = {}
    for spec in specs:
        if spec.kind == "quantile":
            i, p = spec.coordinate, spec.p
            initial[spec] = (("approximation", approximation.quantile(i, p))
                             if approximation.has_quantiles
                             else ("initial_samples", sample_quantile(x0[:, i], p)))
        elif spec.kind == "scalar":
            v0 = scalars[spec.name][1]
            initial[spec] = (float(v0.mean()), sample_quantile(v0, 0.5))
    return initial


def _interval_columns(specs, approximation: Approximation, initial: dict, scalars: dict,
                      critical: CriticalValues) -> tuple[IntervalColumns, list]:
    """The column-wise diagnosis of every functional, and each one's tag.

    Rows follow ``_value_rows``: coordinate i is row i, and the scalar
    functionals follow in ``scalars`` order.
    """
    d = approximation.dimension
    scalar_rows = {name: d + j for j, name in enumerate(scalars)}
    entries = []  # (tag, interval kind, row, initial-side value, quantile level)
    for spec in specs:
        i = spec.coordinate
        if spec.kind == "mean":
            entries.append((spec.tag, "mean", i, approximation.means[i], None))
        elif spec.kind == "variance":
            entries.append((spec.tag, "log_variance", i, approximation.sds[i], None))
        elif spec.kind == "quantile":
            entries.append((spec.tag, "quantile", i, initial[spec][1], spec.p))
        else:
            row = scalar_rows[spec.name]
            mean_tag, median_tag = scalar_tags(spec.name)
            mean0, median0 = initial[spec]
            entries.append((mean_tag, "mean", row, mean0, None))
            entries.append((median_tag, "quantile", row, median0, 0.5))
    tags, kinds, rows, values, levels = zip(*entries)
    return IntervalColumns.of(kinds, rows, values, levels, critical), list(tags)


def _scalar_values(scalars: dict, states, logpi_states) -> dict:
    """name -> the scalar functional's (N,) values at ``states``."""
    return {name: logpi_states if fn is None else checked_output(
                f"scalar function {name!r}", fn(states), v0.shape)
            for name, (fn, v0) in scalars.items()}


def _value_rows(states, scalar_values: dict) -> np.ndarray:
    """One C-contiguous row per coordinate, then one per scalar functional."""
    n, d = states.shape
    values = np.empty((d + len(scalar_values), n))
    values[:d] = states.T
    for row, v in enumerate(scalar_values.values(), start=d):
        values[row] = v
    return values


def _functional_results(specs, states, scalar_values: dict, approximation: Approximation,
                        critical: CriticalValues, scalars: dict,
                        initial: dict) -> list[FunctionalResult]:
    alpha = critical.alpha
    results = []
    ln10 = math.log(10.0)
    for spec in specs:
        if spec.kind == "mean":
            i = spec.coordinate
            mu0 = float(approximation.means[i])
            sd0 = float(approximation.sds[i])
            ci = mean_difference_ci(states[:, i], mu0, alpha, functional_tag=spec.tag,
                                    critical=critical)
            res = error_lower_bound(ci)
            results.append(FunctionalResult(
                spec, res, "approximation", mu0,
                normalized={"bound_relative": res.bound / sd0}))
        elif spec.kind == "variance":
            i = spec.coordinate
            sd0 = float(approximation.sds[i])
            ci = log_variance_ratio_ci(states[:, i], sd0, alpha, functional_tag=spec.tag,
                                       critical=critical)
            res = error_lower_bound(ci)
            results.append(FunctionalResult(
                spec, res, "approximation", sd0 * sd0,
                normalized={"bound_2log10": res.bound / ln10}))
        elif spec.kind == "quantile":
            i, p = spec.coordinate, spec.p
            side, q0 = initial[spec]
            ci = quantile_difference_ci(states[:, i], p, q0, alpha, functional_tag=spec.tag,
                                        critical=critical)
            res = error_lower_bound(ci)
            results.append(FunctionalResult(spec, res, side, q0))
        else:
            mean0, median0 = initial[spec]
            mean_res, median_res = scalar_functional_diagnostics(
                scalars[spec.name][1], scalar_values[spec.name], alpha, name=spec.name,
                critical=critical)
            results.append(FunctionalResult(spec, mean_res, "initial_samples", mean0))
            results.append(FunctionalResult(spec, median_res, "initial_samples", median0))
    return results
