"""End-to-end audit runs: initialize, adapt, step, diagnose, report.

A run draws N chains i.i.d. from the approximation, advances them T adapted
MH iterations toward the target, and turns the final ensemble into
per-functional error lower bounds plus a reliability verdict.  Results are
reproducible bit for bit from (config, target, approximation): every chain
owns its RNG stream, the whole ensemble moves in one batched step per
iteration, and cross-chain reductions use exact summation.

A run resolves its functionals once, right after drawing its initial
ensemble, into an audit plan; its trace checkpoints and its final ensemble
are diagnosed from that plan and the same value rows, with the same bits.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .adaptation import (_LEAPFROG_STEPS, _MAX_CHAINS, _MAX_ITERATIONS, AdaptationState,
                         SizingPolicy, chain_count, check_kind, checked_integer,
                         checked_positive, initial_step_size, iteration_count)
from .approximations import Approximation
from .diagnostics import (MONOTONE_ERROR_CAVEAT, LowerBoundResult,
                          ReliabilityResult, column_intervals, error_lower_bound,
                          log_variance_ratio_ci, lower_bounds, mean_difference_ci,
                          quantile_difference_ci, reliability_check,
                          scalar_functional_diagnostics, scalar_tags)
from .kernels import Preconditioner, _quiet, step_batch
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
    """Parses 'mean(i)', 'variance(i)', 'quantile(i,p)' or 'scalar(name)'; the
    wildcards mean(*) and variance(*) expand only in a functionals list."""
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
    parts = [a.strip() for a in args.split(",")]
    if kind == "quantile" and len(parts) != 2:
        raise ValueError(f"quantile functional needs (coordinate, p): {text!r}")
    if args == "*":
        raise ValueError(f"{text!r}: mean(*) and variance(*) expand only in a functionals list")
    try:
        if kind == "quantile":
            return FunctionalSpec("quantile", coordinate=int(parts[0]), p=float(parts[1]))
        return FunctionalSpec(kind, coordinate=int(args))
    except ValueError:
        wanted = "an integer coordinate" + (" and a number p" if kind == "quantile" else "")
        raise ValueError(f"functional {text!r} needs {wanted}, got {args!r}") from None


@dataclass
class RunConfig:
    """Everything a run needs besides the target and the approximation.

    The run checks each field when it starts, before drawing any chain, and
    a refused value raises a ``ValueError`` naming the field.  Its
    reliability check fails at ``reliability_check``'s default cutoff, 0.1.

    Attributes:
        kernel: One of ``KERNEL_KINDS``.
        seed: Non-negative integer ensemble seed; with the config it fully
            determines the report.
        sizing: Tolerances behind the automatic chain count N; its
            ``alpha`` is also the miscoverage level of every interval.
        functionals: A list or tuple of strings in ``parse_functional``'s
            grammar, each tag at most once after the wildcards mean(*) and
            variance(*) expand; None is ``["mean(*)", "variance(*)"]``.
        n_chains / n_iterations: Overrides for the sized N and T, each at
            most 1,000,000 like the sized values.
        step_size_scale: Multiplier on the initial step size (diagnostic
            tool; near-zero values freeze the chains on purpose).
        trace_every: Record bounds and reliability every trace_every
            iterations (0 disables tracing).
        scalar_functions: Extra name -> callable scalar functionals; the
            callable maps an (N, d) batch to (N,) real values, which the
            run checks on the initial ensemble.  ``scalar(name)`` cannot
            name a key that contains ")" or starts or ends with whitespace.
    """
    kernel: str
    seed: int
    sizing: SizingPolicy = field(default_factory=SizingPolicy)
    functionals: Optional[Sequence[str]] = None
    n_chains: Optional[int] = None
    n_iterations: Optional[int] = None
    step_size_scale: float = 1.0
    trace_every: int = 0
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


class _Audited(NamedTuple):
    """One reported result of a run, as its audit plan holds it."""
    spec: FunctionalSpec  # a scalar spec reports two results, mean then median
    tag: str
    interval: str  # "mean", "log_variance" or "quantile"
    row: int  # the ``_value_rows`` row it reads
    initial: float  # the initial-side mean, sd or quantile its interval takes
    p: Optional[float]  # the level of a "quantile" interval
    initial_side: str  # the initial side as the report shows it
    initial_value: float
    normalizers: tuple = ()  # (report key, divisor) of each normalized bound


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
            "leapfrog_steps": _LEAPFROG_STEPS,
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
        ValueError: for invalid configuration (bad kernel, a setting of
            the wrong type or range, out-of-range coordinates, a quantile
            level outside (0, 1) or infeasible for the sized N, a functional
            listed twice, ...) or a target or scalar
            functional whose outputs on the initial batch have the wrong
            shape, an approximation that samples a non-finite start, or,
            under MALA, Barker and HMC, a non-finite gradient at a start
            whose log density is finite.
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
    seed = checked_integer("seed", config.seed, 0)
    trace_every = checked_integer("trace_every", config.trace_every, 0)
    step_size_scale = checked_positive("step_size_scale", config.step_size_scale)

    d = target.dimension
    policy = config.sizing
    if not isinstance(policy, SizingPolicy):
        raise ValueError(f"sizing must be a SizingPolicy, got {policy!r}")
    alpha = policy.alpha
    # the sized values stay within these limits; overrides are held to them too
    n_chains = (chain_count(policy) if config.n_chains is None else
                checked_integer("n_chains", config.n_chains, 2, _MAX_CHAINS))
    n_iters = (iteration_count(kind, d) if config.n_iterations is None else
               checked_integer("n_iterations", config.n_iterations, 1, _MAX_ITERATIONS))

    specs = _resolve_specs(config, d)
    scalar_fns = _resolve_scalar_functions(specs, config)
    _check_quantile_ranks(specs, n_chains, alpha)

    pre = Preconditioner(approximation.covariance)
    # chain j owns stream index j + 1 (see RandomStream)
    streams = [RandomStream(seed, j + 1) for j in range(n_chains)]

    # initialization phase: i.i.d. draws, each from its chain's own stream
    x0 = np.stack([approximation.sample(streams[j]) for j in range(n_chains)])
    grad_base = target.gradient_evaluations
    with _quiet():  # a far start may overflow, as a proposal may; the checks below name it
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
        with _quiet():
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
    # every reported result with its initial side, also computed once
    plan = _audit_plan(specs, approximation, x0, scalars)

    h0 = initial_step_size(kind, d) * step_size_scale
    adapt = AdaptationState(log_step_size=math.log(h0))
    a_star = tuning.target_acceptance

    checkpoints = _checkpoint_iterations(trace_every, n_iters)
    trace_rows: Optional[list] = [] if checkpoints else None
    # checkpoints before the last diagnose every functional column-wise
    tags = [a.tag for a in plan]
    columns = [(a.interval, a.row, a.initial, a.p) for a in plan]

    def record(iteration, states, logpi_states):
        reliability = reliability_check(x0, states)
        lower, upper, _ = column_intervals(_value_rows(states, logpi_states, scalars),
                                           columns, alpha)
        bounds, _ = lower_bounds(lower, upper)
        trace_rows.append(TraceRow(iteration, reliability.rho2_max,
                                   dict(zip(tags, bounds.tolist()))))

    if 0 in checkpoints:
        record(0, x0, logpi)

    # noise refilled in place: chain j draws standard_normal(d) into eps[j], then
    # the uniforms its kernel reads into uniforms[j], as allocating calls would
    eps = np.empty((n_chains, d))
    uniforms = np.empty((n_chains, tuning.uniform_count(d)))
    noise = [(s.generator.standard_normal, s.generator.random, e, u)
             for s, e, u in zip(streams, eps, uniforms)]
    x = x0
    for t in range(n_iters):
        for normal, uniform, e, u in noise:
            normal(out=e)
            uniform(out=u)
        x, logpi, grad_cached, alphas = step_batch(
            kind, x, logpi, grad_cached, eps, uniforms, adapt.step_size,
            pre, target)
        adapt.update(math.fsum(alphas.tolist()) / n_chains, a_star)
        # the last checkpoint, n_iters, reuses the final diagnostics below
        if (t + 1) in checkpoints and t + 1 < n_iters:
            record(t + 1, x, logpi)

    iter_grads = target.gradient_evaluations - grad_base - init_grads

    reliability = reliability_check(x0, x)
    functionals = _functional_results(plan, _value_rows(x, logpi, scalars), alpha, scalars)
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
        seed=seed,
        initial_step_size=h0,
        final_step_size=adapt.step_size,
        step_size_scale=step_size_scale,
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
    """The run's functionals parsed, with mean(*) and variance(*) expanded;
    raises for anything but a list or tuple of strings, an empty list, a
    coordinate out of range, a quantile level p outside (0, 1) or a tag
    listed twice, naming the functional."""
    functionals = config.functionals
    if functionals is None:
        functionals = ["mean(*)", "variance(*)"]
    if not (isinstance(functionals, (list, tuple))
            and all(isinstance(text, str) for text in functionals)):
        raise ValueError(f"functionals must be a list of strings, got {functionals!r}")
    specs = []
    for text in functionals:
        m = _FUNCTIONAL_RE.match(text)
        if m and m.group(2) == "*" and m.group(1) in ("mean", "variance"):
            specs += [FunctionalSpec(m.group(1), coordinate=i) for i in range(dimension)]
        else:
            specs.append(parse_functional(text))
    if not specs:
        raise ValueError("functionals list is empty")
    seen = {}
    for spec in specs:
        if spec.coordinate is not None and not 0 <= spec.coordinate < dimension:
            raise ValueError(f"functional {spec.tag} is out of range for dimension {dimension}")
        if spec.kind == "quantile" and not 0.0 < spec.p < 1.0:
            raise ValueError(f"functional {spec.tag} needs a quantile level p in (0, 1), "
                             f"got {spec.p}")
        if spec.tag in seen:
            if seen[spec.tag].p != spec.p:
                raise ValueError(f"functionals at quantile levels {seen[spec.tag].p!r} and "
                                 f"{spec.p!r} differ but both print as {spec.tag}")
            raise ValueError(f"functional {spec.tag} is listed more than once")
        seen[spec.tag] = spec
    return specs


def _resolve_scalar_functions(specs, config: RunConfig) -> dict:
    custom = config.scalar_functions or {}
    if not isinstance(custom, dict):
        raise ValueError(f"scalar_functions must be a dict, got {custom!r}")
    for name, fn in custom.items():
        if not callable(fn):
            raise ValueError(f"scalar_functions[{name!r}] must be callable, got {fn!r}")
    fns = {}
    for spec in specs:
        if spec.kind != "scalar":
            continue
        if spec.name in custom:
            fns[spec.name] = custom[spec.name]
        elif spec.name == "target_log_density":
            fns[spec.name] = None  # the run's logpi, never re-evaluated
        else:
            known = sorted(set(custom) | set(BUILTIN_SCALAR_FUNCTIONS))
            raise ValueError(f"unknown scalar functional {spec.name!r}; known: {known}")
    return fns


def _check_quantile_ranks(specs, n_chains: int, alpha: float):
    """Raises, naming the functional, when N is too few for the ranks of a
    quantile level the run audits; the intervals then read them cached."""
    levels = [(spec.p, spec.tag) for spec in specs if spec.kind == "quantile"]
    if any(spec.kind == "scalar" for spec in specs):
        levels.append((0.5, "scalar median"))
    for p, tag in levels:
        lo = binomial_quantile(alpha / 2.0, n_chains, p)
        hi = binomial_quantile(1.0 - alpha / 2.0, n_chains, p) + 1
        if lo < 1 or hi > n_chains:
            raise ValueError(
                f"{n_chains} chains are too few for a level {1 - alpha:.3g} interval "
                f"on {tag}; increase chains or relax alpha")


def _checkpoint_iterations(trace_every: int, n_iters: int) -> set:
    if trace_every < 1:
        return set()
    return set(range(0, n_iters + 1, trace_every)) | {n_iters}


def _audit_plan(specs, approximation: Approximation, x0, scalars: dict) -> list[_Audited]:
    """Every reported result of the run in report order, built once from x0.

    Rows follow ``_value_rows``.  A quantile compares with the
    approximation's own quantile when it has a quantile function, else
    with the initial-sample one.
    """
    d = approximation.dimension
    scalar_rows = {name: d + j for j, name in enumerate(scalars)}
    plan = []
    for spec in specs:
        i = spec.coordinate
        if spec.kind == "mean":
            mu0, sd0 = float(approximation.means[i]), float(approximation.sds[i])
            plan.append(_Audited(spec, spec.tag, "mean", i, mu0, None, "approximation",
                                 mu0, (("bound_relative", sd0),)))
        elif spec.kind == "variance":
            sd0 = float(approximation.sds[i])
            plan.append(_Audited(spec, spec.tag, "log_variance", i, sd0, None,
                                 "approximation", sd0 * sd0,
                                 (("bound_2log10", math.log(10.0)),)))
        elif spec.kind == "quantile":
            side, q0 = (("approximation", approximation.quantile(i, spec.p))
                        if approximation.has_quantiles
                        else ("initial_samples", sample_quantile(x0[:, i], spec.p)))
            plan.append(_Audited(spec, spec.tag, "quantile", i, q0, spec.p, side, q0))
        else:
            v0 = scalars[spec.name][1]
            mean0, median0 = float(v0.mean()), sample_quantile(v0, 0.5)
            mean_tag, median_tag = scalar_tags(spec.name)
            row = scalar_rows[spec.name]
            plan.append(_Audited(spec, mean_tag, "mean", row, mean0, None,
                                 "initial_samples", mean0))
            plan.append(_Audited(spec, median_tag, "quantile", row, median0, 0.5,
                                 "initial_samples", median0))
    return plan


def _value_rows(states, logpi_states, scalars: dict) -> np.ndarray:
    """One C-contiguous row per coordinate, then one per scalar functional
    in ``scalars`` order, evaluated at ``states`` and checked."""
    n, d = states.shape
    values = np.empty((d + len(scalars), n))
    values[:d] = states.T
    for row, (name, (fn, _)) in enumerate(scalars.items(), start=d):
        values[row] = logpi_states if fn is None else checked_output(
            f"scalar function {name!r}", fn(states), (n,))
    return values


def _functional_results(plan, values: np.ndarray, alpha: float,
                        scalars: dict) -> list[FunctionalResult]:
    """Each planned result from the final ``_value_rows``, with the bits
    ``column_intervals`` gives.  The interval functions are looked up in this
    module at each call, so a wrapper set on it sees every call."""
    results = []
    for a in plan:
        row = values[a.row]
        if a.spec.kind == "scalar":
            if a.interval == "mean":  # the median's entry follows
                pair = scalar_functional_diagnostics(scalars[a.spec.name][1], row, alpha,
                                                     name=a.spec.name)
            res = pair[0] if a.interval == "mean" else pair[1]
        elif a.interval == "quantile":
            res = error_lower_bound(quantile_difference_ci(
                row, a.p, a.initial, alpha, functional_tag=a.tag))
        else:
            interval = mean_difference_ci if a.interval == "mean" else log_variance_ratio_ci
            res = error_lower_bound(interval(row, a.initial, alpha, functional_tag=a.tag))
        normalized = {key: res.bound / divisor for key, divisor in a.normalizers}
        results.append(FunctionalResult(a.spec, res, a.initial_side, a.initial_value,
                                        normalized))
    return results
