"""One workload process of the benchmark.

Builds a workload's inputs from ``--seed``, prints ``ready`` once it could
start auditing, then repeats passes (a fixed list of audits) for
``--seconds`` with blocks of reference work timed between them, checks
every audit's output, and prints one JSON line with pass and reference
times, check results and, with ``--trace 1``, the per-layer split from
traced passes run alternately with untraced ones.  ``run.py`` starts it;
run that.

Audits use only ``run_diagnostic``, ``RunConfig``, the target and
approximation factories and ``cli.main``.  Every check is statistical or
structural and never compares report bytes with a stored copy, so a change
that moves the bytes but keeps the behaviour still passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "presets"
WORK_DIR = Path(__file__).resolve().parent / "results" / "work"

MIN_PASSES = 3          # untraced passes per run, at least
MAX_RUN_SECONDS = 140   # stop starting passes after this, whatever --seconds says
NULL_REPLICATIONS = 6   # consecutive seeds per null-calib pass
REF_SHARE = 0.2         # reference work timed after each pass, as a share of its time
FIRST_REF_SECONDS = 0.5

KERNELS = ("rwmh", "mala", "barker", "hmc")
MEAN_TOLERANCE_SD = 0.15
VARIANCE_POWER_GATE = 0.9
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Audit:
    """One audit: the timed call, the report it produced, and its checks."""
    label: str
    call: Callable[[], object]
    read: Callable[[object], dict]              # outcome -> report dict
    check: Callable[[object, dict], list]       # (outcome, report) -> problems


@dataclass
class Workload:
    audits: list
    has_error: Callable[[dict], bool]   # functional -> is its true error non-zero?
    root_span: str
    reference_mix: dict                 # units of each kind of work; see reference_work
    before_pass: Callable[[], None] = field(default=lambda: None)


def import_package():
    """Imports shortchain from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import shortchain
    import shortchain.cli
    if not Path(shortchain.__file__).resolve().is_relative_to(src):
        raise ImportError(f"shortchain imported from {shortchain.__file__}, not {src}")
    return shortchain


# ---------------------------------------------------------------- checks


def _functionals(report, kind):
    return [f for f in report["functionals"] if f["kind"] == kind]


def check_gaussian(kernel, target_sd):
    """Means are exact, variances understated: mean bounds must stay small in
    the target's own sd, and variance errors must be found."""
    def check(_, report):
        problems = []
        if not report["reliability"]["passed"]:
            problems.append("reliability check failed")
        for f in _functionals(report, "mean"):
            bound = f["bound"] / target_sd[f["coordinate"]]
            if bound > MEAN_TOLERANCE_SD:
                problems.append(f"{f['tag']} bound {bound:.3f} target sd "
                                f"> {MEAN_TOLERANCE_SD}")
        variances = _functionals(report, "variance")
        found = sum(f["detected"] for f in variances)
        # random-walk power is recorded, not gated
        if kernel != "rwmh" and found < VARIANCE_POWER_GATE * len(variances):
            problems.append(f"{found} of {len(variances)} variance errors detected")
        return problems
    return check


def check_reliable(_, report):
    return [] if report["reliability"]["passed"] else ["reliability check failed"]


def check_cli(out_dir):
    def check(code, report):
        problems = [] if code == 0 else [f"exit code {code}"]
        names = ("report.json", "bounds.csv", "reliability.csv", "traces.csv")
        missing = [n for n in names if not (out_dir / n).is_file()]
        if missing:
            return problems + [f"missing {missing}"]
        checkpoints = len(report["traces"] or [])
        if checkpoints != report["iterations"] + 1:
            problems.append(f"{checkpoints} checkpoints for {report['iterations']} iterations")
        with open(out_dir / "traces.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        expected = checkpoints * len(report["functionals"])
        if rows != expected:
            problems.append(f"traces.csv has {rows} rows, expected {expected}")
        return problems
    return check


# ------------------------------------------------------------- workloads


def direct_audit(sc, label, config, target, approx, check):
    return Audit(label, lambda: sc.run_diagnostic(config, target, approx),
                 lambda report: report.to_json_dict(), check)


def gauss_d30(sc, seed):
    preset = json.loads((PRESETS / "gaussian_correlated_d30.json").read_text())
    t = preset["target"]
    target = sc.correlated_gaussian_target(
        t["dimension"], mean=t.get("mean", 0.0), variances=t.get("variances", 1.0),
        correlation=t.get("correlation", 0.0))
    approx = sc.kl_optimal_mean_field(target)
    target_sd = np.sqrt(np.diag(target.covariance))
    audits = [direct_audit(sc, kernel, sc.RunConfig(kernel=kernel, seed=seed),
                           target, approx, check_gaussian(kernel, target_sd))
              for kernel in KERNELS]
    # traced split: draws and runner loop half the time, small arrays most of the rest
    return Workload(audits, lambda f: f["kind"] == "variance", "runner.run",
                    {"python": 5, "draws": 3, "small": 5, "vector": 1})


def null_calib(sc, seed):
    target = sc.correlated_gaussian_target(5)
    approx = sc.mean_field_gaussian_approximation(np.zeros(5), np.ones(5))
    first = seed * NULL_REPLICATIONS
    audits = [direct_audit(sc, f"seed{s}",
                           sc.RunConfig(kernel="barker", seed=s, n_chains=386,
                                        n_iterations=85),
                           target, approx, check_reliable)
              for s in range(first, first + NULL_REPLICATIONS)]
    # call overhead on tiny arrays, whose speed drift an interpreter loop follows best
    return Workload(audits, lambda f: False, "runner.run",
                    {"python": 9, "draws": 3, "small": 0, "vector": 0})


def logistic(sc, seed):
    target = sc.synthetic_logistic_regression_target(2000, 20, data_seed=seed)
    approx = sc.mean_field_gaussian_approximation(np.zeros(20), np.ones(20))
    audit = direct_audit(sc, "barker", sc.RunConfig(kernel="barker", seed=seed),
                         target, approx, check_reliable)
    # the target's products over 2000 observations are most of the time
    return Workload([audit], lambda f: True, "runner.run",
                    {"python": 1, "draws": 0, "small": 1, "vector": 12})


def cli_trace_funnel(sc, seed):
    preset = PRESETS / "funnel_d20.json"
    json.loads(preset.read_text())
    out_dir = WORK_DIR / "funnel"
    argv = ["trace", "--config", str(preset), "--out", str(out_dir), "--seed", str(seed)]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return sc.cli.main(argv)

    def before_pass():
        shutil.rmtree(out_dir, ignore_errors=True)

    audit = Audit("trace", call,
                  lambda _: json.loads((out_dir / "report.json").read_text()),
                  check_cli(out_dir))
    # coordinates 1.. have variance e^(1/2) against the approximation's 1
    # interval code (scalar SciPy calls) at every checkpoint is half the time
    return Workload([audit], lambda f: f["kind"] == "variance" and f["coordinate"] > 0,
                    "cli.main", {"python": 8, "draws": 2, "small": 3, "vector": 1},
                    before_pass)


WORKLOADS = {
    "gauss-d30": gauss_d30,
    "null-calib": null_calib,
    "logistic": logistic,
    "cli-trace-funnel": cli_trace_funnel,
}


# ---------------------------------------------------------------- passes


def run_pass(workload, tracer=None):
    """Runs every audit once; returns (seconds, outcomes, per-audit counts)."""
    workload.before_pass()
    outcomes, counts = [], []
    start = time.perf_counter()
    for audit in workload.audits:
        call = audit.call if tracer is None else tracer.timed(audit.call, workload.root_span)
        before = dict(tracer.counts) if tracer is not None else None
        try:
            outcomes.append(call())
        except Exception as exc:  # one failed audit is counted, not fatal
            outcomes.append(exc)
        if tracer is not None:
            counts.append({k: v - before[k] for k, v in tracer.counts.items()})
    return time.perf_counter() - start, outcomes, counts


def inspect_pass(workload, outcomes):
    """Returns one (report or None, problems) per audit."""
    results = []
    for audit, outcome in zip(workload.audits, outcomes):
        if isinstance(outcome, Exception):
            results.append((None, [f"raised {type(outcome).__name__}: {outcome}"]))
            continue
        try:
            report = audit.read(outcome)
            results.append((report, audit.check(outcome, report)))
        except Exception as exc:  # a malformed output is a failed check
            results.append((None, [f"output unreadable: {type(exc).__name__}: {exc}"]))
    return results


def compare(results, reference, what):
    for (report, problems), ref in zip(results, reference):
        if report is not None and ref is not None and report != ref:
            problems.append(f"report differs from {what}")


def cross_check(results, counts, tracer):
    """Exact work counts from the wrappers against the reports' own counts."""
    if "targets.grad" not in tracer.installed or "targets.log_density" not in tracer.installed:
        return
    for (report, problems), c in zip(results, counts):
        if report is None:
            continue
        grads = report["gradient_evaluations"]["total"]
        if c["targets.grad_points"] != grads:
            problems.append(f"{c['targets.grad_points']} gradient points counted, "
                            f"report says {grads}")
        expected = report["chains"] * (1 + report["iterations"])
        if c["targets.log_density_points"] != expected:
            problems.append(f"{c['targets.log_density_points']} log-density points "
                            f"counted, expected N(1+T) = {expected}")


def quality(workload, reports):
    """Detection shares, split by whether the functional's true error is non-zero."""
    reports = [r for r in reports if r is not None]
    flags = {True: [], False: []}
    for report in reports:
        for f in report["functionals"]:
            flags[workload.has_error(f)].append(bool(f["detected"]))
    history = [a for r in reports for a in r["acceptance_history"]]
    return {
        "detect_power": statistics.fmean(flags[True]) if flags[True] else None,
        "known_errors": len(flags[True]),
        "false_detect_frac": statistics.fmean(flags[False]) if flags[False] else None,
        "known_zero_errors": len(flags[False]),
        "accept_rate": statistics.fmean(history) if history else None,
        "chain_steps": sum(r["chains"] * r["iterations"] for r in reports),
    }


def layer_metrics(tracer):
    """Per-layer figures of one traced pass; None where the layer was not found."""
    def present(span, value):
        return value if span in tracer.installed else None

    t = tracer
    return {
        "rng.draw_s": present("rng.draw", t.self_time("rng.draw")),
        "rng.draw_calls": present("rng.draw", t.calls("rng.draw")),
        "rng.init_s": present("rng.init", t.self_time("rng.init")),
        "rng.streams": present("rng.init", t.calls("rng.init")),
        "runner.self_s": present("runner.run", t.self_time("runner.run")),
        "targets.log_density_s": present("targets.log_density",
                                         t.self_time("targets.log_density")),
        "targets.grad_s": present("targets.grad", t.self_time("targets.grad")),
        "targets.log_density_points": present("targets.log_density",
                                              t.counts["targets.log_density_points"]),
        "targets.grad_points": present("targets.grad", t.counts["targets.grad_points"]),
        "targets.nonfinite_points": present("targets.log_density",
                                            t.counts["targets.nonfinite_points"]),
        "kernels.self_s": present("kernels.step_batch", t.self_time("kernels.step_batch")),
        "kernels.calls": present("kernels.step_batch", t.calls("kernels.step_batch")),
        "adaptation.sizing_s": present("adaptation.sizing",
                                       t.self_time("adaptation.sizing")),
        "adaptation.update_s": present("adaptation.update",
                                       t.self_time("adaptation.update")),
        "diagnostics.self_s": present("diagnostics", t.self_time("diagnostics")),
        "diagnostics.calls": present("diagnostics", t.calls("diagnostics")),
        "cli.build_s": present("cli.build", t.self_time("cli.build")),
        "cli.write_s": present("cli.write", t.self_time("cli.write")),
        "cli.bytes_written": present("cli.write", t.counts["cli.bytes_written"]),
        "approximations.sample_s": present("approximations.sample",
                                           t.self_time("approximations.sample")),
        "approximations.sample_calls": present("approximations.sample",
                                               t.calls("approximations.sample")),
    }


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "seed": seed,
    }


# ------------------------------------------------------------------ main


def reference_work(mix):
    """A fixed computation with the same mix of work as one workload.

    The speed of a shared host drifts by tens of percent within minutes,
    and not equally for every kind of work, so each pass is also measured
    against this computation, timed just before and just after it.  ``mix``
    gives units of about 10 ms (on the machine the weights were set on) of
    interpreter loop, per-call draws, small-array steps and large
    vectorised products.  It uses NumPy only, never the package, and must
    stay as it is: changing it would rescale every relative figure.
    """
    g = np.random.Generator(np.random.Philox(7))
    s = 0
    for i in range(150_000 * mix["python"]):
        s += i * i
    for _ in range(7_000 * mix["draws"]):
        g.standard_normal(30)
    x = g.standard_normal((387, 30))
    m = np.linalg.qr(g.standard_normal((30, 30)))[0]   # orthogonal: norms stay put
    for _ in range(130 * mix["small"]):
        y = x @ m
        keep = np.exp(-0.01 * np.sum(y * y, axis=1)) > 0.7
        x = np.where(keep[:, None], y, x)
    z = g.standard_normal((387, 20))
    f = g.standard_normal((125, 20))
    labels = (g.random(125) < 0.5).astype(float)
    for _ in range(6 * mix["vector"]):
        logits = z @ f.T
        s += float(np.sum(labels * logits - np.logaddexp(0.0, logits)))
        s += float(np.sum((labels - 1.0 / (1.0 + np.exp(-logits))) @ f))
    return s


def time_reference(mix, seconds):
    """Times ``reference_work`` repeatedly for about ``seconds``; returns each time."""
    times = []
    while not times or sum(times) < seconds:
        start = time.perf_counter()
        reference_work(mix)
        times.append(time.perf_counter() - start)
    return times


def traced_pass(workload, package, reference, record):
    """One traced pass: checks it like any pass, plus the exact count cross-checks."""
    tracer = Tracer()
    try:
        tracer.install(package)
        elapsed, outcomes, counts = run_pass(workload, tracer)
    finally:
        unrestored = tracer.restore()
    results = inspect_pass(workload, outcomes)
    compare(results, reference, "the untraced pass with the same seed")
    cross_check(results, counts, tracer)
    if unrestored:
        results[0][1].append(f"wrapped names not restored: {unrestored}")
    if record["layers"] and counts != record["layers"][0]["audit_counts"]:
        results[0][1].append("work counts differ between traced passes")
    record["traced_s"].append(elapsed)
    record["absent"] = tracer.absent
    record["layers"].append(dict(layer_metrics(tracer), audit_counts=counts,
                                 spans=tracer.spans, wall_s=elapsed))
    return results


def measure(workload, seconds, package=None):
    """Timed passes until ``seconds`` of them have run, at least MIN_PASSES.

    The first pass is the reference every later pass must reproduce
    exactly.  A block of ``reference_work`` is timed before the first
    untraced pass and after each one.  With ``package`` set, each untraced pass is followed by a
    traced one, and the run lasts until both kinds together reach
    ``seconds``.
    """
    start = time.perf_counter()
    record = {"pass_s": [], "ref_s": [time_reference(workload.reference_mix, FIRST_REF_SECONDS)], "traced_s": [],
              "layers": [], "absent": []}
    results, reference = [], None
    while (len(record["pass_s"]) < (1 if package else MIN_PASSES)
           or sum(record["pass_s"]) + sum(record["traced_s"]) < seconds):
        if time.perf_counter() - start > MAX_RUN_SECONDS:
            break
        elapsed, outcomes, _ = run_pass(workload)
        more = inspect_pass(workload, outcomes)
        if reference is None:
            reference = [report for report, _ in more]
        else:
            compare(more, reference, "the first pass with the same seed")
        record["pass_s"].append(elapsed)
        record["ref_s"].append(time_reference(workload.reference_mix, REF_SHARE * elapsed))
        results += more
        if package:
            results += traced_pass(workload, package, reference, record)
    return record, results, reference


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit as soon as the workload is ready to audit")
    args = parser.parse_args(argv)

    sc = import_package()
    workload = WORKLOADS[args.workload](sc, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    record, results, reference = measure(workload, args.seconds,
                                         sc.__name__ if args.trace else None)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    labels = [a.label for a in workload.audits]
    problems = [f"{labels[i % len(labels)]}: {p}"
                for i, (_, ps) in enumerate(results) for p in ps]
    record.update(
        workload=args.workload,
        trace=args.trace,
        attempted=len(results),
        failed=sum(1 for _, ps in results if ps),
        problems=problems[:20],
        quality=quality(workload, reference),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(args.seed),
    )
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
