"""Benchmark driver for shortchain audits.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gauss-d30 --seed 1 --seconds 18 --trace 0

Workloads: gauss-d30, null-calib, logistic, cli-trace-funnel (see
BENCHMARK.json for their sizes and why each exists).

With ``--trace 0`` the driver times set-up in fresh interpreters, then runs
one workload process that repeats passes of audits for ``--seconds`` with
no tracing, and prints the end-to-end metrics: pass time relative to a
fixed reference computation timed around each pass (see ``end_to_end``),
set-up seconds and peak memory, plus wall seconds for reading.  With ``--trace 1`` the
workload process sets traced passes beside untraced ones and the driver
prints the per-layer split.  Either way every audit's output is checked,
the full record (environment, pass times, quartiles, spans) is written to
``perfbench/results/``, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from this checkout's ``src/``; without it the
driver exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD = HERE / "workload.py"
REQUIRED = ("src/shortchain/__init__.py", "presets/gaussian_correlated_d30.json",
            "presets/funnel_d20.json")

SETUP_PROBES = 2        # fresh interpreters timed besides the workload process
DEADLINE_S = 170        # the whole run ends well inside 180 s


def spawn(args, extra, deadline):
    """Starts a workload process; returns (seconds until it was ready, process)."""
    cmd = [sys.executable, str(WORKLOAD), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline().strip()
    ready = time.perf_counter() - start
    if line != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"workload process did not get ready (said {line!r})")
    return ready, proc


def finish(proc, deadline):
    """Waits for the process, killing it at the deadline; returns its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process passed the deadline and was stopped")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return out


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(record, setup):
    """Pass time in units of the reference work timed on either side of it.

    Host speed drifts by tens of percent within minutes, which moves wall
    seconds between runs far more than the bounds allow.  Blocks of
    reference work, timed just before and just after each pass, drift with
    it, so each pass is divided by the mean of their two medians.  Wall
    seconds stay in the record and the printout.
    """
    times = record["pass_s"]
    refs = [statistics.median(block) for block in record["ref_s"]]
    ratios = [t / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(times)]
    record["setup_s"] = setup
    record["summary"] = {"pass_ref": summary(ratios), "pass_s": summary(times),
                         "ref_s": summary(refs)}
    pass_ref = statistics.median(ratios)
    return {
        "pass_ref": (pass_ref, "ref"),
        "chain_steps_per_ref": (record["quality"]["chain_steps"] / pass_ref, "1/ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }


def per_layer(record, units):
    layers = record["layers"]
    absent = set()
    values = {}
    for name in units:
        if name not in layers[0]:
            continue
        samples = [layer[name] for layer in layers]
        if samples[0] is None:
            absent.add(name)
        else:
            values[name] = statistics.median(samples)
    q = record["quality"]
    values["kernels.accept_rate"] = q["accept_rate"]
    values["diagnostics.detect_power"] = q["detect_power"]
    values["diagnostics.false_detect_frac"] = q["false_detect_frac"]
    values["trace.overhead_s"] = (statistics.median(record["traced_s"])
                                  - statistics.median(record["pass_s"]))
    absent |= {k for k, v in values.items() if v is None}
    record["absent_metrics"] = sorted(absent)
    # absent metrics read 0 in the result line and are named in the record
    return {name: (values.get(name) or 0, unit) for name, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="shortchain audit benchmark")
    parser.add_argument("--workload", required=True,
                        help="gauss-d30, null-calib, logistic or cli-trace-funnel")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: this checkout lacks {missing}; nothing to benchmark", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                ready, proc = spawn(args, ["--setup-only"], deadline)
                finish(proc, deadline)
                setup.append(ready)
        ready, proc = spawn(args, ["--seconds", str(args.seconds), "--trace",
                                   str(args.trace)], deadline)
        setup.append(ready)
        record = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = per_layer(record, units) if args.trace else end_to_end(record, setup)
    record["seed"] = args.seed
    record["seconds"] = args.seconds
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {record['attempted']} audits, "
          f"{record['failed']} failed; record in {path.relative_to(ROOT)}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    if args.trace:
        print(f"  absent: {', '.join(record['absent_metrics']) or 'none'}")
    else:
        for name, unit in (("pass_ref", "ref"), ("pass_s", "s"), ("ref_s", "s")):
            s = record["summary"][name]
            print(f"  {name} median {s['median']:.4f} {unit}, quartiles {s['q1']:.4f} .. "
                  f"{s['q3']:.4f} over {s['n']}")
        steps = record["quality"]["chain_steps"]
        print(f"  chain_steps_per_s {steps / record['summary']['pass_s']['median']:.6g} 1/s "
              f"({steps} chain steps a pass)")
        # statistical outcomes: printed, not gated by a bound (see BENCHMARK.json)
        q = record["quality"]
        print(f"  failed_frac {record['failed'] / record['attempted']:.4g} fraction "
              f"of {record['attempted']} audits")
        print(f"  detect_power {q['detect_power']} fraction of {q['known_errors']} "
              "functionals with a known error")
        print(f"  false_detect_frac {q['false_detect_frac']} fraction of "
              f"{q['known_zero_errors']} functionals with zero error")
    for name, (value, unit) in metrics.items():
        shown = "absent" if name in record.get("absent_metrics", ()) else f"{value:.6g}"
        print(f"  {name:30s} {shown} {unit}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
