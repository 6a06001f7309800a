"""Writes the reports of audits that only the Python API can configure.

Usage: PYTHONPATH=SRC_DIR python tools/api_reports.py OUT_DIR

No CLI config names a custom scalar functional, and every CLI
approximation has a quantile function, so the CLI never reaches the
initial-sample side of a quantile.  This script audits ``FUNCTIONALS``
(every mean and variance, two quantiles, ``scalar(target_log_density)`` and
the custom scalars ``SCALARS``, one of which returns a strided view of its
input) of a d=3 correlated Gaussian target from a mean-field Gaussian
without a quantile function, through ``run_diagnostic``.  It runs each
kernel at N = 70 (per-chain step noise) and N = 150 (the bulk decode),
untraced and traced at every iteration, at seeds 1 and 7, and writes each
report's ``to_json_dict()`` as JSON with sorted keys to
``OUT_DIR/KERNEL-nN-traceK-seedS.json``.  ``tools/output_hashes.py`` runs it
and hashes what it writes.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np

from shortchain import (KERNEL_KINDS, Approximation, RunConfig, correlated_gaussian_target,
                        mean_field_gaussian_approximation, run_diagnostic)

FUNCTIONALS = ["mean(*)", "variance(*)", "quantile(0,0.5)", "quantile(2,0.9)",
               "scalar(target_log_density)", "scalar(r)", "scalar(x1)"]
SCALARS = {"r": lambda x: np.sum(x * x, axis=1), "x1": lambda x: x[:, 1]}
CHAINS = (70, 150)
TRACE_EVERY = (0, 1)
SEEDS = (1, 7)
ITERATIONS = 12


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    target = correlated_gaussian_target(3, correlation=0.3)
    gaussian = mean_field_gaussian_approximation([1.5, -1.0, 0.5], [0.4, 2.5, 0.6])
    approximation = Approximation(3, gaussian.sampler, gaussian.means, gaussian.sds,
                                  gaussian.covariance, quantile_fn=None,
                                  name="mean_field_no_quantiles")
    for kernel, n, trace_every, seed in itertools.product(KERNEL_KINDS, CHAINS,
                                                          TRACE_EVERY, SEEDS):
        report = run_diagnostic(RunConfig(
            kernel=kernel, seed=seed, functionals=FUNCTIONALS, n_chains=n,
            n_iterations=ITERATIONS, trace_every=trace_every, scalar_functions=SCALARS),
            target, approximation)
        path = out / f"{kernel}-n{n}-trace{trace_every}-seed{seed}.json"
        path.write_text(json.dumps(report.to_json_dict(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
