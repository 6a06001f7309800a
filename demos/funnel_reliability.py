"""Funnel target: detecting understated variances, and what the
reliability check guards against.

A standard mean-field N(0, I) fit to the funnel misses the heavy lower
tails: every coordinate except the log-scale one has true variance
exp(1/2).  The first run audits that fit.  The second run cripples the
sampler (step size scaled by 1e-8) so the chains cannot move; the audit
then reports nothing wrong, and only the reliability check reveals that
the clean verdict is meaningless.
"""

import numpy as np

from shortchain import (
    RunConfig,
    mean_field_gaussian_approximation,
    neal_funnel_target,
    run_diagnostic,
)


def summarize(tag, report):
    flagged = sum(f.result.detected for f in report.functionals)
    print(f"{tag}: {flagged}/{len(report.functionals)} functionals flagged, "
          f"rho2_max = {report.reliability.rho2_max:.4f}, reliability "
          f"{'passed' if report.reliability.passed else 'FAILED'}")


def main():
    d = 20
    target = neal_funnel_target(d)
    approx = mean_field_gaussian_approximation(np.zeros(d), np.ones(d))

    config = RunConfig(kernel="barker", seed=1, trace_every=25)
    report = run_diagnostic(config, target, approx)
    summarize("healthy run ", report)

    wide = [f for f in report.functionals
            if f.spec.kind == "variance" and f.spec.coordinate >= 1]
    detected = sum(f.result.detected for f in wide)
    print(f"  variance flagged for {detected} of {len(wide)} coordinates "
          "with true variance exp(1/2) ~ 1.649")

    print("  the error bound develops as the chains move (variance, coordinate 1):")
    for point in report.traces:
        b = point.bounds.get("log_variance(1)")
        print(f"    t = {point.iteration:3d}   bound = {b:.3f}   "
              f"rho2_max = {point.rho2_max:.3f}")
    print()

    frozen = RunConfig(kernel="barker", seed=1, step_size_scale=1e-8,
                       n_iterations=10)
    summarize("frozen run  ", run_diagnostic(frozen, target, approx))
    print("  the frozen chains flag nothing, and rho2_max ~ 1 says the")
    print("  chains never forgot their start, so the verdict is untrusted")


if __name__ == "__main__":
    main()
