"""How the ensemble is sized and how step sizes adapt.

Prints the chain count implied by the accuracy tolerances, the iteration
budget for each kernel across dimensions, and then runs short ensembles on
a 1-d Gaussian to show the shared step size settling at each kernel's
target acceptance rate.
"""

from shortchain import (
    RunConfig,
    SizingPolicy,
    chain_count,
    correlated_gaussian_target,
    initial_step_size,
    iteration_count,
    mean_field_gaussian_approximation,
    run_diagnostic,
    target_acceptance,
)


def main():
    policy = SizingPolicy()
    print(f"tolerances: mean within {policy.delta_mean} sd, variance within "
          f"{policy.delta_var} (2log10), miscoverage {policy.alpha}")
    print(f"chains N = {chain_count(policy)}")
    print()

    print("iteration budget T by kernel and dimension")
    print("kernel   d=5   d=10   d=30   target accept")
    for kind in ("rwmh", "mala", "barker", "hmc"):
        row = [iteration_count(kind, d) for d in (5, 10, 30)]
        print(f"{kind:6s}  {row[0]:4d}   {row[1]:4d}   {row[2]:4d}"
              f"   {target_acceptance(kind):.3f}")
    print()

    print("initial step sizes at d=10:",
          ", ".join(f"{k} {initial_step_size(k, 10):.3f}"
                    for k in ("rwmh", "mala", "barker", "hmc")))
    print()

    # watch adaptation pull the realized acceptance rate onto each target
    target = correlated_gaussian_target(1)
    approx = mean_field_gaussian_approximation([0.0], [1.0])
    print("adaptation on a 1-d Gaussian, 100 chains x 200 iterations")
    print("kernel   h start   h final   trailing accept   target")
    for kind in ("rwmh", "barker", "mala", "hmc"):
        report = run_diagnostic(
            RunConfig(kernel=kind, seed=700, n_chains=100, n_iterations=200),
            target, approx)
        trail = report.acceptance_history[-40:]
        trailing = sum(trail) / len(trail)
        print(f"{kind:6s}  {report.initial_step_size:8.3f}  "
              f"{report.final_step_size:8.3f}  {trailing:16.3f}   "
              f"{report.target_acceptance_rate:.3f}")


if __name__ == "__main__":
    main()
