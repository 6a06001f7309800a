"""Times the bulk step-noise decode against each chain's own calls.

Usage: python tools/noise_sweep.py SRC_DIR OUT_JSON

Imports ``shortchain`` from SRC_DIR.  For every d in ``DIMENSIONS``, k = 1
uniform a step (RWMH, MALA, HMC) and k = d + 1 (Barker), and N in
``CHAINS``, it times T = floor(50 d^(1/3)) fills of ``rng.StepNoise`` and
of ``rng.ChainCalls`` on fresh ``rng.chain_streams``, best of ``REPEATS``,
and records their ratio, decode over per-chain, and which of the two
``rng.step_noise`` picks for that shape.  Then it runs each audit in
``PEAKS``, a correlated Gaussian from a unit mean-field Gaussian at N =
10,000, d = 10, Barker and T = 20, and at the d=30 preset's RWMH shape, N =
387 and T = 155, with the noise ``rng.step_noise`` picks and with the
per-chain calls forced, and records each one's ``tracemalloc`` peak and its
best wall time.  It writes everything to OUT_JSON and prints one line a
measurement.  Timings depend on the host: compare runs made on one host,
close together in time.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

import numpy as np

DIMENSIONS = (1, 2, 5, 10, 20, 30)
CHAINS = (32, 64, 100, 200, 386, 1000)
REPEATS = 3
SEED = 1
PEAKS = ({"n_chains": 10_000, "dimension": 10, "kernel": "barker", "n_iterations": 20},
         {"n_chains": 387, "dimension": 30, "kernel": "rwmh", "n_iterations": 155})


def best_time(make, steps: int) -> float:
    """The least time of ``REPEATS`` runs of ``steps`` fills of ``make()``."""
    times = []
    for _ in range(REPEATS):
        noise = make()
        start = time.perf_counter()
        for _ in range(steps):
            noise.fill()
        times.append(time.perf_counter() - start)
    return min(times)


def fill_ratio(shortchain, d: int, k: int, n: int) -> dict:
    """Decode and per-chain fill times at one shape, and the pick."""
    rng = shortchain.rng
    steps = int(50 * d ** (1 / 3))
    eps, uniforms = np.empty((n, d)), np.empty((n, k))

    def decoder():
        return rng.StepNoise(rng.chain_streams(SEED, n), eps, uniforms, steps, rng._ziggurat())

    def calls():
        return rng.ChainCalls(rng.chain_streams(SEED, n), eps, uniforms)

    decode_s, chain_s = best_time(decoder, steps), best_time(calls, steps)
    picked = type(rng.step_noise(rng.chain_streams(SEED, n), eps, uniforms, steps)).__name__
    return {"d": d, "k": k, "n": n, "steps": steps, "decode_s": decode_s,
            "per_chain_s": chain_s, "ratio": decode_s / chain_s, "picked": picked}


def peak(shortchain, shape: dict, forced_per_chain: bool) -> dict:
    """An audit's path, ``tracemalloc`` peak and best wall time at ``shape``,
    one of ``PEAKS``."""
    rng, runner, d = shortchain.rng, shortchain.runner, shape["dimension"]
    config = shortchain.RunConfig(kernel=shape["kernel"], seed=SEED, n_chains=shape["n_chains"],
                                  n_iterations=shape["n_iterations"])
    target = shortchain.correlated_gaussian_target(d)
    approx = shortchain.mean_field_gaussian_approximation(np.zeros(d), np.ones(d))
    paths, fill, tables = set(), runner._fill_noise, rng._ziggurat
    runner._fill_noise = lambda noise: (paths.add(type(noise).__name__), fill(noise))
    if forced_per_chain:
        rng._ziggurat = lambda: None
    try:
        tracemalloc.start()
        shortchain.run_diagnostic(config, target, approx)
        peak_bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            shortchain.run_diagnostic(config, target, approx)
            times.append(time.perf_counter() - start)
    finally:
        runner._fill_noise, rng._ziggurat = fill, tables
    return {**shape, "forced_per_chain": forced_per_chain, "path": sorted(paths),
            "peak_mb": peak_bytes / 1e6, "wall_s": min(times)}


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, argv[1])
    import shortchain

    shortchain.rng._ziggurat()  # the tables are read once a process, outside the timings
    grid = []
    for n in CHAINS:
        for d in DIMENSIONS:
            for k in (1, d + 1):
                cell = fill_ratio(shortchain, d, k, n)
                grid.append(cell)
                print(f"N={n:5d} d={d:2d} k={k:2d}  decode/per-chain {cell['ratio']:.2f}  "
                      f"picks {cell['picked']}", flush=True)
    peaks = [peak(shortchain, shape, forced) for shape in PEAKS for forced in (False, True)]
    for p in peaks:
        print(f"N={p['n_chains']} d={p['dimension']} {p['kernel']} T={p['n_iterations']} "
              f"forced_per_chain={p['forced_per_chain']}: {'/'.join(p['path'])} "
              f"peak {p['peak_mb']:.2f} MB, {p['wall_s']:.3f} s", flush=True)
    with open(argv[2], "w") as f:
        json.dump({"numpy": np.__version__, "repeats": REPEATS, "grid": grid, "peak": peaks},
                  f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
