"""Hashes every file the CLI writes for the shipped presets, and API reports.

Usage: python tools/output_hashes.py SRC_DIR OUT_DIR

Runs ``python -m shortchain run`` and ``trace`` with ``PYTHONPATH=SRC_DIR`` on
every preset in this checkout's ``presets/`` under each of the four kernels,
at seeds 1 and 7, from configs whose ``kernel`` key is replaced.  It runs
both commands once more at seed 1 from configs that also set
``functionals`` to ``FUNCTIONALS``, since the presets' default functionals
reach only the mean and log-variance intervals; once more at seed 1 from
configs that audit ``EMPIRICAL_FUNCTIONALS`` of an empirical approximation
read from a seeded CSV of ``SAMPLE_ROWS`` standard normal rows, which
reaches the CSV loader and a spaced wildcard; and once more at seed 1 from
configs whose target is a ``logistic_synthetic`` of the preset's dimension,
with ``LOGISTIC_OBSERVATIONS`` observations and that dimension as
``data_seed``, audited from a unit mean-field Gaussian, which reaches the
logistic target and the config's ``observations`` key.  The presets
(d = 10, 20 and 30) reach ``rng``'s bulk step-noise decode only where d
plus the kernel's uniform count is at most 31, which Barker at d = 20 and
30 exceeds, so it then runs ``SMALL_D``,
the criterion-4 null shape (a d=5 ``gaussian_correlated`` target from a
unit mean-field Gaussian, N=386 and T=85 through ``overrides``), which
decodes under every kernel, with both commands at seeds 1 and 7.  Then
it runs this checkout's ``tools/api_reports.py``, also with
``PYTHONPATH=SRC_DIR``, which writes into ``api/`` the reports of audits that
no CLI config can set up: custom scalar functionals and the initial-sample
quantiles of an approximation without a quantile function.  Last
it runs ``python -m shortchain sizing`` for each kernel at every dimension
in ``SIZING_DIMENSIONS`` and writes the printout to
``sizing/KERNEL-dD.txt``, which reaches ``chain_count``,
``iteration_count`` and ``initial_step_size`` through the CLI.  Everything it writes, the configs
and CSVs included, goes under OUT_DIR, and the commands run there, so each
config names its CSV by a relative path.  It prints one ``sha256  path``
line per output file (528: 496 from the CLI and 32 API reports), with paths
relative to OUT_DIR, so diffing the printout of two source trees shows any
output that changed byte for byte.  The tool itself uses the standard
library only.

Compare printouts only from one host, one NumPy and OpenBLAS build and one
BLAS thread count, ideally run one after the other: only there are the bytes
identical.  Elsewhere the reports' verdicts (every ``detected``, ``passed``
and ``degenerate`` flag) are identical and their floats agree to about
1e-10 relative, as measured with OpenBLAS's and NumPy's AVX2 code paths on
an AVX-512 host; ``tests/test_cli.py`` checks that at 1e-8.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

PRESETS = Path(__file__).resolve().parent.parent / "presets"
API_REPORTS = Path(__file__).resolve().parent / "api_reports.py"
KERNELS = ("rwmh", "mala", "barker", "hmc")
COMMANDS = ("run", "trace")
FUNCTIONALS = ["mean(*)", "variance(*)", "quantile(0,0.1)", "quantile(1,0.5)",
               "quantile(2,0.9)", "scalar(target_log_density)"]
EMPIRICAL_FUNCTIONALS = [" mean ( * )", "variance(*)", "quantile(0,0.5)",
                         "scalar(target_log_density)"]
SAMPLE_ROWS = 400
LOGISTIC_OBSERVATIONS = 500
SIZING_DIMENSIONS = (1, 5, 20, 30, 1000)
# (config name suffix, keys set on the preset, seeds); the "-empirical"
# variant's approximation and the "-logistic" variant's target and
# approximation are set per preset dimension
VARIANTS = (("", {}, (1, 7)), ("-quantiles", {"functionals": FUNCTIONALS}, (1,)),
            ("-empirical", {"functionals": EMPIRICAL_FUNCTIONALS}, (1,)),
            ("-logistic", {}, (1,)))
# (config name, config without its kernel, seeds) of the small-dimension run
SMALL_D = ("null-d5", {"target": {"kind": "gaussian_correlated", "dimension": 5},
                       "approximation": {"kind": "mean_field_gaussian"},
                       "overrides": {"chains": 386, "iterations": 85}, "seed": 1}, (1, 7))
# 0 is success and 2 a completed run whose reliability check failed; both
# write every output
WROTE_OUTPUTS = (0, 2)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    src, out = Path(args[0]).resolve(), Path(args[1]).resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    (out / "configs").mkdir(parents=True, exist_ok=True)
    for preset in sorted(PRESETS.glob("*.json")):
        base = json.loads(preset.read_text())
        dimension = base["target"]["dimension"]
        per_dimension = {
            "-empirical": {"approximation": {"kind": "empirical",
                                             "samples_path": samples_csv(out, dimension)}},
            "-logistic": {"target": {"kind": "logistic_synthetic", "dimension": dimension,
                                     "observations": LOGISTIC_OBSERVATIONS,
                                     "data_seed": dimension},
                          "approximation": {"kind": "mean_field_gaussian"}}}
        for kernel, (suffix, keys, seeds) in itertools.product(KERNELS, VARIANTS):
            keys = dict(keys, **per_dimension.get(suffix, {}))
            if not run_config(out, env, preset.stem + suffix, kernel,
                              dict(base, kernel=kernel, **keys), seeds):
                return 1
    name, base, seeds = SMALL_D
    for kernel in KERNELS:
        if not run_config(out, env, name, kernel, dict(base, kernel=kernel), seeds):
            return 1
    done = subprocess.run([sys.executable, str(API_REPORTS), str(out / "api")], env=env,
                          cwd=out, capture_output=True, text=True)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        return 1
    for report in sorted((out / "api").iterdir()):
        print_hash(report, out)
    (out / "sizing").mkdir(exist_ok=True)
    for kernel, dimension in itertools.product(KERNELS, SIZING_DIMENSIONS):
        done = subprocess.run(
            [sys.executable, "-m", "shortchain", "sizing", "--kernel", kernel,
             "--dimension", str(dimension)], env=env, cwd=out, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        path = out / "sizing" / f"{kernel}-d{dimension}.txt"
        path.write_text(done.stdout)
        print_hash(path, out)
    return 0


def run_config(out: Path, env: dict, name: str, kernel: str, config: dict, seeds) -> bool:
    """Writes ``config`` and runs both commands on it at each seed, printing
    the hash of every output; False, after printing its error, when a run
    fails."""
    path = out / "configs" / f"{name}-{kernel}.json"
    path.write_text(json.dumps(config))
    for command in COMMANDS:
        for seed in seeds:
            run_dir = out / command / name / kernel / f"seed{seed}"
            done = subprocess.run(
                [sys.executable, "-m", "shortchain", command, "--config",
                 str(path), "--out", str(run_dir), "--seed", str(seed)],
                env=env, cwd=out, capture_output=True, text=True)
            if done.returncode not in WROTE_OUTPUTS:
                print(done.stderr, file=sys.stderr)
                return False
            for output in sorted(run_dir.iterdir()):
                print_hash(output, out)
    return True


def print_hash(path: Path, out: Path):
    """Prints ``sha256  path`` for one output file, the path relative to ``out``."""
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    print(f"{digest}  {path.relative_to(out)}", flush=True)


def samples_csv(out: Path, dimension: int) -> str:
    """Writes SAMPLE_ROWS standard normal rows of ``dimension`` values,
    seeded by the dimension, to a CSV in ``out``; returns its name."""
    name = f"samples-d{dimension}.csv"
    rng = random.Random(dimension)
    rows = (",".join(repr(rng.gauss(0.0, 1.0)) for _ in range(dimension))
            for _ in range(SAMPLE_ROWS))
    (out / name).write_text("\n".join(rows) + "\n")
    return name


if __name__ == "__main__":
    sys.exit(main())
