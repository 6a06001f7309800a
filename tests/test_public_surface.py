"""The package's public names, and the names its demos and benchmark use.

Demos are parsed, never run, so this stays fast: a demo that imports a
renamed or deleted name fails here instead of when someone runs it.  The
same holds for the entry points the benchmark's tracer wraps.  The
package's import diet is checked here too: it never loads ``scipy.stats``,
whose import alone costs more than a small audit, nor ``scipy.linalg``.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import shortchain

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = Path(shortchain.__file__).resolve().parent

# what perfbench/workload.py reaches through the top-level package
BENCHMARK_NAMES = ("RunConfig", "run_diagnostic", "correlated_gaussian_target",
                   "kl_optimal_mean_field", "mean_field_gaussian_approximation",
                   "synthetic_logistic_regression_target")


def shortchain_imports(path):
    """Yields (module, name) for each ``from shortchain... import name``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "shortchain" or node.module.startswith("shortchain.")):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "shortchain":
                    yield alias.name, None


def test_every_exported_name_resolves_once():
    names = shortchain.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(shortchain, name)]
    assert missing == []


def test_demo_imports_resolve():
    assert len(DEMOS) >= 4
    for demo in DEMOS:
        imports = list(shortchain_imports(demo))
        assert imports, f"{demo.name} imports nothing from shortchain"
        for module_name, name in imports:
            module = importlib.import_module(module_name)
            assert name is None or hasattr(module, name), f"{demo.name}: {module_name}.{name}"


def test_benchmark_names_stay_at_top_level():
    for name in BENCHMARK_NAMES:
        assert name in shortchain.__all__
        assert hasattr(shortchain, name)
    cli = importlib.import_module("shortchain.cli")
    assert shortchain.cli is cli
    assert callable(cli.main)


def test_tracer_entry_points_resolve():
    # a renamed or deleted entry point would turn its per-layer benchmark
    # metric into "absent" without failing anything else
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install("shortchain")
        assert tracer.absent == []
    finally:
        assert tracer.restore() == []


# sized N and T, so the chain-count search and the order-statistic ranks run
AUDIT_EVERY_KERNEL = """
import sys
import numpy as np
import shortchain, shortchain.cli
from shortchain import (KERNEL_KINDS, RunConfig, correlated_gaussian_target,
                        mean_field_gaussian_approximation, run_diagnostic)
target = correlated_gaussian_target(2, correlation=0.3)
approx = mean_field_gaussian_approximation(np.zeros(2), np.ones(2))
for kernel in KERNEL_KINDS:
    run_diagnostic(RunConfig(kernel=kernel, seed=1, functionals=[
        "quantile(0,0.5)", "quantile(1,0.1)", "scalar(target_log_density)"]),
        target, approx)
print(sorted(name for name in sys.modules if name.startswith("scipy.stats")))
print(sorted(name for name in sys.modules if name.startswith("scipy.linalg")))
"""


def test_audits_never_load_scipy_stats():
    # a fresh interpreter, since the test suite itself imports scipy.stats
    # and scipy.linalg
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", AUDIT_EVERY_KERNEL], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_no_import_is_deferred_into_a_function():
    # a deferred import moves its cost into the first audit instead of removing it
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [n.lineno for n in ast.walk(node)
                          if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert nested == [], f"{module.name}:{nested} imports inside {node.name}"


def test_only_stats_converts_outside_arrays():
    # stats.checked_reals is the one conversion of an array from outside; a
    # bare np.asarray elsewhere would let a complex, bool or string array by
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "stats.py":
            continue
        calls = [n.lineno for n in ast.walk(ast.parse(module.read_text(), filename=str(module)))
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                 and n.func.attr == "asarray"]
        assert calls == [], f"{module.name}:{calls} calls asarray, not stats.checked_reals"


def _leading_text(node) -> str:
    # the literal start of a string or f-string argument, else ""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


def test_one_owner_per_outside_callable():
    # Approximation.sample is the one caller of an approximation's sampler, and
    # TargetModel the one checker of a target's outputs; a copy elsewhere
    # would check them its own way, or leave some calls unchecked
    for module in sorted(PACKAGE.glob("*.py")):
        calls = [n for n in ast.walk(ast.parse(module.read_text(), filename=str(module)))
                 if isinstance(n, ast.Call)]
        samplers = [n.lineno for n in calls if getattr(n.func, "attr", None) == "sampler"]
        targets = [n.lineno for n in calls
                   if getattr(n.func, "attr", getattr(n.func, "id", None)) == "checked_reals"
                   and n.args and _leading_text(n.args[0]).startswith("target ")]
        if module.name != "approximations.py":
            assert samplers == [], f"{module.name}:{samplers} calls a sampler, not sample"
        if module.name != "targets.py":
            assert targets == [], f"{module.name}:{targets} checks a target's output"


def test_one_caller_of_a_scalar_functional():
    # runner._value_rows calls and checks every scalar functional, at x0 and
    # at each diagnosed ensemble; a second site would check it its own way
    sites = [f"{module.name}:{n.lineno}" for module in sorted(PACKAGE.glob("*.py"))
             for n in ast.walk(ast.parse(module.read_text(), filename=str(module)))
             if isinstance(n, ast.Call)
             and getattr(n.func, "attr", getattr(n.func, "id", None)) == "checked_reals"
             and n.args and _leading_text(n.args[0]).startswith("scalar function")]
    assert len(sites) == 1, sites


def test_only_stats_refuses_a_non_finite_value():
    # stats.check_entries is the one refusal of an array's bad entry, and
    # checked_real of a number's; a hand-written copy elsewhere would word and
    # name it its own way
    holders = [module.name for module in sorted(PACKAGE.glob("*.py"))
               if "must be finite" in module.read_text()]
    assert holders == ["stats.py"]
