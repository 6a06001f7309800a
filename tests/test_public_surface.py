"""The package's public names, and the names its demos and benchmark use.

Demos are parsed, never run, so this stays fast: a demo that imports a
renamed or deleted name fails here instead of when someone runs it.  The
same holds for the entry points the benchmark's tracer wraps.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import shortchain

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

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
