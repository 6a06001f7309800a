"""Fixed-seed fuzzes of the config surface and of the API, run end to end.

Each config example takes a shipped preset at 30 chains and 3 iterations
and sets one or two of its keys (a target, approximation, top-level or
overrides key) to an edge value, then runs ``cli.main``.  Every run must end
as the CLI documents: exit 0 or 2 with its report written, or exit 1 with
one ``error:`` line and no output directory.  No exception or traceback may
escape, and no NumPy warning, which the suite raises as an error.

Each API example builds a custom ``TargetModel``, ``Approximation`` and
scalar functional, with one or two of their callables and vectors changed
to give a wrong shape, a wrong dtype or edge values, then calls
``run_diagnostic`` at 20 chains and 3 iterations.  It must return a report
that serializes or raise a one-line ``ValueError`` or ``RuntimeError``,
never a NumPy warning or a bare "math domain error".
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shortchain import (KERNEL_KINDS, Approximation, RunConfig, TargetModel, cli,
                        correlated_gaussian_target, run_diagnostic)

PRESETS = sorted((Path(__file__).resolve().parents[1] / "presets").glob("*.json"))
# every key a config may hold, as (section, key); a top-level key has section None
KEYS = sorted([(None, key) for key in cli._TOP_KEYS]
              + [("overrides", key) for key in cli._OVERRIDE_KEYS]
              + [(section, key) for section, keys in cli._EVERY_KEY.items() for key in keys],
              key=repr)
EDGE_VALUES = [None, True, False, 0, 1, -1, 1e-320, 1e308, -1e308, math.nan, math.inf,
               -math.inf, 2**70, "", "barker", "empirical", "mean(0)", [], [0.5, 2.0],
               ["quantile(0,0.5)", "scalar(target_log_density)"], {}, {"chains": 30}]
EXAMPLES = 300


def run_cli(cfg: dict):
    """Runs ``shortchain run`` on ``cfg``; returns its exit code, stdout,
    stderr, and the names of the files it wrote, or None for no directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", str(path), "--out", str(out_dir)])
        written = sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else None
        return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
@given(preset=st.sampled_from(PRESETS),
       edits=st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(EDGE_VALUES)),
                      min_size=1, max_size=2))
def test_every_config_exits_as_documented(preset, edits):
    cfg = json.loads(preset.read_text())
    cfg["overrides"] = {"chains": 30, "iterations": 3}
    for (section, key), value in edits:
        value = copy.deepcopy(value)  # a later edit may go inside it
        if section is None:
            cfg[key] = value
        elif isinstance(cfg.get(section), dict):
            cfg[section][key] = value
    code, out, err, written = run_cli(cfg)
    assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_UNRELIABLE), (code, err)
    assert "Traceback" not in err
    if code == cli.EXIT_ERROR:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert out == "" and written is None
    else:
        assert written == ["bounds.csv", "reliability.csv", "report.json"]


API_EXAMPLES = 500
GAUSSIAN = correlated_gaussian_target(2, correlation=0.3)
# every callable and vector an API run takes from its caller
PARTS = ["log_density", "gradient", "draw", "means", "sds", "covariance", "quantile", "scalar"]
# how one part departs from its right value: in shape, in dtype, or in its
# last entry or every entry
EDITS = st.sampled_from(["number", "doubled", "column", complex, bool, str, object]
                        + [(value, everywhere) for everywhere in (False, True) for value in
                           (math.nan, math.inf, -math.inf, 0.0, 1e-170, 1e200)])


def edited(value, edit):
    """``value``, a float or a float array, changed as ``edit`` says."""
    if edit is None:
        return value
    value = np.asarray(value, dtype=float)
    if edit == "number":
        return float(value.flat[0])
    if edit == "doubled":
        return np.concatenate([np.atleast_1d(value)] * 2)
    if edit == "column":
        return value[..., None]
    if isinstance(edit, type):
        return value.astype(edit)
    bad, everywhere = edit
    value = np.full_like(value, bad) if everywhere else value.copy()
    value.flat[-1] = bad
    return value


@settings(max_examples=API_EXAMPLES, derandomize=True, database=None, deadline=None)
@given(kernel=st.sampled_from(sorted(KERNEL_KINDS)),
       edits=st.dictionaries(st.sampled_from(PARTS), EDITS, min_size=1, max_size=2))
def test_every_api_run_reports_or_refuses_on_one_line(kernel, edits):
    def part(name, value):
        return edited(value, edits.get(name))

    target = TargetModel(2, lambda x: part("log_density", GAUSSIAN.log_density(x)),
                         lambda x: part("gradient", GAUSSIAN.grad_log_density(x)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            approximation = Approximation(
                2, lambda stream: part("draw", stream.standard_normal(2)),
                part("means", np.zeros(2)), part("sds", np.ones(2)),
                part("covariance", np.eye(2)), quantile_fn=lambda i, p: part("quantile", 0.1))
            report = run_diagnostic(
                RunConfig(kernel=kernel, seed=1, n_chains=20, n_iterations=3,
                          functionals=["mean(*)", "variance(*)", "quantile(0,0.5)",
                                       "scalar(sum)"],
                          scalar_functions={"sum": lambda x: part("scalar", x.sum(axis=1))}),
                target, approximation)
        except (ValueError, RuntimeError) as exc:
            assert type(exc) in (ValueError, RuntimeError), repr(exc)
            message = str(exc)
            assert message and "\n" not in message and message != "math domain error"
        else:
            json.dumps(report.to_json_dict(), allow_nan=False)
