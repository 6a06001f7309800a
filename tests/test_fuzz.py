"""A fixed-seed fuzz of the config surface, run end to end through ``cli.main``.

Each example takes a shipped preset at 30 chains and 3 iterations and sets
one or two of its keys (a target, approximation, top-level or overrides
key) to an edge value.  Every run must end as the CLI documents: exit 0 or
2 with its report written, or exit 1 with one ``error:`` line and no output
directory.  No exception or traceback may escape, and no NumPy warning,
which the suite raises as an error.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from shortchain import cli

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
