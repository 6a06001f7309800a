"""Every script in ``demos/`` runs to completion and prints its results.

Each demo runs in its own interpreter, from a scratch working directory,
with the ``shortchain`` package that these tests import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shortchain

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    package_root = str(Path(shortchain.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
