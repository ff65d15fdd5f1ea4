"""Each demo script runs to completion against the package under test."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import anisomesh

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path):
    # a copy in tmp_path writes its figures to tmp_path/output, not demos/output
    shutil.copy(DEMOS / script, tmp_path / script)
    src = os.path.dirname(os.path.dirname(anisomesh.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
