"""Every demo runs to completion as a script."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(n for n in os.listdir(os.path.join(ROOT, "demos")) if n.endswith(".py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
