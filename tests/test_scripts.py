"""The experiment scripts under scripts/ run end to end at small sizes."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("spectrum_scan.py", ["--m", "2"], "m = 2: expecting up to 2^m = 4 torus critical points"),
        ("relation_scan.py", ["--max-m", "3"], "  m   l          q points  max deviation"),
    ],
)
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
