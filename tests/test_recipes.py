"""The README's experiment recipes run as written and print one row per scan point."""

import os
import re
import shlex
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def recipes() -> list[str]:
    """The sh blocks of the README section "Experiment recipes"."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        section = f.read().split("## Experiment recipes\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```sh\n(.*?)```", section, re.S)


# rows: q = 1/2, 1, 2, 4 at m = 3; levels l = 1 (m = 2) and 1, 2 (m = 3) at q = 1, 2;
# three complex q at m = 3
@pytest.mark.parametrize("index,rows", [(0, 4), (1, 6), (2, 3)])
def test_recipe_runs(index, rows):
    blocks = recipes()
    assert len(blocks) == 3
    # `lgmirror` and `python` are the package sources under this interpreter
    py = shlex.quote(sys.executable)
    prelude = f'lgmirror() {{ {py} -m lgmirror.cli "$@"; }}\npython() {{ {py} "$@"; }}\n'
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(["bash", "-c", prelude + blocks[index]], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == rows, proc.stdout
    assert all("nan" not in line for line in lines), proc.stdout
