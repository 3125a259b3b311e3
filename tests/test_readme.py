"""Every python block of README's library tour runs as it stands, and each
``print(...)  # text`` line of a block writes exactly ``text``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
_START = README.index("## Library tour")
TOUR = README[_START : README.index("\n## ", _START)]
BLOCKS = re.findall(r"```python\n(.*?)```", TOUR, re.S)
PRINTED = re.compile(r"print\(.*\)\s+# (.*)")


def test_the_tour_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_tour_block_runs_in_a_fresh_interpreter(index):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", BLOCKS[index]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0 and run.stderr == "", run.stderr
    lines = [line for line in BLOCKS[index].splitlines() if line.startswith("print(")]
    expected = [PRINTED.fullmatch(line) for line in lines]
    assert all(expected), "a print line has no comment with its output"
    assert run.stdout.splitlines() == [m.group(1) for m in expected]
