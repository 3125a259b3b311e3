"""Every python block of README's library tour runs as it stands."""

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
