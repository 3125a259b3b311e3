"""Every python block of README's library tour runs as it stands, each
``print(...)  # text`` line of a block writes exactly ``text``, and the tour
states each public default order once, as ``tests/test_contract.py`` pins it."""

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


def _default_faults(tour):
    """How ``tour`` misstates the public default orders: each callable with
    a defaulted wmax or qmax must appear once as ``name(signature)``, in
    the text of ``tests/test_contract.py``'s table."""
    from test_contract import SIGNATURES

    ordered = {n for n, sig in SIGNATURES.items() if re.search(r"\b[wq]max=", sig)}
    stated = [(n, sig) for n, sig in re.findall(r"`(\w+)(\(.*?\))`", tour) if n in ordered]
    faults = ["%s%s, not %s" % (n, sig, SIGNATURES[n]) for n, sig in stated
              if sig != SIGNATURES[n]]
    counts = {n: [m for m, _sig in stated].count(n) for n in ordered}
    return faults + ["%s stated %d times" % (n, c) for n, c in sorted(counts.items()) if c != 1]


def test_the_tour_states_each_default_order_once_as_the_contract_pins():
    assert _default_faults(TOUR) == []
    # negative controls: a changed default, and a name stated twice
    assert _default_faults(TOUR.replace("hirzebruch_class(dim, qmax=None)",
                                        "hirzebruch_class(dim, qmax=0)")) != []
    assert _default_faults(TOUR + "`todd_factor(root, wmax, qmax=0)`") != []
