"""The packed key layout is known to ``_packed.py``, its kernels, and to
``series.py``, which wraps them: no other module of the package imports or
reads a helper that encodes or decodes key bits, and ``_packed.py`` imports
nothing from the package.  No module of the package reaches the compile
budget."""

import ast
import io
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ellgenus"
LAYOUT = {"_field", "_field_name", "_width", "_unpack", "_key_mono", "_fold", "_unfold"}
KNOWERS = {"series.py", "_packed.py"}
# the encoder of int numerators and the reduction of a packed form
ENCODERS = {"_pack", "_reduced"}
PACKERS = {"series.py", "_packed.py"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _layout_uses(tree, names=LAYOUT):
    """(line, name) of every import of a helper in ``names`` and every
    attribute read of one (``series._width``)."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            uses += [(node.lineno, a.name) for a in node.names if a.name in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            uses.append((node.lineno, node.attr))
    return uses


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in KNOWERS],
    ids=lambda p: p.name,
)
def test_only_series_knows_the_key_layout(path):
    assert _layout_uses(_tree(path)) == []


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in PACKERS],
    ids=lambda p: p.name,
)
def test_only_the_local_factors_build_packed_ints(path):
    # every module but the two that know the key layout builds series through
    # WSeries: the closed-form local factors through ``WSeries._of_ints``
    assert _layout_uses(_tree(path), ENCODERS) == []


def test_the_guard_sees_an_import_and_an_attribute_read():
    source = "from .series import WSeries, _width\nimport x\nx.series._unpack(a)\n"
    assert _layout_uses(ast.parse(source)) == [(1, "_width"), (3, "_unpack")]
    source = "from .series import WSeries, _pack\nseries._reduced(a, 1)\n"
    assert _layout_uses(ast.parse(source), ENCODERS) == [(1, "_pack"), (2, "_reduced")]


def test_only_the_terms_view_unpacks():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Name) and inner.id == "_unpack":
                        callers.add((path.name, node.name))
    assert callers == {("series.py", "terms")}


def _package_imports(tree):
    """(line, module) of every import of the tree that names a module of the
    package: a relative import, or one of ``ellgenus``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "ellgenus":
                found.append((node.lineno, "." * node.level + (node.module or "")))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] == "ellgenus"]
    return found


def test_the_kernels_import_nothing_from_the_package():
    # the kernels take and return packed pairs and folded dicts; the
    # WSeries wrappers live in series.py, which imports them
    assert _package_imports(_tree(PACKAGE / "_packed.py")) == []


def test_the_kernel_guard_sees_an_import_of_series():
    source = "import os\nfrom .series import W\nfrom . import series\nimport ellgenus.series\n"
    found = [(2, ".series"), (3, "."), (4, "ellgenus.series")]
    assert _package_imports(ast.parse(source)) == found


# A compile of one source file takes about 0.5 MB more memory once it passes
# a step near 8190 tokens, and with no cached bytecode every start compiles
# every module: series.py crossed that step at 8711 tokens and set the peak
# memory of every benchmark workload, until its kernels moved to _packed.py.
# The budget keeps every module well below the step.
TOKEN_BUDGET = 6000


def _tokens(text):
    """The tokens of a source text as ``tokenize`` counts them, comments and
    newlines included."""
    return sum(1 for _ in tokenize.generate_tokens(io.StringIO(text).readline))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_each_module_stays_below_the_compile_budget(path):
    assert _tokens(path.read_text()) < TOKEN_BUDGET


def test_a_padded_module_reaches_the_compile_budget():
    # negative control: series.py padded with one-line statements of four
    # tokens each, up to the budget
    text = (PACKAGE / "series.py").read_text()
    lines = (TOKEN_BUDGET - 1 - _tokens(text)) // 4
    assert _tokens(text + "x = 1\n" * lines) < TOKEN_BUDGET
    assert _tokens(text + "x = 1\n" * (lines + 1)) >= TOKEN_BUDGET
