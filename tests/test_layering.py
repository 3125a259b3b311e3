"""The packed key layout is known to ``series.py`` alone: no other module of
the package imports or reads a helper that encodes or decodes key bits."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ellgenus"
LAYOUT = {"_field", "_field_name", "_width", "_unpack", "_key_mono", "_fold", "_unfold"}
# the encoder of int numerators and the reduction of a packed form
ENCODERS = {"_pack", "_reduced"}
PACKERS = {"series.py", "charclasses.py"}


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
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "series.py"],
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
    # charclasses writes the closed-form local factors as packed ints; every
    # other module builds series through WSeries and the charclasses builders
    assert _layout_uses(_tree(path), ENCODERS) == []


def test_the_guard_sees_an_import_and_an_attribute_read():
    source = "from .series import WSeries, _width\nimport x\nx.series._unpack(a)\n"
    assert _layout_uses(ast.parse(source)) == [(1, "_width"), (3, "_unpack")]
    source = "from .series import WSeries, _pack\nseries._reduced(a, 1)\n"
    assert _layout_uses(ast.parse(source), ENCODERS) == [(1, "_pack"), (2, "_reduced")]


def test_only_the_terms_view_unpacks():
    callers = set()
    for node in ast.walk(_tree(PACKAGE / "series.py")):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and inner.id == "_unpack":
                    callers.add(node.name)
    assert callers == {"terms"}
