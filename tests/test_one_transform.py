"""One inverse transform path in lpnse.

field._irfftn_half is the package's inverse transform, and outside
field.py every diagnostic transforms through field._box_squares: an
image of the half spectra written into a lane buffer over a block's
support box, whose planes above the box stay zero.  A module that
called _irfftn_half itself would grow a transform path of its own, as
the Bernstein reports once did with a stack of f and its derivatives.
So only field.py may name _irfftn_half; this test reads the source of
every module and names any other use.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lpnse"
NAME = "_irfftn_half"
WHY = ("transform through field._box_squares: write the image into a "
       "lane buffer over the block's support box")


def uses(source: str) -> list:
    """Lines of each use of _irfftn_half in source: a name, an attribute
    (field._irfftn_half) or an imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == NAME
                or isinstance(node, ast.Attribute) and node.attr == NAME
                or isinstance(node, ast.alias) and node.name == NAME):
            found.append(node.lineno)
    return sorted(found)


def test_only_field_calls_the_inverse_transform():
    found = {path.name: uses(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    stray = {name: lines for name, lines in found.items()
             if lines and name != "field.py"}
    assert stray == {}, f"{stray}: {WHY}"
    assert found["field.py"]


@pytest.mark.parametrize("snippet", [
    "x = _irfftn_half(a, shape)\n",
    "x = field._irfftn_half(a, shape, 3)\n",
    "from .field import _box_squares, _irfftn_half\n",
    "def f(a):\n    return [g(lambda b: _irfftn_half(b, s))]\n",
    "class C:\n    transform = staticmethod(_irfftn_half)\n",
], ids=["call", "attribute", "import", "lambda", "alias"])
def test_uses_finds_each_form(snippet):
    assert len(uses(snippet)) == 1


def test_uses_passes_other_names():
    assert uses("from .field import _box_squares, _rfftn_half\n"
                "y = _irfftn(a) + irfftn_half(b) + field._rfftn_half\n") == []
