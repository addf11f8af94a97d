"""Full-layout wavenumbers and multipliers stay out of lpnse.

Every block quantity in the package is computed on half spectra
(planes 0 <= k_last <= n/2): the wavenumbers are grid._half_k and
field._half_k_sq, and the one block multiplier is blocks._half_multiplier.
Grid.k_sq, the full layout, is kept for callers outside the package; a
module that read it, or a full-layout multiplier builder such as the
removed blocks.block_multiplier, would be a second copy of the same
numbers on twice the planes.  So outside grid.py no module may read a
.k_sq or .k_mag attribute, and none may name block_multiplier; this
test reads the source of every module and names any such use.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lpnse"
ATTRIBUTES = ("k_sq", "k_mag")
NAME = "block_multiplier"
WHY = ("read |k| and |k|^2 on the half planes (grid._half_k, "
       "field._half_k_sq) and block multipliers from blocks._half_multiplier")


def full_layout_reads(source: str) -> list:
    """Lines of each .k_sq or .k_mag attribute read in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ATTRIBUTES)


def multiplier_uses(source: str) -> list:
    """Lines of each use of block_multiplier in source: a name, an
    attribute (blocks.block_multiplier), an imported name or a
    definition."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == NAME
                or isinstance(node, ast.Attribute) and node.attr == NAME
                or isinstance(node, ast.alias) and node.name == NAME
                or isinstance(node, ast.FunctionDef) and node.name == NAME):
            found.append(node.lineno)
    return sorted(found)


def test_only_grid_reads_the_full_layout_wavenumbers():
    stray = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = multiplier_uses(source)
        if path.name != "grid.py":
            lines = sorted(lines + full_layout_reads(source))
        if lines:
            stray[path.name] = lines
    assert stray == {}, f"{stray}: {WHY}"


@pytest.mark.parametrize("snippet", [
    "x = grid.k_mag\n",
    "x = grid.k_mag[grid.k_mag <= top]\n",
    "y = np.sum(f.grid.k_sq * power)\n",
    "def f(g):\n    return [h(lambda q: q.k_sq) for _ in g]\n",
], ids=["k_mag", "k_mag-mask", "k_sq", "k_sq-lambda"])
def test_full_layout_reads_finds_each_form(snippet):
    assert len(full_layout_reads(snippet)) == snippet.count(".k_")


@pytest.mark.parametrize("snippet", [
    "m = block_multiplier(grid, j, kind='low')\n",
    "m = blocks.block_multiplier(grid, j)\n",
    "from .blocks import block_indices, block_multiplier\n",
    "def block_multiplier(grid, j):\n    pass\n",
    "table = map(functools.partial(block_multiplier, grid), js)\n",
], ids=["call", "attribute", "import", "definition", "partial"])
def test_multiplier_uses_finds_each_form(snippet):
    assert len(multiplier_uses(snippet)) == 1


def test_half_plane_names_pass():
    source = ("k_sq = _half_k_sq(grid)\nk_mag = grid._half_k[1]\n"
              "m = _half_multiplier(grid, j, 'low') * k_sq\n"
              "def _wavenumbers(self):\n    k_sq = 0\n    return k_sq\n")
    assert full_layout_reads(source) == []
    assert multiplier_uses(source) == []
