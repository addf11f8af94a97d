"""Full-layout wavenumbers and multipliers stay out of lpnse, and the
Grid is the one source of its lattice.

Every block quantity in the package is computed on half spectra
(planes 0 <= k_last <= n/2): the wavenumbers are grid._half_ks, |k|^2
and |k| are grid._half_k, the factors i k_a grid._half_ik, the -n/2 mask
grid._paired, and the one block multiplier is blocks._half_multiplier.
Grid.k_sq, the full layout, is kept for callers outside the package; a
module that read it, or a full-layout multiplier builder such as the
removed blocks.block_multiplier, would be a second copy of the same
numbers on twice the planes, and a module that built wavenumbers itself
(np.fft.fftfreq) or cut grid.k_components to the half planes would be a
second copy of the lattice.  So outside grid.py no module may read a
.k_sq, .k_mag or .k_components attribute or name fftfreq, and none may
name block_multiplier; this test reads the source of every module and
names any such use.  The Grid's lattice arrays are cached and shared,
so each must refuse writes.
"""

import ast
from pathlib import Path

import pytest

from lpnse import Grid

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lpnse"
ATTRIBUTES = ("k_sq", "k_mag")
NAME = "block_multiplier"
WHY = ("read k, |k|^2, |k|, i k and the -n/2 mask on the half planes "
       "(grid._half_ks, _half_k, _half_ik, _paired) and block multipliers "
       "from blocks._half_multiplier")


def full_layout_reads(source: str) -> list:
    """Lines of each .k_sq or .k_mag attribute read in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ATTRIBUTES)


def lattice_builds(source: str) -> list:
    """Lines of each .k_components read and each use of fftfreq in
    source: a call through np.fft or scipy.fft, an imported name or a
    reference."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("k_components", "fftfreq")
                  or isinstance(node, ast.Name) and node.id == "fftfreq"
                  or isinstance(node, ast.alias) and node.name == "fftfreq")


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
            lines = sorted(lines + full_layout_reads(source)
                           + lattice_builds(source))
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
    "k = np.fft.fftfreq(n, 1.0 / n)\n",
    "k = np.abs(scipy.fft.fftfreq(half.shape[-2], 1.0 / half.shape[-2]))\n",
    "from numpy.fft import fftfreq\n",
    "freqs = map(fftfreq, sizes)\n",
    "ks = [k[..., :n // 2 + 1] for k in grid.k_components]\n",
    "kx = f.grid.k_components[0]\n",
], ids=["numpy-call", "scipy-call", "import", "reference", "half-cut",
        "index"])
def test_lattice_builds_finds_each_form(snippet):
    assert len(lattice_builds(snippet)) == 1


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
    source = ("k_sq, k_mag = grid._half_k\nks = grid._half_ks\n"
              "m = _half_multiplier(grid, j, 'low') * k_sq\n"
              "d = _cross(grid._half_ik, spec)\nspec *= grid._paired\n"
              "def _wavenumbers(ks):\n    k_sq = 0\n    return k_sq\n")
    assert full_layout_reads(source) == []
    assert lattice_builds(source) == []
    assert multiplier_uses(source) == []


@pytest.mark.parametrize("dim", [2, 3])
def test_grid_lattice_arrays_refuse_writes(dim):
    # a cached array that took a stray in-place write would corrupt every
    # later wavenumber of its grid
    grid = Grid(dim, 8)
    arrays = {"k_axis": [grid.k_axis], "k_components": grid.k_components,
              "_half_ks": grid._half_ks, "_half_ik": grid._half_ik,
              "_paired": [grid._paired], "_half_k": grid._half_k}
    for name, group in arrays.items():
        for a in group:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = a
            assert not a.flags.writeable, name
