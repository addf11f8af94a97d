"""No BLAS call on the block, report and solver step paths.

The block tables run their dyadic blocks in two lanes, the report runs
a pair of snapshots per thread, and independent solver runs are to
share a host's cores the same way.  OpenBLAS's worker threads keep
spinning for a while after a call returns, and there they compete with
those lanes: a variant that put one np.tensordot on the p = 2 rows of a
3D n=64 field made a unit of bkm_ratio, split_constants and block_norms
go from 209-230 to 237-280 ms on a 2-core host (227-229 ms with
OPENBLAS_NUM_THREADS=1).  So the modules those paths run in reach no
BLAS routine; this test reads their source and names any call that
would.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lpnse"
MODULES = ("field.py", "blocks.py", "besov.py", "monitor.py", "solver.py")
NUMPY = ("np", "numpy")
BLAS_FUNCTIONS = ("dot", "tensordot", "matmul", "inner", "vdot")
WHY = ("BLAS worker threads spin after a call and slow the two block-table "
       "lanes: an np.tensordot on the 3D n=64 p = 2 rows took a diag3d-like "
       "unit from 209-230 to 237-280 ms on 2 cores; keep the block, "
       "report and solver step paths free of BLAS")


def _dotted(node) -> str:
    """'np.linalg.norm' for that attribute chain, '' for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id] + parts[::-1])


def blas_calls(source: str) -> list:
    """(line, what) of each BLAS-backed numpy call and each @ in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        if not isinstance(node, ast.Call):
            continue
        head, _, rest = _dotted(node.func).partition(".")
        if head not in NUMPY:
            continue
        if (rest in BLAS_FUNCTIONS or rest.startswith("linalg.")
                or rest == "einsum" and any(kw.arg == "optimize"
                                            for kw in node.keywords)):
            found.append((node.lineno, f"{head}.{rest}"))
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_block_and_report_modules_call_no_blas(module):
    calls = blas_calls((PACKAGE / module).read_text())
    assert calls == [], f"{module}: {calls}: {WHY}"


@pytest.mark.parametrize("snippet", [
    "np.tensordot(a, b, axes=3)", "numpy.dot(a, b)", "np.matmul(a, b)",
    "np.inner(a, b)", "np.vdot(a, b)", "np.linalg.norm(a)",
    "np.einsum('i,i', a, b, optimize=True)", "a @ b", "a @= b",
])
def test_blas_calls_finds_each_form(snippet):
    assert len(blas_calls(snippet)) == 1


def test_blas_calls_passes_plain_numpy():
    assert blas_calls("np.einsum('i,i->i', a, b)\nnp.sum(a * b)\n"
                      "inner(f, g)\nnp.square(a, out=a)") == []
