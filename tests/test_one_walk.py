"""One walk over trajectories in monitor.

Every public pair diagnostic folds the rows of one monitor._pass, which
checks the pair's alignment and reads each snapshot pair once on the
threads of the thread map.  A function that walked a trajectory on its
own would read a stored pair's files again (gronwall_check once read
u's twice) and check the alignment in a place of its own.  So in
monitor.py only _pass, and block_energy_audit, which reads the three
snapshots around one time, may read a trajectory's .snapshots or call
_require_aligned; this test reads the source and names any other
function that does.
"""

import ast
from pathlib import Path

import pytest

MONITOR = Path(__file__).resolve().parent.parent / "src" / "lpnse" / "monitor.py"
WALKERS = ("_pass", "block_energy_audit")
WHY = ("walk trajectories only through _pass: make one _pass with the "
       "per-snapshot row you need and fold its stacked rows")


def walks(source: str) -> list:
    """(top-level function, line, what) of each .snapshots read and each
    _require_aligned call in source; '<module>' outside any function."""
    found = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "snapshots":
                found.append((name, node.lineno, ".snapshots"))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "_require_aligned"):
                found.append((name, node.lineno, "_require_aligned"))
    return sorted(found)


def test_only_pass_and_the_energy_audit_walk_trajectories():
    found = walks(MONITOR.read_text())
    stray = [walk for walk in found if walk[0] not in WALKERS]
    assert stray == [], f"{stray}: {WHY}"
    assert {walk[0] for walk in found} == set(WALKERS)


@pytest.mark.parametrize("snippet, name", [
    ("def f(t):\n    return t.snapshots[0]\n", "f"),
    ("def f(a, b):\n    _require_aligned(a, b)\n", "f"),
    ("def f(t):\n    def step(i):\n        return t.snapshots[i]\n"
     "    return step\n", "f"),
    ("def f(t):\n    return [g(lambda i: t.snapshots[i])]\n", "f"),
    ("class C:\n    def m(self, t):\n        return t.snapshots\n", "C"),
    ("first = traj.snapshots[0]\n", "<module>"),
], ids=["read", "check", "nested-def", "lambda", "method", "module"])
def test_walks_finds_each_form(snippet, name):
    assert [walk[0] for walk in walks(snippet)] == [name]


def test_walks_passes_other_reads():
    assert walks("def f(t, u):\n    return t.times, u.grid, snapshots\n"
                 "def g(a, b):\n    a.alignment_fault(b)\n") == []
