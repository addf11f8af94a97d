"""The benchmark tracer (perfbench/spans.py) wraps lpnse functions by
name from outside the package.  A refactor that renames one of them
must fail here instead of breaking traced benchmark runs."""

from pathlib import Path

import lpnse.blocks
import lpnse.monitor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_traced_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    block_norms = lpnse.blocks.block_norms
    linf_block_matrix = lpnse.monitor._linf_block_matrix
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert lpnse.blocks.block_norms.__wrapped__ is block_norms
        assert lpnse.monitor._linf_block_matrix.__wrapped__ is linf_block_matrix
    finally:
        tracer.uninstall()
    assert lpnse.blocks.block_norms is block_norms
    assert lpnse.monitor._linf_block_matrix is linf_block_matrix
