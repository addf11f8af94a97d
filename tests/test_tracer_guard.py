"""The benchmark tracer (perfbench/spans.py) wraps lpnse functions by
name from outside the package, and the benchmark imports lpnse names
inside the functions that use them.  A refactor that renames or removes
one of them must fail here instead of breaking benchmark runs."""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

import lpnse.blocks
import lpnse.cli
import lpnse.field
import lpnse.monitor
import lpnse.solver
from lpnse.besov import CriterionTriple
from lpnse.ensembles import divfree_noise, solenoidal_field
from lpnse.field import SPECTRAL, Field, _available_cpus, set_fft_workers
from lpnse.grid import Grid
from lpnse.snapshots import save_trajectory
from lpnse.solver import SolverConfig, taylor_green, twin_run

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


def test_traced_build_report_records_monitor_spans(monkeypatch):
    # every wrapper's per-call information runs, so a traced function
    # called with arguments its wrapper cannot read fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    config = SolverConfig(dim=2, n=16, nu=0.1, dt=5e-3, t_end=0.02,
                          ic="random-divfree", snap_every=2)
    traj_u, traj_v = twin_run(config, delta=1e-3, seed=3)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        lpnse.monitor.build_report(traj_u, traj_v,
                                   CriterionTriple(0.5, 4.0, 8.0 / 3.0),
                                   0.5, 1.0)
    finally:
        tracer.uninstall()
    names = {rec[spans.NAME] for rec in tracer.spans}
    assert {"monitor.build_report", "monitor.linf_blocks",
            "monitor.besov_series", "monitor.diff_spec"} <= names


def test_traced_cli_report_records_snapshot_reads(monkeypatch, tmp_path,
                                                 capsys):
    # `lpnse report` reads each stored snapshot inside build_report, once:
    # report3d's snapshots.read_*, monitor.diff_spec_per_snapshot and
    # monitor.linf_blocks_s metrics count these spans
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    config = SolverConfig(dim=2, n=16, nu=0.1, dt=5e-3, t_end=0.02,
                          ic="random-divfree", snap_every=1)
    pair = twin_run(config, delta=1e-3, seed=3)
    for side, traj in zip("uv", pair):
        save_trajectory(tmp_path / side, traj)
    snapshots = len(pair[0])
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        code = lpnse.cli.main([
            "report", "--u", str(tmp_path / "u"), "--v", str(tmp_path / "v"),
            "--triple", "0.5,4,2.6666666666666665", "--s", "0.5",
            "--lambda", "1.0", "--out", str(tmp_path / "report")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    names = [rec[spans.NAME] for rec in tracer.spans]
    assert names.count("snapshots.read_field") == 2 * snapshots
    assert names.count("monitor.diff_spec") == snapshots
    assert names.count("monitor.linf_blocks") >= 1


def test_traced_products_record_pad_and_truncate(monkeypatch):
    # the solver step and dealiased_product share one padded kernel, so
    # the benchmark's field.pad_truncate_* metrics see both
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    u = taylor_green(Grid(2, 16))
    config = SolverConfig(dim=2, n=16, dt=1e-3, t_end=1e-3)
    for work in (lambda: lpnse.solver.run(config),
                 lambda: lpnse.field.dealiased_product(u, u)):
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
            work()
        finally:
            tracer.uninstall()
        names = {rec[spans.NAME] for rec in tracer.spans}
        assert {"field.pad", "field.truncate"} <= names


def test_traced_block_norms_record_every_pruned_pass(monkeypatch):
    # the pruned inverse transform runs its leading-axes passes through
    # scipy.fft.ifftn, which the tracer wraps, so fft.* metrics see them.
    # One lane (one thread) transforms each block once, all components
    # together; two or more lanes transform each component of a block
    # on its own (block_norm_table)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    grid = Grid(3, 16)
    u = divfree_noise(grid, np.random.default_rng(5))
    blocks = len(lpnse.blocks.block_indices(grid))
    for threads in (1, min(2, _available_cpus())):
        set_fft_workers(threads)
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
            lpnse.blocks.block_norms(u, math.inf)
        finally:
            tracer.uninstall()
        names = [rec[spans.NAME] for rec in tracer.spans]
        transforms = blocks if threads == 1 else u.ncomp * blocks
        assert names.count("fft.irfftn") == transforms
        assert names.count("fft.ifftn") >= blocks


def test_perfbench_imported_names_exist():
    # every `from lpnse... import name` of perfbench/*.py, parsed rather
    # than run, and the worker's read of the FFT worker count
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "lpnse"):
                names.update((node.module, alias.name) for alias in node.names)
    assert len(names) > 10
    names.add(("lpnse.field", "_fft_workers"))
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not _importable(module, name)]
    assert missing == []


def test_perfbench_field_constructor_calls():
    # perfbench makes fields as Field(grid, full_layout, SPECTRAL) (the
    # report3d pair) and as Field(f.grid, f.data.copy(), f.representation)
    # (the self-test's NaN control): both store f's half spectrum
    grid = Grid(3, 16)
    for f in (solenoidal_field(grid, 5.0, 7, slope=2.0),
              divfree_noise(grid, np.random.default_rng(8))):
        for g in (Field(grid, f.data, SPECTRAL),
                  Field(f.grid, f.data.copy(), f.representation)):
            assert g.half.tobytes() == f.half.tobytes()


def _importable(module, name):
    """Does `from module import name` succeed, a submodule included?"""
    mod = importlib.import_module(module)
    return hasattr(mod, name) or (
        hasattr(mod, "__path__")
        and importlib.util.find_spec(f"{module}.{name}") is not None)
