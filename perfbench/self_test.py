"""Checks on the benchmark itself; exits non-zero if any fails.

  python3 perfbench/self_test.py        (from the repository root)

1. Exact counts through the wrappers in spans.py.  Several lpnse modules
   import helpers by name, so a wrapper placed only on the defining
   module misses calls without any error; these counts would come out
   low.  The expected values are those of the seed commit, where they
   were verified independently; a change to the program that alters the
   call structure (e.g. half-spectrum transforms) changes them, and this
   table with it.
2. Negative controls for the correctness gate: a report3d unit on a copy
   of the twin pair with one NaN coefficient, and a pipeline2d unit whose
   manifest carries an altered sha256, must both count as failed.
"""

import math
import os
import shutil
import sys

import spans
import worker

EXPECTED = {
    "3D IF-RK4 step: scipy.fft calls": 20,
    "3D IF-RK4 step: ifftn calls": 16,
    "3D IF-RK4 step: fftn calls": 4,
    "2D IF-RK4 step: scipy.fft calls": 16,
    "split_constants: grad_norm_inf calls": 2,
    "split_constants: lp_norm calls": 2,
    "split_constants: besov_norm calls": 1,
    "bkm_ratio: irfftn calls": 2,
    "build_report: block_norms calls per snapshot": 3,
    "build_report: _diff_spec calls per snapshot": 2,
}


def _below(ix, root, name=None, direct=False):
    """Spans under span `root` (optionally only its direct children)."""
    found = []
    for i, rec in enumerate(ix.spans):
        if name is not None and not rec[spans.NAME].startswith(name):
            continue
        if direct:
            if rec[spans.PARENT] == root:
                found.append(i)
            continue
        parent = rec[spans.PARENT]
        while parent >= 0 and parent != root:
            parent = ix.spans[parent][spans.PARENT]
        if parent == root:
            found.append(i)
    return found


def measured_counts(work):
    import lpnse.besov as besov
    import lpnse.monitor as monitor
    import lpnse.solver as solver
    from lpnse.besov import BesovSpec, CriterionTriple
    from lpnse.field import scale
    from lpnse.grid import Grid
    from lpnse.snapshots import load_trajectory

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        counts = {}
        for dim, n in ((3, 32), (2, 64)):
            config = solver.SolverConfig(dim=dim, n=n, nu=0.05, dt=5e-3,
                                         t_end=5e-3, ic="random-divfree",
                                         seed=3)
            u = solver.initial_condition(config, Grid(dim, n))
            tracer.spans.clear()
            solver.step(u, config)
            ix = spans.SpanIndex(tracer.spans)
            (step,) = ix.of("solver.step")
            counts[f"{dim}D IF-RK4 step: scipy.fft calls"] = len(
                _below(ix, step, "fft."))
            if dim == 3:
                for kind in ("ifftn", "fftn"):
                    counts[f"3D IF-RK4 step: {kind} calls"] = len(
                        _below(ix, step, f"fft.{kind}"))

        triple = CriterionTriple(0.5, 6.0, 2.0)
        u = solver.initial_condition(
            solver.SolverConfig(dim=3, n=32, ic="random-divfree", seed=4),
            Grid(3, 32))
        u = scale(u, 1.0 / besov.besov_norm(
            u, BesovSpec(triple.r, triple.p, math.inf)))
        tracer.spans.clear()
        besov.split_constants(u, triple)
        ix = spans.SpanIndex(tracer.spans)
        (split,) = ix.of("besov.split_constants")
        for label, name in (("grad_norm_inf", "field.grad_norm_inf"),
                            ("lp_norm", "field.lp_norm"),
                            ("besov_norm", "besov.besov_norm")):
            counts[f"split_constants: {label} calls"] = len(
                _below(ix, split, name, direct=True))

        tracer.spans.clear()
        besov.bkm_ratio(u)
        ix = spans.SpanIndex(tracer.spans)
        (bkm,) = ix.of("besov.bkm_ratio")
        counts["bkm_ratio: irfftn calls"] = len(_below(ix, bkm, "fft.irfftn"))

        pair = work / "pair"
        worker.write_decay_pair(pair, 7, 5, 0.05, 5e-3, 1e-4)
        traj_u = load_trajectory(pair / "u")
        traj_v = load_trajectory(pair / "v")
        tracer.spans.clear()
        monitor.build_report(traj_u, traj_v, triple, 0.5, 1.0)
        ix = spans.SpanIndex(tracer.spans)
        (report,) = ix.of("monitor.build_report")
        for label, name in (("block_norms", "blocks.block_norms"),
                            ("_diff_spec", "monitor.diff_spec")):
            counts[f"build_report: {label} calls per snapshot"] = (
                len(_below(ix, report, name)) / len(traj_u))
        return counts
    finally:
        tracer.uninstall()


def nan_control(work):
    """(clean unit failures, NaN-copy unit failures) for report3d."""
    import numpy as np
    from lpnse.field import Field
    from lpnse.snapshots import read_field, write_field

    wl = worker.Report3D(11, work / "report3d")
    wl.work.mkdir(parents=True)
    wl.setup()
    _, clean = worker.run_unit(wl, 0)
    copy = wl.work / "pair-nan"
    shutil.copytree(wl.pair, copy)
    snap = copy / "v" / "snap_000004.fld"
    field, header = read_field(snap)
    data = field.data.copy()
    data[0, 1, 2, 3] = np.nan
    write_field(snap, Field(field.grid, data, field.representation),
                time=header["time"], viscosity=header["viscosity"])
    wl.u, wl.v = copy / "u", copy / "v"
    wl.first.clear()
    _, broken = worker.run_unit(wl, 0)
    return clean, broken


def manifest_control(work):
    """(clean check failures, altered-manifest check failures)."""
    import json

    wl = worker.Pipeline2D(11, work / "pipeline2d")
    wl.work.mkdir(parents=True)
    out = wl.unit(0)
    clean = wl.check(0, out)
    path = out[0] / "twins" / "manifest.json"
    manifest = json.loads(path.read_text())
    digest = manifest["outputs"][0]["sha256"]
    manifest["outputs"][0]["sha256"] = ("0" if digest[0] != "0" else "1") \
        + digest[1:]
    path.write_text(json.dumps(manifest))
    broken = wl.check(0, out)
    wl.cleanup(0)
    return clean, broken


def main() -> int:
    sys.path.insert(0, str(worker.SRC))
    # pipeline2d's CLI processes import the program from the same tree
    os.environ["PYTHONPATH"] = str(worker.SRC)
    work = worker.ROOT / ".bench_work" / "self-test"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ok = True
    try:
        counts = measured_counts(work)
        for label, expected in EXPECTED.items():
            good = counts[label] == expected
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {label}: {counts[label]:g} "
                  f"(expected {expected})")

        clean, broken = nan_control(work)
        good = not clean and any("JSON constant NaN" in m
                                 or "non-finite" in m for m in broken)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} report3d NaN control: clean "
              f"unit {clean or 'passes'}; NaN copy fails with {broken}")

        clean, broken = manifest_control(work)
        good = not clean and any("sha256 mismatch" in m for m in broken)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} pipeline2d manifest control: "
              f"clean unit {clean or 'passes'}; altered manifest fails with "
              f"{broken}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
