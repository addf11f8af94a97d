"""Layer spans for the traced benchmark run, recorded from outside lpnse.

`install(tracer)` wraps the functions at each layer boundary.  Several
lpnse modules import helpers by name (solver takes `_fine_physical`,
`_truncate_spectrum` and `_leray_project_spec` from field; besov takes
`grad_norm_inf` and `lp_norm`; monitor takes `block_norms`; cli takes
`run`, `twin_run`, `build_report` and the snapshot IO), and those
bindings are what get called.  A wrapper on the defining module alone
would miss those calls without any error, so every lpnse module
attribute that *is* the original function is replaced.  `self_test.py`
checks the resulting counts against exact values.

Spans are kept in memory as plain lists and summarised by `layer_metrics`.
Times come from `time.perf_counter`, which on Linux reads the system-wide
monotonic clock, so spans recorded in child processes share the parent's
time axis.
"""

import functools
import math
import os
import sys
import time

_now = time.perf_counter

# span record layout
NAME, START, END, PARENT, UNIT, INFO = range(6)


class Tracer:
    """Span store plus the call stack that links each span to its parent."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.unit = None
        self._undo = []

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, _now(), None, parent, self.unit, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec):
        rec[END] = _now()
        self.stack.pop()

    def record(self, name, start, end, info=None):
        """A finished span measured elsewhere (e.g. a child's start-up)."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.unit, info])

    def extend(self, spans):
        """Append spans from a child process as top-level spans."""
        base = len(self.spans)
        for rec in spans:
            rec = list(rec)
            rec[PARENT] = rec[PARENT] + base if rec[PARENT] >= 0 else -1
            self.spans.append(rec)

    def wrap(self, name, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, info=None):
        """Wrap owner.attr and rebind every lpnse module attribute that
        refers to the same function object."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, info)
        targets = [owner] + [mod for key, mod in list(sys.modules.items())
                             if mod is not None and mod is not owner
                             and (key == "lpnse" or key.startswith("lpnse."))]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._undo.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()


# --- per-call information ---------------------------------------------------

def _fft_info(real_in, real_out):
    """(kind, points, flop) of one scipy.fft call, computed from array
    sizes: 5 N log2 N per complex transform of N points, 2.5 N log2 N
    per real one, times the number of batched transforms."""
    kind = "c2c" if not (real_in or real_out) else "real"
    per_point = 5.0 if kind == "c2c" else 2.5

    def info(args, kwargs, result):
        full = result if real_out or kind == "c2c" else args[0]
        axes = kwargs.get("axes")
        if axes is None:
            axes = range(full.ndim)
        size = 1
        for ax in axes:
            size *= full.shape[ax]
        points = full.size
        return (kind, points, per_point * points * math.log2(max(size, 2)))

    return info


def _bytes_moved(args, kwargs, result):
    return args[0].nbytes + result.nbytes


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _block_p(args, kwargs, result):
    return float(kwargs.get("p", args[1] if len(args) > 1 else None))


def _snapshot_count(args, kwargs, result):
    return len(args[0])


def install(tracer):
    """Wrap every traced lpnse layer and the scipy.fft entry points."""
    import scipy.fft

    import lpnse.besov
    import lpnse.blocks
    import lpnse.cli
    import lpnse.field
    import lpnse.manifest
    import lpnse.monitor
    import lpnse.snapshots
    import lpnse.solver

    for name, real_in, real_out in (("fftn", False, False),
                                    ("ifftn", False, False),
                                    ("rfftn", True, False),
                                    ("irfftn", False, True)):
        tracer.patch(scipy.fft, name, "fft." + name,
                     _fft_info(real_in, real_out))

    field = lpnse.field
    tracer.patch(field, "_pad_spectrum", "field.pad", _bytes_moved)
    tracer.patch(field, "_truncate_spectrum", "field.truncate", _bytes_moved)
    tracer.patch(field, "grad_norm_inf", "field.grad_norm_inf")
    tracer.patch(field, "lp_norm", "field.lp_norm")
    tracer.patch(field, "_leray_project_spec", "solver.leray")

    solver = lpnse.solver
    tracer.patch(solver._Integrator, "nonlinear", "solver.nonlinear")
    tracer.patch(solver._Integrator, "step", "solver.step")
    tracer.patch(solver, "run", "solver.run")
    tracer.patch(solver, "twin_run", "solver.twin_run")

    tracer.patch(lpnse.blocks, "block_norms", "blocks.block_norms", _block_p)

    besov = lpnse.besov
    tracer.patch(besov, "bkm_ratio", "besov.bkm_ratio")
    tracer.patch(besov, "split_constants", "besov.split_constants")
    tracer.patch(besov, "besov_norm", "besov.besov_norm")

    monitor = lpnse.monitor
    tracer.patch(monitor, "build_report", "monitor.build_report",
                 _snapshot_count)
    tracer.patch(monitor, "_linf_block_matrix", "monitor.linf_blocks")
    tracer.patch(monitor, "besov_series", "monitor.besov_series")
    tracer.patch(monitor, "_diff_spec", "monitor.diff_spec")
    tracer.patch(monitor.CriterionReport, "write", "monitor.report_write")

    snapshots = lpnse.snapshots
    tracer.patch(snapshots, "write_field", "snapshots.write_field",
                 _file_bytes)
    tracer.patch(snapshots, "read_field", "snapshots.read_field", _file_bytes)
    tracer.patch(snapshots, "save_trajectory", "snapshots.save_trajectory")
    tracer.patch(snapshots, "load_trajectory", "snapshots.load_trajectory")

    manifest = lpnse.manifest
    tracer.patch(manifest, "file_hash", "manifest.hash", _file_bytes)
    tracer.patch(manifest, "build_manifest", "manifest.build")
    tracer.patch(manifest, "write_manifest", "manifest.write")

    tracer.patch(lpnse.cli, "main", "cli.main")


# --- summaries --------------------------------------------------------------

class SpanIndex:
    """Durations, self times and ancestry of a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                self.child_time[rec[PARENT]] += rec[END] - rec[START]

    def of(self, name):
        return [i for i, rec in enumerate(self.spans) if rec[NAME] == name]

    def duration(self, i):
        rec = self.spans[i]
        return rec[END] - rec[START]

    def self_time(self, i):
        return self.duration(i) - self.child_time[i]

    def has_ancestor(self, i, names):
        parent = self.spans[i][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] in names:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def outermost(self, names):
        """Spans named in `names` with no ancestor also named there."""
        return [i for i, rec in enumerate(self.spans)
                if rec[NAME] in names and not self.has_ancestor(i, names)]

    def total(self, ids, self_only=False):
        timer = self.self_time if self_only else self.duration
        return sum(timer(i) for i in ids)


def layer_metrics(spans, units, unit_wall, startup_s):
    """Per-layer metrics of the traced phase, per unit where the name
    does not say otherwise.  `unit_wall` is the summed wall time of the
    traced units; `startup_s` is the per-unit CLI start-up time measured
    by the caller."""
    ix = SpanIndex(spans)
    per = 1.0 / units

    def calls(name):
        return len(ix.of(name))

    def incl(name):
        return ix.total(ix.of(name)) * per

    def excl(name):
        return ix.total(ix.of(name), self_only=True) * per

    m = {}

    ffts = [i for i, rec in enumerate(spans)
            if rec[NAME].startswith("fft.") and rec[INFO] is not None]
    points = sum(spans[i][INFO][1] for i in ffts)
    c2c = sum(spans[i][INFO][1] for i in ffts if spans[i][INFO][0] == "c2c")
    flop = sum(spans[i][INFO][2] for i in ffts)
    fft_s = ix.total(ffts, self_only=True)
    m["fft.calls"] = (len(ffts) * per, "count")
    m["fft.self_s"] = (fft_s * per, "s")
    m["fft.points"] = (points * per, "count")
    m["fft.c2c_share"] = (c2c / points if points else 0.0, "ratio")
    m["fft.gflop_computed"] = (flop * per / 1e9, "GFLOP")
    m["fft.gflops"] = (flop / fft_s / 1e9 if fft_s else 0.0, "GFLOP/s")

    pads = ix.of("field.pad") + ix.of("field.truncate")
    m["field.pad_truncate_s"] = (ix.total(pads) * per, "s")
    m["field.pad_truncate_mb_computed"] = (
        sum(spans[i][INFO] or 0 for i in pads) * per / 2**20, "MiB")
    m["field.grad_norm_inf_calls"] = (calls("field.grad_norm_inf") * per,
                                      "count")
    m["field.grad_norm_inf_s"] = (incl("field.grad_norm_inf"), "s")
    m["field.lp_norm_calls"] = (calls("field.lp_norm") * per, "count")
    m["field.lp_norm_s"] = (incl("field.lp_norm"), "s")

    steps = ix.of("solver.step")
    m["solver.steps"] = (len(steps) * per, "count")
    m["solver.nonlinear_calls"] = (calls("solver.nonlinear") * per, "count")
    m["solver.nonlinear_self_s"] = (excl("solver.nonlinear"), "s")
    m["solver.step_self_s"] = (excl("solver.step"), "s")
    m["solver.leray_s"] = (incl("solver.leray"), "s")
    m["solver.run_self_s"] = (excl("solver.run"), "s")
    m["solver.step_s_per_call"] = (
        ix.total(steps) / len(steps) if steps else 0.0, "s")

    norms = {}
    for i in ix.of("blocks.block_norms"):
        norms.setdefault(spans[i][INFO], []).append(i)
    for label, p in (("p2", 2.0), ("p4", 4.0), ("pinf", math.inf),
                     ("pother", None)):
        if p is None:
            ids = [i for q, group in norms.items()
                   if q not in (2.0, 4.0, math.inf) for i in group]
        else:
            ids = norms.get(p, [])
        m[f"blocks.block_norms_calls.{label}"] = (len(ids) * per, "count")
        m[f"blocks.block_norms_self_s.{label}"] = (
            ix.total(ids, self_only=True) * per, "s")
    pinf = norms.get(math.inf, [])
    m["blocks.block_norms_s_per_call.pinf"] = (
        ix.total(pinf) / len(pinf) if pinf else 0.0, "s")

    bkm = ix.of("besov.bkm_ratio")
    splits = ix.of("besov.split_constants")
    m["besov.bkm_ratio_s"] = (ix.total(bkm) * per, "s")
    m["besov.bkm_ratio_s_per_call"] = (
        ix.total(bkm) / len(bkm) if bkm else 0.0, "s")
    m["besov.split_constants_s"] = (ix.total(splits) * per, "s")
    m["besov.besov_norm_calls"] = (calls("besov.besov_norm") * per, "count")
    split_set = set(splits)
    for metric, name in (("besov.grad_norm_inf_per_split",
                          "field.grad_norm_inf"),
                         ("besov.lp_norm_per_split", "field.lp_norm")):
        inside = sum(1 for i in ix.of(name) if spans[i][PARENT] in split_set)
        m[metric] = (inside / len(splits) if splits else 0.0, "count")

    reports = ix.of("monitor.build_report")
    snaps = sum(spans[i][INFO] or 0 for i in reports)
    m["monitor.build_report_s"] = (ix.total(reports) * per, "s")
    m["monitor.build_report_self_s"] = (
        ix.total(reports, self_only=True) * per, "s")
    m["monitor.linf_blocks_s"] = (incl("monitor.linf_blocks"), "s")
    m["monitor.besov_series_s"] = (incl("monitor.besov_series"), "s")
    report_names = {"monitor.build_report"}
    for metric, name in (("monitor.block_norms_per_snapshot",
                          "blocks.block_norms"),
                         ("monitor.diff_spec_per_snapshot",
                          "monitor.diff_spec")):
        inside = sum(1 for i in ix.of(name)
                     if ix.has_ancestor(i, report_names))
        m[metric] = (inside / snaps if snaps else 0.0, "count")
    m["monitor.report_write_s"] = (incl("monitor.report_write"), "s")

    for kind, outer, inner in (("write", "snapshots.save_trajectory",
                                "snapshots.write_field"),
                               ("read", "snapshots.load_trajectory",
                                "snapshots.read_field")):
        ids = ix.outermost({outer, inner})
        m[f"snapshots.{kind}_s"] = (ix.total(ids) * per, "s")
        m[f"snapshots.{kind}_mb"] = (
            sum(spans[i][INFO] or 0 for i in ix.of(inner)) * per / 2**20,
            "MiB")

    hashes = ix.of("manifest.hash")
    m["manifest.hash_s"] = (ix.total(hashes) * per, "s")
    m["manifest.hash_mb"] = (
        sum(spans[i][INFO] or 0 for i in hashes) * per / 2**20, "MiB")

    m["cli.startup_s"] = (startup_s, "s")
    m["cli.self_s"] = (excl("cli.main"), "s")

    top = [i for i, rec in enumerate(spans) if rec[PARENT] < 0]
    covered = ix.total(top)
    m["trace.coverage"] = (covered / unit_wall if unit_wall else 0.0, "ratio")
    m["other.self_s"] = ((unit_wall - covered) * per, "s")
    return m
