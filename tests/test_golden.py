"""Golden outputs: every value below must match tests/golden.json exactly,
at one and at two threads.

The file pins solver snapshots and series (2D n=32 and 3D n=16,
Taylor-Green and random, dealias on and off), the report files, the
block energy audit and the integral identity of a 3D n=16 twin pair,
block tables for p in {1, 2, 4, inf}, grad_norm_inf, bkm_ratio,
split_constants, both Bernstein reports, and the field calculus
(derivative, curl, leray_project, dealiased_product, advect, ...) at
n=16.  A value of at most SMALL floats is stored as exact reprs; a
larger one as the sha256 of its float64 bytes, its largest magnitude
and PROBE evenly spaced values.  A mismatch prints the largest
deviation relative to the entry's largest magnitude, so a round-off
move (about 1e-16) can be told from a real change.

A change that moves a golden value on purpose rewrites the file:

    PYTHONPATH=src python tests/test_golden.py --rewrite

and lists each moved entry, with the deviation this test prints, in
CHANGES.md.
"""

import hashlib
import json
import math
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

import lpnse.blocks
from lpnse import Grid
from lpnse.besov import (CriterionTriple, biot_savart, bkm_ratio, curl,
                         split_constants)
from lpnse.blocks import (bernstein_report, block_norm_table,
                          reverse_bernstein_report)
from lpnse.ensembles import band_noise, divfree_noise
from lpnse.field import (advect, dealiased_product, derivative, divergence,
                         from_physical, grad_norm_inf, gradient, laplacian,
                         leray_project, lp_norm, l2_norm_spectral, magnitude,
                         scale, set_fft_workers, to_physical)
from lpnse.monitor import (block_energy_audit, build_report,
                           integral_identity_check)
from lpnse.solver import SolverConfig, run, twin_run

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SMALL = 64
PROBE = 16
TRIPLE = CriterionTriple(0.5, 4.0, 8.0 / 3.0)
PS = (1.0, 2.0, 4.0, math.inf)


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def _solver_entries() -> dict:
    out = {}
    for dim, n in ((2, 32), (3, 16)):
        for ic, tag in (("taylor-green", "tg"), ("random-divfree", "random")):
            for dealias in (True, False):
                config = SolverConfig(dim=dim, n=n, nu=0.05, dt=0.01,
                                      t_end=0.04, ic=ic, seed=3, snap_every=2,
                                      dealias=dealias)
                traj = run(config)
                name = (f"solver.{dim}d.{tag}."
                        f"{'dealias' if dealias else 'aliased'}")
                out[name + ".snapshots"] = np.stack(
                    [s.half for s in traj.snapshots])
                for key in sorted(traj.series):
                    out[f"{name}.series.{key}"] = traj.series[key]
    return out


def _twin_entries() -> dict:
    config = SolverConfig(dim=3, n=16, nu=0.05, dt=0.01, t_end=0.04,
                          ic="random-divfree", seed=3, snap_every=1)
    u, v = twin_run(config, delta=1e-3, seed=5)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in build_report(u, v, TRIPLE, 0.5, 1.0).write(tmp):
            out[f"twin3d.report.{Path(path).name}"] = Path(path).read_bytes()
    audit = block_energy_audit(u, v, 1, 2)
    out["twin3d.block_energy_audit"] = np.array(
        [float(audit[key]) for key in sorted(audit)])
    out["twin3d.integral_identity_check"] = integral_identity_check(u, v)
    return out


def _block_entries() -> dict:
    grid = Grid(3, 16)
    u = divfree_noise(grid, np.random.default_rng(7))
    u = scale(u, 1e-3 / l2_norm_spectral(u))  # split level within jmax
    out = {f"fields3d.block_norm_table.p{p:g}": block_norm_table(u, (p,))
           for p in PS}
    out["fields3d.block_norm_table.all"] = block_norm_table(u, PS)
    out["fields3d.grad_norm_inf"] = grad_norm_inf(u)
    out["fields3d.bkm_ratio"] = bkm_ratio(u)
    split = split_constants(u, TRIPLE)
    out["fields3d.split_constants"] = np.array(
        [float(split[key]) for key in sorted(split)])
    for dim in (2, 3):
        for report in (bernstein_report, reverse_bernstein_report):
            rows = report(Grid(dim, 16), ensemble=4, seed=1).rows
            out[f"bernstein{dim}d.{report.__name__}"] = np.array(
                rows, dtype=np.float64)
    return out


def _calculus_entries() -> dict:
    out = {}
    for dim in (2, 3):
        grid = Grid(dim, 16)
        rng = np.random.default_rng(11)
        u = divfree_noise(grid, rng, slope=1.0)
        f = band_noise(grid, rng, ncomp=dim, kmax=grid.n / 2)
        s = band_noise(grid, rng)
        orders = (1, 0, 2)[:dim]
        name = f"calculus{dim}d."
        out[name + "divfree_noise"] = u.half
        out[name + "derivative"] = derivative(s, orders).half
        out[name + "gradient"] = gradient(s).half
        out[name + "laplacian"] = laplacian(s).half
        out[name + "divergence"] = divergence(f).half
        out[name + "curl"] = curl(u).half
        out[name + "leray_project"] = leray_project(f).half
        out[name + "to_physical"] = to_physical(u)
        out[name + "from_physical"] = from_physical(
            grid, to_physical(f)).half
        out[name + "magnitude"] = magnitude(u)
        out[name + "lp_norm"] = np.array([lp_norm(u, p) for p in (1, 3, 4)])
        for dealias in (True, False):
            tag = "" if dealias else ".aliased"
            out[name + "dealiased_product" + tag] = dealiased_product(
                u, s, dealias).half
            out[name + "advect" + tag] = advect(u, f, dealias).half
        if dim == 3:
            out[name + "biot_savart"] = biot_savart(curl(u)).half
    return out


SECTIONS = (_solver_entries, _twin_entries, _block_entries,
            _calculus_entries)


def _numbers(blob: bytes) -> np.ndarray:
    """The numbers written in a text file, in order."""
    found = re.findall(rb"-?(?:inf|nan|\d+\.?\d*(?:e[-+]?\d+)?)", blob)
    return np.array([float(x) for x in found])


def _record(value) -> dict:
    """The golden record of one value: a file's bytes, or an array or
    scalar read as float64s (complex as real, imaginary pairs)."""
    if isinstance(value, bytes):
        floats = _numbers(value)
        return {"sha256": hashlib.sha256(value).hexdigest(),
                "max_abs": _max_abs(floats), "probe": _probe(floats)}
    arr = np.ascontiguousarray(value)
    floats = (arr.view(np.float64) if np.iscomplexobj(arr)
              else arr.astype(np.float64)).ravel()
    rec = {"shape": list(arr.shape)}
    if floats.size <= SMALL:
        rec["values"] = [repr(float(x)) for x in floats]
    else:
        rec["sha256"] = hashlib.sha256(floats.tobytes()).hexdigest()
        rec["max_abs"] = _max_abs(floats)
        rec["probe"] = _probe(floats)
    return rec


def _max_abs(floats: np.ndarray) -> str:
    """The largest finite magnitude: the scale of a deviation."""
    return repr(float(np.max(np.abs(floats[np.isfinite(floats)]),
                             initial=0.0)))


def _probe(floats: np.ndarray) -> list:
    """PROBE evenly spaced values, as reprs."""
    if not floats.size:
        return []
    idx = np.unique(np.linspace(0, floats.size - 1, PROBE).astype(int))
    return [repr(float(floats[i])) for i in idx]


def _deviation(got: list, want: list, scale: float) -> float:
    """The largest |got - want| over reprs `got` and `want`, divided by
    `scale`."""
    if len(got) != len(want):
        return math.inf
    worst = 0.0
    for a, b in zip(map(float, got), map(float, want)):
        if repr(a) != repr(b):
            worst = max(worst, abs(a - b) / scale if 0 < scale < math.inf
                        else math.inf)
    return worst


def _mismatch(name: str, got: dict, want: dict) -> str:
    """'' when the records agree, else a line naming the entry."""
    if want is None:
        return f"{name}: not in {GOLDEN.name}"
    if got == want:
        return ""
    if got.get("shape") != want.get("shape"):
        return f"{name}: shape {got.get('shape')} != {want.get('shape')}"
    if "values" in want:
        scale = float(_max_abs(np.array(want["values"], dtype=float)))
        dev = _deviation(got["values"], want["values"], scale)
        where = ""
    else:
        dev = _deviation(got["probe"] + [got["max_abs"]],
                         want["probe"] + [want["max_abs"]],
                         float(want["max_abs"]))
        where = (" (bytes differ; probe values equal)" if dev == 0 else
                 " (bytes differ; over the probe values)")
    return f"{name}: largest relative deviation {dev:.3g}{where}"


def compute(sections=SECTIONS) -> dict:
    out = {}
    for section in sections:
        out.update({name: _record(value)
                    for name, value in section().items()})
    return out


def mismatches(records: dict, golden: dict) -> list:
    lines = [_mismatch(name, rec, golden["entries"].get(name))
             for name, rec in records.items()]
    return [line for line in lines if line]


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def _report(lines: list, golden: dict) -> str:
    versions = ""
    if golden["recorded_with"] != _versions():
        versions = (f"\nrecorded with {golden['recorded_with']}, running "
                    f"{_versions()}")
    return ("\n".join(lines) + versions + "\nif the change is meant, "
            "rewrite with: PYTHONPATH=src python tests/test_golden.py "
            "--rewrite")


@pytest.mark.parametrize("threads", [1, 2])
def test_outputs_match_golden_file(threads):
    golden = _load()
    set_fft_workers(threads)
    records = compute()
    lines = mismatches(records, golden)
    lines += [f"{name}: in {GOLDEN.name} but not computed"
              for name in golden["entries"] if name not in records]
    assert not lines, _report(lines, golden)


def test_a_one_ulp_multiplier_change_names_its_entries(monkeypatch):
    # negative control: block 0's multiplier scaled by 1 + 2^-52 moves the
    # block tables, and the message names them with a round-off deviation
    real = lpnse.blocks._half_multiplier

    def nudged(grid, j, kind="block"):
        mult = real(grid, j, kind)
        return mult * (1 + 2.0**-52) if j == 0 and kind == "block" else mult

    monkeypatch.setattr(lpnse.blocks, "_half_multiplier", nudged)
    lines = mismatches(compute((_block_entries,)), _load())
    assert any(line.startswith("fields3d.block_norm_table.p2:")
               for line in lines), lines
    devs = [float(line.split("deviation ")[1].split()[0]) for line in lines]
    assert 0 < max(devs) < 1e-14


def _rewrite():
    set_fft_workers(1)
    golden = {"recorded_with": _versions(), "entries": compute()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['entries'])} entries to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --rewrite")
    _rewrite()
