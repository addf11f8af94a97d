"""Transient memory of the n=64 diagnostics path, counted by tracemalloc.

numpy reports every array buffer to tracemalloc, so a traced peak counts
the full-size temporaries a call makes, in units of one full-layout
field: 16 * ncomp * n^dim bytes of complex spectra.  Each bound is the
measured peak plus a margin well below one more full-layout temporary.
The earlier code, which built its masked, damped and projected noise and
the two split parts as separate arrays, peaked at 3.7 such fields in
divfree_noise and in split_constants, and block_norms at 1.5.
A spectral field holds its half spectrum, 33/64 of a full-layout field
at n=64.  The twin report on stored trajectories is bounded in units of
one of its snapshots, and must not grow with the snapshot count.  One
solver integrator and its step are bounded at n=64, where the
workspace's fine-grid arrays dwarf everything else a step holds.
"""

import math
import tracemalloc

import numpy as np
import pytest

from lpnse import Grid
from lpnse.besov import (BesovSpec, CriterionTriple, besov_norm, bkm_ratio,
                         split_constants)
from lpnse.blocks import block_norms
from lpnse.ensembles import divfree_noise
from lpnse.field import (_available_cpus, grad_norm_inf, scale,
                         set_fft_workers)
from lpnse.monitor import build_report
from lpnse.snapshots import load_trajectory, save_trajectory
from lpnse.solver import SolverConfig, _Integrator, run, twin_run

GRID = Grid(3, 64)
FULL_BYTES = 16 * 3 * 64**3  # one 3-component n=64 full-layout spectrum


def _peak_fields(call, unit=FULL_BYTES):
    """The traced peak of call() in full-layout fields, or in units of
    `unit` bytes; whatever call returns is counted too."""
    return _traced(call, unit)[1]


def _traced(call, unit=FULL_BYTES):
    """(held, peak): the traced memory that call()'s result holds once it
    returns, and the traced peak of the call, in units of `unit` bytes."""
    tracemalloc.start()
    try:
        result = call()  # noqa: F841 -- held while the memory is read
        held, peak = tracemalloc.get_traced_memory()
        return held / unit, peak / unit
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def unit_field():
    # criterion 4's first triple, its field scaled to unit norm; one
    # split_constants call fills the multiplier caches beforehand
    triple = CriterionTriple(0.25, 4.0, 4.0)
    u = divfree_noise(GRID, np.random.default_rng(1), slope=2.0)
    u = scale(u, 1.0 / besov_norm(u, BesovSpec(triple.r, triple.p, math.inf)))
    split_constants(u, triple)
    return u, triple


def test_divfree_noise_peak_memory(unit_field):
    # measured 1.08: the white noise and its r2c half spectrum, then the
    # projection's k.f and one temporary on the half planes.  The field
    # holds its half spectrum, measured 0.516 (33/64 and a few bytes).
    # Masking and projecting a full layout built from the r2c output
    # peaked at 1.69, and the field held 1.0
    held, peak = _traced(
        lambda: divfree_noise(GRID, np.random.default_rng(2), slope=2.0))
    assert held <= 0.52
    assert peak <= 1.25


def test_split_constants_peak_memory(unit_field):
    # measured 1.18 with one thread: S_N u over the planes of its support
    # box, then each component of u - S_N u in its own one-component
    # buffer, its physical values and the squares summed so far.  With two
    # threads, measured 1.36-1.52 (as the two lanes' allocations happen
    # to overlap): a second lane holds its own buffer and values.  A copy
    # of u's half spectrum with u - S_N u written over it peaked at 1.53
    # and 1.72-1.87, and the earlier full-layout split buffer at 2.18
    u, triple = unit_field
    for threads in (1, min(2, _available_cpus())):
        set_fft_workers(threads)
        peak = _peak_fields(lambda: split_constants(u, triple))
        assert peak <= 1.75, threads


def test_bkm_ratio_peak_memory(unit_field):
    # measured 1.02 with one thread and 1.01 with two: the block tables'
    # lanes, u's and then the vorticity's, which is formed on each
    # block's box in the lane's buffer from u.  The vorticity field
    # curl(u) on the half planes peaked at 1.53, and on the full layout
    # at 2.01
    u, _ = unit_field
    bkm_ratio(u)  # fills the grid's wavenumber caches
    for threads in (1, min(2, _available_cpus())):
        set_fft_workers(threads)
        assert _peak_fields(lambda: bkm_ratio(u)) <= 1.2, threads


def test_grad_norm_inf_peak_memory(unit_field):
    # measured 0.67 with one thread: one derivative's one-component
    # buffer and physical values, its axis's sum of squares and the
    # running total, read straight from the stored half spectrum.  With
    # two threads, measured 1.01: the second lane's buffer, derivative
    # and sum.  A Hermitian half copied from the full layout first
    # peaked at 1.19 and 1.53
    u, _ = unit_field
    for threads, bound in ((1, 0.8), (min(2, _available_cpus()), 1.2)):
        set_fft_workers(threads)
        assert _peak_fields(lambda: grad_norm_inf(u)) <= bound, threads


def test_block_norms_peak_memory(unit_field):
    # measured 1.02 with one thread: the zeroed half-spectrum buffer and
    # one block's physical values; the earlier loop kept the last block's
    # values alive through the next transform and peaked at 1.52.  With
    # two threads, measured 1.01: each lane holds one component's buffer,
    # transform and sum of squares
    u, _ = unit_field
    for threads in (1, min(2, _available_cpus())):
        set_fft_workers(threads)
        peak = _peak_fields(lambda: block_norms(u, math.inf))
        assert peak <= 1.2, threads


@pytest.fixture(scope="module")
def stored_pairs(tmp_path_factory):
    """{T: directory} of stored 3D n=16 twin pairs with T = 6 and 12
    snapshots per run."""
    pairs = {}
    for count in (6, 12):
        config = SolverConfig(dim=3, n=16, nu=0.05, dt=5e-3,
                              t_end=(count - 1) * 5e-3, ic="random-divfree",
                              seed=1, snap_every=1)
        root = tmp_path_factory.mktemp(f"pair{count}")
        for side, traj in zip("uv", twin_run(config, delta=1e-3, seed=2)):
            save_trajectory(root / side, traj)
        pairs[count] = root
    return pairs


def test_report_peak_memory_does_not_grow_with_snapshots(stored_pairs):
    # measured 7.7-8.5 snapshots at both counts with two threads: each
    # thread holds one pair (u_i, v_i) and the w and block-table
    # temporaries of one step.  Holding both whole runs, as the earlier
    # report did, peaked at 15.1 and 27.1.
    snapshot_bytes = 16 * 3 * 16**3
    triple = CriterionTriple(0.5, 4.0, 8.0 / 3.0)

    def report(root):
        return lambda: build_report(load_trajectory(root / "u"),
                                    load_trajectory(root / "v"), triple,
                                    0.5, 1.0)

    report(stored_pairs[6])()  # fills the multiplier caches
    peaks = {count: _peak_fields(report(root), snapshot_bytes)
             for count, root in stored_pairs.items()}
    assert abs(peaks[12] - peaks[6]) <= 2.0
    assert max(peaks.values()) <= 10.0


def test_run_holds_half_spectrum_snapshots():
    # a trajectory's snapshots hold the solver's half-spectrum states:
    # measured 0.53 full-layout snapshots per snapshot (33/64, and the
    # grid's |k|^2 and the series over all 11).  Full-layout snapshots
    # held 1.03 each
    config = SolverConfig(dim=3, n=32, nu=0.05, dt=5e-3, t_end=5e-2,
                          ic="random-divfree", seed=1, snap_every=1)
    held, _ = _traced(lambda: run(config), 16 * 3 * 32**3)
    assert held <= 0.6 * (config.nsteps + 1)


def test_integrator_step_peak_memory():
    # measured 8.18: the half-spectrum state, one 3-component padded
    # buffer that u and then omega go through, both their fine-grid
    # values (u x omega is written back over u's, a slab of rows at a
    # time: there is no cross-product array, and u's values are freed
    # after the forward transform, before its truncation) and the stage
    # terms, folded into the RK4 sum as each is last read.  Holding u's
    # values through the truncation peaked at 8.66, a whole-grid
    # cross-product array held by the integrator at 10.18; padding a
    # 6-component [u; omega] copy through a 6-component buffer, with a,
    # b, c, d and the sum's temporaries all alive at the end of the
    # step, at 12.94
    config = SolverConfig(dim=3, n=64, nu=0.05, dt=1e-3, t_end=1e-3,
                          ic="random-divfree")
    u = divfree_noise(GRID, np.random.default_rng(3), slope=2.0)

    def integrate():
        state = u.half.copy()
        _Integrator(GRID, config).step(state, 0.0, 0)

    integrate()  # a warm step: the grid's wavenumber arrays exist
    assert _peak_fields(integrate) <= 8.5
