"""Twin-run diagnostics: criterion integrals, difference norms, drift
weights, block energy audits, the cross-energy identity, and the
envelope fit."""

import json
import math
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import lpnse
import lpnse.snapshots
from lpnse.besov import BesovSpec, CriterionTriple, besov_norm
from lpnse.blocks import block_indices, block_norms
from lpnse import cutoffs
from lpnse.ensembles import divfree_noise
from lpnse.errors import BlockRangeError, TripleError
from lpnse.field import (Field, SPECTRAL, from_components, h1_seminorm,
                         l2_norm_spectral, lp_norm, zero_field)
from lpnse.grid import Grid
from lpnse.snapshots import load_trajectory, save_trajectory
from lpnse.monitor import (LosingParams, _cumtrapz, _diff_spec,
                           _linf_block_matrix, besov_series,
                           block_energy_audit, block_series, build_report,
                           criterion_integral, diff_norm_W, diff_norm_series,
                           epsilon_weights, gronwall_check,
                           integral_identity_check, losing_weight,
                           smallness_window, trilinear)
from lpnse.solver import SolverConfig, Trajectory, run, twin_run
from monitor_helpers import b1_series, envelope_holds

TRIPLE = CriterionTriple(0.5, 4.0, 8.0 / 3.0)


def constant_trajectory(field, times, nu=1.0):
    # frozen snapshots wrapped as a trajectory; dt matches the snapshot
    # gap so the criterion integral cadence guard is satisfied
    times = np.asarray(times, dtype=np.float64)
    dt = float(times[1] - times[0]) if len(times) > 1 else 1e-3
    config = SolverConfig(dim=field.grid.dim, n=field.grid.n, nu=nu, dt=dt,
                          t_end=max(float(times[-1]), dt), snap_every=1)
    return Trajectory(config, field.grid, times, [field] * len(times), {})


def _two_shell_mode(grid):
    return from_components(grid, lambda x, y: np.zeros_like(x),
                           lambda x, y: np.cos(2 * x))


def _diff_field(traj_u, traj_v, i):
    return Field(traj_u.grid,
                 traj_u.snapshots[i].half - traj_v.snapshots[i].half,
                 SPECTRAL)


def test_losing_params_validation():
    params = LosingParams(0.5, 2.0)
    assert params.s == 0.5 and params.lam == 2.0
    with pytest.raises(ValueError, match="loss index"):
        LosingParams(0.0, 1.0)
    with pytest.raises(ValueError, match="loss index"):
        LosingParams(1.0, 1.0)
    with pytest.raises(ValueError, match="lambda"):
        LosingParams(0.5, 0.0)
    with pytest.raises(ValueError, match="lambda"):
        LosingParams(0.5, -1.0)


# --- criterion integral ------------------------------------------------------

def test_criterion_integral_constant_integrand(grid2):
    # zero field: the integrand is e^q everywhere and the trapezoid rule
    # integrates constants exactly, so I(t) = e^q t
    times = np.linspace(0.0, 0.2, 21)
    traj = constant_trajectory(zero_field(grid2, ncomp=2), times)
    series = criterion_integral(traj, TRIPLE)
    assert np.all(series.norms == 0.0)
    assert np.allclose(series.integrand, math.e ** TRIPLE.q, rtol=1e-14)
    assert np.allclose(series.integral, math.e ** TRIPLE.q * times,
                       rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("triple, message", [
    (CriterionTriple(-1.0, math.inf, math.inf), "r in \\(-1,1\\] violated"),
    (CriterionTriple(-0.5, 12.0, 4.0), "2/q\\+3/p=1\\+r violated"),
])
def test_criterion_integral_rejects_invalid_triple(grid2, triple, message):
    # negative control: the extended mode still validates the triple
    traj = constant_trajectory(zero_field(grid2, ncomp=2), [0.0, 0.01])
    with pytest.raises(TripleError, match=message):
        criterion_integral(traj, triple)


def test_criterion_integral_monotone(tg2d_traj):
    series = criterion_integral(tg2d_traj, TRIPLE)
    assert np.all(np.isfinite(series.integral))
    assert np.all(np.diff(series.integral) > 0.0)


def test_criterion_integral_refinement():
    # quadrature oracle: re-integrating the same flow sampled twice as
    # densely moves the integral by O(cadence^2), measured 4.2e-5
    config = SolverConfig(dim=2, n=32, nu=1.0, dt=2.5e-3, t_end=0.1,
                          ic="taylor-green", snap_every=2)
    traj = run(config)
    fine = criterion_integral(traj, TRIPLE)
    coarse_traj = Trajectory(config, traj.grid, traj.times[::2],
                             traj.snapshots[::2], {})
    coarse = criterion_integral(coarse_traj, TRIPLE)
    rel = abs(fine.integral[-1] - coarse.integral[-1]) / fine.integral[-1]
    assert rel <= 1e-4


def test_criterion_integral_cadence_guard(grid2):
    config = SolverConfig(dim=2, n=32, nu=1.0, dt=1e-3, t_end=0.011,
                          snap_every=1)
    f = zero_field(grid2, ncomp=2)
    traj = Trajectory(config, grid2, np.array([0.0, 0.011]), [f, f], {})
    with pytest.raises(ValueError, match="cadence too coarse"):
        criterion_integral(traj, TRIPLE)


def test_criterion_integral_empty_trajectory(grid2):
    # the one walk rejects an empty trajectory or pair, whoever folds it
    config = SolverConfig(dim=2, n=32, dt=1e-3, t_end=0.01, snap_every=1)
    traj = Trajectory(config, grid2, np.array([]), [], {})
    for diagnostic in (lambda: criterion_integral(traj, TRIPLE),
                       lambda: b1_series(traj),
                       lambda: block_series(traj, traj),
                       lambda: epsilon_weights(traj, traj),
                       lambda: integral_identity_check(traj, traj),
                       lambda: gronwall_check(traj, traj, TRIPLE)):
        with pytest.raises(ValueError, match="empty trajectory"):
            diagnostic()


def test_besov_and_b1_series_match_per_snapshot_norms(twin_pair):
    u, v = twin_pair
    js = np.array(block_indices(u.grid))
    for spec in (BesovSpec(0.5, 4.0, math.inf), BesovSpec(0.25, 2.5, 2.0),
                 BesovSpec(1.0, 2.0, math.inf),
                 BesovSpec(0.5, math.inf, math.inf)):
        reference = [besov_norm(snap, spec) for snap in u.snapshots]
        mat_js, _, mat, *_ = _linf_block_matrix(u, spec.p, v)
        assert np.array_equal(mat_js, js)
        assert np.array_equal(besov_series(js, mat, spec), reference)
    reference = [np.max(2.0 ** js * block_norms(snap, math.inf))
                 for snap in u.snapshots]
    assert np.array_equal(b1_series(u), reference)


def test_w_rows_match_diff_spec_loops(twin_pair):
    u, v = twin_pair
    grid = u.grid
    js = np.array(block_indices(grid))
    blocks = np.empty((len(js), len(u)))
    e_w = np.empty(len(u))
    d_w = np.empty(len(u))
    # Parseval over the half planes 0 <= k_last <= n/2, each plane but
    # 0 and n/2 standing for itself and its conjugate mirror
    planes = grid.n // 2 + 1
    weights = np.full(planes, 2.0)
    weights[[0, -1]] = 1.0
    for i in range(len(u)):
        half = _diff_spec(u.snapshots[i], v.snapshots[i])
        assert half.shape[-1] == planes
        power = np.sum(np.abs(half) ** 2, axis=0) * weights
        blocks[:, i] = block_norms(_diff_field(u, v, i), 2.0)
        e_w[i] = grid.volume * float(np.sum(power))
        d_w[i] = grid.volume * float(np.sum(grid.k_sq[..., :planes] * power))
    series = block_series(u, v)
    assert np.array_equal(series.js, js)
    assert np.array_equal(series.values, blocks)
    fit = gronwall_check(u, v, TRIPLE)
    assert fit.w0_sq == e_w[0]
    assert np.array_equal(fit.lhs, e_w + _cumtrapz(d_w, u.times))


@pytest.mark.parametrize("triple", [TRIPLE, CriterionTriple(1.0, 2.0, 4.0),
                                    CriterionTriple(0.5, math.inf, 4.0 / 3.0)])
def test_build_report_transforms_each_block_once(monkeypatch, triple):
    # u's blocks are transformed once for the criterion norm and the drift
    # weights together, v's once for the drift weights: 2 T B transforms
    grid = Grid(3, 16)
    rng = np.random.default_rng(11)
    a = divfree_noise(grid, rng, kmax=5.0)
    b = Field(grid, a.data + 1e-3 * divfree_noise(grid, rng, kmax=5.0).data,
              SPECTRAL)
    times = [0.0, 0.01, 0.02, 0.03]
    u, v = constant_trajectory(a, times), constant_trajectory(b, times)
    original = lpnse.field._irfftn_half
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lpnse.field, "_irfftn_half", counting)
    build_report(u, v, triple, s=0.5, lam=1.0)
    assert len(calls) == 2 * len(times) * len(block_indices(grid))


@pytest.mark.parametrize("triple", [TRIPLE, CriterionTriple(1.0, 2.0, 4.0),
                                    CriterionTriple(0.5, math.inf, 4.0 / 3.0)])
def test_build_report_matches_public_series(twin_pair, triple):
    # the report folds the same block matrices as the public functions,
    # so every series agrees bit for bit
    u, v = twin_pair
    s, lam = 0.5, 1.0
    rep = build_report(u, v, triple, s=s, lam=lam)
    crit = criterion_integral(u, triple)
    blocks = block_series(u, v)
    times, w_values, w_attain = diff_norm_series(u, v, s)
    _, js, eps = epsilon_weights(u, v)
    fit = gronwall_check(u, v, triple)
    for mine, theirs in (
            (rep.times, crit.times), (rep.times, times),
            (rep.besov_u, crit.norms), (rep.integrand, crit.integrand),
            (rep.integral, crit.integral), (rep.blocks.js, js),
            (rep.blocks.js, blocks.js), (rep.blocks.values, blocks.values),
            (rep.w_values, w_values), (rep.w_attain, w_attain),
            (rep.eps, eps), (rep.losing, losing_weight(blocks, eps, lam, s)),
            (rep.fit.lhs, fit.lhs), (rep.fit.integral, fit.integral),
            (rep.fit.c_series, fit.c_series)):
        assert np.array_equal(mine, theirs, equal_nan=True)
    assert rep.fit.c_sup == fit.c_sup and rep.fit.w0_sq == fit.w0_sq
    assert rep.fit.degenerate == fit.degenerate
    assert rep.t_star == smallness_window(u, v, s, lam)


def test_pair_diagnostics_read_each_file_once(twin_pair, tmp_path,
                                             monkeypatch):
    # every pair diagnostic folds one walk over the stored pair, so each
    # of the 2 T snapshot files is read once; the energy audit reads the
    # three pairs around its snapshot, the trajectory ones T files
    for name, traj in zip("uv", twin_pair):
        save_trajectory(tmp_path / name, traj)
    u, v = (load_trajectory(tmp_path / name) for name in "uv")
    files = [str(tmp_path / name / f"snap_{i:06d}.fld")
             for name in "uv" for i in range(len(u))]
    original = lpnse.snapshots.read_field
    reads = []

    def counting(path):
        reads.append(str(path))
        return original(path)

    monkeypatch.setattr(lpnse.snapshots, "read_field", counting)
    pair_calls = (lambda: build_report(u, v, TRIPLE, 0.5, 1.0),
                  lambda: block_series(u, v),
                  lambda: diff_norm_series(u, v, 0.5),
                  lambda: epsilon_weights(u, v),
                  lambda: smallness_window(u, v, 0.5, 1.0),
                  lambda: gronwall_check(u, v, TRIPLE),
                  lambda: integral_identity_check(u, v))
    for call in pair_calls:
        reads.clear()
        call()
        assert Counter(reads) == Counter(files)
    for call in (lambda: criterion_integral(u, TRIPLE), lambda: b1_series(u)):
        reads.clear()
        call()
        assert Counter(reads) == Counter(files[:len(u)])
    reads.clear()
    block_energy_audit(u, v, 1, 5)
    assert Counter(reads) == Counter(files[4:7] + files[len(u) + 4:len(u) + 7])


def test_series_follow_changed_snapshots(twin_pair):
    # nothing is kept between calls: after a snapshot changes, the series
    # read the new one
    base = twin_pair[0]
    u = Trajectory(base.config, base.grid, base.times, list(base.snapshots),
                   base.series)
    before = criterion_integral(u, TRIPLE)
    b1_before = b1_series(u)
    u.snapshots[2] = Field(u.grid, 10.0 * u.snapshots[2].data,
                           SPECTRAL)
    after = criterion_integral(u, TRIPLE)
    b1_after = b1_series(u)
    spec = BesovSpec(TRIPLE.r, TRIPLE.p, math.inf)
    assert after.norms[2] == besov_norm(u.snapshots[2], spec)
    assert after.norms[2] == pytest.approx(10.0 * before.norms[2], rel=1e-12)
    assert after.integral[-1] > before.integral[-1]
    assert b1_after[2] == pytest.approx(10.0 * b1_before[2], rel=1e-12)
    assert np.array_equal(np.delete(b1_after, 2), np.delete(b1_before, 2))


# --- difference norms --------------------------------------------------------

def test_diff_norm_zero_for_identical(tg2d_traj):
    times, values, jstar = diff_norm_series(tg2d_traj, tg2d_traj, 0.5)
    assert np.all(values == 0.0)
    # ties report the smallest attaining block
    assert np.all(jstar == -1)


def test_diff_norm_single_mode_oracle(grid2):
    # w on |k| = 2 meets shells 0 and 1 only, so
    # W = max(phi(2), 2^{-s} phi(1)) ||w||_2 with the max at j = 0
    w = _two_shell_mode(grid2)
    traj_w = constant_trajectory(w, [0.0, 0.01])
    traj_0 = constant_trajectory(zero_field(grid2, ncomp=2), [0.0, 0.01])
    s = 0.5
    expected = max(float(cutoffs.phi(2.0)),
                   2.0 ** (-s) * float(cutoffs.phi(1.0)))
    value, j = diff_norm_W(traj_w, traj_0, s)
    assert value == pytest.approx(expected * l2_norm_spectral(w), rel=1e-12)
    assert j == 0
    # a negative loss index tilts the weight toward the higher shell
    value_neg, j_neg = diff_norm_W(traj_w, traj_0, -1.0)
    assert j_neg == 1
    assert value_neg == pytest.approx(
        2.0 * float(cutoffs.phi(1.0)) * l2_norm_spectral(w), rel=1e-12)


def test_diff_norm_bounded_by_l2(twin_pair):
    # every block is an L2 contraction, so W <= 2^s ||w||_2 (j = -1 weight)
    u, v = twin_pair
    s = 0.5
    times, values, _ = diff_norm_series(u, v, s)
    for i in range(len(times)):
        w_norm = l2_norm_spectral(_diff_field(u, v, i))
        assert values[i] <= 2.0 ** s * w_norm * (1.0 + 1e-12)


def test_diff_norm_time_lookup(twin_pair):
    u, v = twin_pair
    times, values, jstar = diff_norm_series(u, v, 0.5)
    value, j = diff_norm_W(u, v, 0.5, t=float(times[3]))
    assert value == values[3] and j == jstar[3]
    value_end, _ = diff_norm_W(u, v, 0.5)
    assert value_end == values[-1]
    with pytest.raises(ValueError, match="not a snapshot time"):
        diff_norm_W(u, v, 0.5, t=0.0123)


def test_block_series_consistent(twin_pair):
    u, v = twin_pair
    blocks = block_series(u, v)
    assert blocks.values.shape == (len(blocks.js), len(u))
    assert list(blocks.js) == list(range(-1, u.grid.jmax + 1))
    # one column equals the direct per-block norms of w at that snapshot
    direct = block_norms(_diff_field(u, v, 3), 2.0)
    assert np.array_equal(blocks.values[:, 3], direct)


def test_misaligned_trajectories_rejected(twin_pair):
    u, v = twin_pair
    sub = Trajectory(v.config, v.grid, v.times[::2], list(v.snapshots[::2]), {})
    with pytest.raises(ValueError, match="aligned"):
        block_series(u, sub)
    for diagnostic in (epsilon_weights, integral_identity_check,
                       lambda a, b: gronwall_check(a, b, TRIPLE)):
        with pytest.raises(ValueError, match="aligned"):
            diagnostic(u, sub)
    # the message names what differs
    with pytest.raises(ValueError, match=f"snapshot-aligned: {len(u)} vs "
                                         f"{len(sub)} snapshots"):
        smallness_window(u, sub, 0.5, 1.0)
    shifted = Trajectory(v.config, v.grid, v.times + 1e-3, list(v.snapshots),
                         {})
    with pytest.raises(ValueError, match="times differ first at snapshot 0: "
                                         "0.0 vs 0.001"):
        block_series(u, shifted)


def test_twin_configs_may_differ_only_in_initial_data(twin_pair):
    u, v = twin_pair
    other_data = replace(v.config, ic="random-divfree", seed=9, slope=1.0,
                         ic_kmax=4.0)
    assert not u.alignment_fault(Trajectory(other_data, v.grid, v.times,
                                            list(v.snapshots), {}))
    for key, value in (("nu", 0.5), ("dt", 5e-3), ("dealias", False),
                       ("cfl_safety", 0.25)):
        changed = Trajectory(replace(v.config, **{key: value}), v.grid,
                             v.times, list(v.snapshots), {})
        assert u.alignment_fault(changed)
        with pytest.raises(ValueError, match=f"different configs: {key} = "):
            block_series(u, changed)


# --- drift weights -----------------------------------------------------------

def test_b1_series_constant_two_shell(grid2):
    traj = constant_trajectory(_two_shell_mode(grid2), np.linspace(0, 0.1, 6))
    expected = max(float(cutoffs.phi(2.0)), 2.0 * float(cutoffs.phi(1.0)))
    assert np.allclose(b1_series(traj), expected, rtol=1e-12)


def test_b1_series_taylor_green_decay(tg2d_traj):
    # the vortex wavenumber sqrt(2) sits in the plateau of shell 0, so
    # the B1 norm is the plain sup norm and decays exactly like the flow
    b1 = b1_series(tg2d_traj)
    assert np.allclose(b1, np.exp(-2.0 * tg2d_traj.times), rtol=1e-10)


def test_epsilon_single_shell_arithmetic():
    # |k| = 11 lies in the plateau of shell 3 alone, so the level sum is
    # 2^3 for both trajectories and eps_j(t) = 16 t for every j
    grid = Grid(2, 64)
    u = from_components(grid, lambda x, y: np.zeros_like(x),
                        lambda x, y: np.cos(11 * x))
    times = np.linspace(0.0, 0.2, 5)
    traj_u = constant_trajectory(u, times)
    traj_v = constant_trajectory(u, times)
    t_out, js, eps = epsilon_weights(traj_u, traj_v)
    assert np.array_equal(t_out, times)
    assert list(js) == list(range(-1, grid.jmax + 1))
    for row in range(len(js)):
        assert np.allclose(eps[row], 16.0 * times, rtol=1e-12, atol=1e-14)


def test_epsilon_monotone(twin_pair):
    u, v = twin_pair
    _, _, eps = epsilon_weights(u, v)
    # cumulative integrals of nonnegative sums: nondecreasing in time
    assert np.all(np.diff(eps, axis=1) >= -1e-15)
    # each level adds nonnegative terms: nondecreasing in j
    assert np.all(np.diff(eps, axis=0) >= -1e-15)


def test_epsilon_growth_bound(twin_pair):
    # eps_{j'} - eps_j <= (j' - j)(||u||_{L1 B1} + ||v||_{L1 B1}): each
    # added level is dominated by the instantaneous B1 norms
    u, v = twin_pair
    times, js, eps = epsilon_weights(u, v)
    b_total = b1_series(u) + b1_series(v)
    budget = np.concatenate(
        [[0.0], np.cumsum(0.5 * (b_total[1:] + b_total[:-1]) * np.diff(times))])
    for a in range(len(js)):
        for b in range(a + 1, len(js)):
            gap = (js[b] - js[a]) * budget
            assert np.all(eps[b] - eps[a] <= gap * (1.0 + 1e-12) + 1e-15)


def test_losing_weight_zero_drift_reduces(twin_pair):
    # eps = 0 freezes the exponential discount at one, leaving the plain
    # 2^{-js} weights
    u, v = twin_pair
    blocks = block_series(u, v)
    flat = losing_weight(blocks, np.zeros_like(blocks.values), 4.0, 0.5)
    expected = 2.0 ** (-blocks.js[:, None] * 0.5) * blocks.values
    assert np.array_equal(flat, expected)


def test_losing_weight_monotone_in_lambda(twin_pair):
    u, v = twin_pair
    blocks = block_series(u, v)
    _, _, eps = epsilon_weights(u, v)
    stack = [losing_weight(blocks, eps, lam, 0.5)
             for lam in (1.0, 2.0, 4.0, 8.0)]
    for lower, higher in zip(stack, stack[1:]):
        assert np.all(higher <= lower)


def test_losing_weight_window_growth(twin_pair):
    # the drift discount flattens growth over the smallness window as
    # lambda increases
    u, v = twin_pair
    blocks = block_series(u, v)
    _, _, eps = epsilon_weights(u, v)
    factors = []
    for lam in (1.0, 4.0, 16.0):
        t_star = smallness_window(u, v, 0.5, lam)
        mask = blocks.times <= t_star + 1e-12
        sup = np.max(losing_weight(blocks, eps, lam, 0.5)[:, mask], axis=0)
        factors.append(np.max(sup) / sup[0])
    assert factors[0] >= factors[1] >= factors[2]


def test_losing_weight_validation(twin_pair):
    u, v = twin_pair
    blocks = block_series(u, v)
    _, _, eps = epsilon_weights(u, v)
    with pytest.raises(ValueError, match="lambda"):
        losing_weight(blocks, eps, 0.0, 0.5)
    with pytest.raises(ValueError, match="loss index"):
        losing_weight(blocks, eps, 1.0, 1.5)
    with pytest.raises(ValueError, match="misaligned"):
        losing_weight(blocks, eps[:, :-1], 1.0, 0.5)


# --- smallness window --------------------------------------------------------

def test_smallness_window_closed_form(grid2):
    # constant norms M: 2 lam M t < (1-s) log 2 gives
    # t* = (1-s) log 2 / (2 lam M) up to snapshot rounding
    u = _two_shell_mode(grid2)
    dt_snap = 0.005
    times = np.arange(0.0, 0.3 + dt_snap / 2, dt_snap)
    traj_u = constant_trajectory(u, times)
    traj_v = constant_trajectory(u, times)
    m = max(float(cutoffs.phi(2.0)), 2.0 * float(cutoffs.phi(1.0)))
    s, lam = 0.5, 1.0
    closed = (1.0 - s) * math.log(2.0) / (2.0 * lam * m)
    t_star = smallness_window(traj_u, traj_v, s, lam)
    assert abs(t_star - closed) <= dt_snap
    # doubling lambda halves the window
    t_half = smallness_window(traj_u, traj_v, s, 2.0 * lam)
    assert abs(t_half - closed / 2.0) <= dt_snap
    assert t_half < t_star
    # an enormous rate leaves only the initial snapshot
    assert smallness_window(traj_u, traj_v, s, 1e6) == 0.0


def test_smallness_window_zero_flow(grid2):
    times = np.linspace(0.0, 0.4, 9)
    traj = constant_trajectory(zero_field(grid2, ncomp=2), times)
    assert smallness_window(traj, traj, 0.5, 1.0) == pytest.approx(0.4)


def test_smallness_window_validates_params(twin_pair):
    u, v = twin_pair
    with pytest.raises(ValueError, match="lambda"):
        smallness_window(u, v, 0.5, 0.0)
    with pytest.raises(ValueError, match="loss index"):
        smallness_window(u, v, 1.5, 1.0)


# --- block energy audit ------------------------------------------------------

def test_block_energy_audit_balances(twin_pair):
    u, v = twin_pair
    rec = block_energy_audit(u, v, 1, 5)
    assert rec["j"] == 1
    assert rec["t"] == pytest.approx(float(u.times[5]))
    # residual is the O(cadence^2) centered-difference error
    assert rec["residual_rel"] < 0.05
    assert rec["dissipation_bound_ok"] is True
    assert rec["dissipation_margin"] > 1.0
    # divergence-free advection pairs to zero against its own block
    scale = max(abs(rec["dEdt"]), rec["dissipation"],
                abs(rec["transport_u"]), abs(rec["drift_v"]))
    assert abs(rec["cancellation"]) <= 1e-11 * scale


def test_block_energy_audit_ball_block(twin_pair):
    # the dissipation lower bound only applies to shell blocks
    u, v = twin_pair
    rec = block_energy_audit(u, v, -1, 5)
    assert rec["dissipation_bound_ok"] is None
    assert rec["dissipation_margin"] is None


def test_block_energy_audit_identical(tg2d_traj):
    rec = block_energy_audit(tg2d_traj, tg2d_traj, 0, 5)
    assert rec["dEdt"] == 0.0
    assert rec["dissipation"] == 0.0
    assert rec["transport_u"] == 0.0
    assert rec["drift_v"] == 0.0
    assert rec["residual"] == 0.0
    assert rec["residual_rel"] == 0.0


def test_block_energy_audit_errors(twin_pair):
    u, v = twin_pair
    with pytest.raises(ValueError, match="interior"):
        block_energy_audit(u, v, 1, 0)
    with pytest.raises(ValueError, match="interior"):
        block_energy_audit(u, v, 1, len(u) - 1)
    with pytest.raises(BlockRangeError):
        block_energy_audit(u, v, u.grid.jmax + 1, 5)
    with pytest.raises(BlockRangeError):
        block_energy_audit(u, v, -2, 5)


def test_block_energy_audit_refinement():
    # halving the snapshot cadence cuts the residual by about four
    # (measured 8.3e-3 vs 2.1e-3 at t = 0.04)
    residuals = {}
    for snap_every in (8, 4):
        config = SolverConfig(dim=2, n=32, nu=0.5, dt=2.5e-3, t_end=0.1,
                              ic="taylor-green", snap_every=snap_every)
        u, v = twin_run(config, delta=1e-3, seed=2)
        i = int(np.nonzero(np.isclose(u.times, 0.04))[0][0])
        residuals[snap_every] = block_energy_audit(u, v, 1, i)["residual_rel"]
    assert residuals[8] < 0.05
    assert residuals[4] < 0.5 * residuals[8]


# --- trilinear form and the cross-energy identity ----------------------------

def test_trilinear_antisymmetric(grid2, rng):
    u = divfree_noise(grid2, rng)
    g = divfree_noise(grid2, rng)
    h = divfree_noise(grid2, rng)
    scale = lp_norm(u, math.inf) * (l2_norm_spectral(g) * h1_seminorm(h)
                                    + l2_norm_spectral(h) * h1_seminorm(g))
    assert abs(trilinear(u, g, h) + trilinear(u, h, g)) <= 1e-11 * scale
    self_scale = lp_norm(u, math.inf) * l2_norm_spectral(g) * h1_seminorm(g)
    assert abs(trilinear(u, g, g)) <= 1e-11 * self_scale


def test_trilinear_zero_advector(grid2, rng):
    g = divfree_noise(grid2, rng)
    h = divfree_noise(grid2, rng)
    assert trilinear(zero_field(grid2, ncomp=2), g, h) == 0.0


def test_integral_identity_resolved_twin():
    # cross-energy identity residual on a densely sampled resolved run
    config = SolverConfig(dim=2, n=32, nu=1.0, dt=2.5e-3, t_end=0.1,
                          ic="taylor-green", snap_every=2)
    u, v = twin_run(config, delta=1e-3, seed=2)
    assert integral_identity_check(u, v) <= 1e-4


def test_integral_identity_fixture_cadence(twin_pair):
    # coarser snapshots leave quadrature error in the accumulated
    # integrals (measured 5.3e-4 at cadence 0.025)
    u, v = twin_pair
    assert integral_identity_check(u, v) <= 1e-3


# --- envelope fit ------------------------------------------------------------

def test_gronwall_fit_finite(twin_pair):
    u, v = twin_pair
    fit = gronwall_check(u, v, TRIPLE)
    assert fit.finite and not fit.degenerate
    w0 = l2_norm_spectral(_diff_field(u, v, 0))
    assert fit.w0_sq == pytest.approx(w0 ** 2, rel=1e-12)
    assert fit.lhs[0] == pytest.approx(fit.w0_sq, rel=1e-12)
    # I(0) = 0 admits no fit at the initial snapshot
    assert np.isnan(fit.c_series[0])
    assert np.all(np.isfinite(fit.c_series[1:]))
    # dissipation beats the trilinear push for this viscous pair
    assert fit.c_sup < 0.0


def test_gronwall_degenerate(tg2d_traj):
    fit = gronwall_check(tg2d_traj, tg2d_traj, TRIPLE)
    assert fit.degenerate and not fit.finite
    assert envelope_holds(fit, 0.0)


def test_envelope_tightness(twin_pair):
    u, v = twin_pair
    fit = gronwall_check(u, v, TRIPLE)
    assert envelope_holds(fit, fit.c_sup)
    assert envelope_holds(fit, fit.c_sup + 1.0)
    # the checker can fail: below the fitted constant the bound breaks
    assert not envelope_holds(fit, fit.c_sup - 1.0)


# --- assembled report --------------------------------------------------------

def test_build_report_summary_and_write(twin_pair, tmp_path):
    u, v = twin_pair
    rep = build_report(u, v, TRIPLE, s=0.5, lam=1.0)
    summary = rep.summary()
    assert summary["triple"] == {"r": 0.5, "p": 4.0, "q": 8.0 / 3.0}
    assert summary["s"] == 0.5 and summary["lambda"] == 1.0
    assert summary["final_W"] == float(rep.w_values[-1])
    assert summary["criterion_integral_final"] == float(rep.integral[-1])
    assert summary["t_star"] == smallness_window(u, v, 0.5, 1.0)
    assert not summary["degenerate"]

    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    paths = rep.write(dir_a)
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["besov_u.csv", "blocks_w.csv", "envelope.csv",
                     "epsilon.csv", "losing_weight.csv", "summary.json",
                     "w_sup.csv"]
    # a second write is byte-identical
    rep.write(dir_b)
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    with open(dir_a / "summary.json") as fh:
        loaded = json.load(fh)
    assert loaded["c_sup"] == pytest.approx(rep.fit.c_sup)
    header = (dir_a / "w_sup.csv").read_text().splitlines()[0]
    assert header == "t,W,j_attain"


def test_report_on_identical_trajectories(tg2d_traj, tmp_path):
    rep = build_report(tg2d_traj, tg2d_traj, TRIPLE, s=0.5, lam=1.0)
    summary = rep.summary()
    assert summary["degenerate"] is True
    assert summary["final_W"] == 0.0
    rep.write(tmp_path)
    with open(tmp_path / "summary.json") as fh:
        loaded = json.load(fh)
    assert loaded["final_W"] == 0.0
