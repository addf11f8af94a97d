"""Acceptance gate: one test per numbered criterion from the README.

Run `pytest -v tests/test_acceptance.py` for one PASSED/FAILED line per
criterion (add -s to see the printed PASS summaries with measured
values).  Criteria 1, 3 and 5 measure through the `lpnse.verify`
functions that `lpnse verify` also uses (criterion 5's runs are the
session fixture `solver_checks` in conftest.py, which the solver suite's
test reuses); every tolerance, seed and runtime budget is pinned here,
and randomized inputs use fixed seeds so the gate is reproducible bit
for bit.  Identities are checked against
exact mathematical oracles, and measured constants are checked for the
stated stability (spread) bounds, never against hard-coded magic values.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from lpnse import cutoffs, ensembles
from lpnse.besov import CriterionTriple, split_constants, split_low_high
from lpnse.blocks import bernstein_report, reverse_bernstein_report
from lpnse.field import (Field, SPECTRAL, from_components, grad_norm_inf,
                         l2_norm_spectral, lp_norm, scale)
from lpnse.grid import Grid
from lpnse.monitor import (block_series, build_report, criterion_integral,
                           epsilon_weights, gronwall_check, losing_weight,
                           smallness_window)
from lpnse.solver import SolverConfig, Trajectory, run, twin_run
from lpnse.verify import (advection_cancellation, bkm_ratios,
                          block_cancellation, block_orthogonality,
                          bony_residual, leray_gradient_residual,
                          paraproduct_orthogonality, partition_residuals,
                          reconstruction_residual)
from monitor_helpers import b1_series

# uniqueness-criterion triple used for the twin-run criteria: r = 1/2,
# 2/q + 3/p = 1 + r with p = 4, q = 8/3
GRONWALL_TRIPLE = CriterionTriple(0.5, 4.0, 8.0 / 3.0)

# low/high split triples spanning the loss range r in {1/4, 1/2, 1}
SPLIT_TRIPLES = (CriterionTriple(0.25, 4.0, 4.0),
                 CriterionTriple(0.5, 6.0, 2.0),
                 CriterionTriple(1.0, 6.0, 4.0 / 3.0))

TWIN_CONFIGS = {n: SolverConfig(dim=2, n=n, nu=1.0, dt=2.5e-3, t_end=0.25,
                                ic="taylor-green", snap_every=10)
                for n in (64, 128)}
TWIN_DELTAS = (1e-3, 1e-4, 1e-5)
TWIN_SEED = 5


def _twin_sweep():
    """((n, delta), (base, twin)) for every config and delta, each base
    run once and shared by its deltas; criteria 6 and 8's sweep."""
    for n, cfg in TWIN_CONFIGS.items():
        base = run(cfg)
        for delta in TWIN_DELTAS:
            yield (n, delta), twin_run(cfg, delta=delta, seed=TWIN_SEED,
                                       base=base)


@pytest.fixture(scope="session")
def twin_sweep():
    """The sweep, run and timed once per session: ({(n, delta): (base,
    twin)}, seconds).  Criterion 6 checks it, and criterion 8 takes it as
    the first of its two independently computed sweeps; each counts its
    seconds against its own budget."""
    start = time.perf_counter()
    pairs = dict(_twin_sweep())
    return pairs, time.perf_counter() - start


def _timed(budget, label, fn):
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    assert elapsed <= budget, f"{label} took {elapsed:.2f}s (budget {budget:g}s)"
    return out


def _l2_diff(traj_u, traj_v, i):
    return l2_norm_spectral(Field(traj_u.grid,
                                  traj_v.snapshots[i].data
                                  - traj_u.snapshots[i].data,
                                  SPECTRAL))


# --- criterion 1: exact identities -------------------------------------------

def test_criterion_1_exact_identities():
    rng = np.random.default_rng(0)
    grid3 = Grid(3, 32)
    grid2 = Grid(2, 64)

    assert max(_timed(1.0, "partition of unity",
                      lambda: partition_residuals(grid3))) <= 1e-14

    f = ensembles.band_noise(grid3, rng)
    assert _timed(1.0, "block reconstruction",
                  lambda: reconstruction_residual(f)) <= 1e-12
    assert _timed(1.0, "block orthogonality",
                  lambda: block_orthogonality(f)) <= 1e-12

    g = ensembles.band_noise(grid2, rng)
    assert _timed(1.0, "paraproduct orthogonality",
                  lambda: paraproduct_orthogonality(g)) <= 1e-12

    u = ensembles.band_noise(grid3, rng)
    v = ensembles.band_noise(grid3, rng)
    assert _timed(1.0, "bony identity", lambda: bony_residual(u, v)) <= 1e-12

    pot = ensembles.band_noise(grid3, rng)
    assert _timed(1.0, "leray on gradients",
                  lambda: leray_gradient_residual(pot)) <= 1e-13

    full = grid3.n / 2.0 - 1.0
    vdf = ensembles.divfree_noise(grid3, rng, kmax=full)
    gg = ensembles.band_noise(grid3, rng, kmax=full)
    wdf = ensembles.divfree_noise(grid3, rng, kmax=full)
    assert _timed(1.0, "advection cancellation",
                  lambda: advection_cancellation(vdf, gg)) <= 1e-11
    assert _timed(1.0, "block cancellation",
                  lambda: block_cancellation(vdf, wdf)) <= 1e-11

    print("PASS: criterion 1 - exact identities hold at stated tolerances, "
          "each check within 1s")


# --- criterion 2: block norm inequalities -------------------------------------

def test_criterion_2_bernstein_constants():
    start = time.perf_counter()
    grid = Grid(3, 64)
    fwd = bernstein_report(grid, ensemble=100, seed=7)
    spreads = fwd.spread_by_case()
    assert set(spreads) == {(2.0, 2.0, 1), (2.0, math.inf, 0),
                            (math.inf, math.inf, 1)}
    for case, spread in sorted(spreads.items()):
        assert math.isfinite(spread) and spread <= 4.0, (case, spread)
    rev = reverse_bernstein_report(grid, ensemble=100, seed=7)
    assert rev.max_ratio() <= 4.0 / 3.0 * 1.1
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    print(f"PASS: criterion 2 - bernstein spreads <= 4 across blocks, "
          f"reverse constant <= 4/3 +10%, {elapsed:.1f}s")


# --- criterion 3: vorticity norm equivalence ----------------------------------

def test_criterion_3_bkm_ratio_bounds():
    start = time.perf_counter()
    ratios = bkm_ratios((32, 64), seed=11, ensemble=100).values()
    assert all(math.isfinite(r) and r > 0.0 for rs in ratios for r in rs)
    maxima = [max(rs) for rs in ratios]
    spread = max(maxima) / min(maxima)
    assert spread <= 2.0
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    print(f"PASS: criterion 3 - bkm ratios finite on 100 fields per "
          f"resolution, cross-resolution spread {spread:.3f} <= 2, "
          f"{elapsed:.1f}s")


# --- criterion 4: low/high frequency split ------------------------------------

def test_criterion_4_split_level_and_bounds(tg3d_traj):
    start = time.perf_counter()
    grid = Grid(3, 64)

    # (a) split level matches the closed form and the bound constants are
    # stable across an ensemble of unit-norm divergence-free fields
    rng = np.random.default_rng(21)
    for triple in SPLIT_TRIPLES:
        c_lips, c_highs = [], []
        for _ in range(20):
            u = ensembles.divfree_noise(grid, rng, slope=2.0)
            first = split_constants(u, triple)
            u1 = scale(u, 1.0 / first["norm"])
            consts = split_constants(u1, triple)
            expected_n = math.floor(
                triple.q / 2.0 * math.log2(math.e + consts["norm"])) + 1
            assert consts["N"] == expected_n
            c_lips.append(consts["c_lip"])
            c_highs.append(consts["c_high"])
        assert max(c_lips) / min(c_lips) <= 4.0, triple
        assert max(c_highs) / min(c_highs) <= 4.0, triple

    # (b) the level formula tracks the norm as it sweeps across block
    # boundaries
    rng = np.random.default_rng(33)
    targets = ((0.1, 0.4, 1.2), (0.5, 2.0, 12.0), (1.0, 8.0, 50.0))
    for triple, target_norms in zip(SPLIT_TRIPLES, targets):
        seen = set()
        for target in target_norms:
            u = ensembles.divfree_noise(grid, rng, slope=2.0)
            first = split_constants(u, triple)
            u1 = scale(u, target / first["norm"])
            consts = split_constants(u1, triple)
            assert abs(consts["norm"] - target) <= 1e-8 * target
            expected_n = math.floor(
                triple.q / 2.0 * math.log2(math.e + consts["norm"])) + 1
            assert consts["N"] == expected_n
            seen.add(consts["N"])
        assert len(seen) >= 2, "norm targets should span several block levels"

    # (c) the integrated bounds hold along a stored smooth trajectory
    # with a single measured constant
    triple = SPLIT_TRIPLES[2]
    crit = criterion_integral(tg3d_traj, triple)
    lips, highs = [], []
    for i, snap in enumerate(tg3d_traj.snapshots):
        res = split_low_high(snap, triple, crit.norms[i])
        expected_n = math.floor(
            triple.q / 2.0 * math.log2(math.e + crit.norms[i])) + 1
        assert res.N == expected_n
        lips.append(grad_norm_inf(res.u_low))
        highs.append(lp_norm(res.u_high, res.p_tilde) ** res.q_tilde)
        if i == 0:
            # initial data is low-frequency: the high part is FFT roundoff
            assert float(np.max(np.abs(res.u_high.data))) <= 1e-15
    lhs_lip = np.concatenate([[0.0], np.cumsum(
        0.5 * (np.array(lips)[1:] + np.array(lips)[:-1])
        * np.diff(tg3d_traj.times))])
    lhs_high = np.concatenate([[0.0], np.cumsum(
        0.5 * (np.array(highs)[1:] + np.array(highs)[:-1])
        * np.diff(tg3d_traj.times))])
    c_add1 = float(np.max(lhs_lip[1:] / crit.integral[1:]))
    c_add2 = float(np.max(lhs_high[1:] / crit.integral[1:]))
    assert math.isfinite(c_add1) and 0.0 < c_add1 <= 10.0
    assert math.isfinite(c_add2) and 0.0 <= c_add2 <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    print(f"PASS: criterion 4 - split level exact, bound constants stable, "
          f"integrated constants C_lip={c_add1:.3e} C_high={c_add2:.3e}, "
          f"{elapsed:.1f}s")


# --- criterion 5: solver validation -------------------------------------------

def test_criterion_5_solver_validation(solver_checks):
    checks, elapsed2d = solver_checks["2d"]
    decay_err, orders = checks["decay_error"], checks["orders"]
    assert decay_err <= 1e-8
    assert checks["energy_residual"] <= 1e-6
    assert min(orders) >= 3.5
    assert elapsed2d <= 60.0

    checks, elapsed3d = solver_checks["3d"]
    assert checks["nonfinite"] == 0
    assert checks["energy_residual"] <= 1e-4
    assert elapsed3d <= 300.0
    print(f"PASS: criterion 5 - decay error {decay_err:.2e}, observed order "
          f"{min(orders):.2f}, 3d energy residual within 1e-4, "
          f"2d {elapsed2d:.0f}s / 3d {elapsed3d:.0f}s")


# --- criterion 6: perturbation envelope ----------------------------------------

def test_criterion_6_twin_envelope(twin_sweep):
    pairs, sweep_s = twin_sweep
    start = time.perf_counter()
    c_values = []
    for n in TWIN_CONFIGS:
        ratio_series = []
        for delta in TWIN_DELTAS:
            u, v = pairs[n, delta]
            fit = gronwall_check(u, v, GRONWALL_TRIPLE)
            assert not fit.degenerate
            assert fit.finite
            assert math.isfinite(fit.c_sup)
            c_values.append(fit.c_sup)
            w0 = _l2_diff(u, v, 0)
            ratio_series.append(np.array(
                [_l2_diff(u, v, i) / w0 for i in range(len(u.times))]))
        # the normalized difference growth is delta-independent while the
        # perturbation stays in the linear regime
        for a in range(len(ratio_series)):
            for b in range(a + 1, len(ratio_series)):
                dev = float(np.max(np.abs(
                    ratio_series[a] / ratio_series[b] - 1.0)))
                assert dev <= 0.10, (n, a, b, dev)
    signs = {math.copysign(1.0, c) for c in c_values}
    assert len(signs) == 1
    magnitudes = [abs(c) for c in c_values]
    assert max(magnitudes) / min(magnitudes) <= 2.0
    elapsed = sweep_s + time.perf_counter() - start
    assert elapsed <= 300.0
    print(f"PASS: criterion 6 - envelope constants finite and consistent "
          f"(spread {max(magnitudes) / min(magnitudes):.6f} <= 2) across "
          f"deltas {TWIN_DELTAS} and n in {tuple(TWIN_CONFIGS)}, "
          f"{elapsed:.1f}s")


# --- criterion 7: drift weights and smallness window ---------------------------

def test_criterion_7_losing_weights(twin_pair, grid2):
    start = time.perf_counter()
    u, v = twin_pair
    times, js, eps = epsilon_weights(u, v)

    # exact monotonicity: cumulative integrals of nonnegative increments
    assert np.all(np.diff(eps, axis=1) >= 0.0)
    assert np.all(np.diff(eps, axis=0) >= 0.0)

    # growth bound at every snapshot: each added level costs at most the
    # accumulated B1 budget of both flows
    b_total = b1_series(u) + b1_series(v)
    budget = np.concatenate(
        [[0.0],
         np.cumsum(0.5 * (b_total[1:] + b_total[:-1]) * np.diff(times))])
    for a in range(len(js)):
        for b in range(a + 1, len(js)):
            gap = (js[b] - js[a]) * budget
            assert np.all(eps[b] - eps[a] <= gap * (1.0 + 1e-12) + 1e-15)

    # doubling lambda shrinks the window and flattens the weighted sup
    blocks = block_series(u, v)
    s = 0.5
    sups, windows = [], []
    for lam in (1.0, 2.0, 4.0, 8.0):
        t_star = smallness_window(u, v, s, lam)
        mask = blocks.times <= t_star + 1e-12
        sups.append(float(np.max(losing_weight(blocks, eps, lam, s)[:, mask])))
        windows.append(t_star)
    assert all(a >= b for a, b in zip(windows, windows[1:]))
    assert all(a >= b for a, b in zip(sups, sups[1:]))

    # closed-form window on a constant-norm synthetic pair, matched to
    # within one snapshot interval
    mode = from_components(grid2, lambda x, y: np.zeros_like(x),
                           lambda x, y: np.cos(2 * x))
    dt_snap = 0.005
    syn_times = np.arange(0.0, 0.3 + dt_snap / 2, dt_snap)
    syn_cfg = SolverConfig(dim=2, n=grid2.n, nu=1.0, dt=dt_snap, t_end=0.3,
                           snap_every=1)
    syn = Trajectory(syn_cfg, grid2, syn_times,
                     [mode] * len(syn_times), {})
    twin = Trajectory(syn_cfg, grid2, syn_times,
                      [mode] * len(syn_times), {})
    m = max(float(cutoffs.phi(2.0)), 2.0 * float(cutoffs.phi(1.0)))
    lam = 1.0
    closed = (1.0 - s) * math.log(2.0) / (2.0 * lam * m)
    assert abs(smallness_window(syn, twin, s, lam) - closed) <= dt_snap
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    print(f"PASS: criterion 7 - drift weights monotone and budgeted, "
          f"weighted sup nonincreasing in lambda, window matches closed "
          f"form, {elapsed:.1f}s")


# --- criterion 8: reproducibility ----------------------------------------------

def test_criterion_8_reproducible_reports(tmp_path, twin_sweep):
    # the first sweep is criterion 6's, the second is computed afresh
    pairs, sweep_s = twin_sweep
    start = time.perf_counter()

    def reports(root, sweep):
        out = {}
        for (n, delta), (u, v) in sweep:
            outdir = root / f"n{n}_delta{delta:g}"
            outdir.mkdir(parents=True)
            report = build_report(u, v, GRONWALL_TRIPLE, s=0.5, lam=1.0)
            for path in report.write(outdir):
                path = Path(path)
                out[str(path.relative_to(root))] = path.read_bytes()
        return out

    first = reports(tmp_path / "a", pairs.items())
    second = reports(tmp_path / "b", _twin_sweep())
    assert len(first) == len(TWIN_CONFIGS) * len(TWIN_DELTAS) * 7
    assert first.keys() == second.keys()
    mismatched = [name for name in first if first[name] != second[name]]
    assert mismatched == []
    elapsed = sweep_s + time.perf_counter() - start
    assert elapsed <= 300.0
    print(f"PASS: criterion 8 - {len(first)} report files byte-identical "
          f"across repeated runs, {elapsed:.1f}s")
