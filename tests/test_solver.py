import math
import re
import warnings

import numpy as np
import pytest

import lpnse.solver
from lpnse import (Grid, SolverConfig, energy_balance_residual, nse_rhs, run,
                   step, taylor_green, twin_run)
from lpnse.errors import GridError, SolverAbort
from lpnse.ensembles import divfree_noise
from lpnse.field import (Field, _cross, _full_spectrum, _hermitian_half,
                         _leray_project_spec, add, advect, from_components,
                         divergence, h1_seminorm, inner, l2_norm_spectral,
                         laplacian, leray_project, scale, to_physical)
from lpnse.solver import (_Integrator, _cumulative_simpson, _integrate,
                          initial_condition, perturbation_field)


# --- configuration -----------------------------------------------------------

def test_config_from_mapping_round_trip():
    config = SolverConfig(dim=3, n=16, nu=0.25, dt=2e-3, t_end=0.1, seed=4)
    assert SolverConfig.from_mapping(config.to_mapping()) == config


def test_config_from_mapping_parses_strings():
    config = SolverConfig.from_mapping({
        "dim": "3", "n": "16", "nu": "0.5", "dealias": "false",
        "ic": "random-divfree", "snap_every": "5",
    })
    assert config.dim == 3 and config.n == 16
    assert config.nu == 0.5
    assert config.dealias is False
    assert config.ic == "random-divfree"


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        SolverConfig.from_mapping({"viscosity": "1.0"})


def test_config_rejects_bad_bool():
    with pytest.raises(ValueError, match="boolean key"):
        SolverConfig.from_mapping({"dealias": "maybe"})


def test_config_validation():
    with pytest.raises(ValueError, match="non-negative"):
        SolverConfig(nu=-1.0)
    with pytest.raises(ValueError, match="'dt' must be positive"):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError, match="'dt' must be positive, got -1.0"):
        SolverConfig(dt=-1.0)
    with pytest.raises(ValueError, match="'t_end' must be positive"):
        SolverConfig(t_end=-0.5)
    with pytest.raises(ValueError):
        SolverConfig(snap_every=0)
    with pytest.raises(ValueError, match="unknown initial condition"):
        SolverConfig(ic="vortex-sheet")


@pytest.mark.parametrize("changes, message", [
    ({"dim": 4}, "dim must be 2 or 3, got 4"),
    ({"n": 12}, "n must be a power of two >= 8, got 12"),
    ({"seed": -1}, "config key 'seed' must be non-negative, got -1"),
    ({"snap_every": 0}, "config key 'snap_every' must be >= 1, got 0"),
    ({"cfl_safety": 0.0}, "config key 'cfl_safety' must be positive, got 0.0"),
    ({"dt": 3e-3, "t_end": 1e-2}, "config key 't_end' must be a whole number "
     "of steps of dt=0.003, got 0.01"),
    ({"dt": 1e-3, "t_end": 1e308}, "config key 't_end' must be a whole number"),
], ids=["dim", "n", "seed", "snap_every", "cfl_safety", "t_end", "t_end-huge"])
def test_config_is_the_one_run_check(changes, message):
    # every fault of a run's config raises at construction, naming the key
    with pytest.raises((ValueError, GridError), match=re.escape(message)):
        SolverConfig(**changes)


@pytest.mark.parametrize("key, raw", [("n", "abc"), ("seed", "1e300"),
                                      ("nu", "fast")])
def test_config_from_mapping_names_unparsable_key(key, raw):
    with pytest.raises(ValueError, match=f"config key '{key}': "):
        SolverConfig.from_mapping({key: raw})


@pytest.mark.parametrize("mapping, message", [
    ({"n": 32.5}, "config key 'n': expected int, got 32.5"),
    ({"seed": 1.7}, "config key 'seed': expected int, got 1.7"),
    ({"snap_every": 2.9}, "config key 'snap_every': expected int, got 2.9"),
    ({"n": True}, "config key 'n': expected int, got True"),
    ({"nu": True}, "config key 'nu': expected float, got True"),
    ({"dealias": 0.5}, "config key 'dealias': expected bool, got 0.5"),
    ({"dealias": 1}, "config key 'dealias': expected bool, got 1"),
], ids=["n", "seed", "snap_every", "bool-n", "bool-nu", "dealias-float",
        "dealias-int"])
def test_config_from_mapping_truncates_nothing(mapping, message):
    # trajectory.json gives numbers, not strings: none is truncated to an
    # int or read as a bool, and no bool passes as a number
    with pytest.raises(ValueError, match=re.escape(message)):
        SolverConfig.from_mapping(mapping)


def test_config_from_mapping_takes_whole_floats_and_bools():
    config = SolverConfig.from_mapping({"n": 32.0, "seed": 3.0, "nu": 1,
                                        "dealias": False})
    assert (config.n, config.seed, config.nu, config.dealias) == (32, 3, 1.0,
                                                                  False)
    assert type(config.n) is int and type(config.nu) is float


def test_config_step_count():
    assert SolverConfig(dt=2.5e-3, t_end=0.01).nsteps == 4
    assert SolverConfig(dt=1e-3, t_end=0.5).nsteps == 500


def test_run_validates_grid_parameters():
    with pytest.raises(GridError):
        run(SolverConfig(dim=2, n=20, t_end=0.01, dt=0.01))


# --- initial data ------------------------------------------------------------

def test_taylor_green_2d_closed_form(grid2):
    u = taylor_green(grid2)
    x, y = grid2.meshes()
    phys = to_physical(u)
    np.testing.assert_allclose(phys[0], np.sin(x) * np.cos(y), atol=1e-14)
    np.testing.assert_allclose(phys[1], -np.cos(x) * np.sin(y), atol=1e-14)
    assert l2_norm_spectral(divergence(u)) <= 1e-13


def test_taylor_green_3d_closed_form(grid3):
    u = taylor_green(grid3)
    x, y, z = grid3.meshes()
    phys = to_physical(u)
    np.testing.assert_allclose(phys[0], np.sin(x) * np.cos(y) * np.cos(z),
                               atol=1e-14)
    np.testing.assert_allclose(phys[1], -np.cos(x) * np.sin(y) * np.cos(z),
                               atol=1e-14)
    np.testing.assert_allclose(phys[2], 0.0, atol=1e-14)
    assert l2_norm_spectral(divergence(u)) <= 1e-13


def test_random_initial_condition_normalized(grid2):
    config = SolverConfig(dim=2, n=32, ic="random-divfree", seed=9)
    u = initial_condition(config, grid2)
    assert l2_norm_spectral(u) == pytest.approx(1.0, rel=1e-12)
    assert l2_norm_spectral(divergence(u)) <= 1e-12 * h1_seminorm(u)


def test_perturbation_resolution_independent():
    # same (seed, kmax) must give the same continuum field on finer grids
    coarse = perturbation_field(Grid(2, 32), seed=11, kmax=6.0)
    fine = perturbation_field(Grid(2, 64), seed=11, kmax=6.0)
    sc = coarse.data
    sf = fine.data
    idx = np.fft.fftfreq(32, 1.0 / 32).astype(int)
    np.testing.assert_allclose(sf[np.ix_(range(2), idx, idx)], sc,
                               rtol=0.0, atol=1e-15)


# --- equation structure ------------------------------------------------------

def test_tg2d_rhs_is_pure_decay(grid2):
    # the 2D vortex nonlinearity is a gradient: P(u.grad u) = 0, so the
    # right side reduces to nu * Laplacian = -2 nu u
    u = taylor_green(grid2)
    nu = 0.7
    rhs = nse_rhs(u, nu)
    diff = add(rhs, u, alpha=2.0 * nu)
    assert l2_norm_spectral(diff) <= 1e-13 * l2_norm_spectral(u)


def test_advection_energy_neutral(grid3, rng):
    u = divfree_noise(grid3, rng, kmax=10.0)
    val = inner(advect(u, u), u)
    scale_ = l2_norm_spectral(u) ** 2 * h1_seminorm(u)
    assert abs(val) <= 1e-11 * scale_


def _off_nyquist(grid):
    """True off the planes with some k_i = -n/2, where the solver zeroes
    its nonlinear term, and False on them."""
    return sum(k == -(grid.n // 2) for k in grid.k_components) == 0


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_nonlinear_term_zero_on_nyquist_planes(dim, n, dealias,
                                               nonlinear_full):
    # arbitrary complex spectra, with content on the -n/2 planes too
    rng = np.random.default_rng(11)
    grid = Grid(dim, n)
    shape = (dim,) + grid.shape
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    config = SolverConfig(dim=dim, n=n, dealias=dealias)
    term, _ = nonlinear_full(_Integrator(grid, config), spec)
    on = ~_off_nyquist(grid)
    assert np.all(term[:, on] == 0.0)
    assert np.max(np.abs(term[:, ~on])) > 0.0


def _divfree_off_nyquist(grid, seed):
    u = divfree_noise(grid, np.random.default_rng(seed), kmax=float(grid.n))
    return u.data * _off_nyquist(grid)


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_nonlinear_term_energy_neutral(dim, n, nonlinear_full):
    grid = Grid(dim, n)
    integ = _Integrator(grid, SolverConfig(dim=dim, n=n))
    for seed in range(3):
        u = Field(grid, _divfree_off_nyquist(grid, seed), "spectral")
        term, _ = nonlinear_full(integ, u.data)
        term = Field(grid, term, "spectral")
        assert abs(inner(u, term)) <= 1e-13 * (l2_norm_spectral(u)
                                               * l2_norm_spectral(term))


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_nonlinear_term_is_projected_convective_off_nyquist(dim, n,
                                                           nonlinear_full):
    # P(u x omega) = -P(u.grad u): the forms differ by a gradient
    grid = Grid(dim, n)
    u = Field(grid, _divfree_off_nyquist(grid, 5), "spectral")
    term, _ = nonlinear_full(_Integrator(grid, SolverConfig(dim=dim, n=n)),
                             u.data)
    want = -leray_project(advect(u, u)).data * _off_nyquist(grid)
    want[(slice(None),) + (0,) * dim] = 0.0
    assert np.max(np.abs(term - want)) <= 1e-13 * np.max(np.abs(want))


def _random_half_states(grid, count, seed):
    """Half spectra with content on every plane, the -n/2 planes too, and
    sizes that differ from state to state."""
    rng = np.random.default_rng(seed)
    shape = (grid.dim,) + grid.shape
    return [_hermitian_half(10.0**-i * (rng.standard_normal(shape)
                                        + 1j * rng.standard_normal(shape)),
                            grid.dim) for i in range(count)]


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_nonlinear_workspace_reuse_is_bit_identical(dim, n, dealias):
    # the integrator reuses its transform workspace, and u and then
    # omega share its padded buffer (a plain copy with dealias=False):
    # nothing of one transform or call may leak into the next
    grid = Grid(dim, n)
    config = SolverConfig(dim=dim, n=n, dealias=dealias)
    reused = _Integrator(grid, config)
    for state in _random_half_states(grid, 3, 21):
        term, umax = reused.nonlinear(state)
        fresh_term, fresh_umax = _Integrator(grid, config).nonlinear(state)
        np.testing.assert_array_equal(term, fresh_term)
        assert umax == fresh_umax
        # the speed is skipped on the stages that do not read it, and
        # nothing else moves
        quiet, no_speed = reused.nonlinear(state, speed=False)
        np.testing.assert_array_equal(quiet, term)
        assert no_speed is None


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_nonlinear_leaves_input_unchanged(dim, n, dealias):
    grid = Grid(dim, n)
    integ = _Integrator(grid, SolverConfig(dim=dim, n=n, dealias=dealias))
    state = _random_half_states(grid, 1, 22)[0]
    before = state.copy()
    term, _ = integ.nonlinear(state)
    np.testing.assert_array_equal(state, before)
    # nor does the result alias the workspace the next call overwrites
    workspace = [state, integ.omega, integ.slab,
                 *integ.padding._buffers.values()]
    assert not any(np.shares_memory(term, buf) for buf in workspace)


def _whole_grid_nonlinear(integ, half):
    """The term with u x omega formed over the whole fine grid in one
    _cross call, the reference for the integrator's slabs."""
    u = integ.padding.to_fine(half)
    umax = float(np.sqrt(np.max(np.einsum("i...,i...->...", u, u))))
    w = integ.padding.to_fine(_cross(integ.grid._half_ik, half))
    out = _leray_project_spec(integ.padding.to_coarse(_cross(u, w)),
                              integ.grid)
    out *= integ.keep
    out[integ.zero] = 0.0
    return out, umax


@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("dim,n", [(2, 8), (2, 32), (3, 8), (3, 16)])
def test_slab_product_matches_whole_grid_product(dim, n, dealias):
    # u x omega is written over u's fine values a slab of rows at a time;
    # every element sees the same operations, so the term is the
    # whole-grid one bit for bit, on grids whose m = 12 the slab height
    # does not divide (n = 8 with dealias) as on those it does
    grid = Grid(dim, n)
    integ = _Integrator(grid, SolverConfig(dim=dim, n=n, dealias=dealias))
    for state in _random_half_states(grid, 2, 23):
        term, umax = integ.nonlinear(state)
        want, want_umax = _whole_grid_nonlinear(
            _Integrator(grid, SolverConfig(dim=dim, n=n, dealias=dealias)),
            state)
        assert np.array_equal(term, want)
        assert umax == want_umax


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_step_matches_out_of_place_stages(dim, n):
    # step forms its stage arguments and its result in one array, in
    # place, with the operations of the out-of-place IF-RK4 expressions
    grid = Grid(dim, n)
    config = SolverConfig(dim=dim, n=n, dt=1e-3)
    integ = _Integrator(grid, config)
    state = _random_half_states(grid, 1, 24)[0]
    dt, e1, e2 = config.dt, integ.e_half, integ.e_full
    a, _ = integ.nonlinear(state)
    b, _ = integ.nonlinear(e1 * (state + 0.5 * dt * a))
    c, _ = integ.nonlinear(e1 * state + 0.5 * dt * b)
    d, _ = integ.nonlinear(e2 * state + dt * e1 * c)
    want = e2 * state + dt / 6.0 * (e2 * a + 2.0 * e1 * (b + c) + d)
    assert np.array_equal(integ.step(state, 0.0, 0), want)


def test_state_stays_hermitian_without_nyquist_content():
    # no -n/2 content in the random initial condition, none produced by the
    # masked term: every snapshot is its own Hermitian part, bit for bit
    config = SolverConfig(dim=3, n=16, nu=0.05, dt=5e-3, t_end=2.5e-2,
                          ic="random-divfree", seed=3, snap_every=1)
    traj = run(config)
    assert len(traj) == 6
    for snap in traj.snapshots:
        spec = snap.data
        np.testing.assert_array_equal(
            _full_spectrum(_hermitian_half(spec, 3), 3), spec)
        assert np.all(spec[:, ~_off_nyquist(traj.grid)] == 0.0)


def test_divergence_stays_round_off_over_long_run():
    # IF-RK4 steps do not re-project their result: the state and every
    # stage term are projected and the integrating factors are scalar per
    # mode, so k.u must stay at round-off without a final projection
    config = SolverConfig(dim=3, n=16, nu=0.05, dt=5e-3, t_end=1.0,
                          ic="random-divfree", seed=4, snap_every=20)
    traj = run(config)
    grid = traj.grid
    assert len(traj) == 11
    for snap in traj.snapshots:
        spec = snap.data
        kdotu = sum(k * spec[axis] for axis, k in enumerate(grid.k_components))
        scale_ = np.max(np.sqrt(grid.k_sq) * np.sqrt(np.sum(np.abs(spec) ** 2, axis=0)))
        assert np.max(np.abs(kdotu)) <= 1e-13 * scale_


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_series_are_full_spectrum_sums_over_snapshots(dim, n):
    # the state holds the planes 0 <= k_last <= n/2; its energy and
    # dissipation sums must count every plane but 0 and n/2 twice.  A mode
    # on the last-axis Nyquist plane pins that plane's weight too; run()
    # zeroes that plane in its initial projection (leray_project), so the
    # seeded state, projected without the zeroing, is integrated directly
    grid = Grid(dim, n)
    config = SolverConfig(dim=dim, n=n, nu=0.05, dt=5e-3, t_end=5e-2,
                          ic="random-divfree", seed=6, snap_every=1)
    spec = initial_condition(config, grid).half.copy()
    lead = (1,) * (dim - 1)
    spec[(0,) + lead + (n // 2,)] = 0.3 + 0.1j
    spec[(0,) + (n - 1,) * (dim - 1) + (n // 2,)] = 0.3 - 0.1j
    traj = _integrate(config, grid, _leray_project_spec(spec, grid))
    assert np.any(traj.final.data[..., n // 2] != 0.0)
    for i, snap in enumerate(traj.snapshots):
        power = np.abs(snap.data) ** 2
        assert traj.series["energy"][i] == pytest.approx(
            grid.volume * np.sum(power), rel=1e-14, abs=0.0)
        assert traj.series["grad_sq"][i] == pytest.approx(
            grid.volume * np.sum(grid.k_sq * power), rel=1e-14, abs=0.0)


def test_single_step_matches_run(grid2):
    config = SolverConfig(dim=2, n=32, nu=0.5, dt=1e-3, t_end=1e-3,
                          snap_every=1)
    u0 = taylor_green(grid2)
    traj = run(config, initial=u0)
    manual = step(leray_project(u0), config)
    np.testing.assert_array_equal(traj.final.data, manual.data)


@pytest.mark.parametrize("dim,n", [(2, 16), (2, 64), (3, 16)])
def test_taylor_green_states_are_exactly_hermitian(dim, n):
    # the projected initial state has no -n/2 content, so every state's
    # full layout, made a Field again, gives back its half spectrum bit
    # for bit (the projection leaves round-off there without the zeroing)
    grid = Grid(dim, n)
    config = SolverConfig(dim=dim, n=n, nu=0.1, dt=2e-3, t_end=6e-3,
                          snap_every=1)
    for snap in run(config).snapshots:
        assert np.array_equal(Field(grid, snap.data).half, snap.half)


# --- integration -------------------------------------------------------------

def test_tg2d_exact_decay():
    config = SolverConfig(dim=2, n=32, nu=0.5, dt=1e-3, t_end=0.1,
                          snap_every=20)
    traj = run(config)
    expected = scale(traj.snapshots[0], math.exp(-2.0 * 0.5 * 0.1))
    err = l2_norm_spectral(add(traj.final, expected, alpha=-1.0))
    assert err <= 1e-12 * l2_norm_spectral(expected)


def test_energy_dissipates_monotonically():
    config = SolverConfig(dim=2, n=32, nu=1.0, dt=1e-3, t_end=0.05,
                          ic="random-divfree", seed=2, snap_every=10)
    traj = run(config)
    energy = traj.series["energy"]
    assert np.all(np.diff(energy) < 0.0)


def test_energy_balance_residual(tg2d_traj):
    assert energy_balance_residual(tg2d_traj) <= 1e-6


@pytest.mark.parametrize("equal", [True, False], ids=["equal", "unequal"])
def test_cumulative_simpson_matches_scipy_bit_for_bit(equal):
    from scipy.integrate import cumulative_simpson
    rng = np.random.default_rng(16)
    for n in range(3, 41):
        y = rng.standard_normal(n)
        x = (np.arange(n) * 2.5e-3 if equal
             else np.cumsum(rng.uniform(0.1, 1.0, n)))
        expected = cumulative_simpson(y, x=x, initial=0.0)
        assert _cumulative_simpson(y, x).tobytes() == expected.tobytes(), n


def test_energy_balance_residual_matches_scipy_simpson(tg2d_traj):
    from scipy.integrate import cumulative_simpson
    series = tg2d_traj.series
    integral = cumulative_simpson(series["grad_sq"], x=series["t"],
                                  initial=0.0)
    residual = np.abs(series["energy"] + 2.0 * tg2d_traj.config.nu * integral
                      - series["energy"][0])
    expected = float(np.max(residual) / series["energy"][0])
    assert energy_balance_residual(tg2d_traj) == expected


def test_divergence_preserved(twin_pair):
    base, twin = twin_pair
    for traj in (base, twin):
        for snap in traj.snapshots:
            assert l2_norm_spectral(divergence(snap)) <= 1e-10 * max(
                h1_seminorm(snap), 1e-30)


def test_zero_mode_conserved_exactly():
    # a mean drift rides along: the nonlinear term's zero mode is pinned
    # to zero and the viscous factor at k = 0 is exactly 1
    grid = Grid(2, 32)
    config = SolverConfig(dim=2, n=32, nu=0.3, dt=2e-3, t_end=0.02,
                          snap_every=5)
    drift = np.zeros((2,) + grid.shape, dtype=np.complex128)
    drift[0, 0, 0] = 0.3
    drift[1, 0, 0] = -0.2
    u0 = Field(grid, taylor_green(grid).data + drift, "spectral")
    traj = run(config, initial=u0)
    zero = (slice(None), 0, 0)
    for snap in traj.snapshots:
        np.testing.assert_array_equal(snap.data[zero],
                                      np.array([0.3, -0.2]))


def test_snapshot_cadence_and_final_time():
    config = SolverConfig(dim=2, n=32, nu=1.0, dt=1e-3, t_end=1e-2,
                          snap_every=7)
    traj = run(config)
    np.testing.assert_allclose(traj.times, [0.0, 7e-3, 1e-2])
    assert len(traj) == 3
    assert traj.series["t"].shape == (11,)


def test_t_end_not_multiple_of_dt():
    with pytest.raises(ValueError, match="whole number of steps"):
        run(SolverConfig(dim=2, n=32, dt=3e-3, t_end=1e-2))


def test_initial_field_needs_dim_components(grid2):
    from lpnse.field import zero_field
    config = SolverConfig(dim=2, n=32, dt=1e-3, t_end=1e-3)
    with pytest.raises(GridError):
        run(config, initial=zero_field(grid2, 1))


# --- aborts ------------------------------------------------------------------

def test_cfl_abort():
    config = SolverConfig(dim=2, n=32, nu=1.0, dt=0.1, t_end=0.1)
    with pytest.raises(SolverAbort) as exc:
        run(config)
    assert exc.value.reason == "cfl"
    assert exc.value.step == 0


def test_nan_abort(grid2):
    config = SolverConfig(dim=2, n=32, nu=1.0, dt=1e-3, t_end=1e-2)
    bad = np.zeros((2,) + grid2.shape, dtype=np.complex128)
    bad[0, 1, 1] = np.nan
    with pytest.raises(SolverAbort) as exc:
        run(config, initial=Field(grid2, bad, "spectral"))
    assert exc.value.reason == "nan"


@pytest.mark.parametrize("changes, norm", [
    ({"ic_kmax": 0.0}, "0.0"), ({"slope": 1e300}, "0.0"),
    ({"slope": -1e300}, "nan")], ids=["empty-band", "steep", "growing"])
def test_random_initial_condition_names_its_keys(grid2, changes, norm):
    # no amplitude survives the slope, or one overflows: a usage error
    # naming both keys, with no numpy warning
    config = SolverConfig(dim=2, n=32, ic="random-divfree", **changes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            initial_condition(config, grid2)
    message = str(exc.value)
    assert f"has norm {norm}" in message
    assert "ic_kmax=" in message and "slope=" in message


def test_overflowing_energy_aborts_without_numpy_warning(grid2):
    # the energy check runs with numpy's warnings off: the abort alone
    # reports the blow-up
    config = SolverConfig(dim=2, n=32, nu=1.0, dt=1e-3, t_end=1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverAbort) as exc:
            run(config, initial=scale(taylor_green(grid2), 1e200))
    assert exc.value.reason == "nan" and exc.value.step == 0


def test_overflowing_transform_aborts_without_numpy_warning():
    # a shear u = (0, f(x)), f = sum of cos(k x) for k <= 5, at energy
    # 5e307: energy, velocities and u x omega are finite, but u x omega
    # is constant along y, so the forward r2c's unnormalized sum over
    # the 24 padded points overflows.  The transforms run with numpy's
    # warnings off, and the CFL abort alone reports the blow-up
    grid = Grid(2, 16)
    shear = from_components(
        grid, lambda x, y: 0 * x,
        lambda x, y: sum(np.cos(k * x) for k in range(1, 6)) + 0 * y)
    u0 = scale(shear, math.sqrt(5e307) / l2_norm_spectral(shear))
    assert math.isfinite(l2_norm_spectral(u0) ** 2)
    config = SolverConfig(dim=2, n=16, nu=0.05, dt=1e-3, t_end=2e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverAbort) as exc:
            run(config, initial=u0)
    assert exc.value.reason == "cfl" and exc.value.step == 0


# --- reversibility and discrete residual --------------------------------------

def _reversal_error(dt):
    config = SolverConfig(dim=2, n=32, nu=0.0, dt=dt, t_end=0.1,
                          ic="random-divfree", seed=7, snap_every=10**6)
    u0 = scale(initial_condition(config, Grid(2, 32)), 4.0)
    fwd = run(config, initial=u0).final
    back = run(config, initial=scale(fwd, -1.0)).final
    err = add(scale(back, -1.0), u0, alpha=-1.0)
    return l2_norm_spectral(err) / l2_norm_spectral(u0)


def test_inviscid_reversal():
    # nu = 0: v(t) = -u(T - t) solves the same equations, so running
    # forward from -u(T) must return -u0 up to the RK4 truncation error
    e1 = _reversal_error(5e-3)
    e2 = _reversal_error(2.5e-3)
    assert e1 <= 1e-9
    assert math.log2(e1 / e2) >= 3.5


def _twin_residual(dt, t_center=0.016, nu=0.1):
    # residual of w_t = nu Lap w - P(w.grad u + v.grad w) at a fixed
    # physical time, with w_t from a 5-point stencil on per-step snapshots;
    # off the -n/2 planes, where the solver's term is zeroed
    steps = int(round(2.0 * t_center / dt))
    config = SolverConfig(dim=2, n=32, nu=nu, dt=dt, t_end=steps * dt,
                          ic="taylor-green", snap_every=1)
    base, twin = twin_run(config, delta=1e-2, seed=3)
    i = int(round(t_center / dt))

    def w(k):
        return Field(base.grid, base.snapshots[k].data
                     - twin.snapshots[k].data, "spectral")

    num = (w(i - 2).data - 8.0 * w(i - 1).data
           + 8.0 * w(i + 1).data - w(i + 2).data)
    dwdt = num / (12.0 * dt)
    wi = w(i)
    transport = add(advect(wi, base.snapshots[i]), advect(twin.snapshots[i], wi))
    rhs = (nu * laplacian(wi).data
           - leray_project(transport).data) * _off_nyquist(base.grid)
    resid = Field(base.grid, dwdt - rhs, "spectral")
    return l2_norm_spectral(resid) / l2_norm_spectral(Field(base.grid, rhs,
                                                            "spectral"))


def test_twin_difference_equation_residual():
    r1 = _twin_residual(2e-3)
    r2 = _twin_residual(1e-3)
    assert r2 <= 1e-9
    assert math.log2(r1 / r2) >= 3.5


# --- twins --------------------------------------------------------------------

def test_twin_zero_delta_identical():
    config = SolverConfig(dim=2, n=32, nu=1.0, dt=2e-3, t_end=0.02,
                          snap_every=5)
    base, twin = twin_run(config, delta=0.0, seed=1)
    for a, b in zip(base.snapshots, twin.snapshots):
        np.testing.assert_array_equal(a.data, b.data)


def test_twin_initial_offset_is_delta():
    config = SolverConfig(dim=2, n=32, nu=1.0, dt=2e-3, t_end=0.02,
                          snap_every=5)
    delta = 1e-3
    base, twin = twin_run(config, delta=delta, seed=1)
    w0 = add(twin.snapshots[0], base.snapshots[0], alpha=-1.0)
    rel = l2_norm_spectral(w0) / l2_norm_spectral(base.snapshots[0])
    assert rel == pytest.approx(delta, rel=1e-12)


def test_twin_rejects_negative_delta():
    config = SolverConfig(dim=2, n=32, dt=2e-3, t_end=0.02)
    with pytest.raises(ValueError, match="non-negative"):
        twin_run(config, delta=-1e-3, seed=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"delta": 1e-4, "seed": -1}, "perturbation seed must be non-negative, "
     "got -1"),
    ({"delta": 1e-4, "seed": 5, "pert_kmax": 0.0}, "perturbation kmax=0.0 "
     "holds no lattice mode with 0 < |k| <= kmax, so delta=0.0001 cannot"),
    ({"delta": 1e-4, "seed": 5, "pert_kmax": -1.0}, "perturbation kmax=-1.0"),
    ({"delta": 1e300, "seed": 5}, "perturbation delta=1e+300 gives a "
     "non-finite initial energy"),
    ({"delta": 1e308, "seed": 5}, "perturbation delta=1e+308 gives a "
     "non-finite initial energy"),
], ids=["seed", "kmax-0", "kmax-negative", "delta-1e300", "delta-1e308"])
def test_twin_rejects_unusable_perturbation_before_any_step(
        monkeypatch, kwargs, message):
    def no_run(*args, **kw):
        raise AssertionError("run() called before the inputs were checked")

    config = SolverConfig(dim=2, n=16, dt=2.5e-3, t_end=0.01)
    for name in ("run", "_integrate"):  # the twin and the base
        monkeypatch.setattr(lpnse.solver, name, no_run)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            twin_run(config, **kwargs)


def test_twin_forms_the_initial_state_once(monkeypatch):
    # u0 for the perturbation and the base run share one initial state,
    # and the base is run(config) bit for bit
    config = SolverConfig(dim=2, n=16, nu=0.1, dt=2.5e-3, t_end=0.01,
                          ic="random-divfree", seed=4, snap_every=2)
    reference = run(config)
    original = lpnse.solver.initial_condition
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lpnse.solver, "initial_condition", counting)
    base, _ = twin_run(config, delta=1e-4, seed=5)
    assert len(calls) == 1
    assert np.array_equal(base.times, reference.times)
    for a, b in zip(base.snapshots, reference.snapshots):
        assert a.data.tobytes() == b.data.tobytes()
    for key, values in reference.series.items():
        assert base.series[key].tobytes() == values.tobytes()


def test_twin_zero_delta_with_empty_perturbation_is_degenerate():
    # delta = 0 asks for no perturbation, so an empty band is fine
    config = SolverConfig(dim=2, n=16, dt=2.5e-3, t_end=0.01)
    base, twin = twin_run(config, delta=0.0, seed=5, pert_kmax=0.0)
    assert len(twin) == len(base)
    assert all(a is b for a, b in zip(twin.snapshots, base.snapshots))


def test_twin_rejects_mismatched_base():
    config = SolverConfig(dim=2, n=32, nu=1.0, dt=2e-3, t_end=0.02,
                          snap_every=5)
    base, _ = twin_run(config, delta=0.0, seed=0)
    other = SolverConfig(dim=2, n=32, nu=0.5, dt=2e-3, t_end=0.02,
                         snap_every=5)
    with pytest.raises(ValueError, match="different config"):
        twin_run(other, delta=1e-3, seed=0, base=base)


def test_twin_deterministic():
    config = SolverConfig(dim=2, n=32, nu=1.0, dt=2e-3, t_end=0.02,
                          snap_every=5)
    _, twin_a = twin_run(config, delta=1e-4, seed=6)
    _, twin_b = twin_run(config, delta=1e-4, seed=6)
    for a, b in zip(twin_a.snapshots, twin_b.snapshots):
        np.testing.assert_array_equal(a.data, b.data)


def test_inviscid_energy_conserved():
    config = SolverConfig(dim=2, n=32, nu=0.0, dt=2e-3, t_end=0.05,
                          ic="random-divfree", seed=12, snap_every=25)
    traj = run(config)
    energy = traj.series["energy"]
    assert np.max(np.abs(energy - energy[0])) <= 1e-10 * energy[0]
