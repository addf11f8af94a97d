"""Pseudospectral incompressible Navier-Stokes on the torus.

Integrating-factor RK4: the viscous semigroup is applied exactly through
exp(-nu |k|^2 dt) multipliers and the projected nonlinear term is treated
with classical RK4 in the transformed variable.  The nonlinear term is
taken in rotational form, -P(u.grad u) = P(u x omega) with omega = curl u
(the two differ by the gradient of |u|^2/2, which P removes): a padded
inverse transform of u, then one of omega, a pointwise cross product
written back over u's fine values and one forward transform of them.
The product is formed on a 3/2
padded grid, so the Galerkin truncation conserves energy through the
nonlinearity to round-off and the energy balance measures
time-integration error only.  The term is zeroed on every plane with some
k_i = -n/2: those modes have no conjugate partner, and there the
rotational and convective forms differ by a gradient that P cannot see.
An initial condition without -n/2 content (every built-in one, since
kmax <= n/3) therefore keeps none, and its state stays exactly
Hermitian, since the forward transform makes plane k_last = 0 exact;
off those planes the term equals the convective -P(u.grad u) to
round-off.

The state is the half spectrum of the projected initial data: the
nonlinear term, Leray projection, the integrating factors and the RK
sums all run on it, the energy and dissipation series weight every
plane but 0 and n/2 twice, and each snapshot is a Field holding it.

The padded transforms are field's one product kernel, _Padding: each
integrator holds one, whose buffer is allocated once and reused on
every call, so an integrator is not reentrant.  u and omega go through
that buffer one after the other; u x omega is formed _SLAB rows of the
first axis at a time in one small slab buffer and written back over u
(in 2D omega has one component and u x omega two, as u has), so there
is no cross-product array; the stage arguments are formed in place in
one array, and the RK4 sum is folded into the stage terms in place, so
only the arrays a stage needs are alive at once (the low-storage habit
of pseudospectral DNS codes, Rogallo 1981).

Twin runs integrate a base flow and a perturbed flow with identical
stepping so their snapshots align exactly in time.

The energy balance integrates the dissipation series with the cumulative
Simpson rule for unequal intervals of Cartwright (2017, eqn 8), the rule
scipy.integrate.cumulative_simpson uses, with its operations in the same
order, so the sums are scipy's bit for bit without importing
scipy.integrate (which pulls in optimize, sparse, linalg and spatial).
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ensembles
from .errors import GridError, SolverAbort
from .field import (Field, _Padding, _cross, _half_k_sq, _ik, _paired,
                    _plane_weights, _leray_project_spec, _rfftn_half,
                    from_components, l2_norm_spectral, laplacian,
                    leray_project, scale)
from .grid import Grid

INITIAL_CONDITIONS = ("taylor-green", "random-divfree")

# Rows of the first spatial axis per slab of u x omega.  In a
# micro-benchmark of the slab loop alone on a 2-core x86-64 host with a
# 2 MiB L2 per core, 8 beat 4 and 16 on the 48-point product grid of 3D
# n=32 (0.60, 0.70 and 0.82 ms); on the 96-point grid of n=64, 4 read
# 6.2 ms against 7.7 for 8, under 2% of that term's time.
_SLAB = 8


@dataclass(frozen=True)
class SolverConfig:
    dim: int = 2
    n: int = 64
    nu: float = 1.0
    dt: float = 1e-3
    t_end: float = 0.5
    ic: str = "taylor-green"
    seed: int = 0
    slope: float = 2.0
    ic_kmax: float = 8.0
    snap_every: int = 10
    cfl_safety: float = 0.5
    dealias: bool = True

    def __post_init__(self):
        """The one check of a run's config: every fault raises here, with
        a message that names the key, before anything is computed."""
        Grid(self.dim, self.n)
        for name in ("nu", "dt", "t_end", "slope", "ic_kmax", "cfl_safety"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"config key {name!r} must be finite, "
                                 f"got {value!r}")
        for name in ("dt", "t_end", "cfl_safety"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"config key {name!r} must be positive, "
                                 f"got {value!r}")
        for name in ("nu", "seed"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"config key {name!r} must be non-negative, "
                                 f"got {value!r}")
        if self.snap_every < 1:
            raise ValueError(f"config key 'snap_every' must be >= 1, "
                             f"got {self.snap_every!r}")
        if not (math.isfinite(self.t_end / self.dt) and self.nsteps >= 1
                and abs(self.nsteps * self.dt - self.t_end)
                <= 1e-9 * self.t_end):
            raise ValueError(f"config key 't_end' must be a whole number of "
                             f"steps of dt={self.dt!r}, got {self.t_end!r}")
        if self.ic not in INITIAL_CONDITIONS:
            raise ValueError(f"config key 'ic': unknown initial condition "
                             f"{self.ic!r}; choose from {INITIAL_CONDITIONS}")

    @property
    def nsteps(self) -> int:
        """The number of steps of dt that make up t_end."""
        return round(self.t_end / self.dt)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "SolverConfig":
        """The config of a mapping of keys to strings or to values: no
        value is truncated, and no bool passes as a number or vice versa."""
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, raw in mapping.items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            kind = types[key]
            if kind is bool and isinstance(raw, str):
                low = raw.strip().lower()
                if low not in ("true", "false", "0", "1"):
                    raise ValueError(f"boolean key {key!r} got {raw!r}")
                kwargs[key] = low in ("true", "1")
            elif (isinstance(raw, bool) != (kind is bool) or kind is int
                  and isinstance(raw, float) and not raw.is_integer()):
                raise ValueError(f"config key {key!r}: expected "
                                 f"{kind.__name__}, got {raw!r}")
            else:
                try:
                    kwargs[key] = kind(raw)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"config key {key!r}: {exc}") from None
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        return asdict(self)


@dataclass
class Trajectory:
    """Snapshots plus per-step scalar series of one solver run."""

    config: SolverConfig
    grid: Grid
    times: np.ndarray
    snapshots: list
    series: dict

    def __post_init__(self):
        if len(self.times) != len(self.snapshots):
            raise ValueError("one snapshot per time required")
        if not (np.all(np.isfinite(self.times))
                and np.all(np.diff(self.times) > 0)):
            raise ValueError("snapshot times must be finite and increase "
                             "strictly")

    def __len__(self):
        return len(self.snapshots)

    @property
    def final(self) -> Field:
        return self.snapshots[-1]

    def config_mismatch(self, other: "Trajectory") -> dict:
        """{key: (mine, other's)} for each config key on which the two runs
        differ, except the keys that only shape the initial data."""
        mine, theirs = self.config.to_mapping(), other.config.to_mapping()
        return {key: (mine[key], theirs[key]) for key in mine
                if mine[key] != theirs[key]
                and key not in ("ic", "seed", "slope", "ic_kmax")}

    def alignment_fault(self, other: "Trajectory") -> str:
        """What keeps the two runs from being snapshot-aligned, or ""."""
        mismatch = self.config_mismatch(other)
        if mismatch:
            return "come from different configs: " + ", ".join(
                f"{key} = {a!r} vs {b!r}" for key, (a, b) in mismatch.items())
        if len(self) != len(other):
            fault = f"{len(self)} vs {len(other)} snapshots"
        elif self.grid != other.grid:
            fault = f"grids {self.grid} vs {other.grid}"
        else:
            differ = np.flatnonzero(self.times != other.times)
            if len(differ) == 0:
                return ""
            i = differ[0]
            fault = (f"times differ first at snapshot {i}: "
                     f"{float(self.times[i])!r} vs {float(other.times[i])!r}")
        return f"are not snapshot-aligned: {fault}"


def taylor_green(grid: Grid) -> Field:
    """The decaying vortex lattice; in 2D the nonlinearity is a pure
    gradient, so u(t) = u0 exp(-2 nu t) exactly."""
    if grid.dim == 2:
        return from_components(
            grid,
            lambda x, y: np.sin(x) * np.cos(y),
            lambda x, y: -np.cos(x) * np.sin(y),
        )
    return from_components(
        grid,
        lambda x, y, z: np.sin(x) * np.cos(y) * np.cos(z),
        lambda x, y, z: -np.cos(x) * np.sin(y) * np.cos(z),
        lambda x, y, z: np.zeros_like(z),
    )


def initial_condition(config: SolverConfig, grid: Grid) -> Field:
    if config.ic == "taylor-green":
        return taylor_green(grid)
    kmax = min(config.ic_kmax, grid.dealias_radius)
    # a steep slope can underflow every amplitude, or overflow one
    with np.errstate(over="ignore", invalid="ignore"):
        u = ensembles.solenoidal_field(grid, kmax, config.seed, config.slope)
        norm = l2_norm_spectral(u)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"random initial condition has norm {norm!r}: "
                         f"config keys ic_kmax={config.ic_kmax!r} and "
                         f"slope={config.slope!r} give no finite nonzero "
                         f"field")
    return scale(u, 1.0 / norm)


def nse_rhs(u: Field, nu: float) -> Field:
    """The right-hand side that run() integrates: the solver's nonlinear
    term P(u x omega) (-P(u.grad u) off the -n/2 planes) + nu Laplacian u."""
    grid = u.grid
    if u.ncomp != grid.dim:
        raise GridError("velocity field must have dim components")
    config = SolverConfig(dim=grid.dim, n=grid.n, nu=nu)
    term, _ = _Integrator(grid, config).nonlinear(u.half, speed=False)
    return Field(grid, term + nu * laplacian(u).half)


class _Integrator:
    """Precomputed multipliers for repeated IF-RK4 steps on half spectra
    (planes 0 <= k_last <= n/2), and the nonlinear term's workspace: a
    _Padding, omega's half spectra and a slab of _SLAB rows of the real
    cross product, all overwritten on every nonlinear() call, so an
    integrator is not reentrant: one thread, one call at a time."""

    def __init__(self, grid: Grid, config: SolverConfig):
        self.grid = grid
        self.config = config
        # an exponent that overflows to -inf gives the exact factor 0
        with np.errstate(over="ignore"):
            self.e_half = np.exp(-config.nu * _half_k_sq(grid)
                                 * (config.dt / 2.0))
        self.e_full = self.e_half**2
        self.zero = (slice(None),) + (0,) * grid.dim
        # 0 on every plane with some k_i = -n/2, 1 elsewhere
        self.keep = _paired(grid).astype(np.float64)
        self.ik = [_ik(grid.half_shape, grid.n, axis)
                   for axis in range(grid.dim)]
        self.padding = _Padding(grid, config.dealias)
        self.omega = np.empty((3 if grid.dim == 3 else 1,) + grid.half_shape,
                              dtype=np.complex128)
        m = self.padding.m
        self.slab = np.empty((grid.dim, min(_SLAB, m)) + (m,) * (grid.dim - 1))

    def nonlinear(self, half: np.ndarray, speed: bool = True):
        """P(u x omega), with omega = curl u, zeroed on the -n/2 planes and
        at k = 0, and the max velocity magnitude on the product grid (None
        with speed=False: step() reads it on its first stage only).

        Takes and returns half spectra and leaves `half` unchanged; the
        k_last = 0 plane of `half` must be Hermitian, as every solver
        state's is.  u is padded and inverse-transformed straight from
        `half`, then omega from the workspace's half spectra, through
        the _Padding buffer (in 3D one 3-component buffer serves both);
        u x omega is written over u's fine values, a slab of rows at a
        time, and goes through one forward transform, after which the
        values are freed.  The result is a new array, not a view of the
        workspace."""
        grid = self.grid
        u = self.padding.to_fine(half)
        umax = (float(np.sqrt(np.max(np.einsum("i...,i...->...", u, u))))
                if speed else None)
        w = self.padding.to_fine(_cross(self.ik, half, out=self.omega))
        for start in range(0, self.padding.m, _SLAB):
            rows = u[:, start:start + _SLAB]
            rows[...] = _cross(rows, w[:, start:start + _SLAB],
                               out=self.slab[:, :rows.shape[1]])
        del w  # freed before the forward transform: lower peak memory
        fine = _rfftn_half(u, grid.dim, grid.n // 2 + 1)
        del u, rows  # freed before the truncation's output is made
        out = _leray_project_spec(self.padding.truncate(fine), grid)
        out *= self.keep
        out[self.zero] = 0.0
        return out, umax

    def step(self, spec: np.ndarray, time: float, index: int) -> np.ndarray:
        """One IF-RK4 step of the half-spectrum state `spec`:
        e2 spec + (dt/6) (e2 a + 2 e1 (b + c) + d), with the sum folded
        into the stage terms in place as soon as each is last read, in
        the order of operations of that expression, so a, b, c and d are
        never all alive.  The three stage arguments and then the result
        are formed in place in one new array, which is returned."""
        dt = self.config.dt
        a, umax = self.nonlinear(spec)
        if umax > 0:
            dt_max = self.config.cfl_safety * self.grid.spacing / umax
            if dt > dt_max:
                raise SolverAbort(
                    "cfl",
                    f"advective CFL violated at t={time:.6g}: dt={dt:.3g} "
                    f"> {dt_max:.3g} (umax={umax:.3g})",
                    time, index)
        e1, e2 = self.e_half, self.e_full
        arg = np.multiply(0.5 * dt, a)
        np.add(spec, arg, out=arg)
        np.multiply(e1, arg, out=arg)
        b, _ = self.nonlinear(arg, speed=False)
        a *= e2
        np.multiply(e1, spec, out=arg)
        arg += 0.5 * dt * b
        c, _ = self.nonlinear(arg, speed=False)
        b += c
        c *= dt * e1
        np.multiply(e2, spec, out=arg)
        arg += c
        del c  # freed before the last stage
        d, _ = self.nonlinear(arg, speed=False)
        b *= 2.0 * e1
        a += b
        a += d
        del b, d  # freed before the sum's last two arrays
        # no projection here: spec and every stage term are projected and
        # the integrating factors are scalar per mode
        a *= dt / 6.0
        np.multiply(e2, spec, out=arg)
        arg += a
        return arg


def step(u: Field, config: SolverConfig) -> Field:
    """One IF-RK4 step of length config.dt of the projected equations
    (public, stateless)."""
    grid = u.grid
    out = _Integrator(grid, config).step(u.half, 0.0, 0)
    return Field(grid, out)


def _initial_half(config: SolverConfig, grid: Grid,
                  initial: Field = None) -> np.ndarray:
    """The state run() starts from: the half spectrum of the projected
    `initial`, or of the config's initial condition."""
    if initial is None:
        initial = initial_condition(config, grid)
    grid.require_same(initial.grid)
    if initial.ncomp != grid.dim:
        raise GridError("velocity field must have dim components")
    return leray_project(initial).half


def run(config: SolverConfig, initial: Field = None) -> Trajectory:
    """Integrate from t=0 to t_end, recording snapshots on the cadence
    and per-step energy/dissipation series for the balance audit.

    The state is the half spectrum of the projected initial data; each
    snapshot holds the state at its time."""
    grid = Grid(config.dim, config.n)
    return _integrate(config, grid, _initial_half(config, grid, initial))


def _integrate(config: SolverConfig, grid: Grid,
               spec: np.ndarray) -> Trajectory:
    """run() from the half-spectrum state `spec` at t=0; no state is
    written to once made, so the snapshots hold the states."""
    nsteps = config.nsteps
    integ = _Integrator(grid, config)
    weight = _plane_weights(grid.n)
    k_sq = _half_k_sq(grid)
    times, snaps = [], []
    s_t, s_energy, s_diss = [], [], []
    for i in range(nsteps + 1):
        t = i * config.dt
        # a blow-up is reported by the SolverAbort below, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            power = np.abs(spec) ** 2 * weight
            energy = grid.volume * float(np.sum(power))
            dissipation = grid.volume * float(np.sum(k_sq * power))
        if not math.isfinite(energy):
            raise SolverAbort("nan", f"non-finite energy at t={t:.6g}", t, i)
        s_t.append(t)
        s_energy.append(energy)
        s_diss.append(dissipation)
        if i % config.snap_every == 0 or i == nsteps:
            times.append(t)
            snaps.append(Field(grid, spec))
        if i < nsteps:
            spec = integ.step(spec, t, i)
    series = {
        "t": np.asarray(s_t),
        "energy": np.asarray(s_energy),
        "grad_sq": np.asarray(s_diss),
    }
    return Trajectory(config, grid, np.asarray(times), snaps, series)


def _simpson_first_intervals(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Cartwright's eqn (8): the integral over the first interval of each
    consecutive pair of intervals, for the 1-D series y with spacings dx."""
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of y(x) from x[0], starting at 0, for at
    least 3 points: scipy.integrate.cumulative_simpson(y, x=x, initial=0)
    bit for bit.  Interval i takes eqn (8) forwards, as the first of the
    pair (i, i+1), when i is even, and on the reversed series, as the
    second of the pair (i-1, i), when i is odd; the last interval always
    takes the reversed form.  The leading 0 is the initial value."""
    dx = np.diff(x)
    h1 = _simpson_first_intervals(y, dx)
    h2 = _simpson_first_intervals(y[::-1], dx[::-1])[::-1]
    sub = np.empty(len(y))
    sub[0] = 0.0
    sub[1:-1:2] = h1[::2]
    sub[2::2] = h2[::2]
    sub[-1] = h2[-1]
    return np.cumsum(sub)


def energy_balance_residual(traj: Trajectory) -> float:
    """Max over time of |E(t) + 2 nu int grad^2 - E(0)| / E(0), with the
    dissipation integral accumulated by Simpson on the per-step series."""
    t = traj.series["t"]
    energy = traj.series["energy"]
    diss = traj.series["grad_sq"]
    if len(t) < 3:
        integral = np.concatenate([[0.0], np.cumsum(
            0.5 * (diss[1:] + diss[:-1]) * np.diff(t))])
    else:
        integral = _cumulative_simpson(diss, t)
    residual = np.abs(energy + 2.0 * traj.config.nu * integral - energy[0])
    return float(np.max(residual) / energy[0])


def perturbation_field(grid: Grid, seed: int, kmax: float = 8.0) -> Field:
    """Divergence-free random perturbation with spectral slope 1,
    resolution-independent: the same (seed, kmax) gives the same
    continuum field on any grid that resolves it."""
    kmax = min(kmax, grid.dealias_radius)
    return ensembles.solenoidal_field(grid, kmax, seed, 1.0)


def twin_run(config: SolverConfig, delta: float, seed: int,
             base: Trajectory = None, pert_kmax: float = 8.0):
    """Integrate the base flow and a flow whose initial data is shifted
    by a divergence-free perturbation of relative size delta.

    Returns (base trajectory, perturbed trajectory) with identical
    stepping and aligned snapshot times.  Pass a previously computed
    base trajectory to amortize delta sweeps.  delta = 0 gives the
    degenerate pair, whose twin is the base.  Before any step, a
    ValueError naming the argument rejects a perturbation that cannot
    give the pair: a negative seed, a positive delta with no lattice mode
    in 0 < |k| <= pert_kmax, or a delta whose perturbed initial energy is
    not finite.
    """
    for name, value in (("delta", delta), ("kmax", pert_kmax)):
        if not math.isfinite(value):
            raise ValueError(f"perturbation {name} must be finite, "
                             f"got {value!r}")
    for name, value in (("delta", delta), ("seed", seed)):
        if value < 0:
            raise ValueError(f"perturbation {name} must be non-negative, "
                             f"got {value!r}")
    if base is not None and base.config != config:
        raise ValueError("base trajectory was produced by a different config")
    grid = Grid(config.dim, config.n)
    pert = perturbation_field(grid, seed, pert_kmax)
    pnorm = l2_norm_spectral(pert)
    if delta > 0 and pnorm == 0:
        raise ValueError(f"perturbation kmax={pert_kmax!r} holds no lattice "
                         f"mode with 0 < |k| <= kmax, so delta={delta!r} "
                         f"cannot be applied")
    # the base's initial state, formed once for v0 and the base run
    u_half = _initial_half(config, grid) if base is None else None
    v0 = None
    if delta > 0:
        # u0 is base.snapshots[0] bit for bit, formed before any step
        u0 = base.snapshots[0] if base is not None else Field(grid, u_half)
        factor = delta * l2_norm_spectral(u0) / pnorm
        with np.errstate(over="ignore", invalid="ignore"):
            v0 = Field(grid, u0.half + factor * pert.half)
            energy = l2_norm_spectral(v0)
        if not math.isfinite(energy):
            raise ValueError(f"perturbation delta={delta!r} gives a "
                             f"non-finite initial energy")
    if base is None:
        base = _integrate(config, grid, u_half)
    if v0 is None:
        # delta = 0: v0 equals u0 exactly and the flow map is deterministic,
        # so the twin is the base trajectory bit for bit (its own
        # container, so a change to one leaves the other alone)
        twin = Trajectory(config, grid, base.times, list(base.snapshots),
                          dict(base.series))
        return base, twin
    return base, run(config, initial=v0)
