"""Pseudospectral incompressible Navier-Stokes on the torus.

Integrating-factor RK4: the viscous semigroup is applied exactly through
exp(-nu |k|^2 dt) multipliers and the projected nonlinear term is treated
with classical RK4 in the transformed variable.  The nonlinear term is
taken in rotational form, -P(u.grad u) = P(u x omega) with omega = curl u
(the two differ by the gradient of |u|^2/2, which P removes): one padded
inverse transform of [u; omega] (6 components in 3D, 3 in 2D), a pointwise
cross product and one forward transform.  The product is formed on a 3/2
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

The state is a half spectrum, the planes 0 <= k_last <= n/2 of the
Hermitian part of the projected initial data: the nonlinear term, Leray
projection, the integrating factors and the RK sums all run on it, and
the energy and dissipation series weight every plane but 0 and n/2
twice.  Snapshots are expanded to the full FFT layout, as the Field API
and the snapshot files hold.  The public step() and nse_rhs() take and
return full-layout Fields.

The padded transforms are field's one product kernel, _Padding: each
integrator holds one, whose buffer is allocated once and reused on
every call, so an integrator is not reentrant.

Twin runs integrate a base flow and a perturbed flow with identical
stepping so their snapshots align exactly in time.
"""

import math
from dataclasses import asdict, dataclass, field as dc_field, fields

import numpy as np
from scipy.integrate import cumulative_simpson

from . import ensembles
from .errors import GridError, SolverAbort
from .field import (Field, SPECTRAL, _Padding, _cross_ik, _full_spectrum,
                    _hermitian_half, _ik, _leray_project_spec, _plane_weights,
                    from_components, l2_norm_spectral, laplacian,
                    leray_project, scale, spectral_data)
from .grid import Grid

INITIAL_CONDITIONS = ("taylor-green", "random-divfree")


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
        for name in ("nu", "dt", "t_end", "slope", "ic_kmax", "cfl_safety"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"config key {name!r} must be finite, "
                                 f"got {value!r}")
        if self.nu < 0:
            raise ValueError("viscosity must be non-negative")
        if self.dt == 0 or self.t_end <= 0:
            raise ValueError("dt must be nonzero and t_end positive")
        if self.snap_every < 1:
            raise ValueError("snapshot cadence must be >= 1")
        if self.ic not in INITIAL_CONDITIONS:
            raise ValueError(f"unknown initial condition {self.ic!r}; "
                             f"choose from {INITIAL_CONDITIONS}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "SolverConfig":
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, raw in mapping.items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            if types[key] is bool and isinstance(raw, str):
                low = raw.strip().lower()
                if low not in ("true", "false", "0", "1"):
                    raise ValueError(f"boolean key {key!r} got {raw!r}")
                kwargs[key] = low in ("true", "1")
            else:
                kwargs[key] = types[key](raw)
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
    cache: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.snapshots):
            raise ValueError("one snapshot per time required")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must increase strictly")

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

    def aligned_with(self, other: "Trajectory") -> bool:
        return (not self.config_mismatch(other) and self.grid == other.grid
                and len(self) == len(other)
                and bool(np.all(self.times == other.times)))


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
    u = ensembles.solenoidal_field(grid, kmax, config.seed, config.slope)
    norm = l2_norm_spectral(u)
    if norm == 0.0:
        raise ValueError("random initial condition is empty; increase ic_kmax")
    return scale(u, 1.0 / norm)


def nse_rhs(u: Field, nu: float, dealias: bool = True) -> Field:
    """The right-hand side that run() integrates: the solver's nonlinear
    term P(u x omega) (-P(u.grad u) off the -n/2 planes) + nu Laplacian u."""
    grid = u.grid
    if u.ncomp != grid.dim:
        raise GridError("velocity field must have dim components")
    config = SolverConfig(dim=grid.dim, n=grid.n, nu=nu, dealias=dealias)
    term, _ = _Integrator(grid, config).nonlinear(
        _hermitian_half(spectral_data(u), grid.dim))
    return Field(grid, _full_spectrum(term, grid.dim) + nu * laplacian(u).data,
                 SPECTRAL)


class _Integrator:
    """Precomputed multipliers for repeated IF-RK4 steps on half spectra
    (planes 0 <= k_last <= n/2), and the nonlinear term's workspace: a
    _Padding, the coarse [u; omega] and the real cross product, all
    overwritten on every nonlinear() call, so an integrator is not
    reentrant: one thread, one call at a time."""

    def __init__(self, grid: Grid, config: SolverConfig, dt: float = None):
        self.grid = grid
        self.config = config
        self.dt = config.dt if dt is None else dt
        planes = slice(0, grid.n // 2 + 1)
        self.e_half = np.exp(-config.nu * grid.k_sq[..., planes]
                             * (self.dt / 2.0))
        self.e_full = self.e_half**2
        self.zero = (slice(None),) + (0,) * grid.dim
        # 0 on every plane with some k_i = -n/2, 1 elsewhere
        nyquist = sum(k[..., planes] == -(grid.n // 2)
                      for k in grid.k_components)
        self.keep = (nyquist == 0).astype(np.float64)
        half = grid.shape[:-1] + (grid.n // 2 + 1,)
        self.ik = [_ik(half, grid.n, axis) for axis in range(grid.dim)]
        self.padding = _Padding(grid, config.dealias)
        ncomp = grid.dim + (3 if grid.dim == 3 else 1)
        self.coarse = np.empty((ncomp,) + half, dtype=np.complex128)
        self.cross = np.empty((grid.dim,) + (self.padding.m,) * grid.dim)

    def nonlinear(self, half: np.ndarray):
        """P(u x omega), with omega = curl u, zeroed on the -n/2 planes and
        at k = 0, and the max velocity magnitude on the product grid.

        Takes and returns half spectra and leaves `half` unchanged; the
        k_last = 0 plane of `half` must be Hermitian, as every solver
        state's is.  u and omega are written into the workspace and go
        through one padded inverse transform together; the cross product
        goes through one forward transform.  The result is a new array,
        not a view of the workspace."""
        grid = self.grid
        dim = grid.dim
        self.coarse[:dim] = half
        _cross_ik(self.ik, half, out=self.coarse[dim:])
        fine = self.padding.to_fine(self.coarse)
        u, w = fine[:dim], fine[dim:]
        umax = float(np.sqrt(np.max(np.einsum("i...,i...->...", u, u))))
        cross = self.cross
        if dim == 3:
            for i in range(3):
                np.multiply(u[i - 2], w[i - 1], out=cross[i])
                cross[i] -= u[i - 1] * w[i - 2]
        else:
            np.multiply(u[1], w[0], out=cross[0])
            np.multiply(u[0], -w[0], out=cross[1])
        del fine, u, w  # freed before the forward transform: lower peak memory
        out = _leray_project_spec(self.padding.to_coarse(cross), grid)
        out *= self.keep
        out[self.zero] = 0.0
        return out, umax

    def step(self, spec: np.ndarray, time: float, index: int) -> np.ndarray:
        """One IF-RK4 step of the half-spectrum state `spec`."""
        dt = self.dt
        a, umax = self.nonlinear(spec)
        if umax > 0:
            dt_max = self.config.cfl_safety * self.grid.spacing / umax
            if abs(dt) > dt_max:
                raise SolverAbort(
                    "cfl",
                    f"advective CFL violated at t={time:.6g}: |dt|={abs(dt):.3g} "
                    f"> {dt_max:.3g} (umax={umax:.3g})",
                    time, index)
        e1, e2 = self.e_half, self.e_full
        b, _ = self.nonlinear(e1 * (spec + 0.5 * dt * a))
        c, _ = self.nonlinear(e1 * spec + 0.5 * dt * b)
        d, _ = self.nonlinear(e2 * spec + dt * e1 * c)
        # no projection here: spec and every stage term are projected and
        # the integrating factors are scalar per mode
        return e2 * spec + (dt / 6.0) * (e2 * a + 2.0 * e1 * (b + c) + d)


def step(u: Field, config: SolverConfig, dt: float = None) -> Field:
    """One IF-RK4 step of the projected equations (public, stateless)."""
    grid = u.grid
    integ = _Integrator(grid, config, dt)
    out = integ.step(_hermitian_half(spectral_data(u), grid.dim), 0.0, 0)
    return Field(grid, _full_spectrum(out, grid.dim), SPECTRAL)


def run(config: SolverConfig, initial: Field = None) -> Trajectory:
    """Integrate from t=0 to t_end, recording snapshots on the cadence
    and per-step energy/dissipation series for the balance audit.

    The state is the half spectrum of the projected initial data; the
    snapshots are its full-layout spectra."""
    grid = Grid(config.dim, config.n)
    if initial is None:
        initial = initial_condition(config, grid)
    grid.require_same(initial.grid)
    if initial.ncomp != grid.dim:
        raise GridError("velocity field must have dim components")
    spec = _hermitian_half(spectral_data(leray_project(initial)), grid.dim)
    nsteps = int(round(config.t_end / config.dt))
    if nsteps < 1 or abs(nsteps * config.dt - config.t_end) > 1e-9 * config.t_end:
        raise ValueError("t_end must be a whole number of steps")
    integ = _Integrator(grid, config)
    weight = _plane_weights(grid.n)
    k_sq = grid.k_sq[..., :grid.n // 2 + 1]
    times, snaps = [], []
    s_t, s_energy, s_diss = [], [], []
    for i in range(nsteps + 1):
        t = i * config.dt
        power = np.abs(spec) ** 2 * weight
        energy = grid.volume * float(np.sum(power))
        if not math.isfinite(energy):
            raise SolverAbort("nan", f"non-finite energy at t={t:.6g}", t, i)
        s_t.append(t)
        s_energy.append(energy)
        s_diss.append(grid.volume * float(np.sum(k_sq * power)))
        if i % config.snap_every == 0 or i == nsteps:
            times.append(t)
            snaps.append(Field(grid, _full_spectrum(spec, grid.dim), SPECTRAL))
        if i < nsteps:
            spec = integ.step(spec, t, i)
    series = {
        "t": np.asarray(s_t),
        "energy": np.asarray(s_energy),
        "grad_sq": np.asarray(s_diss),
    }
    return Trajectory(config, grid, np.asarray(times), snaps, series)


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
        integral = cumulative_simpson(diss, x=t, initial=0.0)
    residual = np.abs(energy + 2.0 * traj.config.nu * integral - energy[0])
    return float(np.max(residual) / energy[0])


def perturbation_field(grid: Grid, seed: int, kmax: float = 8.0,
                       slope: float = 1.0) -> Field:
    """Divergence-free random perturbation, resolution-independent: the
    same (seed, kmax) gives the same continuum field on any grid that
    resolves it."""
    kmax = min(kmax, grid.dealias_radius)
    return ensembles.solenoidal_field(grid, kmax, seed, slope)


def twin_run(config: SolverConfig, delta: float, seed: int,
             base: Trajectory = None, pert_kmax: float = 8.0):
    """Integrate the base flow and a flow whose initial data is shifted
    by a divergence-free perturbation of relative size delta.

    Returns (base trajectory, perturbed trajectory) with identical
    stepping and aligned snapshot times.  Pass a previously computed
    base trajectory to amortize delta sweeps.
    """
    for name, value in (("delta", delta), ("kmax", pert_kmax)):
        if not math.isfinite(value):
            raise ValueError(f"perturbation {name} must be finite, "
                             f"got {value!r}")
    if delta < 0:
        raise ValueError("perturbation size must be non-negative")
    grid = Grid(config.dim, config.n)
    if base is None:
        base = run(config)
    elif base.config != config:
        raise ValueError("base trajectory was produced by a different config")
    u0 = base.snapshots[0]
    pert = perturbation_field(grid, seed, pert_kmax)
    pnorm = l2_norm_spectral(pert)
    factor = delta * l2_norm_spectral(u0) / pnorm if pnorm > 0 else 0.0
    if factor == 0.0:
        # v0 equals u0 exactly and the flow map is deterministic, so the
        # twin is the base trajectory bit for bit (a fresh container, so
        # downstream caches stay per-trajectory)
        twin = Trajectory(config, grid, base.times, list(base.snapshots),
                          dict(base.series))
        return base, twin
    v0 = Field(grid, spectral_data(u0) + factor * spectral_data(pert), SPECTRAL)
    twin = run(config, initial=v0)
    return base, twin
