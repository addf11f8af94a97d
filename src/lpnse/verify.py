"""Property checks behind `lpnse verify` and the acceptance criteria.

Every measurement that a suite shares with an acceptance criterion is
one public function here.  It returns the measured numbers, never
pass/fail, and its caller draws the random inputs from its own seeded
generator.  The suites turn the numbers into a row table (check,
measured, bound, ok); `tests/test_acceptance.py` calls the same
functions and keeps its own seeds, bounds and runtime budgets pinned in
the test file.  The bony suite accepts dealias=False as a deliberate
negative control: skipping the padded products breaks the orthogonality
and decomposition identities, and the suite is expected to fail loudly.
"""

import inspect
import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import cutoffs, ensembles
from .besov import bkm_ratio
from .blocks import (bernstein_report, block_indices, block_multiplier,
                     block_norms, delta_j, reconstruct,
                     reverse_bernstein_report, s_j)
from .field import (Field, add, advect, dealiased_product,
                    divergence, gradient, h1_seminorm, inner,
                    l2_norm_spectral, leray_project, scale)
from .grid import Grid
from .paraproduct import bony_decomposition, commutator, commutator_bound_ratio
from .solver import (SolverConfig, energy_balance_residual,
                     initial_condition, run)

@dataclass
class SuiteResult:
    name: str
    rows: list = dc_field(default_factory=list)
    reports: dict = dc_field(default_factory=dict)
    options: dict = dc_field(default_factory=dict)

    def add(self, check: str, measured: float, bound: float, ok=None):
        if ok is None:
            ok = measured <= bound
        self.rows.append((check, float(measured), float(bound), bool(ok)))

    @property
    def passed(self) -> bool:
        return all(ok for _, _, _, ok in self.rows)

    def table(self) -> str:
        width = max(len(r[0]) for r in self.rows) if self.rows else 10
        lines = [f"suite: {self.name}"]
        for check, measured, bound, ok in self.rows:
            flag = "ok  " if ok else "FAIL"
            lines.append(f"  [{flag}] {check:<{width}}  measured={measured:.6e}"
                         f"  bound={bound:.6e}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# --- measurements shared with the acceptance criteria ------------------------

def partition_residuals(grid: Grid) -> tuple:
    """max |sum_j phi_j - 1| on a radial sample of [0, 2^jmax] and on the
    lattice wavenumbers in that ball: (radial, lattice)."""
    top = 2.0 ** grid.jmax
    radial = np.linspace(0.0, top, 4097)
    lattice = grid.k_mag[grid.k_mag <= top]
    return tuple(
        float(np.max(np.abs(cutoffs.partition(k, grid.jmax) - 1.0)))
        for k in (radial, lattice))


def reconstruction_residual(f: Field) -> float:
    """||sum_j Delta_j f - f||_2 / ||f||_2."""
    return l2_norm_spectral(add(reconstruct(f), f, -1.0)) / l2_norm_spectral(f)


def block_orthogonality(f: Field) -> float:
    """max over |j - k| >= 2 of ||Delta_j Delta_k f||_2, over ||f||_2."""
    js = block_indices(f.grid)
    worst = max(l2_norm_spectral(delta_j(delta_j(f, k), j))
                for j in js for k in js if abs(j - k) >= 2)
    return worst / l2_norm_spectral(f)


def paraproduct_orthogonality(g: Field) -> float:
    """max over |j - k| >= 5 of ||Delta_j (S_{k-1} g Delta_k g)||_2, over
    ||g||_2^2; one padded product per k that has such a j."""
    js = block_indices(g.grid)
    worst = 0.0
    for k in js:
        far = [j for j in js if abs(j - k) >= 5]
        if not far:
            continue
        term = dealiased_product(s_j(g, k - 1), delta_j(g, k))
        for j in far:
            worst = max(worst, l2_norm_spectral(delta_j(term, j)))
    return worst / l2_norm_spectral(g) ** 2


def bony_residual(u: Field, v: Field, dealias: bool = True) -> float:
    """||T_u v + T_v u + R(u, v) - uv||_2 / ||uv||_2, always against the
    dealiased product, so dealias=False exposes the aliasing error."""
    parts = bony_decomposition(u, v, dealias=dealias)
    prod = dealiased_product(u, v)
    err = l2_norm_spectral(add(parts.total(), prod, -1.0))
    return err / l2_norm_spectral(prod)


def leray_gradient_residual(phi: Field) -> float:
    """||P grad phi||_2 / ||grad phi||_2."""
    grad = gradient(phi)
    return l2_norm_spectral(leray_project(grad)) / l2_norm_spectral(grad)


def advection_cancellation(v: Field, g: Field, dealias: bool = True) -> float:
    """|<v . grad g, g>| / (||v||_2 ||g||_2 ||grad g||_2); zero for
    divergence-free v."""
    val = abs(inner(advect(v, g, dealias=dealias), g))
    return val / (l2_norm_spectral(v) * l2_norm_spectral(g) * h1_seminorm(g))


def block_cancellation(v: Field, w: Field, dealias: bool = True) -> float:
    """max over j and |j' - j| <= 1 of the relative <Delta_j' v . grad
    w_j, w_j>, w_j = Delta_j w; zero for divergence-free v.  The block
    L^2 norms are the p = 2 rows of block_norms of v and w."""
    jmax = w.grid.jmax
    v_norms, w_norms = block_norms(v, 2.0), block_norms(w, 2.0)
    worst = 0.0
    for j in range(0, jmax + 1):
        w_j = delta_j(w, j)
        scale_j = w_norms[j + 1] * h1_seminorm(w_j)
        for jp in range(max(-1, j - 1), min(jmax, j + 1) + 1):
            val = abs(inner(advect(delta_j(v, jp), w_j, dealias=dealias), w_j))
            worst = max(worst, val / max(v_norms[jp + 1] * scale_j, 1e-30))
    return float(worst)


def bkm_ratios(ns, seed: int, ensemble: int) -> dict:
    """bkm_ratio of `ensemble` divergence-free noise fields per 3D
    resolution n, each n drawing from a fresh generator: {n: [ratios]}."""
    out = {}
    for n in ns:
        grid = Grid(3, n)
        rng = np.random.default_rng(seed)
        out[n] = [bkm_ratio(ensembles.divfree_noise(grid, rng))
                  for _ in range(ensemble)]
    return out


def solver_checks_2d(seed: int) -> dict:
    """2D Taylor-Green at n=64, nu=1 to t=0.5: the relative error against
    the exact decay e^{-2 nu t}, the energy balance residual and the
    relative divergence of every 50th step; plus the observed RK4 orders
    on a dt ladder from a seeded random start."""
    cfg = SolverConfig(dim=2, n=64, nu=1.0, dt=1e-3, t_end=0.5,
                       ic="taylor-green", snap_every=10)
    traj = run(cfg)
    exact = scale(traj.snapshots[0], math.exp(-2.0 * cfg.nu * cfg.t_end))
    decay = l2_norm_spectral(add(traj.final, exact, -1.0))
    checks = {
        "decay_error": decay / l2_norm_spectral(exact),
        "energy_residual": energy_balance_residual(traj),
        "divergence": max(l2_norm_spectral(divergence(s)) / l2_norm_spectral(s)
                          for s in traj.snapshots[::5]),
    }

    # observed convergence order; the flow is scaled up so truncation
    # error sits far above the roundoff floor on the whole dt ladder
    base = SolverConfig(dim=2, n=32, nu=0.01, dt=2.5e-4, t_end=0.2,
                        ic="random-divfree", seed=seed, snap_every=10000)
    u0 = scale(initial_condition(base, Grid(2, 32)), 5.0)
    ref = run(base, initial=u0).final
    errs = [l2_norm_spectral(add(run(replace(base, dt=dt), initial=u0).final,
                                 ref, -1.0)) for dt in (8e-3, 4e-3, 2e-3)]
    checks["orders"] = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    return checks


def solver_checks_3d() -> dict:
    """3D Taylor-Green at n=32, nu=1 to t=0.5: the energy balance residual
    and the count of non-finite values in the energy series and snapshots."""
    traj = run(SolverConfig(dim=3, n=32, nu=1.0, dt=5e-3, t_end=0.5,
                            ic="taylor-green", snap_every=10))
    values = [traj.series["energy"]] + [s.half for s in traj.snapshots]
    return {"energy_residual": energy_balance_residual(traj),
            "nonfinite": sum(int(np.sum(~np.isfinite(a))) for a in values)}


# --- suites -------------------------------------------------------------------

def _shell_grid(suite: str, n: int) -> Grid:
    """The 3D grid of a suite that reads shell jmax - 1 as one of the
    shells j >= 1, which needs jmax >= 2."""
    grid = Grid(3, n)
    if grid.jmax < 2:
        raise ValueError(f"suite {suite} needs jmax >= 2, that is n >= 16; "
                         f"got n={n}")
    return grid


def suite_lp(n: int = 32, seed: int = 0) -> SuiteResult:
    """Partition of unity, reconstruction, orthogonality, telescoping,
    and the dissipation lower bound."""
    res = SuiteResult("lp")
    rng = np.random.default_rng(seed)

    grid3 = Grid(3, n)
    radial, lattice = partition_residuals(grid3)
    res.add("partition residual (radial, r <= 2^jmax)", radial, 1e-14)
    res.add("partition residual (lattice)", lattice, 1e-14)
    res.add("chi plateau and support",
            abs(cutoffs.chi(0.5) - 1.0) + abs(cutoffs.chi(1.5)), 0.0,
            ok=(cutoffs.chi(0.5) == 1.0 and cutoffs.chi(1.5) == 0.0))
    res.add("phi support edges",
            abs(cutoffs.phi(0.7)) + abs(cutoffs.phi(2.7)), 0.0,
            ok=(cutoffs.phi(0.7) == 0.0 and cutoffs.phi(2.7) == 0.0))

    f = ensembles.band_noise(grid3, rng)
    res.add("reconstruction residual", reconstruction_residual(f), 1e-12)
    res.add("block orthogonality |j-k|>=2", block_orthogonality(f), 1e-13)

    g = ensembles.band_noise(Grid(2, max(n, 64)), rng)
    res.add("paraproduct orthogonality |j-k|>=5",
            paraproduct_orthogonality(g), 1e-12)

    worst = 0.0
    for j in range(0, grid3.jmax + 1):
        diff = (block_multiplier(grid3, j + 1, kind="low")
                - block_multiplier(grid3, j, kind="low")
                - block_multiplier(grid3, j))
        worst = max(worst, float(np.max(np.abs(diff))))
    res.add("telescoping S_{j+1}-S_j = block_j", worst, 1e-15)

    res.add("conventions block(-2)=0 and block(-1)=S_0",
            float(np.max(np.abs(delta_j(f, -2).half)))
            + l2_norm_spectral(add(delta_j(f, -1), s_j(f, 0), -1.0)), 1e-15)

    worst = math.inf
    for j in range(0, grid3.jmax + 1):
        fj = delta_j(ensembles.band_noise(grid3, rng), j)
        nj = l2_norm_spectral(fj)
        if nj == 0:
            continue
        worst = min(worst, h1_seminorm(fj) ** 2 / ((0.75 * 2.0**j) ** 2 * nj**2))
    res.add("dissipation bound inverse margin (<= 1)", 1.0 / worst, 1.0)

    res.add("leray projector kills gradients",
            leray_gradient_residual(ensembles.band_noise(grid3, rng)), 1e-13)
    return res


def suite_bony(n: int = 32, seed: int = 1, pairs: int = 10,
               dealias: bool = True) -> SuiteResult:
    """Decomposition identity, support bookkeeping, cancellations, and
    the commutator checks.

    The full-spectrum inputs make dealias=False visible: products of
    band-limited fields alias so mildly that skipping the padding would
    go unnoticed."""
    res = SuiteResult("bony")
    rng = np.random.default_rng(seed)
    grid = _shell_grid("bony", n)
    full = grid.n / 2.0 - 1.0   # widest band clear of the Nyquist planes
    recon = 0.375 * grid.n      # blocks reconstruct only below (3/4) 2^{jmax+1}

    worst = max(bony_residual(ensembles.band_noise(grid, rng),
                              ensembles.band_noise(grid, rng), dealias=dealias)
                for _ in range(pairs))
    res.add("bony residual (relative)", worst, 1e-12)

    fu = ensembles.band_noise(grid, rng, kmax=recon)
    fv = ensembles.band_noise(grid, rng, kmax=recon)
    res.add("bony residual (reconstruction band)",
            bony_residual(fu, fv, dealias=dealias), 1e-12)

    u = ensembles.band_noise(grid, rng)
    v = ensembles.band_noise(grid, rng)
    worst = 0.0
    for j in range(1, grid.jmax + 1):
        term = dealiased_product(s_j(u, j - 1), delta_j(v, j), dealias=dealias)
        lo, hi = 2.0**j * (0.75 - 2.0 / 3.0), 2.0**j * (8.0 / 3.0 + 2.0 / 3.0)
        k_mag = grid._half_k[1]
        outside = (k_mag < lo - 1e-9) | (k_mag > hi + 1e-9)
        worst = max(worst, float(np.max(np.abs(term.half[:, outside]))))
    res.add("paraproduct term support (exact zeros outside annuli)",
            worst, 1e-13)

    vdf = ensembles.divfree_noise(grid, rng, kmax=full)
    g = ensembles.band_noise(grid, rng, kmax=full)
    res.add("divergence-free cancellation <v.grad g, g>",
            advection_cancellation(vdf, g, dealias=dealias), 1e-11)

    w = ensembles.divfree_noise(grid, rng, kmax=full)
    res.add("block cancellation <grad w_j . v_j', w_j>",
            block_cancellation(vdf, w, dealias=dealias), 1e-11)

    vband = ensembles.divfree_noise(grid, rng)
    wband = ensembles.divfree_noise(grid, rng)
    data = np.zeros((3,) + grid.half_shape, dtype=np.complex128)
    data[(slice(None),) + (0,) * grid.dim] = [0.7, -0.3, 1.1]
    const = Field(grid, data)
    czero = max(l2_norm_spectral(commutator(const, j, wband, dealias=dealias))
                for j in range(0, grid.jmax + 1))
    res.add("commutator vanishes for constant drift", czero, 1e-13)

    com1 = commutator(vband, 1, wband, dealias=dealias)
    com2 = commutator(scale(vband, 2.0), 1, wband, dealias=dealias)
    res.add("commutator linearity in drift", l2_norm_spectral(
        add(com2, com1, -2.0)) / max(l2_norm_spectral(com1), 1e-30), 1e-12)

    ratios = {j: commutator_bound_ratio(vband, j, wband)
              for j in range(1, grid.jmax + 1)}
    res.add("commutator bound constant", max(ratios.values()), 1.0)
    top = ratios[grid.jmax] / ratios[grid.jmax - 1]
    res.add("commutator constant saturation at top shells",
            max(top, 1.0 / top), 4.0)
    return res


def suite_bernstein(n: int = 64, seed: int = 7, ensemble: int = 100) -> SuiteResult:
    res = SuiteResult("bernstein")
    grid = _shell_grid("bernstein", n)
    fwd = bernstein_report(grid, ensemble=ensemble, seed=seed)
    rev = reverse_bernstein_report(grid, ensemble=ensemble, seed=seed)
    res.reports["bernstein_forward"] = fwd
    res.reports["bernstein_reverse"] = rev
    for case, spread in sorted(fwd.spread_by_case().items()):
        p, q, alpha = case
        res.add(f"forward spread (p={p:g}, q={q:g}, alpha={alpha})", spread, 4.0)
    res.add("reverse constant", rev.max_ratio(), 4.0 / 3.0 * 1.1)
    return res


def suite_bkm(ns=(32, 64), seed: int = 11, ensemble: int = 100) -> SuiteResult:
    res = SuiteResult("bkm")
    maxima = []
    for n, ratios in bkm_ratios(ns, seed, ensemble).items():
        maxima.append(max(ratios))
        res.add(f"max ratio at n={n} (finite)", maxima[-1], math.inf,
                ok=all(math.isfinite(r) and r > 0 for r in ratios))
    res.add("cross-resolution spread", max(maxima) / min(maxima), 2.0)
    return res


def suite_solver(seed: int = 3) -> SuiteResult:
    res = SuiteResult("solver")
    checks = solver_checks_2d(seed)
    res.add("vortex-lattice decay error (relative)", checks["decay_error"],
            1e-8)
    res.add("energy balance residual (2D)", checks["energy_residual"], 1e-6)
    res.add("divergence preserved", checks["divergence"], 1e-10)
    order = min(checks["orders"])
    res.add("observed RK4 order (>= 3.5)", order, math.inf, ok=order >= 3.5)

    checks = solver_checks_3d()
    res.add("energy balance residual (3D)", checks["energy_residual"], 1e-4)
    res.add("3D run finite", checks["nonfinite"], 0.5)
    return res


SUITES = {"lp": suite_lp, "bony": suite_bony, "bernstein": suite_bernstein,
          "bkm": suite_bkm, "solver": suite_solver}


def run_suites(names, n=None, seed=None, ensemble=None, dealias=None) -> list:
    """Run the named suites, each with the given options that it takes
    and its own defaults for the rest; each result records the options
    its suite ran with."""
    if ensemble is not None and ensemble < 1:
        raise ValueError(f"ensemble must be >= 1, got {ensemble}")
    given = dict(n=n, seed=seed, ensemble=ensemble, dealias=dealias)
    out = []
    for name in names:
        suite = SUITES.get(name)
        if suite is None:
            raise ValueError(f"unknown suite {name!r}")
        takes = inspect.signature(suite).parameters
        options = {key: param.default if given.get(key) is None else given[key]
                   for key, param in takes.items()}
        out.append(suite(**options))
        out[-1].options = options
    return out
