"""Uniqueness diagnostics evaluated on twin trajectories.

Everything here consumes immutable trajectories and produces time series:
criterion integrals, per-block difference norms, the frequency-drift
weights with their exponential losing factors, per-block energy audits,
the cross-energy identity residual, and the Gronwall-envelope fit.

Conventions: w = u - v, w_j is the dyadic block of w, and all time
integrals over snapshots use the trapezoid rule (the solver's per-step
series handle the high-accuracy energy audit separately).

Per-snapshot block quantities are computed once and kept in the
trajectory's cache: one block-norm matrix per exponent p (a p that needs
inverse transforms is filled together with p = inf from the same
transforms, so every block of u is transformed once for the criterion
norm and the drift weights alike), and one record of w per partner
trajectory holding its block L^2 norms, ||w||^2 and ||grad w||^2, all
formed from a single |w^|^2 per snapshot.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .besov import (EXTENDED_MODE, BesovSpec, CriterionTriple,
                    besov_from_blocks)
from .blocks import block_indices, block_multiplier, block_norm_table, delta_j
from .errors import BlockRangeError, NonFiniteError
from .field import Field, SPECTRAL, advect, inner, spectral_data
from .solver import Trajectory

LOG2 = math.log(2.0)


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y, dtype=np.float64)
    if len(t) > 1:
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def _require_aligned(traj_u: Trajectory, traj_v: Trajectory) -> None:
    mismatch = traj_u.config_mismatch(traj_v)
    if mismatch:
        keys = ", ".join(f"{key} = {a!r} vs {b!r}"
                         for key, (a, b) in mismatch.items())
        raise ValueError(f"trajectories come from different configs: {keys}")
    if not traj_u.aligned_with(traj_v):
        raise ValueError("trajectories are not snapshot-aligned")


def _diff_spec(traj_u: Trajectory, traj_v: Trajectory, i: int) -> np.ndarray:
    return spectral_data(traj_u.snapshots[i]) - spectral_data(traj_v.snapshots[i])


def _diff_field(traj_u: Trajectory, traj_v: Trajectory, i: int) -> Field:
    return Field(traj_u.grid, _diff_spec(traj_u, traj_v, i), SPECTRAL)


@dataclass(frozen=True)
class LosingParams:
    """Loss index s and weight rate lambda for the drift-weighted norms."""

    s: float
    lam: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError("loss index s must lie in (0,1)")
        if not (0.0 < self.lam < math.inf):
            raise ValueError(f"weight rate lambda must be positive and finite, "
                             f"got {self.lam}")


def s_window(r1: float, r2: float) -> tuple:
    """Admissible loss-index interval (-r1, min(1+r1, 1+r2)) for the
    paired-regularity regime; empty unless r1 > -1/2 and r1 + r2 > -1."""
    lo = -r1
    hi = min(1.0 + r1, 1.0 + r2)
    return (lo, hi) if lo < hi else (lo, lo)


# --- criterion integral ------------------------------------------------------

def _block_matrix(traj: Trajectory, p: float):
    """(js, L^p norms of every block of every snapshot), the matrix shaped
    (len(js), len(traj)) and cached per exponent.  A p other than 2 is
    filled together with a missing p = inf, which the drift weights read
    of the same blocks, so each block is transformed once for both."""
    key = ("blocks", p)
    if key not in traj.cache:
        ps = [p] if p == 2 else [q for q in dict.fromkeys((p, math.inf))
                                 if ("blocks", q) not in traj.cache]
        js = np.array(block_indices(traj.grid))
        table = np.stack([block_norm_table(snap, ps, js=list(js))
                          for snap in traj.snapshots], axis=-1)
        for q, mat in zip(ps, table):
            traj.cache[("blocks", q)] = (js, mat)
    return traj.cache[key]


def besov_series(traj: Trajectory, spec: BesovSpec) -> np.ndarray:
    """Per-snapshot B^s_{p,q} norms from the cached block matrix."""
    key = ("besov", spec.s, spec.p, spec.q)
    if key not in traj.cache:
        js, mat = _block_matrix(traj, spec.p)
        traj.cache[key] = np.array([besov_from_blocks(js, mat[:, i], spec)
                                    for i in range(len(traj))])
    return traj.cache[key]


@dataclass(frozen=True)
class CriterionSeries:
    times: np.ndarray
    norms: np.ndarray
    integrand: np.ndarray
    integral: np.ndarray


def criterion_integral(traj: Trajectory,
                       triple: CriterionTriple) -> CriterionSeries:
    """Cumulative integral of (e + ||u||_{B^r_{p,inf}})^q over snapshots;
    the norm is defined for every extended-mode triple."""
    triple.validate(EXTENDED_MODE)
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    gaps = np.diff(traj.times)
    if len(gaps) and np.max(gaps) > 10.0 * traj.config.dt + 1e-12:
        raise ValueError("snapshot cadence too coarse for criterion integrals "
                         "(need <= 10 steps between snapshots)")
    norms = besov_series(traj, BesovSpec(triple.r, triple.p, math.inf))
    integrand = (math.e + norms) ** triple.q
    return CriterionSeries(traj.times, norms, integrand,
                           _cumtrapz(integrand, traj.times))


# --- difference block norms --------------------------------------------------

@dataclass(frozen=True)
class BlockSeries:
    times: np.ndarray
    js: np.ndarray
    values: np.ndarray  # shape (len(js), len(times))


@dataclass(frozen=True)
class _WRecord:
    blocks: BlockSeries
    energy: np.ndarray  # ||w||_2^2 per snapshot
    dissipation: np.ndarray  # ||grad w||_2^2 per snapshot


def _w_record(traj_u: Trajectory, traj_v: Trajectory) -> _WRecord:
    """Block L2 norms, ||w||^2 and ||grad w||^2 of w = u - v at every
    snapshot, all from one |w^|^2 per snapshot."""
    _require_aligned(traj_u, traj_v)
    # The cache entry pins the partner trajectory and is matched by object
    # identity: keying on id() alone would go stale when a freed twin's id
    # is recycled during a delta sweep against a shared base.
    key = "wblocks"
    entry = traj_u.cache.get(key)
    if entry is None or entry[0] is not traj_v:
        grid = traj_u.grid
        js = np.array(block_indices(grid))
        mults = np.stack([block_multiplier(grid, j) ** 2 for j in js])
        mat = np.empty((len(js), len(traj_u)))
        energy = np.empty(len(traj_u))
        dissipation = np.empty(len(traj_u))
        for i in range(len(traj_u)):
            power = np.sum(np.abs(_diff_spec(traj_u, traj_v, i)) ** 2, axis=0)
            mat[:, i] = np.sqrt(grid.volume * np.tensordot(
                mults, power, axes=grid.dim))
            energy[i] = grid.volume * float(np.sum(power))
            dissipation[i] = grid.volume * float(np.sum(grid.k_sq * power))
        entry = (traj_v, _WRecord(BlockSeries(traj_u.times, js, mat),
                                  energy, dissipation))
        traj_u.cache[key] = entry
    return entry[1]


def block_series(traj_u: Trajectory, traj_v: Trajectory) -> BlockSeries:
    """L2 norm of every dyadic block of w = u - v at every snapshot."""
    return _w_record(traj_u, traj_v).blocks


def diff_norm_series(traj_u: Trajectory, traj_v: Trajectory, s: float):
    """W(t) = sup_j 2^{-js} ||w_j||_2 per snapshot, with the smallest
    attaining j reported alongside."""
    blocks = block_series(traj_u, traj_v)
    weighted = 2.0 ** (-blocks.js[:, None] * s) * blocks.values
    idx = np.argmax(weighted, axis=0)  # first occurrence = smallest j
    values = weighted[idx, np.arange(weighted.shape[1])]
    return blocks.times, values, blocks.js[idx]


def diff_norm_W(traj_u: Trajectory, traj_v: Trajectory, s: float,
                t: float = None):
    """W at a single snapshot time (default: final); see diff_norm_series."""
    times, values, jstar = diff_norm_series(traj_u, traj_v, s)
    if t is None:
        i = len(times) - 1
    else:
        hits = np.nonzero(np.isclose(times, t, rtol=0.0, atol=1e-12))[0]
        if len(hits) == 0:
            raise ValueError(f"t={t} is not a snapshot time")
        i = int(hits[0])
    return float(values[i]), int(jstar[i])


# --- drift weights -----------------------------------------------------------

def _linf_block_matrix(traj: Trajectory):
    """(js, L^inf block-norm matrix), the drift weights' input."""
    return _block_matrix(traj, math.inf)


def b1_series(traj: Trajectory) -> np.ndarray:
    """Per-snapshot B^1_{inf,inf} norms from the cached block matrix."""
    js, mat = _linf_block_matrix(traj)
    return np.max(2.0 ** js[:, None] * mat, axis=0)


def epsilon_weights(traj_u: Trajectory, traj_v: Trajectory):
    """Cumulative frequency-drift integrals

        eps_j(t) = int_0^t sum_{j' <= j+4} 2^{j'} (||u_j'||_inf + ||v_j'||_inf),

    truncated at the grid's top shell.  Nondecreasing in t and in j.
    Returns (times, js, eps) with eps shaped (len(js), len(times)).
    """
    _require_aligned(traj_u, traj_v)
    js, mat_u = _linf_block_matrix(traj_u)
    _, mat_v = _linf_block_matrix(traj_v)
    weighted = 2.0 ** js[:, None] * (mat_u + mat_v)
    prefix = np.cumsum(weighted, axis=0)  # sum over j' <= row index
    eps = np.empty_like(prefix)
    jmax = js[-1]
    for row, j in enumerate(js):
        cut = min(j + 4, jmax)
        eps[row] = _cumtrapz(prefix[cut - js[0]], traj_u.times)
    return traj_u.times, js, eps


def losing_weight(blocks: BlockSeries, eps: np.ndarray, lam: float,
                  s: float) -> np.ndarray:
    """W_j^lambda(t) = 2^{-js} exp(-lambda eps_j(t)) ||w_j(t)||_2."""
    params = LosingParams(s, lam)
    if eps.shape != blocks.values.shape:
        raise ValueError("drift weights and block series are misaligned")
    return (2.0 ** (-blocks.js[:, None] * params.s)
            * np.exp(-params.lam * eps) * blocks.values)


def smallness_window(traj_u: Trajectory, traj_v: Trajectory, s: float,
                     lam: float) -> float:
    """Largest snapshot time t* with

        lambda (||u||_{L1(0,t;B1)} + ||v||_{L1(0,t;B1)}) < (1-s) log 2,

    the window on which the drift-weighted estimate closes.
    """
    params = LosingParams(s, lam)
    _require_aligned(traj_u, traj_v)
    total = _cumtrapz(b1_series(traj_u) + b1_series(traj_v), traj_u.times)
    ok = params.lam * total < (1.0 - params.s) * LOG2
    if not np.any(ok):
        return 0.0
    return float(traj_u.times[np.nonzero(ok)[0][-1]])


# --- per-block energy audit --------------------------------------------------

def block_energy_audit(traj_u: Trajectory, traj_v: Trajectory, j: int,
                       i: int) -> dict:
    """Balance of the per-block energy law at snapshot i:

        d/dt (1/2)||w_j||_2^2 + nu ||grad w_j||_2^2
            = -<Delta_j(w.grad u), w_j> - <Delta_j(v.grad w) - v.grad w_j, w_j>.

    The time derivative is a centered difference over snapshots, so i
    must be interior.  Also checks the spectral dissipation lower bound
    ||grad w_j||^2 >= (3/4)^2 2^{2j} ||w_j||^2 for shell blocks.
    """
    _require_aligned(traj_u, traj_v)
    if i <= 0 or i >= len(traj_u) - 1:
        raise ValueError("centered difference needs an interior snapshot")
    grid = traj_u.grid
    if j < -1 or j > grid.jmax:
        raise BlockRangeError(f"block {j} outside [-1, {grid.jmax}]")
    nu = traj_u.config.nu
    t0, t1, t2 = traj_u.times[i - 1: i + 2]
    h_minus, h_plus = t1 - t0, t2 - t1
    mult_sq = block_multiplier(grid, j) ** 2
    diffs = [_diff_spec(traj_u, traj_v, k) for k in (i - 1, i, i + 1)]
    powers = [np.sum(np.abs(d) ** 2, axis=0) for d in diffs]
    e_prev, e_here, e_next = (0.5 * grid.volume * float(np.sum(mult_sq * p))
                              for p in powers)
    dedt = ((h_minus**2 * e_next + (h_plus**2 - h_minus**2) * e_here
             - h_plus**2 * e_prev)
            / (h_plus * h_minus * (h_plus + h_minus)))

    w = Field(grid, diffs[1], SPECTRAL)
    u = traj_u.snapshots[i]
    v = traj_v.snapshots[i]
    w_j = delta_j(w, j)
    power_w = powers[1]
    wj_sq = grid.volume * float(np.sum(mult_sq * power_w))
    grad_sq = grid.volume * float(np.sum(grid.k_sq * mult_sq * power_w))

    transport = -inner(delta_j(advect(w, u), j), w_j)
    drift_full = inner(delta_j(advect(v, w), j), w_j)
    cancellation = inner(advect(v, w_j), w_j)
    drift = -(drift_full - cancellation)

    residual = dedt + nu * grad_sq - (transport + drift)
    scale = max(abs(dedt), nu * grad_sq, abs(transport), abs(drift), 1e-30)
    record = {
        "j": j,
        "t": float(t1),
        "dEdt": dedt,
        "dissipation": nu * grad_sq,
        "transport_u": transport,
        "drift_v": drift,
        "cancellation": cancellation,
        "residual": residual,
        "residual_rel": abs(residual) / scale,
        "block_energy": wj_sq,
        "grad_sq": grad_sq,
    }
    if j >= 0 and wj_sq > 0:
        bound = (0.75 * 2.0**j) ** 2 * wj_sq
        record["dissipation_bound_ok"] = bool(grad_sq >= bound * (1.0 - 1e-12))
        record["dissipation_margin"] = grad_sq / bound
    else:
        record["dissipation_bound_ok"] = None
        record["dissipation_margin"] = None
    return record


# --- trilinear form and the cross-energy identity ---------------------------

def trilinear(u: Field, v: Field, w: Field, dealias: bool = True) -> float:
    """The pairing int (u . grad v) . w dx; antisymmetric in (v, w) when
    u is divergence-free."""
    return inner(advect(u, v, dealias), w)


def _pair_series(traj_u: Trajectory, traj_v: Trajectory, weight: np.ndarray = None):
    grid = traj_u.grid
    out = np.empty(len(traj_u))
    for i in range(len(traj_u)):
        su = spectral_data(traj_u.snapshots[i])
        sv = spectral_data(traj_v.snapshots[i])
        prod = np.real(su * np.conj(sv))
        if weight is not None:
            prod = prod * weight
        out[i] = grid.volume * float(np.sum(prod))
    return out


def integral_identity_check(traj_u: Trajectory, traj_v: Trajectory) -> float:
    """Residual of the cross-energy identity

        <u(t),v(t)> + 2 nu int <grad u, grad v> = <u0,v0> + int <w.grad u, w>,

    reported as the max over snapshots relative to ||u0||_2^2."""
    _require_aligned(traj_u, traj_v)
    grid = traj_u.grid
    nu = traj_u.config.nu
    uv = _pair_series(traj_u, traj_v)
    grad_uv = _pair_series(traj_u, traj_v, weight=grid.k_sq)
    tri = np.empty(len(traj_u))
    for i in range(len(traj_u)):
        w = _diff_field(traj_u, traj_v, i)
        tri[i] = trilinear(w, traj_u.snapshots[i], w)
    lhs = uv + 2.0 * nu * _cumtrapz(grad_uv, traj_u.times)
    rhs = uv[0] + _cumtrapz(tri, traj_u.times)
    scale = grid.volume * float(
        np.sum(np.abs(spectral_data(traj_u.snapshots[0])) ** 2))
    return float(np.max(np.abs(lhs - rhs)) / scale)


# --- Gronwall envelope -------------------------------------------------------

@dataclass(frozen=True)
class GronwallFit:
    times: np.ndarray
    lhs: np.ndarray
    integral: np.ndarray
    c_series: np.ndarray
    c_sup: float
    w0_sq: float
    degenerate: bool

    @property
    def finite(self) -> bool:
        return not self.degenerate and math.isfinite(self.c_sup)


def gronwall_check(traj_u: Trajectory, traj_v: Trajectory,
                   triple: CriterionTriple) -> GronwallFit:
    """Fit the envelope constant: C(t) = log(LHS(t)/||w0||^2) / I(t) with
    LHS(t) = ||w(t)||^2 + int_0^t ||grad w||^2 and I the criterion
    integral of the base flow.  The sup over t is the fitted constant."""
    record = _w_record(traj_u, traj_v)
    e_w = record.energy
    lhs = e_w + _cumtrapz(record.dissipation, traj_u.times)
    crit = criterion_integral(traj_u, triple)
    w0_sq = e_w[0]
    if w0_sq == 0.0:
        nanv = np.full(len(traj_u), np.nan)
        return GronwallFit(traj_u.times, lhs, crit.integral, nanv, math.nan,
                           0.0, True)
    c_series = np.full(len(traj_u), np.nan)
    positive = crit.integral > 0
    c_series[positive] = np.log(lhs[positive] / w0_sq) / crit.integral[positive]
    c_sup = float(np.nanmax(c_series)) if np.any(positive) else 0.0
    return GronwallFit(traj_u.times, lhs, crit.integral, c_series, c_sup,
                       w0_sq, False)


def envelope_holds(fit: GronwallFit, c: float, slack: float = 1.0 + 1e-9) -> bool:
    """Does LHS(t) <= ||w0||^2 exp(c I(t)) hold at every snapshot?  Used
    with c = 0 as the self-test that the checker can fail."""
    if fit.degenerate:
        return True
    return bool(np.all(fit.lhs <= fit.w0_sq * np.exp(c * fit.integral) * slack))


# --- assembled report --------------------------------------------------------

@dataclass
class CriterionReport:
    triple: CriterionTriple
    params: LosingParams
    times: np.ndarray
    besov_u: np.ndarray
    integrand: np.ndarray
    integral: np.ndarray
    blocks: BlockSeries
    w_values: np.ndarray
    w_attain: np.ndarray
    eps: np.ndarray
    losing: np.ndarray
    fit: GronwallFit
    t_star: float

    def summary(self) -> dict:
        """The summary as strict JSON values: an infinite exponent of the
        triple is the string "inf" (as --triple spells it), an undefined
        envelope constant is None (null) with a c_sup_reason key, and any
        other non-finite value raises NonFiniteError naming its key."""
        out = {
            "triple": {name: "inf" if value == math.inf else value
                       for name, value in (("r", self.triple.r),
                                           ("p", self.triple.p),
                                           ("q", self.triple.q))},
            "s": self.params.s,
            "lambda": self.params.lam,
            "t_star": self.t_star,
            "c_sup": self.fit.c_sup,
            "w0_sq": self.fit.w0_sq,
            "degenerate": self.fit.degenerate,
            "final_W": float(self.w_values[-1]),
            "final_lhs": float(self.fit.lhs[-1]),
            "criterion_integral_final": float(self.integral[-1]),
        }
        if not math.isfinite(self.fit.c_sup):
            out["c_sup"] = None
            out["c_sup_reason"] = (
                "degenerate pair: ||w0||^2 = 0, so C(t) is undefined"
                if self.fit.degenerate else "non-finite envelope fit")
        flat = {f"triple.{k}": v for k, v in out["triple"].items()}
        flat.update(out)
        for key, value in flat.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise NonFiniteError(f"report summary value {key} is {value!r}")
        return out

    def write(self, outdir) -> list:
        """One CSV per series plus a summary JSON; returns written paths.
        The summary is built and checked before any file is written."""
        import os

        summary = self.summary()
        os.makedirs(outdir, exist_ok=True)
        paths = []

        def _csv(name, header, rows):
            path = os.path.join(outdir, name)
            with open(path, "w") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(x) for x in row) + "\n")
            paths.append(path)

        def _fmt(x):
            if isinstance(x, (int, np.integer)):
                return str(int(x))
            return repr(float(x))

        def _block_csv(name, values):  # one column per block j
            _csv(name, ["t"] + [f"j={j}" for j in self.blocks.js],
                 (np.concatenate([[t], col])
                  for t, col in zip(self.times, values.T)))

        _csv("besov_u.csv", ["t", "norm", "integrand", "integral"],
             zip(self.times, self.besov_u, self.integrand, self.integral))
        _block_csv("blocks_w.csv", self.blocks.values)
        _csv("w_sup.csv", ["t", "W", "j_attain"],
             zip(self.times, self.w_values, self.w_attain))
        _block_csv("epsilon.csv", self.eps)
        _block_csv("losing_weight.csv", self.losing)
        _csv("envelope.csv", ["t", "lhs", "integral", "c_fit"],
             zip(self.times, self.fit.lhs, self.fit.integral, self.fit.c_series))
        spath = os.path.join(outdir, "summary.json")
        with open(spath, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
        paths.append(spath)
        return paths


def build_report(traj_u: Trajectory, traj_v: Trajectory,
                 triple: CriterionTriple, s: float, lam: float) -> CriterionReport:
    params = LosingParams(s, lam)
    crit = criterion_integral(traj_u, triple)
    blocks = block_series(traj_u, traj_v)
    times, w_values, w_attain = diff_norm_series(traj_u, traj_v, s)
    _, _, eps = epsilon_weights(traj_u, traj_v)
    losing = losing_weight(blocks, eps, lam, s)
    fit = gronwall_check(traj_u, traj_v, triple)
    t_star = smallness_window(traj_u, traj_v, s, lam)
    return CriterionReport(triple, params, times, crit.norms, crit.integrand,
                           crit.integral, blocks, w_values, w_attain, eps,
                           losing, fit, t_star)
