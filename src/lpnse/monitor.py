"""Uniqueness diagnostics evaluated on twin trajectories.

Everything here consumes immutable trajectories and produces time series:
criterion integrals, per-block difference norms, the frequency-drift
weights with their exponential losing factors, per-block energy audits,
the cross-energy identity residual, and the Gronwall-envelope fit.

Conventions: w = u - v, w_j is the dyadic block of w, and all time
integrals over snapshots use the trapezoid rule (the solver's per-step
series handle the high-accuracy energy audit separately).  Every block
L^2 norm here, ||w_j||_2 and ||grad w_j||_2 alike, is read by
_block_l2_norms from w's half-plane power: in _w_rows the power that
also gives ||w||^2 and ||grad w||^2, in block_energy_audit that power
times sum_a |i k_a|^2 for ||grad w_j||_2.

Nothing is kept between calls.  _pass is the one walk over a trajectory
or a snapshot-aligned pair: it checks the alignment, reads each snapshot
or pair on the threads of _thread_map, one per thread, and stacks the
rows it computes.  Every public function makes one _pass and folds its
rows; build_report's pass is _linf_block_matrix over the pair.  Only
block_energy_audit reads snapshots itself, the three around one time.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .besov import (EXTENDED_MODE, BesovSpec, CriterionTriple,
                    besov_from_blocks)
from .blocks import (_block_l2_norms, block_indices, block_norm_table,
                     block_norms, delta_j)
from .errors import BlockRangeError, NonFiniteError
from .field import (Field, _half_power, _plane_weights, _thread_map, add,
                    advect, inner)
from .manifest import _write_csv
from .solver import Trajectory

LOG2 = math.log(2.0)


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y, dtype=np.float64)
    if len(t) > 1:
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def _require_aligned(traj_u: Trajectory, traj_v: Trajectory) -> None:
    fault = traj_u.alignment_fault(traj_v)
    if fault:
        raise ValueError(f"trajectories {fault}")


def _diff_spec(u: Field, v: Field) -> np.ndarray:
    """The half spectrum of w = u - v."""
    return u.half - v.half


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


# --- the walk, block-norm matrices and the criterion integral ----------------

def _pass(row, traj_u: Trajectory, traj_v: Trajectory = None) -> list:
    """row(u_i), or row(u_i, v_i) with a snapshot-aligned traj_v, for
    every snapshot i, read on the threads of _thread_map and dropped
    before its thread reads the next: row's values, each stacked along a
    last, snapshot axis."""
    trajs = (traj_u,) if traj_v is None else (traj_u, traj_v)
    if traj_v is not None:
        _require_aligned(traj_u, traj_v)
    if len(traj_u) == 0:
        raise ValueError("empty trajectory")
    rows = _thread_map(lambda i: row(*[t.snapshots[i] for t in trajs]),
                       range(len(traj_u)))
    return [np.stack(col, axis=-1) for col in zip(*rows)]


def _w_rows(u: Field, v: Field) -> tuple:
    """(block L2 norms, ||w||^2, ||grad w||^2) of w = u - v, all three
    read from one half-plane power of w's spectrum (Parseval)."""
    grid = u.grid
    power = _half_power(_diff_spec(u, v))
    return (_block_l2_norms(grid, power),
            grid.volume * float(np.sum(power)),
            grid.volume * float(np.sum(grid._half_k[0] * power)))


def _linf_block_matrix(traj: Trajectory, p: float,
                       traj_v: Trajectory) -> tuple:
    """build_report's pass: (js, u's L^inf and L^p block norms, v's L^inf
    block norms, w = u - v's block L^2 norms, ||w||^2, ||grad w||^2
    (_w_rows)), the matrices shaped (len(js), len(traj)).  Every block
    of u is transformed once for the drift weights and the norm."""
    def row(u, v):
        return ((block_norm_table(u, (math.inf, p)),
                 block_norm_table(v, (math.inf,))[0]) + _w_rows(u, v))
    table, *rest = _pass(row, traj, traj_v)
    return (np.array(block_indices(traj.grid)), table[0], table[1], *rest)


def _linf_pair(traj_u: Trajectory, traj_v: Trajectory) -> tuple:
    """(js, L^inf block norms of u, of v) in one _pass over the pairs."""
    linf_u, linf_v = _pass(
        lambda u, v: (block_norms(u, math.inf), block_norms(v, math.inf)),
        traj_u, traj_v)
    return np.array(block_indices(traj_u.grid)), linf_u, linf_v


def besov_series(js: np.ndarray, mat: np.ndarray,
                 spec: BesovSpec) -> np.ndarray:
    """Per-snapshot B^s_{p,q} norms from an L^p block-norm matrix."""
    return np.array([besov_from_blocks(js, mat[:, i], spec)
                     for i in range(mat.shape[1])])


def _b1(js: np.ndarray, linf: np.ndarray) -> np.ndarray:
    return np.max(2.0 ** js[:, None] * linf, axis=0)


@dataclass(frozen=True)
class CriterionSeries:
    times: np.ndarray
    norms: np.ndarray
    integrand: np.ndarray
    integral: np.ndarray


def _check_criterion(traj: Trajectory, triple: CriterionTriple) -> None:
    """Check the triple and the snapshot cadence of a criterion integral."""
    triple.validate(EXTENDED_MODE)
    gaps = np.diff(traj.times)
    if len(gaps) and np.max(gaps) > 10.0 * traj.config.dt + 1e-12:
        raise ValueError("snapshot cadence too coarse for criterion integrals "
                         "(need <= 10 steps between snapshots)")


def _criterion_series(traj: Trajectory, mat: np.ndarray,
                      triple: CriterionTriple) -> CriterionSeries:
    norms = besov_series(np.array(block_indices(traj.grid)), mat,
                         BesovSpec(triple.r, triple.p, math.inf))
    integrand = (math.e + norms) ** triple.q
    return CriterionSeries(traj.times, norms, integrand,
                           _cumtrapz(integrand, traj.times))


def criterion_integral(traj: Trajectory,
                       triple: CriterionTriple) -> CriterionSeries:
    """Cumulative integral of (e + ||u||_{B^r_{p,inf}})^q over snapshots;
    the norm is defined for every extended-mode triple."""
    _check_criterion(traj, triple)
    mat, = _pass(lambda u: (block_norms(u, triple.p),), traj)
    return _criterion_series(traj, mat, triple)


# --- difference block norms --------------------------------------------------

@dataclass(frozen=True)
class BlockSeries:
    times: np.ndarray
    js: np.ndarray
    values: np.ndarray  # shape (len(js), len(times))


def block_series(traj_u: Trajectory, traj_v: Trajectory) -> BlockSeries:
    """L2 norm of every dyadic block of w = u - v at every snapshot."""
    mat = _pass(_w_rows, traj_u, traj_v)[0]
    return BlockSeries(traj_u.times, np.array(block_indices(traj_u.grid)),
                       mat)


def _w_sup(blocks: BlockSeries, s: float):
    weighted = 2.0 ** (-blocks.js[:, None] * s) * blocks.values
    idx = np.argmax(weighted, axis=0)  # first occurrence = smallest j
    return weighted[idx, np.arange(weighted.shape[1])], blocks.js[idx]


def diff_norm_series(traj_u: Trajectory, traj_v: Trajectory, s: float):
    """W(t) = sup_j 2^{-js} ||w_j||_2 per snapshot, with the smallest
    attaining j reported alongside."""
    blocks = block_series(traj_u, traj_v)
    return (blocks.times,) + _w_sup(blocks, s)


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

def _epsilon(times: np.ndarray, js: np.ndarray, linf_u: np.ndarray,
             linf_v: np.ndarray) -> np.ndarray:
    weighted = 2.0 ** js[:, None] * (linf_u + linf_v)
    prefix = np.cumsum(weighted, axis=0)  # sum over j' <= row index
    eps = np.empty_like(prefix)
    jmax = js[-1]
    for row, j in enumerate(js):
        cut = min(j + 4, jmax)
        eps[row] = _cumtrapz(prefix[cut - js[0]], times)
    return eps


def epsilon_weights(traj_u: Trajectory, traj_v: Trajectory):
    """Cumulative frequency-drift integrals

        eps_j(t) = int_0^t sum_{j' <= j+4} 2^{j'} (||u_j'||_inf + ||v_j'||_inf),

    truncated at the grid's top shell.  Nondecreasing in t and in j.
    Returns (times, js, eps) with eps shaped (len(js), len(times)).
    """
    js, linf_u, linf_v = _linf_pair(traj_u, traj_v)
    return traj_u.times, js, _epsilon(traj_u.times, js, linf_u, linf_v)


def losing_weight(blocks: BlockSeries, eps: np.ndarray, lam: float,
                  s: float) -> np.ndarray:
    """W_j^lambda(t) = 2^{-js} exp(-lambda eps_j(t)) ||w_j(t)||_2."""
    params = LosingParams(s, lam)
    if eps.shape != blocks.values.shape:
        raise ValueError("drift weights and block series are misaligned")
    return (2.0 ** (-blocks.js[:, None] * params.s)
            * np.exp(-params.lam * eps) * blocks.values)


def _t_star(times: np.ndarray, b1_total: np.ndarray,
            params: LosingParams) -> float:
    ok = params.lam * _cumtrapz(b1_total, times) < (1.0 - params.s) * LOG2
    if not np.any(ok):
        return 0.0
    return float(times[np.nonzero(ok)[0][-1]])


def smallness_window(traj_u: Trajectory, traj_v: Trajectory, s: float,
                     lam: float) -> float:
    """Largest snapshot time t* with

        lambda (||u||_{L1(0,t;B1)} + ||v||_{L1(0,t;B1)}) < (1-s) log 2,

    the window on which the drift-weighted estimate closes.
    """
    params = LosingParams(s, lam)
    js, linf_u, linf_v = _linf_pair(traj_u, traj_v)
    return _t_star(traj_u.times, _b1(js, linf_u) + _b1(js, linf_v), params)


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
    pairs = [(traj_u.snapshots[k], traj_v.snapshots[k])
             for k in (i - 1, i, i + 1)]
    ws = [add(u, v, -1.0) for u, v in pairs]
    norms = [float(block_norms(w, 2.0)[j + 1]) for w in ws]
    e_prev, e_here, e_next = (0.5 * norm**2 for norm in norms)
    dedt = ((h_minus**2 * e_next + (h_plus**2 - h_minus**2) * e_here
             - h_plus**2 * e_prev)
            / (h_plus * h_minus * (h_plus + h_minus)))

    w, (u, v) = ws[1], pairs[1]
    w_j = delta_j(w, j)
    wj_sq = norms[1] ** 2
    power = (sum(np.abs(ik)**2 for ik in grid._half_ik)
             * _half_power(w.half))
    grad_sq = float(_block_l2_norms(grid, power)[j + 1]) ** 2

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

def trilinear(u: Field, v: Field, w: Field) -> float:
    """The pairing int (u . grad v) . w dx; antisymmetric in (v, w) when
    u is divergence-free."""
    return inner(advect(u, v), w)


def integral_identity_check(traj_u: Trajectory, traj_v: Trajectory) -> float:
    """Residual of the cross-energy identity

        <u(t),v(t)> + 2 nu int <grad u, grad v> = <u0,v0> + int <w.grad u, w>,

    reported as the max over snapshots relative to ||u0||_2^2."""
    grid = traj_u.grid

    def row(u, v):
        prod = (np.real(u.half * np.conj(v.half))
                * _plane_weights(grid.n))
        w = add(u, v, -1.0)
        return (grid.volume * float(np.sum(prod)),
                grid.volume * float(np.sum(prod * grid._half_k[0])),
                trilinear(w, u, w),
                grid.volume * float(np.sum(_half_power(u.half))))
    uv, grad_uv, tri, u_sq = _pass(row, traj_u, traj_v)
    lhs = uv + 2.0 * traj_u.config.nu * _cumtrapz(grad_uv, traj_u.times)
    rhs = uv[0] + _cumtrapz(tri, traj_u.times)
    return float(np.max(np.abs(lhs - rhs)) / u_sq[0])


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


def _gronwall_fit(times: np.ndarray, e_w: np.ndarray, d_w: np.ndarray,
                  integral: np.ndarray) -> GronwallFit:
    lhs = e_w + _cumtrapz(d_w, times)
    w0_sq = e_w[0]
    if w0_sq == 0.0:
        nanv = np.full(len(times), np.nan)
        return GronwallFit(times, lhs, integral, nanv, math.nan, 0.0, True)
    c_series = np.full(len(times), np.nan)
    positive = integral > 0
    c_series[positive] = np.log(lhs[positive] / w0_sq) / integral[positive]
    c_sup = float(np.nanmax(c_series)) if np.any(positive) else 0.0
    return GronwallFit(times, lhs, integral, c_series, c_sup, w0_sq, False)


def gronwall_check(traj_u: Trajectory, traj_v: Trajectory,
                   triple: CriterionTriple) -> GronwallFit:
    """Fit the envelope constant: C(t) = log(LHS(t)/||w0||^2) / I(t) with
    LHS(t) = ||w(t)||^2 + int_0^t ||grad w||^2 and I the criterion
    integral of the base flow.  The sup over t is the fitted constant."""
    _check_criterion(traj_u, triple)
    lp_u, _, e_w, d_w = _pass(
        lambda u, v: (block_norms(u, triple.p),) + _w_rows(u, v),
        traj_u, traj_v)
    crit = _criterion_series(traj_u, lp_u, triple)
    return _gronwall_fit(traj_u.times, e_w, d_w, crit.integral)


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
            paths.append(os.path.join(outdir, name))
            _write_csv(paths[-1], header, rows)

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
    _check_criterion(traj_u, triple)
    js, linf_u, lp_u, linf_v, w_mat, e_w, d_w = _linf_block_matrix(
        traj_u, triple.p, traj_v)
    times = traj_u.times
    blocks = BlockSeries(times, js, w_mat)
    crit = _criterion_series(traj_u, lp_u, triple)
    w_values, w_attain = _w_sup(blocks, s)
    eps = _epsilon(times, js, linf_u, linf_v)
    losing = losing_weight(blocks, eps, lam, s)
    fit = _gronwall_fit(times, e_w, d_w, crit.integral)
    t_star = _t_star(times, _b1(js, linf_u) + _b1(js, linf_v), params)
    return CriterionReport(triple, params, times, crit.norms, crit.integrand,
                           crit.integral, blocks, w_values, w_attain, eps,
                           losing, fit, t_star)
