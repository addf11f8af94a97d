"""Besov norms, vorticity calculus, and the low/high splitting.

The splitting cuts a velocity field at a data-dependent dyadic level N
so that the low part is Lipschitz with a quantified bound and the high
part is small in a supercritical Lebesgue norm.  The level is

    N = floor((q/2) * log2(e + ||u||)) + 1,

with the norm taken in B^r_{p,inf} for an exponent triple (r, p, q)
tied by the scaling relation 2/q + 3/p = 1 + r.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blocks import (_block_radius, _block_rows, _half_multiplier,
                     block_indices, block_norms, s_j)
from .errors import GridError, ResolutionError, TripleError
from .field import (Field, _cross, _grad_norm_inf_half,
                    _half_k_sq, _ik, _magnitude_half, _norm_of_magnitude,
                    divergence, h1_seminorm, l2_norm_spectral, lp_norm)

_ROWS = 8  # first-axis rows per product in _vorticity_image's scratch


@dataclass(frozen=True)
class BesovSpec:
    """Norm parameters (s, p, q); q = inf takes the sup over blocks.
    NaN in any of them, or an infinite s, raises ValueError."""

    s: float
    p: float
    q: float = math.inf

    def __post_init__(self):
        for name in ("s", "p", "q"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"Besov parameter {name} is NaN")
        if math.isinf(self.s):
            raise ValueError(f"smoothness s must be finite, got s={self.s}")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"exponents must be >= 1, got p={self.p}, q={self.q}")


def besov_norm(f: Field, spec: BesovSpec) -> float:
    """Weighted block-norm sequence 2^{js} ||block_j f||_p, aggregated in
    l^q over j in [-1, jmax].  f should be band-limited to the resolved
    band (true for every field produced here)."""
    js = np.array(block_indices(f.grid))
    return besov_from_blocks(js, block_norms(f, spec.p), spec)


def besov_from_blocks(js: np.ndarray, norms: np.ndarray,
                      spec: BesovSpec) -> float:
    """The B^s_{p,q} norm from the L^p block norms `norms` at indices js."""
    weighted = 2.0 ** (js * spec.s) * norms
    if math.isinf(spec.q):
        return float(np.max(weighted))
    return float(np.sum(weighted**spec.q) ** (1.0 / spec.q))


# --- vorticity and its inverse ---------------------------------------------

def curl(u: Field) -> Field:
    """Vorticity: a 3-component field in 3D, a scalar in 2D."""
    grid = u.grid
    if u.ncomp != grid.dim:
        raise GridError(f"curl expects a {grid.dim}-component field")
    return Field(grid, _curl_spectrum(u.half, grid.n))


def _curl_spectrum(spec: np.ndarray, n: int) -> np.ndarray:
    """i k x spec (_cross) on half spectra spec on the n-point grid."""
    ik = [_ik(spec.shape[1:], n, axis) for axis in range(spec.ndim - 1)]
    return _cross(ik, spec)


def _vorticity_image(spec: np.ndarray, n: int):
    """The image of blocks._block_rows for the blocks of curl u, u with
    half spectra spec: on each box, _cross's operations in order (the
    first product in the lane's buffer, less the second, made _ROWS rows
    at a time in a scratch), then times the block multiplier."""
    shape = spec.shape[1:]
    ik = [np.broadcast_to(_ik(shape, n, a), shape) for a in range(len(spec))]
    pairs = [(i - 2, i - 1) for i in range(3)] if len(spec) == 3 else [(0, 1)]

    def image(comps, mult, box, out):
        start, stop, _ = box[0].indices(n)
        product = np.empty_like(out[0, :_ROWS])
        for lo in range(start, stop, _ROWS):
            at = (slice(lo, min(lo + _ROWS, stop)),) + box[1:]
            rows = out[:, lo - start:lo - start + _ROWS]
            for row, (a, b) in zip(rows, pairs[comps]):
                np.multiply(ik[a][at], spec[b][at], out=row)
                row -= np.multiply(ik[b][at], spec[a][at],
                                   out=product[:len(row)])
                row *= mult[at]
    return image


def biot_savart(w: Field) -> Field:
    """Divergence-free velocity with the given mean-zero vorticity.

    3D input must itself be divergence-free (a curl); 2D input is the
    scalar vorticity.  Spectrally: u = i k x w / |k|^2 with k = 0 zeroed.
    """
    grid = w.grid
    spec = w.half
    zero = (0,) * grid.dim
    mean = np.max(np.abs(spec[(slice(None),) + zero]))
    scale_ = np.max(np.abs(spec))
    if mean > 1e-10 * max(scale_, 1e-30):
        raise ValueError("vorticity must have zero mean")
    if grid.dim == 2 and w.ncomp != 1:
        raise GridError("2D vorticity is a scalar field")
    if grid.dim == 3:
        if w.ncomp != 3:
            raise GridError("3D vorticity is a 3-component field")
        div = l2_norm_spectral(divergence(w))
        if div > 1e-10 * max(l2_norm_spectral(w), 1e-30):
            raise ValueError("3D vorticity must be divergence-free (a curl)")
    k_sq = _half_k_sq(grid)
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_ksq = np.where(k_sq > 0, 1.0 / k_sq, 0.0)
    return Field(grid, _curl_spectrum(spec, grid.n) * inv_ksq)


def bkm_ratio(u: Field) -> float:
    """Ratio of the Lipschitz-type norm of u to the energy norm plus the
    sup-type vorticity norm.  Zero field returns 0 by convention."""
    norm_u2 = l2_norm_spectral(u)
    if norm_u2 == 0.0:
        return 0.0
    div = l2_norm_spectral(divergence(u))
    if div > 1e-10 * max(h1_seminorm(u), 1e-30):
        raise ValueError("bkm_ratio expects a divergence-free field")
    num = besov_norm(u, BesovSpec(1.0, math.inf, math.inf))
    grid = u.grid
    omega = _block_rows(grid, (math.inf,), 3 if grid.dim == 3 else 1,
                        _vorticity_image(u.half, grid.n))[0]
    return num / (norm_u2 + besov_from_blocks(np.array(
        block_indices(grid)), omega, BesovSpec(0.0, math.inf, math.inf)))


# --- criterion triples and the low/high split ------------------------------

UNIQUENESS_MODE = "uniqueness"
EXTENDED_MODE = "negative-r"

_RELATION_TOL = 1e-12


@dataclass(frozen=True)
class CriterionTriple:
    """Exponents (r, p, q) tied by 2/q + 3/p = 1 + r."""

    r: float
    p: float
    q: float

    def relation_residual(self) -> float:
        return abs(2.0 / self.q + 3.0 / self.p - (1.0 + self.r))

    def validate(self, mode: str = UNIQUENESS_MODE) -> "CriterionTriple":
        for name in ("r", "p", "q"):
            if math.isnan(getattr(self, name)):
                raise TripleError(f"{name} is NaN")
        if self.p < 1 or self.q < 1:
            raise TripleError("p >= 1 and q >= 1 violated")
        if self.relation_residual() > _RELATION_TOL:
            raise TripleError("2/q+3/p=1+r violated")
        if mode == UNIQUENESS_MODE:
            if not (0.0 < self.r <= 1.0):
                raise TripleError("r in (0,1] violated")
            if not (self.p > 3.0 / (1.0 + self.r)):
                raise TripleError("p > 3/(1+r) violated")
            if math.isinf(self.p) and self.r == 1.0:
                raise TripleError("(p,r) = (inf,1) excluded")
        elif mode == EXTENDED_MODE:
            if not (-1.0 < self.r <= 1.0):
                raise TripleError("r in (-1,1] violated")
        else:
            raise ValueError(f"unknown validation mode {mode!r}")
        return self


@dataclass(frozen=True)
class SplitResult:
    """Low/high decomposition u = u_low + u_high at dyadic level N."""

    u_low: Field
    u_high: Field
    N: int
    p_tilde: float
    q_tilde: float


def split_level(q: float, norm_value: float) -> int:
    """The cut level N = floor((q/2) log2(e + norm)) + 1.  A norm that is
    NaN, infinite or negative raises ValueError naming it."""
    if not (math.isfinite(norm_value) and norm_value >= 0):
        raise ValueError(f"split level needs a finite norm >= 0, "
                         f"got {norm_value!r}")
    return int(math.floor(q / 2.0 * math.log2(math.e + norm_value))) + 1


def choose_p_tilde(triple: CriterionTriple) -> float:
    """Deterministic choice of the auxiliary exponent: scan delta through
    1/2, 1/4, ... and take the first p~ = max(3,p)(1+delta) that makes
    3/p - 3/p~ - r strictly negative.  Any valid triple admits one."""
    base = max(3.0, triple.p)
    delta = 0.5
    for _ in range(60):
        p_tilde = base * (1.0 + delta)
        if 3.0 / triple.p - 3.0 / p_tilde - triple.r < 0.0:
            return p_tilde
        delta /= 2.0
    raise TripleError("no auxiliary exponent found; triple outside the admissible range")


def split_low_high(u: Field, triple: CriterionTriple,
                   norm_value: float = None) -> SplitResult:
    """Cut u at level N so the low part obeys a Lipschitz bound growing
    like 2^{2(1-1/q)N} and the high part decays like 2^{(3/p-3/p~-r)N},
    both against the B^r_{p,inf} norm, which is computed when norm_value
    is None; a given norm_value that is NaN, infinite or negative raises
    ValueError (split_level)."""
    triple.validate(UNIQUENESS_MODE)
    if norm_value is None:
        norm_value = besov_norm(u, BesovSpec(triple.r, triple.p, math.inf))
    N, p_tilde, q_tilde = _split_exponents(u.grid, triple, norm_value)
    u_low = s_j(u, N)
    u_high = Field(u.grid, u.half - u_low.half)
    return SplitResult(u_low, u_high, N, p_tilde, q_tilde)


def _split_exponents(grid, triple: CriterionTriple,
                     norm_value: float) -> tuple:
    """(N, p~, q~) of the split at norm norm_value, for a valid triple."""
    N = split_level(triple.q, norm_value)
    if N > grid.jmax:
        raise ResolutionError(
            f"split level N={N} exceeds jmax={grid.jmax}; refine the grid")
    p_tilde = choose_p_tilde(triple)
    return N, p_tilde, 2.0 / (1.0 - 3.0 / p_tilde)


def split_constants(u: Field, triple: CriterionTriple) -> dict:
    """Measured constants in the two split bounds, for reports:

      c_lip  = ||grad u_low||_inf / (2^{2(1-1/q)N} ||u||)
      c_high = ||u_high||_{p~}   / (2^{(3/p-3/p~-r)N} ||u||)

    The parts are those of split_low_high, with no copy of u: S_N u is
    u's half times the cached half multiplier over the planes of its
    support box, and each component of u - S_N u is formed in its own
    buffer (field._magnitude_half).
    """
    triple.validate(UNIQUENESS_MODE)
    grid = u.grid
    norm_value = besov_norm(u, BesovSpec(triple.r, triple.p, math.inf))
    N, p_tilde, q_tilde = _split_exponents(grid, triple, norm_value)
    lip_scale = 2.0 ** (2.0 * (1.0 - 1.0 / triple.q) * N) * norm_value
    high_scale = (2.0 ** ((3.0 / triple.p - 3.0 / p_tilde - triple.r) * N)
                  * norm_value)
    # chi(|k|/2^N) is exactly 0 for |k| >= (4/3) 2^N, block N-1's support
    planes = _block_radius(grid, N - 1) + 1
    low = u.half[..., :planes] * _half_multiplier(grid, N, "low")[..., :planes]
    lip_low = _grad_norm_inf_half(low, grid)
    high_norm = _norm_of_magnitude(
        _magnitude_half(u.half, grid.shape, low), p_tilde, grid)
    return {
        "N": N,
        "p_tilde": p_tilde,
        "q_tilde": q_tilde,
        "norm": norm_value,
        "lip_low": lip_low,
        "high_norm": high_norm,
        "c_lip": lip_low / lip_scale if lip_scale else 0.0,
        "c_high": high_norm / high_scale if high_scale else 0.0,
    }


def gn_ratio(w: Field, p_tilde: float) -> float:
    """Interpolation-inequality ratio ||w||_s / (||w||_2^{1-3/p~} *
    ||grad w||_2^{3/p~}) with s = 2p~/(p~-2).  Zero field returns 0."""
    if not p_tilde > 3:  # NaN fails too
        raise ValueError(f"auxiliary exponent p_tilde must exceed 3, "
                         f"got {p_tilde}")
    norm2 = l2_norm_spectral(w)
    if norm2 == 0.0:
        return 0.0
    h1 = h1_seminorm(w)
    if h1 == 0.0:
        return math.inf
    if math.isinf(p_tilde):
        sigma, theta = 2.0, 0.0
    else:
        sigma = 2.0 * p_tilde / (p_tilde - 2.0)
        theta = 3.0 / p_tilde
    return lp_norm(w, sigma) / (norm2 ** (1.0 - theta) * h1**theta)
