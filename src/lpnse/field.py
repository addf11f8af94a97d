"""Scalar and vector fields on a torus grid, with spectral calculus.

Conventions
-----------
* Spectral data holds genuine Fourier-series coefficients (norm="forward"),
  so a single mode exp(i k.x) has coefficient 1 at lattice site k.
* Fields are real and every transform is a real one, over half spectra
  (planes 0 <= k_last <= n/2): _rfftn_half and _irfftn_half.  The API
  holds full spectra, exactly Hermitian from to_spectral and products:
  _rfftn_half makes its self-mirrored planes exact, and _full_spectrum
  mirrors the rest with _mirror, a flip and a roll.  to_physical,
  products and grad_norm_inf transform the half spectrum of the
  Hermitian part (c(k) + conj c(-k))/2; to_physical first checks that
  the rest, a, is at round-off level (sum |a| bounds the imaginary part
  a complex inverse transform would leave).  The solver state is such a
  half spectrum, so _leray_project_spec takes full or half spectra (told
  apart by the last axis's length).
* Every first derivative multiplies by _ik: i k_axis, zero on the lone
  -n/2 mode, which has no conjugate partner; every i k x is _cross_ik.
* Products of two fields are computed on a 3/2-times finer grid and
  truncated back, which makes them exact (no aliasing) whenever the
  combined bandwidth fits in the fine grid.  Per-axis Nyquist planes are
  split symmetrically on the way up and folded back on the way down so
  the rule is an exact inverse pair on band-limited data; a half
  spectrum's last-axis Nyquist plane is halved on the way up and folded
  with the conjugate of its mirror on the way down.
* _Padding is the one padded-product kernel (dealiased_product, advect,
  the solver's rotational term).  Its buffer holds m//2+1 planes on the
  m-point grid, of which _pad_spectrum writes the first n//2+1; the rest
  stay zero, so the c2r in _irfftn_half needs no zero-padded copy.  The
  leading-axes c2c transforms of _irfftn_half and _rfftn_half run in
  place, over the nonzero planes only: _irfftn_half overwrites its
  input, and _rfftn_half returns a view of its r2c output.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft as _sfft

from .errors import GridError
from .grid import Grid

PHYSICAL = "physical"
SPECTRAL = "spectral"

_fft_workers = 1


def set_fft_workers(workers: int) -> None:
    """Set the worker count passed to scipy.fft for all transforms."""
    global _fft_workers
    _fft_workers = max(1, int(workers))


def _rfftn_half(a: np.ndarray, dim: int, planes: int) -> np.ndarray:
    """Planes 0 <= k_last < planes of the forward transform of real data
    over its last dim axes; the mirror of _irfftn_half.  The leading axes
    are transformed in place in the r2c output, so the result is a view
    of it.  Planes 0 and m/2 (m = a.shape[-1]) are their own mirrors
    and come out exactly Hermitian, not only to round-off."""
    half = _sfft.rfftn(a, axes=(-1,), norm="forward", workers=_fft_workers)
    axes = tuple(range(a.ndim - dim, a.ndim - 1))
    out = _sfft.fftn(half[..., :planes], axes=axes, norm="forward",
                     workers=_fft_workers, overwrite_x=True)
    ends = out[..., ::a.shape[-1] // 2]  # plane 0, and m/2 if returned
    ends[...] = 0.5 * (ends + np.conj(_mirror(ends, dim)))
    return out


def _irfftn_half(a: np.ndarray, shape: tuple, planes: int = None) -> np.ndarray:
    """Inverse transform of a half spectrum whose last axis holds the
    first entries 0 <= k_last <= m/2 of the m = shape[-1] point grid, of
    which only the first `planes` (default: all) may be nonzero; missing
    entries are zero.  Valid only for Hermitian-symmetric full spectra.
    Overwrites `a`: the leading axes are transformed in place over those
    planes only, then one c2r runs along the last axis (a pruned
    separable transform, Markel 1971).  Given all m//2+1 planes, the c2r
    needs no zero-padded copy."""
    axes = tuple(range(a.ndim - len(shape), a.ndim))
    slab = a[..., :planes]
    lead = _sfft.ifftn(slab, axes=axes[:-1], norm="forward",
                       workers=_fft_workers, overwrite_x=True)
    if not np.may_share_memory(lead, slab):  # overwrite_x is only a hint
        slab[...] = lead
    return _sfft.irfftn(a, s=shape[-1:], axes=axes[-1:], norm="forward",
                        workers=_fft_workers)


@dataclass(frozen=True)
class Field:
    """A field sampled on (or transformed from) a torus grid.

    data has shape (ncomp, n, ..., n); scalars use ncomp = 1.
    """

    grid: Grid
    data: np.ndarray
    representation: str

    def __post_init__(self):
        if self.representation not in (PHYSICAL, SPECTRAL):
            raise GridError(f"unknown representation {self.representation!r}")
        if self.data.ndim != self.grid.dim + 1:
            raise GridError(
                f"data must have {self.grid.dim + 1} axes (ncomp first), got shape {self.data.shape}"
            )
        if self.data.shape[1:] != self.grid.shape:
            raise GridError(f"data shape {self.data.shape} does not match grid {self.grid}")
        self.data.flags.writeable = False

    @property
    def ncomp(self) -> int:
        return self.data.shape[0]

    @property
    def is_spectral(self) -> bool:
        return self.representation == SPECTRAL


def from_physical(grid: Grid, data: np.ndarray) -> Field:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == grid.dim:
        arr = arr[np.newaxis]
    return Field(grid, arr.copy(), PHYSICAL)


def from_spectral(grid: Grid, data: np.ndarray) -> Field:
    arr = np.asarray(data, dtype=np.complex128)
    if arr.ndim == grid.dim:
        arr = arr[np.newaxis]
    return Field(grid, arr.copy(), SPECTRAL)


def from_components(grid: Grid, *funcs) -> Field:
    """Evaluate callables f(x1, ..., xd) on the grid and stack them."""
    mesh = grid.meshes()
    comps = [np.asarray(f(*mesh), dtype=np.float64) for f in funcs]
    return Field(grid, np.stack(comps), PHYSICAL)


def zero_field(grid: Grid, ncomp: int = 1, representation: str = SPECTRAL) -> Field:
    dtype = np.complex128 if representation == SPECTRAL else np.float64
    return Field(grid, np.zeros((ncomp,) + grid.shape, dtype=dtype), representation)


def to_spectral(f: Field) -> Field:
    if f.is_spectral:
        return f
    n, dim = f.grid.n, f.grid.dim
    half = _rfftn_half(f.data, dim, n // 2 + 1)
    return Field(f.grid, _full_spectrum(half, dim), SPECTRAL)


def to_physical(f: Field) -> Field:
    if not f.is_spectral:
        return f
    n, dim = f.grid.n, f.grid.dim
    half = _hermitian_half(f.data, dim)
    weight = _plane_weights(n)
    worst = max(np.sum(np.abs(c[..., :n // 2 + 1] - h) * weight)
                for c, h in zip(f.data, half))
    phys = _irfftn_half(half, f.grid.shape)
    scale = np.max(np.abs(phys))
    if worst > 1e-8 * max(scale, 1e-300) and worst > 1e-12:
        raise GridError(
            f"spectral data is not Hermitian symmetric (imag residue bound {worst:.3e})"
        )
    return Field(f.grid, phys, PHYSICAL)


def spectral_data(f: Field) -> np.ndarray:
    return to_spectral(f).data


def magnitude(f: Field) -> np.ndarray:
    """Pointwise Euclidean magnitude on the grid."""
    phys = to_physical(f).data
    if phys.shape[0] == 1:
        return np.abs(phys[0])
    return np.sqrt(np.sum(phys**2, axis=0))


def lp_norm(f: Field, p: float) -> float:
    """L^p norm over the torus; vector fields use the pointwise magnitude.

    Finite p uses the rectangle rule, which is exact for trigonometric
    polynomials when |f|^p is itself band-limited (always true for p = 2)
    and spectrally accurate otherwise.  p = inf returns the grid maximum.
    """
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    mag = magnitude(f)
    if np.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * f.grid.cell_volume) ** (1.0 / p))


def l2_norm_spectral(f: Field) -> float:
    """L^2 norm evaluated from coefficients (Parseval)."""
    spec = spectral_data(f)
    return float(np.sqrt(f.grid.volume * np.sum(np.abs(spec) ** 2)))


def h1_seminorm(f: Field) -> float:
    """|k|-weighted L^2 norm from coefficients; equals ||grad f||_2 by
    Parseval for fields with no energy on the Nyquist planes."""
    spec = spectral_data(f)
    return float(np.sqrt(f.grid.volume * np.sum(f.grid.k_sq * np.abs(spec) ** 2)))


def inner(f: Field, g: Field) -> float:
    """L^2 inner product via Parseval; components are contracted
    pairwise.  Exact for any pair of resolved fields, unlike the
    rectangle rule whose error is nonzero once f*g exceeds the band."""
    f.grid.require_same(g.grid)
    if f.ncomp != g.ncomp:
        raise GridError(f"component mismatch: {f.ncomp} vs {g.ncomp}")
    a = spectral_data(f)
    b = spectral_data(g)
    return float(np.real(np.sum(a * np.conj(b))) * f.grid.volume)


def _deriv_multiplier(grid: Grid, orders: tuple) -> np.ndarray:
    """Broadcastable multiplier of d^orders: the product of per-axis
    factors (i k_axis)^order."""
    mult = np.ones((1,) * grid.dim, dtype=np.complex128)
    for axis, order in enumerate(orders):
        if order == 0:
            continue
        factor = (1j * grid.k_components[axis]) ** order
        if order % 2 == 1:
            # the lone -n/2 mode has no conjugate partner; an odd
            # derivative must kill it to keep real fields real
            factor[(0,) * axis + (grid.n // 2,)] = 0.0
        mult = mult * factor
    return mult


def derivative(f: Field, orders) -> Field:
    """Partial derivative d^{a1}_{x1} ... d^{ad}_{xd} f, spectrally."""
    orders = tuple(int(o) for o in orders)
    if len(orders) != f.grid.dim or any(o < 0 for o in orders):
        raise ValueError(f"orders must be {f.grid.dim} non-negative ints, got {orders}")
    spec = spectral_data(f)
    return Field(f.grid, spec * _deriv_multiplier(f.grid, orders), SPECTRAL)


def gradient(f: Field) -> Field:
    """Gradient of a scalar field, returned as a dim-component field."""
    if f.ncomp != 1:
        raise GridError("gradient expects a scalar field")
    grid = f.grid
    spec = spectral_data(f)[0]
    comps = [spec * _ik(grid.shape, grid.n, axis)
             for axis in range(grid.dim)]
    return Field(grid, np.stack(comps), SPECTRAL)


def laplacian(f: Field) -> Field:
    spec = spectral_data(f)
    return Field(f.grid, spec * (-f.grid.k_sq), SPECTRAL)


def grad_norm_inf(f: Field) -> float:
    """sup over the grid of the Frobenius norm of the Jacobian."""
    half = _hermitian_half(spectral_data(f), f.grid.dim)
    total = 0.0
    for axis in range(f.grid.dim):
        ik = _ik(half.shape[1:], f.grid.n, axis)
        total = total + np.sum(_irfftn_half(half * ik, f.grid.shape)**2, axis=0)
    return float(np.sqrt(np.max(total)))


def divergence(f: Field) -> Field:
    if f.ncomp != f.grid.dim:
        raise GridError(f"divergence expects a {f.grid.dim}-component field")
    grid = f.grid
    out = sum(spec * _ik(grid.shape, grid.n, axis)
              for axis, spec in enumerate(spectral_data(f)))
    return Field(grid, out[np.newaxis], SPECTRAL)


def leray_project(f: Field) -> Field:
    """Remove the gradient part: (P f)_i = f_i - k_i (k.f)/|k|^2."""
    if f.ncomp != f.grid.dim:
        raise GridError(f"projection expects a {f.grid.dim}-component field")
    spec = spectral_data(f)
    return Field(f.grid, _leray_project_spec(spec, f.grid), SPECTRAL)


def _leray_project_spec(spec: np.ndarray, grid: Grid) -> np.ndarray:
    """Leray projection of full spectra, or of half spectra (a last axis
    of n//2+1 planes; plane n/2 holds k_last = -n/2, as in the full
    layout)."""
    planes = slice(0, spec.shape[-1])
    ks = [k[..., planes] for k in grid.k_components]
    k_sq = grid.k_sq[..., planes]
    kdot = np.zeros(spec.shape[1:], dtype=np.complex128)
    for axis in range(grid.dim):
        kdot += ks[axis] * spec[axis]
    with np.errstate(invalid="ignore", divide="ignore"):
        kdot = np.where(k_sq > 0, kdot / k_sq, 0.0)
    out = np.empty_like(spec)
    for axis in range(grid.dim):
        out[axis] = spec[axis] - ks[axis] * kdot
    return out


# --- padded products -------------------------------------------------------

def _coarse_index(n: int, m: int, dim: int, lead: int) -> tuple:
    """Where the coarse modes sit on the m-point grid's leading dim-1 axes."""
    src = np.fft.fftfreq(n, 1.0 / n).astype(np.int64) % m
    return (slice(None),) * lead + np.ix_(*((src,) * (dim - 1)))


def _ik(shape: tuple, n: int, axis: int) -> np.ndarray:
    """Broadcastable i k_axis on full or half spectra of spatial shape
    `shape` on the n-point grid, zero on the Nyquist planes |k| = n/2 as
    in _deriv_multiplier: the factor of every first derivative."""
    k = np.fft.fftfreq(n, 1.0 / n)[:shape[axis]]
    ik = np.where(np.abs(k) < n / 2, 1j * k, 0.0)
    return ik.reshape((-1,) + (1,) * (len(shape) - 1 - axis))


def _cross_ik(ik: list, spec: np.ndarray, out: np.ndarray = None):
    """i k x spec, with ik the factors _ik of every axis: in 2D the scalar
    i k x spec of a vector, and the vector i k x spec of a scalar (as the
    third component of a 3D vector).  A vector result is written into
    `out` when it is given."""
    if len(spec) == 1:
        return np.stack([ik[1] * spec[0], -ik[0] * spec[0]])
    # component i: ik_{i+1} spec_{i+2} - ik_{i+2} spec_{i+1}, indices mod 3
    pairs = [(i - 2, i - 1) for i in range(3)] if len(ik) == 3 else [(0, 1)]
    if out is None:
        out = np.empty_like(spec[:len(pairs)])
    for row, (a, b) in zip(out, pairs):
        np.multiply(ik[a], spec[b], out=row)
        row -= ik[b] * spec[a]
    return out


def _mirror(a: np.ndarray, dim: int) -> np.ndarray:
    """a(k) -> a(-k) on the dim-1 full FFT-layout axes before the last,
    as a new array: index i goes to (n - i) % n, a flip then a roll by one."""
    axes = tuple(range(a.ndim - dim, a.ndim - 1))
    return np.roll(np.flip(a, axes), 1, axes)


def _hermitian_half(spec: np.ndarray, dim: int) -> np.ndarray:
    """Planes 0 <= k_last <= n/2 of (c(k) + conj c(-k))/2.  Not the
    identity on projected spectra with -n/2 content: Leray projection
    leaves those modes without conjugate partners."""
    n = spec.shape[-1]
    # plane k_last's mirror is plane (n - k_last) % n: 0, then n-1 down to n/2
    mirror = np.concatenate([spec[..., :1], spec[..., :n // 2 - 1:-1]], axis=-1)
    return 0.5 * (spec[..., :n // 2 + 1] + np.conj(_mirror(mirror, dim)))


def _plane_weights(n: int) -> np.ndarray:
    """Weights of the half-spectrum planes 0 <= k_last <= n/2 in a sum
    over the full spectrum: a plane 0 < k_last < n/2 stands for itself
    and its conjugate mirror."""
    weight = np.full(n // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    return weight


def _full_spectrum(half: np.ndarray, dim: int) -> np.ndarray:
    """Full layout of the Hermitian spectra with half spectra `half`."""
    n = half.shape[-2]
    mirror = _mirror(half[..., n // 2 - 1:0:-1], dim)  # planes n/2+1 .. n-1
    return np.concatenate([half, np.conj(mirror)], axis=-1)


def _pad_spectrum(half: np.ndarray, out: np.ndarray, n: int, m: int,
                  dim: int) -> np.ndarray:
    """Embed half spectra in the m-point grid's leading axes, writing
    every entry of `out`, the planes k_last <= n/2 of an m//2+1-plane
    buffer (the planes beyond stay zero, for the c2r); returns out."""
    lead = half.ndim - dim
    for axis in range(lead, out.ndim - 1):  # rows no coarse mode lands on
        out[(slice(None),) * axis + (slice(n // 2, m - n // 2),)] = 0.0
    out[_coarse_index(n, m, dim, lead)] = half
    for axis in range(lead, out.ndim - 1):
        at = (slice(None),) * axis
        out[at + (n // 2,)] = 0.5 * out[at + (m - n // 2,)]
        out[at + (m - n // 2,)] *= 0.5
    out[..., n // 2] *= 0.5
    return out


def _truncate_spectrum(fine: np.ndarray, m: int, n: int, dim: int) -> np.ndarray:
    """Adjoint of _pad_spectrum; overwrites `fine`.  The last-axis n/2
    plane is folded with the conjugate of its mirror, the
    -n/2 plane that the half layout leaves implicit."""
    lead = fine.ndim - dim
    for axis in range(lead, fine.ndim - 1):
        at = (slice(None),) * axis
        fine[at + (m - n // 2,)] += fine[at + (n // 2,)]
    out = fine[..., :n // 2 + 1][_coarse_index(n, m, dim, lead)]
    out[..., n // 2:] += np.conj(_mirror(out[..., n // 2:], dim))
    return out


class _Padding:
    """The product kernel's padded grid: m = 3n/2 points per axis (n,
    aliased, with dealias=False), and one zeroed m//2+1-plane buffer per
    leading shape that every to_fine call reuses: not reentrant."""

    def __init__(self, grid: Grid, dealias: bool):
        self.n, self.dim, self.dealias = grid.n, grid.dim, dealias
        self.m = 3 * grid.n // 2 if dealias else grid.n
        self._buffers = {}

    def to_fine(self, half: np.ndarray) -> np.ndarray:
        """Real values on the m-point grid behind half spectra `half`."""
        n, m, dim = self.n, self.m, self.dim
        lead = half.shape[:-dim]
        buf = self._buffers.get(lead)
        if buf is None:
            buf = self._buffers[lead] = np.zeros(
                lead + (m,) * (dim - 1) + (m // 2 + 1,), dtype=np.complex128)
        if self.dealias:
            _pad_spectrum(half, buf[..., :n // 2 + 1], n, m, dim)
        else:
            buf[...] = half
        return _irfftn_half(buf, (m,) * dim, n // 2 + 1)

    def to_coarse(self, real: np.ndarray) -> np.ndarray:
        """Half spectra, a new array, of real values on the m-point grid."""
        out = _rfftn_half(real, self.dim, self.n // 2 + 1)
        if self.dealias:
            out = _truncate_spectrum(out, self.m, self.n, self.dim)
        return out


def _padded_product(a: np.ndarray, b: np.ndarray, grid: Grid, dealias: bool,
                    grad: bool = False) -> np.ndarray:
    """The one product kernel: the full spectrum of the product of the
    real fields behind full spectra a and b, formed on the 3/2-times
    finer grid (on the coarse grid, aliased, with dealias=False).  With
    grad=True it is the advection sum_i a_i d_i b."""
    n, dim = grid.n, grid.dim
    pad = _Padding(grid, dealias)
    ha, hb = _hermitian_half(a, dim), _hermitian_half(b, dim)
    fa = pad.to_fine(ha)
    if grad:  # one derivative at a time bounds the fine-grid memory
        prod = sum(fa[axis] * pad.to_fine(hb * _ik(hb.shape[-dim:], n, axis))
                   for axis in range(dim))
    else:
        prod = fa * pad.to_fine(hb)
    return _full_spectrum(pad.to_coarse(prod), dim)


def dealiased_product(f: Field, g: Field, dealias: bool = True) -> Field:
    """Pointwise product, alias-free by default.

    Scalars broadcast against vectors.  With dealias=False the product is
    formed directly on the coarse grid; that path, like the solver's
    SolverConfig(dealias=False), exists only as a negative control.
    """
    f.grid.require_same(g.grid)
    if f.ncomp != g.ncomp and 1 not in (f.ncomp, g.ncomp):
        raise GridError(f"cannot broadcast components {f.ncomp} and {g.ncomp}")
    out = _padded_product(spectral_data(f), spectral_data(g), f.grid, dealias)
    return Field(f.grid, out, SPECTRAL)


def advect(v: Field, f: Field, dealias: bool = True) -> Field:
    """(v . grad) f with the product formed on full fields, not per pair
    of components: each derivative is one batched fine-grid transform."""
    v.grid.require_same(f.grid)
    if v.ncomp != v.grid.dim:
        raise GridError("advecting velocity must have dim components")
    out = _padded_product(spectral_data(v), spectral_data(f), v.grid,
                          dealias, grad=True)
    return Field(v.grid, out, SPECTRAL)


def scale(f: Field, factor: float) -> Field:
    return Field(f.grid, f.data * factor, f.representation)


def add(f: Field, g: Field, alpha: float = 1.0) -> Field:
    """f + alpha*g in whichever representation f uses."""
    f.grid.require_same(g.grid)
    if f.representation != g.representation:
        g = to_spectral(g) if f.is_spectral else to_physical(g)
    return Field(f.grid, f.data + alpha * g.data, f.representation)
