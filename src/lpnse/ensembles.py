"""Random field generators for ensemble measurements and initial data.

Two flavours:

* white-noise generators (band_noise, divfree_noise) draw a full grid
  of Gaussians, take its half spectrum with one real transform, and
  mask, damp and (divfree_noise) Leray-project that one array in place.
  Cheap, but the field depends on the grid resolution.
* the lattice-mode generator (solenoidal_field) enumerates integer
  wavenumbers in a fixed deterministic order and draws one coefficient
  per mode, so the same (kmax, seed) produces the same continuum field
  on every grid that resolves it.  Random initial data and twin-run
  perturbations use it.
"""

import numpy as np

from .errors import ResolutionError
from .field import Field, _leray_project_spec, _paired, _rfftn_half
from .grid import Grid


def band_noise(grid: Grid, rng: np.random.Generator, kmin: float = 0.0,
               kmax: float = None, ncomp: int = 1, slope: float = 0.0) -> Field:
    """Gaussian white noise masked to the radial band kmin <= |k| <= kmax.

    kmax defaults to the dealiased band n/3.  slope > 0 damps amplitudes
    by (1+|k|)^-slope for smoother samples.
    """
    spec = _masked_noise(grid, rng, kmin, kmax, ncomp, slope, keep_nyquist=True)
    return Field(grid, spec)


def divfree_noise(grid: Grid, rng: np.random.Generator, kmin: float = 0.0,
                  kmax: float = None, slope: float = 0.0) -> Field:
    """Divergence-free band noise (Leray projection of vector noise).  The
    modes with some k_i = -n/2, which the projection would leave without
    conjugate partners, are zeroed as in the solver's state, so the field
    is real for every kmax; only kmax >= n/2 reaches them."""
    spec = _masked_noise(grid, rng, kmin, kmax, grid.dim, slope,
                         keep_nyquist=False)
    return Field(grid, _leray_project_spec(spec, grid))


def _masked_noise(grid: Grid, rng: np.random.Generator, kmin: float,
                  kmax: float, ncomp: int, slope: float,
                  keep_nyquist: bool) -> np.ndarray:
    """Half spectra of ncomp white-noise fields times the band mask (with
    the modes with some k_i = -n/2 unless keep_nyquist), then times the
    damping, both in place."""
    if kmax is None:
        kmax = grid.dealias_radius
    # the white noise is freed as soon as it is transformed
    spec = _rfftn_half(rng.standard_normal((ncomp,) + grid.shape), grid.dim,
                       grid.n // 2 + 1)
    k_mag = grid._half_k[1]
    mask = (k_mag >= kmin - 1e-12) & (k_mag <= kmax + 1e-12)
    if not keep_nyquist:
        mask &= _paired(grid)
    spec *= mask
    if slope:
        spec *= (1.0 + k_mag) ** (-slope)
    return spec


# --- resolution-independent lattice modes ----------------------------------

def _lattice_representatives(dim: int, kmax: float) -> np.ndarray:
    """Integer wavenumbers with 0 < |k| <= kmax as an (M, dim) array, one
    per conjugate pair (the representative has its first nonzero entry
    positive), sorted by (|k|^2, lexicographic)."""
    kint = int(np.floor(kmax))
    axis = np.arange(-kint, kint + 1)
    k = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"),
                 axis=-1).reshape(-1, dim)
    normsq = np.sum(k * k, axis=1)
    first = k[np.arange(len(k)), np.argmax(k != 0, axis=1)]
    keep = (normsq > 0) & (normsq <= kmax * kmax + 1e-9) & (first > 0)
    k, normsq = k[keep], normsq[keep]
    return k[np.lexsort(tuple(k.T[::-1]) + (normsq,))]


def solenoidal_field(grid: Grid, kmax: float, seed: int,
                     slope: float = 0.0) -> Field:
    """A real divergence-free field defined by lattice modes, independent
    of the grid that realizes it.

    Each representative mode, in the order of _lattice_representatives,
    gets a complex Gaussian coefficient per component (real parts, then
    imaginary parts), projected onto the plane orthogonal to k and
    optionally damped by (1+|k|)^-slope; its conjugate fills -k.  Raises
    if a mode exceeds the grid band.
    """
    dim, n = grid.dim, grid.n
    k = _lattice_representatives(dim, kmax)
    draw = np.random.default_rng(seed).standard_normal((len(k), 2, dim))
    coeff = draw[:, 0] + 1j * draw[:, 1]
    kv = k.astype(np.float64)
    kk = np.sum(kv * kv, axis=1)
    dot = np.matmul(kv[:, None, :], coeff[:, :, None])[:, :, 0]
    coeff = coeff - kv * dot / kk[:, None]
    if slope:
        # scalar pow per mode: numpy's array pow rounds differently
        damp = [(1.0 + r) ** (-slope) for r in np.sqrt(kk)]
        coeff = coeff * np.asarray(damp)[:, None]
    outside = np.any(np.abs(k) >= n // 2, axis=1)
    if outside.any():
        mode = tuple(int(c) for c in k[np.argmax(outside)])
        raise ResolutionError(f"mode {mode} not resolvable on n={n}")
    spec = np.zeros((dim,) + grid.half_shape, dtype=np.complex128)
    for sites, values in ((k % n, coeff.T), (-k % n, np.conj(coeff.T))):
        held = sites[:, -1] <= n // 2  # the sites on the half planes
        spec[(slice(None),) + tuple(sites[held].T)] = values[:, held]
    return Field(grid, spec)
