"""Random field generators for ensemble measurements and initial data.

Two flavours:

* white-noise generators (band_noise, divfree_noise) draw a full grid
  of Gaussians and mask its spectrum (to_spectral, a real transform).
  Cheap, but the field depends on the grid resolution.
* the lattice-mode generator (solenoidal_field) enumerates integer
  wavenumbers in a fixed deterministic order and draws one coefficient
  per mode, so the same (kmax, seed) produces the same continuum field
  on every grid that resolves it.  Random initial data and twin-run
  perturbations use it.
"""

import numpy as np

from .errors import ResolutionError
from .field import Field, PHYSICAL, SPECTRAL, _leray_project_spec, to_spectral
from .grid import Grid


def band_noise(grid: Grid, rng: np.random.Generator, kmin: float = 0.0,
               kmax: float = None, ncomp: int = 1, slope: float = 0.0) -> Field:
    """Gaussian white noise masked to the radial band kmin <= |k| <= kmax.

    kmax defaults to the dealiased band n/3.  slope > 0 damps amplitudes
    by (1+|k|)^-slope for smoother samples.
    """
    if kmax is None:
        kmax = grid.dealias_radius
    white = rng.standard_normal((ncomp,) + grid.shape)
    spec = to_spectral(Field(grid, white, PHYSICAL)).data
    mask = (grid.k_mag >= kmin - 1e-12) & (grid.k_mag <= kmax + 1e-12)
    shaped = spec * mask
    if slope:
        shaped = shaped * (1.0 + grid.k_mag) ** (-slope)
    return Field(grid, shaped, SPECTRAL)


def divfree_noise(grid: Grid, rng: np.random.Generator, kmin: float = 0.0,
                  kmax: float = None, slope: float = 0.0) -> Field:
    """Divergence-free band noise (Leray projection of vector noise)."""
    f = band_noise(grid, rng, kmin, kmax, ncomp=grid.dim, slope=slope)
    return Field(grid, _leray_project_spec(f.data, grid), SPECTRAL)


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
    spec = np.zeros((dim,) + grid.shape, dtype=np.complex128)
    spec[(slice(None),) + tuple((k % n).T)] = coeff.T
    spec[(slice(None),) + tuple((-k % n).T)] = np.conj(coeff.T)
    return Field(grid, spec, SPECTRAL)
