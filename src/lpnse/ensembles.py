"""Random field generators for ensemble measurements and initial data.

Two flavours:

* white-noise generators (band_noise, divfree_noise) draw a full grid
  of Gaussians and mask in frequency.  Cheap, but the field depends on
  the grid resolution.
* lattice-mode generators (divfree_from_modes et al.) enumerate integer
  wavenumbers in a fixed deterministic order and draw one coefficient
  per mode, so the same (kmax, seed) produces the same continuum field
  on every grid that resolves it.  Twin-run perturbations use these.
"""

import numpy as np

from .errors import ResolutionError
from .field import Field, SPECTRAL, _fftn, _leray_project_spec, from_spectral
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
    spec = _fftn(white, grid.dim)
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

def _lattice_representatives(dim: int, kmax: float) -> list:
    """Integer wavenumbers with 0 < |k| <= kmax, one per conjugate pair
    (the representative has its first nonzero entry positive), sorted by
    (|k|^2, lexicographic)."""
    kint = int(np.floor(kmax))
    axes = range(-kint, kint + 1)
    reps = []
    if dim == 2:
        candidates = ((a, b) for a in axes for b in axes)
    else:
        candidates = ((a, b, c) for a in axes for b in axes for c in axes)
    for k in candidates:
        normsq = sum(c * c for c in k)
        if normsq == 0 or normsq > kmax * kmax + 1e-9:
            continue
        first = next(c for c in k if c != 0)
        if first < 0:
            continue
        reps.append((normsq, k))
    reps.sort()
    return [k for _, k in reps]


def solenoidal_modes(dim: int, kmax: float, seed: int, slope: float = 0.0) -> list:
    """Deterministic list of (k, coeff) pairs defining a real
    divergence-free field, independent of any grid.

    Each representative mode gets a complex Gaussian coefficient per
    component, projected onto the plane orthogonal to k, optionally
    damped by (1+|k|)^-slope.
    """
    rng = np.random.default_rng(seed)
    modes = []
    for k in _lattice_representatives(dim, kmax):
        coeff = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        kv = np.asarray(k, dtype=np.float64)
        coeff = coeff - kv * (kv @ coeff) / (kv @ kv)
        if slope:
            coeff = coeff * (1.0 + np.linalg.norm(kv)) ** (-slope)
        modes.append((k, coeff))
    return modes


def field_from_modes(grid: Grid, modes: list) -> Field:
    """Place lattice-mode coefficients on a grid (conjugates filled in
    so the field is real).  Raises if a mode exceeds the grid band."""
    ncomp = len(modes[0][1]) if modes else grid.dim
    spec = np.zeros((ncomp,) + grid.shape, dtype=np.complex128)
    limit = grid.n // 2
    for k, coeff in modes:
        if any(abs(c) >= limit for c in k):
            raise ResolutionError(f"mode {k} not resolvable on n={grid.n}")
        pos = tuple(c % grid.n for c in k)
        neg = tuple(-c % grid.n for c in k)
        for comp in range(ncomp):
            spec[(comp,) + pos] = coeff[comp]
            spec[(comp,) + neg] = np.conj(coeff[comp])
    return from_spectral(grid, spec)


def solenoidal_field(grid: Grid, kmax: float, seed: int,
                     slope: float = 0.0) -> Field:
    """Grid realization of solenoidal_modes(dim, kmax, seed, slope)."""
    return field_from_modes(grid, solenoidal_modes(grid.dim, kmax, seed, slope))
