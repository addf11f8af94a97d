"""Random generators: the lattice-mode generator is bit-identical to a
per-mode loop reference, and the white-noise generators to the plain
full-spectrum expressions."""

import numpy as np
import pytest

from lpnse import Grid
from lpnse.ensembles import band_noise, divfree_noise, solenoidal_field
from lpnse.errors import ResolutionError
from lpnse.field import (_rfftn_half, divergence, l2_norm_spectral,
                         to_physical)


def _loop_reference(grid, kmax, seed, slope):
    """solenoidal_field written one mode at a time: the representatives
    with 0 < |k| <= kmax and first nonzero entry positive, sorted by
    (|k|^2, k); per mode a real then an imaginary Gaussian draw per
    component, projected orthogonal to k and damped by (1+|k|)^-slope."""
    kint = int(np.floor(kmax))
    axes = [range(-kint, kint + 1)] * grid.dim
    reps = []
    for k in np.ndindex(*(len(a) for a in axes)):
        k = tuple(i - kint for i in k)
        normsq = sum(c * c for c in k)
        if normsq == 0 or normsq > kmax * kmax + 1e-9:
            continue
        if next(c for c in k if c != 0) < 0:
            continue
        reps.append((normsq, k))
    rng = np.random.default_rng(seed)
    spec = np.zeros((grid.dim,) + grid.shape, dtype=np.complex128)
    for _, k in sorted(reps):
        coeff = rng.standard_normal(grid.dim) + 1j * rng.standard_normal(grid.dim)
        kv = np.asarray(k, dtype=np.float64)
        coeff = coeff - kv * (kv @ coeff) / (kv @ kv)
        if slope:
            coeff = coeff * (1.0 + np.linalg.norm(kv)) ** (-slope)
        pos = tuple(c % grid.n for c in k)
        neg = tuple(-c % grid.n for c in k)
        for comp in range(grid.dim):
            spec[(comp,) + pos] = coeff[comp]
            spec[(comp,) + neg] = np.conj(coeff[comp])
    return spec


@pytest.mark.parametrize("slope", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("dim,n,kmax", [(2, 32, 8.0), (2, 64, 64 / 3),
                                        (3, 16, 5.5), (3, 32, 32 / 3)])
def test_solenoidal_field_matches_loop_reference(dim, n, kmax, slope):
    grid = Grid(dim, n)
    for seed in (0, 3, 2024):
        got = solenoidal_field(grid, kmax, seed, slope).data
        want = _loop_reference(grid, kmax, seed, slope)
        np.testing.assert_array_equal(got, want)
        assert np.any(got != 0.0)


def test_solenoidal_field_empty_below_first_shell():
    grid = Grid(2, 16)
    assert not np.any(solenoidal_field(grid, 0.5, 1).data)


@pytest.mark.parametrize("dim,n,kmax,mode", [(2, 16, 8.0, r"\(0, 8\)"),
                                             (3, 8, 4.5, r"\(0, 0, 4\)")])
def test_mode_beyond_grid_band_raises(dim, n, kmax, mode):
    # the first mode in lattice order with some |k_i| >= n/2 is named
    with pytest.raises(ResolutionError,
                       match=f"mode {mode} not resolvable on n={n}"):
        solenoidal_field(Grid(dim, n), kmax, 0)


# --- white noise --------------------------------------------------------------

def _full_reference(half, dim):
    """The full layout of half spectra by concatenation, each mirror made
    with a flip and a roll."""
    n = half.shape[-2]
    axes = tuple(range(half.ndim - dim, half.ndim - 1))
    mirror = np.roll(np.flip(half[..., n // 2 - 1:0:-1], axes), 1, axes)
    return np.concatenate([half, np.conj(mirror)], axis=-1)


def _noise_reference(grid, rng, kmin, kmax, ncomp, slope):
    """band_noise as new arrays: the full spectrum of the white noise,
    then a masked copy, then a damped copy."""
    white = rng.standard_normal((ncomp,) + grid.shape)
    spec = _full_reference(_rfftn_half(white, grid.dim, grid.n // 2 + 1),
                           grid.dim)
    shaped = spec * ((grid.k_mag >= kmin - 1e-12)
                     & (grid.k_mag <= kmax + 1e-12))
    if slope:
        shaped = shaped * (1.0 + grid.k_mag) ** (-slope)
    return shaped


def _leray_reference(spec, grid):
    """The Leray projection f_i - k_i (k.f)/|k|^2 into a new array."""
    kdot = np.zeros(spec.shape[1:], dtype=np.complex128)
    for axis in range(grid.dim):
        kdot += grid.k_components[axis] * spec[axis]
    with np.errstate(invalid="ignore", divide="ignore"):
        kdot = np.where(grid.k_sq > 0, kdot / grid.k_sq, 0.0)
    out = np.empty_like(spec)
    for axis in range(grid.dim):
        out[axis] = spec[axis] - grid.k_components[axis] * kdot
    return out


@pytest.mark.parametrize("slope", [0.0, 2.0])
@pytest.mark.parametrize("kmin,kmax", [(0.0, None), (1.5, 0.375)])
@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_noise_matches_full_spectrum_reference_bit_for_bit(dim, n, kmin, kmax,
                                                           slope):
    # below kmax = n/2 the generators mask and project the half spectrum
    # in place, with the reference's operations in its order: every byte
    # of the planes 0 <= k_last <= n/2 is the same, the signs of zeros
    # included.  The full layout mirrors the masked planes: the same
    # values, but a masked zero's conjugate need not carry the sign the
    # reference's mask of the conjugate gives it
    grid = Grid(dim, n)
    kmax = grid.dealias_radius if kmax is None else kmax * n
    planes = slice(0, n // 2 + 1)
    for seed in (0, 7):
        got = band_noise(grid, np.random.default_rng(seed), kmin, kmax, 2,
                         slope)
        want = _noise_reference(grid, np.random.default_rng(seed), kmin,
                                kmax, 2, slope)
        assert got.half.tobytes() == want[..., planes].tobytes()
        assert np.array_equal(got.data, want)
        got = divfree_noise(grid, np.random.default_rng(seed), kmin, kmax,
                            slope)
        want = _leray_reference(_noise_reference(
            grid, np.random.default_rng(seed), kmin, kmax, dim, slope), grid)
        assert got.half.tobytes() == want[..., planes].tobytes()
        assert np.array_equal(got.data, want)


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_divfree_noise_is_real_for_every_kmax(dim, n):
    # kmax = n reaches the modes with some k_i = -n/2, which the Leray
    # projection leaves without conjugate partners; they are zeroed, so
    # the field has a real physical form and stays divergence-free
    grid = Grid(dim, n)
    u = divfree_noise(grid, np.random.default_rng(3), kmax=float(n))
    nyquist = sum(k == -(n // 2) for k in grid.k_components) > 0
    assert not np.any(u.data[:, nyquist])
    assert np.any(u.data[:, ~nyquist] != 0.0)
    to_physical(u)  # raises GridError on a non-Hermitian spectrum
    assert l2_norm_spectral(divergence(u)) <= 1e-13 * l2_norm_spectral(u)
