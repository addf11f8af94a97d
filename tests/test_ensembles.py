"""Lattice-mode generator: bit-identical to a per-mode loop reference."""

import numpy as np
import pytest

from lpnse import Grid
from lpnse.ensembles import solenoidal_field
from lpnse.errors import ResolutionError


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
